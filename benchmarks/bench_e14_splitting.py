"""E14 — Lemmas 3.2 vs 3.3: multigraph sizes O(m/α) vs O(m + nKα⁻¹).

The paper's Theorem 1.2 claims leverage-score splitting wins on dense
graphs.  We measure multi-edge counts of both schemes on a dense and a
sparse workload and locate the claimed crossover, plus overestimate
quality (τ̂ ≥ τ) against the dense oracle.
"""

import numpy as np
import pytest

from conftest import record, workload

from repro.config import practical_options
from repro.core.boundedness import leverage_scores, naive_split
from repro.core.lev_est import leverage_overestimates, leverage_split
from repro.graphs import generators as G


def test_e14_dense_graph_crossover(benchmark):
    g = G.complete(50)  # m = 1225 >> n
    alpha = 1.0 / 16.0
    K = 3

    lev = benchmark(lambda: leverage_split(
        g, alpha, K=K, seed=0, options=practical_options()))
    naive = naive_split(g, alpha)
    # Theorem 1.2 counts multi-edges, so compare logical counts: ``m``
    # counts stored groups, and both schemes store one group per edge.
    record(benchmark, n=g.n, m=g.m,
           naive_multiedges=naive.m_logical,
           leverage_multiedges=lev.m_logical,
           savings=naive.m_logical / lev.m_logical)
    assert lev.m_logical < naive.m_logical  # wins on dense inputs


def test_e14_sparse_graph_no_benefit(benchmark):
    # On sparse graphs m ≈ n: most edges have high leverage, so both
    # schemes cost about the same — the paper only claims gains for
    # dense graphs.
    g = workload("grid", 400, seed=14)
    alpha = 1.0 / 16.0

    lev = benchmark.pedantic(
        lambda: leverage_split(g, alpha, K=3, seed=1,
                               options=practical_options()),
        rounds=1, iterations=1)
    naive = naive_split(g, alpha)
    record(benchmark, naive_multiedges=naive.m_logical,
           leverage_multiedges=lev.m_logical)
    # Never (meaningfully) worse, in logical multi-edges.
    assert lev.m_logical <= naive.m_logical * 1.01


def test_e14_overestimate_quality(benchmark):
    g = G.complete(36)
    tau = leverage_scores(g)

    tau_hat = benchmark(lambda: leverage_overestimates(
        g, K=3, seed=2, options=practical_options()))
    frac_over = float(np.mean(tau_hat >= tau * 0.999))
    record(benchmark, overestimate_fraction=frac_over,
           sum_tau=float(tau.sum()), sum_tau_hat=float(tau_hat.sum()),
           nK=g.n * 3)
    assert frac_over > 0.97
    assert tau_hat.sum() <= 10.0 * g.n * 3  # O(nK) sum bound
