"""E5 — Theorem 3.9-(4): d ≤ log_{40/39} n = O(log n) levels.

Sweep n geometrically and check, for every size:

* the paper's explicit bound, ``d ≤ log_{40/39} n + 10``;
* Lemma 3.4 on every level, ``|F_k| > |active_k| / 40`` — the per-level
  shrink the bound rests on;
* Theorem 3.9-(4)'s rate between successive sizes,
  ``d_k − d_{k−1} ≤ log_{40/39}(n_k / n_{k−1}) + 1``.

An earlier model held ``d / log(n / min_vertices)`` within a 3× band,
which assumes every level removes the same fraction of the active set.
Extended levels (DESIGN.md §16) remove a large fraction while the graph
is sparse and about Algorithm 3's 1/20 once Schur complements densify,
so that ratio is not constant in n.
"""

import numpy as np

from conftest import record, workload

from repro import LaplacianSolver, default_options

SIZES = [150, 300, 600, 1200, 2400]
LOG_SHRINK = np.log(40.0 / 39.0)


def _levels(n_target: int) -> tuple[int, int]:
    g = workload("grid", n_target, seed=5)
    chain = LaplacianSolver(g, options=default_options(), seed=0).chain
    # Lemma 3.4 on every level.
    for level, n_k in zip(chain.levels, chain.active_counts):
        assert level.F.size > n_k / 40, (g.n, level.F.size, n_k)
    return g.n, chain.d


def test_e05_levels_logarithmic(benchmark):
    rows = [_levels(n) for n in SIZES[:-1]]

    def final():
        return _levels(SIZES[-1])

    rows.append(benchmark.pedantic(final, rounds=1, iterations=1))
    ns = np.array([r[0] for r in rows], dtype=float)
    ds = np.array([r[1] for r in rows], dtype=float)
    bound = np.log(ns) / LOG_SHRINK
    rate = np.log(ns[1:] / ns[:-1]) / LOG_SHRINK + 1.0
    record(benchmark, sizes=ns.tolist(), levels=ds.tolist(),
           paper_bound=bound.tolist(), level_steps=np.diff(ds).tolist(),
           rate_bound=rate.tolist())
    assert np.all(ds <= bound + 10)
    # Theorem 3.9-(4)'s rate: doubling n adds at most ~27 levels.
    assert np.all(np.diff(ds) <= rate)
