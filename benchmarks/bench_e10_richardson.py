"""E10 — Theorem 3.8: Richardson needs ⌈e^{2δ} log(1/ε)⌉ iterations.

Sweeps ε and checks (a) the iteration-count formula, (b) that the
measured error after the prescribed iterations is within target, and
(c) the per-iteration geometric contraction implied by δ.
"""

import math

import numpy as np
import pytest

from conftest import record, workload

from repro.core.richardson import (
    preconditioned_richardson,
    richardson_iterations,
)
from repro.graphs.laplacian import apply_laplacian, laplacian
from repro.linalg.ops import energy_norm, relative_lnorm_error
from repro.linalg.pinv import dense_laplacian_pinv, exact_solution


def _instance(delta: float):
    g = workload("grid", 300, seed=10)
    L = laplacian(g)
    P = dense_laplacian_pinv(L.toarray())
    scale = math.exp(delta)  # B = e^δ L⁺  =>  B ≈_δ L⁺ exactly
    b = np.random.default_rng(0).standard_normal(g.n)
    b -= b.mean()
    return g, L, (lambda v: scale * (P @ v)), b, exact_solution(g, b)


@pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-9])
def test_e10_iteration_budget_suffices(benchmark, eps):
    delta = 1.0
    g, L, B, b, xstar = _instance(delta)

    # freeze=False: the Theorem 3.8 reference runs the full a-priori
    # budget instead of stopping on the certificate.
    res = benchmark(lambda: preconditioned_richardson(
        lambda v: apply_laplacian(g, v), B, b, delta=delta, eps=eps,
        freeze=False))
    err = relative_lnorm_error(L, res.x, xstar)
    record(benchmark, eps=eps, iterations=res.iterations,
           formula=richardson_iterations(delta, eps),
           measured_error=float(err))
    assert res.iterations == richardson_iterations(delta, eps)
    assert err <= eps


def test_e10_contraction_rate(benchmark):
    """Per-iteration contraction ≈ (e^δ − e^{−δ})/(e^δ + e^{−δ})."""
    delta = 1.0
    g, L, B, b, xstar = _instance(delta)

    def run():
        return preconditioned_richardson(
            lambda v: apply_laplacian(g, v), B, b, delta=delta,
            eps=1e-12,
            track_errors=lambda x: energy_norm(L, x - xstar))

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    hist = np.array(res.error_history)
    hist = hist[hist > 1e-12]
    rate = float((hist[-1] / hist[0]) ** (1.0 / max(len(hist) - 1, 1)))
    bound = math.tanh(delta)  # worst case over the δ-ball
    record(benchmark, measured_rate=rate, theoretical_bound=bound)
    assert rate <= bound + 0.02
