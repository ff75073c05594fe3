"""E1 — Theorem 1.1 accuracy: ‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L.

Paper claim: the solver returns an ε-approximate solution (whp) for any
requested 0 < ε < 1/2.  We sweep workloads × ε and assert the measured
relative L-norm error is below target on every cell, for single
solves and for blocked ``solve_many`` calls with the solver's default
method; the benchmark timing is the per-solve latency given a
prebuilt factorization.
"""

import numpy as np
import pytest

from conftest import record, workload

from repro import LaplacianSolver, practical_options
from repro.core.solver import DEFAULT_METHOD
from repro.graphs.laplacian import laplacian
from repro.linalg.ops import relative_lnorm_error
from repro.linalg.pinv import exact_solution


@pytest.mark.parametrize("name", ["grid", "expander", "er",
                                  "weighted_grid"])
@pytest.mark.parametrize("eps", [1e-1, 1e-4, 1e-8])
def test_e01_accuracy(benchmark, name, eps, balanced_rhs):
    g = workload(name, 400, seed=1)
    b = balanced_rhs(g)
    solver = LaplacianSolver(g, options=practical_options(), seed=0)
    xstar = exact_solution(g, b)
    L = laplacian(g)

    x = benchmark(lambda: solver.solve(b, eps=eps))
    err = relative_lnorm_error(L, x, xstar)
    record(benchmark, workload=name, n=g.n, m=g.m, eps=eps,
           measured_error=err,
           iterations=solver.solve_report(b, eps=eps).iterations)
    assert err <= eps


@pytest.mark.parametrize("name", ["grid", "expander", "er",
                                  "weighted_grid"])
@pytest.mark.parametrize("eps", [1e-1, 1e-4, 1e-8])
def test_e01_solve_many_default_method(benchmark, name, eps):
    """Theorem 1.1 through what users run: a blocked ``solve_many``
    with the solver's default outer loop, every column within ε."""
    g = workload(name, 400, seed=1)
    B = np.random.default_rng(2).standard_normal((g.n, 4))
    B -= B.mean(axis=0)
    solver = LaplacianSolver(g, options=practical_options(), seed=0)
    L = laplacian(g)

    rep = benchmark(lambda: solver.solve_many_report(B, eps=eps))
    errs = [relative_lnorm_error(L, rep.x[:, j],
                                 exact_solution(g, B[:, j]))
            for j in range(B.shape[1])]
    record(benchmark, workload=name, n=g.n, m=g.m, eps=eps,
           method=rep.method, measured_error=max(errs),
           iterations=[int(i) for i in rep.per_column_iterations])
    assert rep.method == DEFAULT_METHOD
    assert max(errs) <= eps


def test_e01_error_vs_iterations_decay(benchmark, balanced_rhs):
    """log(1/ε) iterations suffice: error decays geometrically in the
    Richardson iteration count."""
    from repro.core.richardson import preconditioned_richardson
    from repro.linalg.ops import energy_norm

    g = workload("grid", 400)
    b = balanced_rhs(g)
    solver = LaplacianSolver(g, options=practical_options(), seed=0)
    xstar = exact_solution(g, b)
    L = laplacian(g)

    def run():
        res = preconditioned_richardson(
            solver.apply_L, solver.preconditioner.apply, b,
            delta=1.0, eps=1e-10,
            track_errors=lambda x: energy_norm(L, x - xstar))
        return res.error_history

    history = benchmark(run)
    hist = np.array(history)
    hist = hist[hist > 1e-13]
    # Fit the geometric rate; must be < 1 (Theorem 3.8's contraction).
    rate = (hist[-1] / hist[0]) ** (1.0 / max(len(hist) - 1, 1))
    record(benchmark, contraction_rate=float(rate),
           iterations_tracked=len(hist))
    assert rate < 0.9
