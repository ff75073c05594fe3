"""A1 — ablations over the design choices DESIGN.md calls out.

Not paper claims per se, but the knobs the paper fixes by fiat:

* Jacobi ε (Algorithm 2 uses 1/(2d)) — operator quality vs apply cost;
* the 5-DD threshold (1/5) — walk length vs elimination rate tradeoff;
* α-scale — multigraph size vs chain approximation quality;
* outer loop — Richardson (paper) vs PCG vs Chebyshev on the same W.
"""

import numpy as np
import pytest

from conftest import record, workload

from repro.config import SolverOptions
from repro.core.apply_cholesky import ApplyCholeskyOperator
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split
from repro.core.dd_subset import five_dd_subset
from repro.core.terminal_walks import terminal_walks
from repro.graphs.laplacian import laplacian
from repro.linalg.loewner import operator_approximation_factor


def test_a01_jacobi_eps_tradeoff(benchmark):
    """Smaller Jacobi ε: better W, more terms per apply."""
    g = workload("grid", 90, seed=21)
    H = naive_split(g, 0.05)
    quality = {}
    terms = {}
    for eps in (0.5, 0.125, 0.02):
        chain = block_cholesky(
            H, SolverOptions(min_vertices=20, jacobi_eps=eps), seed=0)
        W = ApplyCholeskyOperator(chain)
        quality[eps] = operator_approximation_factor(W.apply,
                                                     laplacian(g))
        terms[eps] = chain.levels[0].jacobi.l if chain.levels else 0

    chain = block_cholesky(
        H, SolverOptions(min_vertices=20, jacobi_eps=0.02), seed=0)
    W = ApplyCholeskyOperator(chain)
    b = np.zeros(g.n)
    b[0], b[-1] = 1, -1
    benchmark(lambda: W.apply(b))
    record(benchmark,
           quality_by_eps={str(k): float(v) for k, v in quality.items()},
           terms_by_eps={str(k): v for k, v in terms.items()})
    # monotone: more terms, not worse quality
    assert terms[0.02] > terms[0.5]
    assert quality[0.02] <= quality[0.5] + 0.15


def test_a01_dd_threshold_tradeoff(benchmark):
    """Looser threshold (larger fraction of internal degree allowed):
    bigger F per round but longer walks."""
    g = naive_split(workload("grid", 700, seed=21), 0.25)
    results = {}
    for threshold in (0.1, 0.2, 0.4):
        opts = SolverOptions(dd_threshold=threshold)
        F = five_dd_subset(g, seed=1, options=opts)
        C = np.setdiff1d(np.arange(g.n), F)
        _, stats = terminal_walks(g, C, seed=2, return_stats=True)
        results[threshold] = (F.size, stats.mean_walk_length)

    benchmark(lambda: five_dd_subset(
        g, seed=1, options=SolverOptions(dd_threshold=0.2)))
    record(benchmark, sizes={str(k): v[0] for k, v in results.items()},
           walk_lengths={str(k): v[1] for k, v in results.items()})
    # Looser threshold => weakly larger subsets and longer walks.
    assert results[0.4][0] >= results[0.1][0]
    assert results[0.4][1] >= results[0.1][1] - 0.05


def test_a01_alpha_scale_tradeoff(benchmark):
    """α-scale sweep: multigraph size grows, operator quality improves."""
    g = workload("grid", 80, seed=21)
    rows = {}
    for scale in (0.02, 0.1, 0.4):
        opts = SolverOptions(alpha_scale=scale, min_vertices=20)
        H = naive_split(g, opts.alpha(g.n))
        chain = block_cholesky(H, opts, seed=3)
        W = ApplyCholeskyOperator(chain)
        # Logical multi-edges: the implicit split stores g.m groups
        # whatever the scale.
        rows[scale] = (H.m_logical,
                       operator_approximation_factor(W.apply,
                                                     laplacian(g)))

    benchmark.pedantic(
        lambda: block_cholesky(
            naive_split(g, SolverOptions(alpha_scale=0.4).alpha(g.n)),
            SolverOptions(alpha_scale=0.4, min_vertices=20), seed=3),
        rounds=1, iterations=1)
    record(benchmark,
           multiedges={str(k): v[0] for k, v in rows.items()},
           quality={str(k): float(v[1]) for k, v in rows.items()})
    assert rows[0.4][0] > rows[0.02][0]          # more edges ...
    assert rows[0.4][1] <= rows[0.02][1] + 1e-9  # ... not worse quality


def test_a01_outer_loop_comparison(benchmark, balanced_rhs):
    """Richardson vs PCG vs Chebyshev around the same preconditioner."""
    from repro import LaplacianSolver, default_options
    from repro.linalg.chebyshev import chebyshev_iteration
    from repro.linalg.ops import relative_lnorm_error
    from repro.linalg.pinv import exact_solution

    g = workload("grid", 400, seed=21)
    b = balanced_rhs(g)
    solver = LaplacianSolver(g, options=default_options(), seed=0)
    xstar = exact_solution(g, b)
    L = laplacian(g)

    rich = solver.solve_report(b, eps=1e-8, method="richardson")
    pcg = solver.solve_report(b, eps=1e-8, method="pcg")

    def cheb():
        return chebyshev_iteration(
            solver.apply_L, solver.preconditioner.apply, b,
            lam_min=np.exp(-1.0), lam_max=np.exp(1.0), iterations=40)

    x_cheb = benchmark(cheb)
    errs = {
        "richardson": relative_lnorm_error(L, rich.x, xstar),
        "pcg": relative_lnorm_error(L, pcg.x, xstar),
        "chebyshev": relative_lnorm_error(L, x_cheb, xstar),
    }
    record(benchmark,
           iters={"richardson": rich.iterations, "pcg": pcg.iterations,
                  "chebyshev": 40},
           errors={k: float(v) for k, v in errs.items()})
    assert all(v <= 1e-4 for v in errs.values())
    assert pcg.iterations <= rich.iterations
