"""E5 — Theorem 3.9-(4): d ≤ log_{40/39} n = O(log n) levels.

Sweep n geometrically; the measured level count must stay below the
paper's explicit bound and grow ~logarithmically.  Recursion stops once
``min_vertices`` vertices remain, so the rounds cover a shrink from n
to ``min_vertices``: the ratio ``d / log(n / min_vertices)`` must stay
within a constant band.
"""

import numpy as np
import pytest

from conftest import record, workload

from repro import LaplacianSolver, default_options

SIZES = [150, 300, 600, 1200, 2400]


def _levels(n_target: int) -> tuple[int, int]:
    g = workload("grid", n_target, seed=5)
    solver = LaplacianSolver(g, options=default_options(), seed=0)
    return g.n, solver.chain.d


def test_e05_levels_logarithmic(benchmark):
    rows = [_levels(n) for n in SIZES[:-1]]

    def final():
        return _levels(SIZES[-1])

    rows.append(benchmark.pedantic(final, rounds=1, iterations=1))
    ns = np.array([r[0] for r in rows], dtype=float)
    ds = np.array([r[1] for r in rows], dtype=float)
    bound = np.log(ns) / np.log(40.0 / 39.0)
    ratio = ds / np.log(ns / default_options().min_vertices)
    record(benchmark, sizes=ns.tolist(), levels=ds.tolist(),
           paper_bound=bound.tolist(),
           d_over_log_n_over_min_vertices=ratio.tolist())
    assert np.all(ds <= bound + 10)
    # d / log(n / min_vertices) bounded within a modest band
    # (logarithmic growth).
    assert ratio.max() <= 3.0 * ratio.min()
