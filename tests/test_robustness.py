"""Failure injection: the robustness mechanisms must actually fire."""

import numpy as np
import pytest

from repro import LaplacianSolver, practical_options
from repro.core.richardson import preconditioned_richardson
from repro.errors import ConvergenceError
from repro.graphs import generators as G
from repro.graphs.laplacian import apply_laplacian, laplacian
from repro.linalg.ops import relative_lnorm_error
from repro.linalg.pinv import dense_laplacian_pinv, exact_solution


class TestRichardsonDivergenceGuard:
    def test_guard_trips_on_bad_preconditioner(self):
        g = G.grid2d(6, 6)
        P = dense_laplacian_pinv(laplacian(g).toarray())
        bad = lambda v: 25.0 * (P @ v)  # noqa: E731  B ≈_{ln 25} L⁺ ≫ δ=1
        b = np.random.default_rng(0).standard_normal(g.n)
        b -= b.mean()
        with pytest.raises(ConvergenceError, match="diverged"):
            preconditioned_richardson(
                lambda v: apply_laplacian(g, v), bad, b,
                delta=1.0, eps=1e-6)

    def test_guard_quiet_on_good_preconditioner(self):
        g = G.grid2d(6, 6)
        P = dense_laplacian_pinv(laplacian(g).toarray())
        b = np.random.default_rng(1).standard_normal(g.n)
        b -= b.mean()
        res = preconditioned_richardson(
            lambda v: apply_laplacian(g, v), lambda v: P @ v, b,
            delta=1.0, eps=1e-8)
        assert np.isfinite(res.x).all()

    def test_guard_can_be_disabled(self):
        g = G.grid2d(5, 5)
        P = dense_laplacian_pinv(laplacian(g).toarray())
        bad = lambda v: 25.0 * (P @ v)  # noqa: E731
        b = np.random.default_rng(2).standard_normal(g.n)
        b -= b.mean()
        res = preconditioned_richardson(
            lambda v: apply_laplacian(g, v), bad, b, delta=1.0,
            eps=1e-2, divergence_guard=False)
        assert res.iterations >= 1  # ran to completion, however badly


class TestSolverFallback:
    def test_pcg_fallback_still_accurate(self, monkeypatch):
        g = G.grid2d(10, 10)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        # Sabotage the preconditioner scale so Richardson (δ=1) diverges
        # while PCG (scale-invariant) still converges.
        true_apply = solver.preconditioner.apply
        monkeypatch.setattr(solver.preconditioner, "apply",
                            lambda b: 25.0 * true_apply(b))
        b = np.random.default_rng(3).standard_normal(g.n)
        b -= b.mean()
        rep = solver.solve_report(b, eps=1e-8, method="richardson")
        assert rep.method == "richardson->pcg"
        err = relative_lnorm_error(laplacian(g), rep.x,
                                   exact_solution(g, b))
        assert err <= 1e-6


class TestConnectivityCertificate:
    def test_bridge_graphs_survive_small_alpha(self):
        # Without the Fact 2.4 resampling, barbells at tiny α lose
        # their bridge with constant probability per level and the
        # solve silently fails (this was a real regression).
        g = G.barbell(60, 3)
        b = np.random.default_rng(4).standard_normal(g.n)
        b -= b.mean()
        for seed in range(3):
            solver = LaplacianSolver(g, options=practical_options(),
                                     seed=seed)
            x = solver.solve(b, eps=1e-6)
            err = relative_lnorm_error(laplacian(g), x,
                                       exact_solution(g, b))
            assert err <= 1e-6

    def test_chain_levels_stay_connected(self):
        from repro.graphs.validation import connected_components

        g = G.barbell(60, 3)
        solver = LaplacianSolver(g, options=practical_options(), seed=1)
        chain = solver.chain
        active = np.arange(g.n)
        for k, level in enumerate(chain.levels):
            sub, _ = chain.graphs[k + 1].induced_subgraph(level.C)
            assert int(connected_components(sub).max()) == 0


class TestWalkCap:
    def test_cap_produces_diagnostic(self):
        from repro.errors import SamplingError
        from repro.sampling.walks import WalkEngine

        g = G.path(300)
        is_term = np.zeros(g.n, dtype=bool)
        is_term[0] = True
        engine = WalkEngine(g, is_term)
        with pytest.raises(SamplingError, match="5-DD"):
            engine.run(np.array([g.n - 1]), seed=0, max_steps=5)
