"""Certified stopping for preconditioned Richardson and PCG (DESIGN.md §15).

A column stops once ``rᵀWr ≤ e^{-2δ} ε² bᵀWb``; when ``κ(WL) ≤
e^{2δ}`` (implied by ``W ≈_δ L⁺``) that proves ``‖x − L⁺b‖_L ≤ ε
‖L⁺b‖_L``.  Columns that reach their a-priori budget uncertified, or
whose PCG Ritz values disprove the condition, are escalated by the
solver.
"""

import math

import numpy as np
import pytest

from repro import LaplacianSolver, practical_options
from repro.core.richardson import (
    _ritz_spread,
    preconditioned_richardson,
    richardson_iterations,
)
from repro.core.solver import DEFAULT_METHOD, METHODS
from repro.errors import ConvergenceError
from repro.graphs import generators as G
from repro.graphs.laplacian import apply_laplacian, laplacian
from repro.linalg.ops import relative_lnorm_error
from repro.linalg.pinv import dense_laplacian_pinv, exact_solution

FAMILIES = {
    "grid": lambda: G.grid2d(18, 18),
    "weighted_grid": lambda: G.with_random_weights(
        G.grid2d(18, 18), 1e-3, 1e3, seed=0, log_uniform=True),
    "random_regular": lambda: G.random_regular(300, 4, seed=1),
    "preferential_attachment":
        lambda: G.preferential_attachment(300, 3, seed=2),
    "watts_strogatz": lambda: G.watts_strogatz(300, 6, 0.1, seed=3),
    "barbell": lambda: G.barbell(60, 40),
}


def _both_methods(cases, default):
    """Parametrize ``cases`` (tuples) over both methods; ``default``'s
    cases keep their bare ids, the other method's are prefixed."""
    return [pytest.param(*case, method,
                         id="-".join(([] if method == default
                                      else [method]) + [str(c) for c
                                                        in case]))
            for method in METHODS for case in cases]


def _kappa(L, apply_W):
    """``κ(WL)`` on ``1⊥`` from dense operators."""
    W = apply_W(np.eye(L.shape[0]))
    lam = np.sort(np.linalg.eigvals(W @ L).real)
    lam = lam[lam > 1e-9 * lam[-1]]
    return lam[-1] / lam[0]


def _lnorm_errors(L, X, Xstar):
    E = X - Xstar
    return np.sqrt(np.einsum("ij,ij->j", E, L @ E)
                   / np.einsum("ij,ij->j", Xstar, L @ Xstar))


class TestSoundness:
    @pytest.mark.parametrize(
        "family,method",
        _both_methods([(f,) for f in sorted(FAMILIES)], "richardson"))
    def test_certified_columns_meet_eps(self, family, method):
        g = FAMILIES[family]()
        L = laplacian(g).toarray()
        P = dense_laplacian_pinv(L)
        B = np.random.default_rng(1).standard_normal((g.n, 4))
        B -= B.mean(axis=0)
        Xstar = P @ B
        certified_any = False
        for seed in range(3):
            solver = LaplacianSolver(g, options=practical_options(),
                                     seed=seed)
            for eps in (1e-2, 1e-4, 1e-6):
                try:
                    res = preconditioned_richardson(
                        solver.apply_L, solver.preconditioner.apply, B,
                        delta=solver.options.richardson_delta, eps=eps,
                        update=method)
                except ConvergenceError:
                    # A chain worse than δ diverges: nothing certified
                    # (the solver falls back to PCG for the block).
                    continue
                certified = np.ones(B.shape[1], dtype=bool)
                if res.uncertified_columns is not None:
                    certified[res.uncertified_columns] = False
                assert res.broken_columns is None
                if method == "pcg" and res.uncertified_columns is not None:
                    # PCG certifies within budget whenever the chain
                    # allows it: the Ritz check only fires on a chain
                    # whose κ(WL) really exceeds e^{2δ}.
                    assert _kappa(L, solver.preconditioner.apply) > \
                        math.exp(2.0 * solver.options.richardson_delta), \
                        (seed, eps)
                errs = _lnorm_errors(L, res.x, Xstar)
                assert np.all(errs[certified] <= eps), (seed, eps, errs)
                certified_any |= bool(certified.any())
        assert certified_any

    def test_scaled_exact_preconditioner(self):
        # W = e^δ L⁺ satisfies W ≈_δ L⁺ exactly: every column certifies
        # within its budget and meets its own ε.
        g = G.grid2d(8, 8)
        L = laplacian(g).toarray()
        P = dense_laplacian_pinv(L)
        B = np.random.default_rng(2).standard_normal((g.n, 3))
        eps = np.array([1e-2, 1e-5, 1e-9])
        res = preconditioned_richardson(
            lambda X: apply_laplacian(g, X), lambda X: np.e * (P @ X), B,
            delta=1.0, eps=eps)
        assert res.uncertified_columns is None
        errs = _lnorm_errors(L, res.x, P @ B)
        assert np.all(errs <= eps)
        budget = [richardson_iterations(1.0, e) for e in eps]
        assert np.all(res.per_column_iterations <= budget)
        assert np.all(np.diff(res.per_column_iterations) > 0)


class TestOnePath:
    @pytest.fixture(scope="class")
    def solver(self):
        return LaplacianSolver(G.grid2d(16, 16),
                               options=practical_options(), seed=0)

    def test_solve_equals_one_column_block(self, solver):
        b = np.random.default_rng(3).standard_normal(solver.n)
        rep = solver.solve_report(b)
        many = solver.solve_many_report(b[:, None])
        assert rep.iterations == many.per_column_iterations[0]
        np.testing.assert_array_equal(rep.x, many.x[:, 0])

    def test_solve_stops_before_the_budget(self, solver):
        b = np.random.default_rng(4).standard_normal(solver.n)
        for method in METHODS:
            rep = solver.solve_report(b, eps=1e-6, method=method)
            assert rep.method == method
            assert rep.iterations < richardson_iterations(
                solver.options.richardson_delta, 1e-6)

    def test_pcg_beats_richardson_per_column(self, solver):
        # PCG's iterate t + 1 is L-optimal over a Krylov space holding
        # Richardson's iterate t; on a δ = 1 chain it certifies sooner.
        B = np.random.default_rng(9).standard_normal((solver.n, 4))
        rich = solver.solve_many_report(B, eps=1e-6, method="richardson")
        pcg = solver.solve_many_report(B, eps=1e-6, method="pcg")
        assert pcg.method == "pcg" and rich.method == "richardson"
        assert np.all(pcg.per_column_iterations
                      < rich.per_column_iterations)

    def test_scalar_track_errors_for_1d(self, solver):
        b = np.random.default_rng(5).standard_normal(solver.n)
        b -= b.mean()
        res = preconditioned_richardson(
            solver.apply_L, solver.preconditioner.apply, b, eps=1e-4,
            track_errors=lambda x: float(np.linalg.norm(x)))
        assert res.x.shape == (solver.n,)
        assert all(isinstance(h, float) for h in res.error_history)
        # x^(0), ..., x^(iterations): one sample per iterate.
        assert len(res.error_history) == res.iterations + 1

    def test_freeze_false_runs_the_full_budget(self, solver):
        B = np.random.default_rng(6).standard_normal((solver.n, 2))
        res = preconditioned_richardson(
            solver.apply_L, solver.preconditioner.apply, B,
            eps=np.array([1e-2, 1e-6]), freeze=False)
        assert list(res.per_column_iterations) == [
            richardson_iterations(1.0, 1e-2),
            richardson_iterations(1.0, 1e-6)]
        assert res.uncertified_columns is None

    def test_budget_without_certificate_is_reported(self, solver):
        B = np.random.default_rng(7).standard_normal((solver.n, 3))
        res = preconditioned_richardson(
            solver.apply_L, solver.preconditioner.apply, B, eps=1e-9,
            iterations=2, col_ids=np.array([5, 6, 7]))
        assert list(res.uncertified_columns) == [5, 6, 7]
        assert res.broken_columns is None
        assert list(res.per_column_iterations) == [2, 2, 2]

    def test_pcg_budget_is_one_step_longer(self, solver):
        # PCG's first step only rescales Richardson's x^(0) = W b, so
        # its cap is the budget plus one (same count of W applies).
        B = np.random.default_rng(7).standard_normal((solver.n, 3))
        res = preconditioned_richardson(
            solver.apply_L, solver.preconditioner.apply, B, eps=1e-9,
            iterations=2, col_ids=np.array([5, 6, 7]), update="pcg")
        assert list(res.uncertified_columns) == [5, 6, 7]
        assert res.broken_columns is None
        assert list(res.per_column_iterations) == [3, 3, 3]

    def test_unknown_update_rule(self, solver):
        with pytest.raises(ValueError):
            preconditioned_richardson(
                solver.apply_L, solver.preconditioner.apply,
                np.zeros(solver.n), update="chebyshev")


class TestWeakChainEscalation:
    """A chain worse than δ = 1 must not return answers outside ε."""

    @pytest.fixture(scope="class")
    def weak(self):
        g = G.with_random_weights(G.grid2d(32, 32), 1e-3, 1e3, seed=0,
                                  log_uniform=True)
        return g, LaplacianSolver(g, options=practical_options(0), seed=0)

    @pytest.mark.parametrize("k,eps,method",
                             _both_methods([(8, 0.1), (4, 0.01)],
                                           DEFAULT_METHOD))
    def test_every_column_meets_eps(self, weak, k, eps, method):
        g, solver = weak
        L = laplacian(g)
        B = np.random.default_rng(1).standard_normal((g.n, k))
        B -= B.mean(axis=0)
        rep = solver.solve_many_report(B, eps=eps, method=method)
        for j in range(k):
            err = relative_lnorm_error(L, rep.x[:, j],
                                       exact_solution(g, B[:, j]))
            assert err <= eps, (j, err)
        one = solver.solve_report(B[:, 0], eps=eps, method=method)
        assert relative_lnorm_error(
            L, one.x, exact_solution(g, B[:, 0])) <= eps


class TestUncertifiedEscalation:
    def test_uncertified_columns_escalate_to_pcg(self, monkeypatch):
        # Shrink the preconditioner 5×: Richardson (which assumes
        # δ = 1) still converges, but far too slowly to certify within
        # its budget; PCG is scale-invariant and meets eps.
        g = G.grid2d(16, 16)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        apply = solver.preconditioner.apply
        monkeypatch.setattr(solver.preconditioner, "apply",
                            lambda X: 0.2 * apply(X))
        B = np.random.default_rng(8).standard_normal((g.n, 3))
        B -= B.mean(axis=0)
        rep = solver.solve_many_report(B, eps=1e-3, method="richardson")
        assert rep.method == "richardson+pcg"
        assert list(rep.column_status) == ["pcg"] * 3
        events = [e for e in rep.fault_log.events
                  if e.action == "escalate"]
        assert [(e.kind, e.columns) for e in events] == \
            [("uncertified", (0, 1, 2))]
        L = laplacian(g)
        for j in range(3):
            assert relative_lnorm_error(
                L, rep.x[:, j], exact_solution(g, B[:, j])) <= 1e-3

    @pytest.mark.parametrize("scale", [0.2, 25.0])
    def test_scaled_chain_certifies_under_pcg(self, monkeypatch, scale):
        # The certificate and PCG are both blind to the scale of W:
        # the 0.2× chain that Richardson cannot certify, and the 25×
        # chain that makes it diverge, certify under PCG as is.
        g = G.grid2d(16, 16)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        B = np.random.default_rng(8).standard_normal((g.n, 3))
        B -= B.mean(axis=0)
        plain = solver.solve_many_report(B, eps=1e-3, method="pcg")
        apply = solver.preconditioner.apply
        monkeypatch.setattr(solver.preconditioner, "apply",
                            lambda X: scale * apply(X))
        rep = solver.solve_many_report(B, eps=1e-3, method="pcg")
        assert rep.method == "pcg"
        assert list(rep.column_status) == ["pcg"] * 3
        assert len(rep.fault_log) == 0
        np.testing.assert_array_equal(rep.per_column_iterations,
                                      plain.per_column_iterations)
        L = laplacian(g)
        for j in range(3):
            assert relative_lnorm_error(
                L, rep.x[:, j], exact_solution(g, B[:, j])) <= 1e-3


class TestRitzFalsifier:
    """PCG converges on a chain worse than δ, so divergence no longer
    exposes it; the Ritz spread of each column's CG must."""

    def test_spread_of_a_full_run_is_the_condition_number(self):
        # n steps of CG on an n×n SPD system: the Lanczos tridiagonal
        # is similar to the matrix, so its spread is exactly κ.
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = np.array([1.0, 1.5, 2.0, 3.0, 5.0, 9.0])
        A = (Q * lam) @ Q.T
        r = rng.standard_normal(6)
        p, rz = r.copy(), r @ r
        steps, betas = [], [0.0]
        for _ in range(6):
            Ap = A @ p
            step = rz / (p @ Ap)
            r = r - step * Ap
            steps.append(step)
            betas.append((r @ r) / rz)
            rz = r @ r
            p = r + betas[-1] * p
        spread = _ritz_spread(np.array(steps)[:, None],
                              np.array(betas[:6])[:, None])
        np.testing.assert_allclose(spread, [9.0], rtol=1e-8)
        # Non-positive steps mean the operator is not SPD.
        assert _ritz_spread(np.array([[1.0], [-1.0]]),
                            np.array([[0.0], [0.5]]))[0] == np.inf

    def test_weak_outlier_escalates_and_meets_eps(self):
        # W' = W + c·vvᵀ (v ⟂ 1) certifies nothing sound: κ(W'L) > e²,
        # so the certificate alone could pass too early.  The Ritz
        # values expose the outlier and every column escalates.
        g = G.grid2d(12, 12)
        solver = LaplacianSolver(g, options=practical_options(0), seed=0)
        n = g.n
        W = solver.preconditioner.apply(np.eye(n))
        v = np.random.default_rng(5).standard_normal(n)
        v -= v.mean()
        v /= np.linalg.norm(v)
        c = 0.1 * np.linalg.norm(W, 2)
        Wp = W + c * np.outer(v, v)
        L = laplacian(g).toarray()
        spec = np.linalg.eigvals(Wp @ L).real
        spec = np.sort(spec[spec > 1e-9])
        assert spec[-1] / spec[0] > math.exp(2.0)
        solver.preconditioner.apply = lambda X: Wp @ X
        B = np.random.default_rng(6).standard_normal((n, 3))
        B -= B.mean(axis=0)
        eps = 1e-4
        rep = solver.solve_many_report(B, eps=eps, method="pcg")
        assert rep.method == "pcg+pcg"
        events = [e for e in rep.fault_log.events
                  if e.action == "escalate"]
        assert [(e.kind, e.columns) for e in events] == \
            [("uncertified", (0, 1, 2))]
        for j in range(3):
            assert relative_lnorm_error(
                laplacian(g), rep.x[:, j],
                exact_solution(g, B[:, j])) <= eps
