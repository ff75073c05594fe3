"""Blocked (n, k) multi-RHS solves: one factorization, k right-hand
sides, BLAS-3-style kernels throughout (ISSUE 2)."""

import math

import numpy as np
import pytest

from repro.config import SolverOptions, practical_options
from repro.core.apply_cholesky import ApplyCholeskyOperator
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split
from repro.core.lev_est import _spanning_edges, leverage_overestimates
from repro.core.richardson import preconditioned_richardson
from repro.core.solver import LaplacianSolver
from repro.errors import DimensionMismatchError, FactorizationError
from repro.graphs import generators as G
from repro.graphs.laplacian import apply_laplacian, laplacian
from repro.graphs.multigraph import MultiGraph
from repro.graphs.validation import connected_components, is_connected
from repro.linalg.cg import conjugate_gradient
from repro.linalg.chebyshev import chebyshev_iteration
from repro.linalg.ops import project_out_ones
from repro.linalg.pinv import exact_solution, solve_dense_pseudo
from repro.pram import use_ledger


@pytest.fixture(scope="module")
def grid():
    return G.grid2d(10, 10)


@pytest.fixture(scope="module")
def operator(grid):
    H = naive_split(grid, 0.1)
    chain = block_cholesky(H, SolverOptions(min_vertices=20), seed=0)
    return ApplyCholeskyOperator(chain)


@pytest.fixture(scope="module")
def rhs_block(grid):
    rng = np.random.default_rng(7)
    return rng.standard_normal((grid.n, 6))


class TestBlockedKernels:
    """(n, k) block vs k separate (n,) applies — same linear operator."""

    def test_apply_cholesky(self, operator, rhs_block):
        blocked = operator.apply(rhs_block)
        looped = np.column_stack([operator.apply(rhs_block[:, j])
                                  for j in range(rhs_block.shape[1])])
        assert blocked.shape == rhs_block.shape
        np.testing.assert_allclose(blocked, looped, rtol=1e-12, atol=1e-12)

    def test_apply_cholesky_rejects_bad_shapes(self, operator):
        with pytest.raises(DimensionMismatchError):
            operator.apply(np.zeros(operator.n + 1))
        with pytest.raises(DimensionMismatchError):
            operator.apply(np.zeros((operator.n + 1, 3)))
        with pytest.raises(DimensionMismatchError):
            operator.apply(np.zeros((operator.n, 2, 2)))

    def test_jacobi(self, operator):
        Z = operator.chain.levels[0].jacobi
        rng = np.random.default_rng(0)
        B = rng.standard_normal((Z.n, 5))
        blocked = Z.apply(B)
        looped = np.column_stack([Z.apply(B[:, j]) for j in range(5)])
        np.testing.assert_allclose(blocked, looped, rtol=1e-12, atol=1e-12)

    def test_apply_laplacian(self, grid, rhs_block):
        blocked = apply_laplacian(grid, rhs_block)
        looped = np.column_stack([apply_laplacian(grid, rhs_block[:, j])
                                  for j in range(rhs_block.shape[1])])
        np.testing.assert_allclose(blocked, looped, rtol=1e-12, atol=1e-12)

    def test_dense_operator_matches_columnwise(self, operator):
        W = operator.dense_operator()
        e = np.zeros(operator.n)
        e[3] = 1.0
        col = operator.apply(e)
        # dense_operator symmetrises, so compare against the mean of the
        # raw column and row (W is symmetric to rounding anyway).
        np.testing.assert_allclose(W[:, 3], col, rtol=1e-8, atol=1e-10)

    def test_project_out_ones_columnwise(self):
        B = np.arange(12, dtype=np.float64).reshape(4, 3)
        P = project_out_ones(B)
        np.testing.assert_allclose(P.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(P[:, 0],
                                   project_out_ones(B[:, 0]), atol=1e-12)


class TestBlockedOuterLoops:
    """richardson / pcg / chebyshev on blocks vs column-by-column."""

    def test_richardson(self, grid, operator, rhs_block):
        blocked = preconditioned_richardson(
            lambda x: apply_laplacian(grid, x), operator.apply,
            rhs_block, eps=1e-8)
        looped = np.column_stack([
            preconditioned_richardson(
                lambda x: apply_laplacian(grid, x), operator.apply,
                rhs_block[:, j], eps=1e-8).x
            for j in range(rhs_block.shape[1])])
        # Identical up to the early-freeze threshold (conservative
        # fraction of the target eps).
        np.testing.assert_allclose(blocked.x, looped, rtol=1e-6, atol=1e-8)
        assert blocked.per_column_iterations is not None
        assert blocked.per_column_iterations.shape == (6,)

    def test_pcg(self, grid, operator, rhs_block):
        L = laplacian(grid)
        blocked = conjugate_gradient(L, rhs_block, tol=1e-10,
                                     preconditioner=operator.apply)
        looped = np.column_stack([
            conjugate_gradient(L, rhs_block[:, j], tol=1e-10,
                               preconditioner=operator.apply).x
            for j in range(rhs_block.shape[1])])
        assert blocked.converged
        np.testing.assert_allclose(blocked.x, looped, rtol=1e-6, atol=1e-8)

    def test_chebyshev(self, grid, operator, rhs_block):
        L = laplacian(grid)
        blocked = chebyshev_iteration(L, operator.apply, rhs_block,
                                      math.exp(-1), math.exp(1), 25)
        looped = np.column_stack([
            chebyshev_iteration(L, operator.apply, rhs_block[:, j],
                                math.exp(-1), math.exp(1), 25)
            for j in range(rhs_block.shape[1])])
        np.testing.assert_allclose(blocked, looped, rtol=1e-10, atol=1e-12)

    def test_chebyshev_column_freeze_converges(self, grid, operator,
                                               rhs_block):
        L = laplacian(grid)
        X = chebyshev_iteration(L, operator.apply, rhs_block,
                                math.exp(-1), math.exp(1), 200, tol=1e-9)
        R = np.asarray(L @ X) - project_out_ones(rhs_block)
        bnorm = np.linalg.norm(rhs_block, axis=0)
        assert np.all(np.linalg.norm(R, axis=0) <= 2e-9 * bnorm)


class TestPerColumnConvergence:
    def test_mixed_eps_iteration_budgets(self, grid):
        # min_vertices below n so the chain is non-trivial and
        # Richardson actually has to iterate.
        solver = LaplacianSolver(
            grid, options=SolverOptions(min_vertices=20), seed=0)
        rng = np.random.default_rng(3)
        B = rng.standard_normal((grid.n, 4))
        eps = np.array([1e-1, 1e-3, 1e-6, 1e-9])
        rep = solver.solve_many_report(B, eps=eps)
        iters = rep.per_column_iterations
        assert iters is not None
        # Looser targets stop strictly earlier.
        assert np.all(np.diff(iters) > 0)
        # Residuals decrease along with the targets.
        assert rep.residual_2norms[3] < rep.residual_2norms[0]

    def test_mixed_difficulty_freezes_easy_columns(self, grid):
        solver = LaplacianSolver(
            grid, options=SolverOptions(min_vertices=20), seed=0)
        # Easy column: b = L v for v an eigenvector of W L with
        # eigenvalue nearest 1 — Richardson's first iterate B b = λ v
        # is already an almost-exact solution, so the column freezes
        # right away; a random column needs the full budget.
        Ld = laplacian(grid).toarray()
        M = solver.preconditioner.dense_operator() @ Ld
        evals, evecs = np.linalg.eig(M)
        j = int(np.argmin(np.abs(evals - 1.0)))
        v = np.real(evecs[:, j])
        easy = Ld @ v
        hard = np.random.default_rng(4).standard_normal(grid.n)
        B = np.column_stack([np.zeros(grid.n), easy, hard])
        rep = solver.solve_many_report(B, eps=1e-6)
        iters = rep.per_column_iterations
        assert iters is not None
        assert iters[0] == 0           # zero column converges instantly
        assert iters[1] < iters[2]     # easy column freezes early

    def test_blocked_matches_exact(self, grid):
        solver = LaplacianSolver(grid, seed=0)
        rng = np.random.default_rng(5)
        B = project_out_ones(rng.standard_normal((grid.n, 5)))
        X = solver.solve_many(B, eps=1e-10)
        Xstar = exact_solution(grid, B)
        np.testing.assert_allclose(X, Xstar, rtol=1e-6, atol=1e-8)

    def test_blocked_pcg_matches_exact(self, grid):
        solver = LaplacianSolver(grid, seed=0)
        rng = np.random.default_rng(6)
        B = project_out_ones(rng.standard_normal((grid.n, 3)))
        X = solver.solve_many(B, eps=1e-10, method="pcg")
        np.testing.assert_allclose(X, exact_solution(grid, B),
                                   rtol=1e-6, atol=1e-8)


class TestShapes:
    def test_one_d_round_trip(self, grid):
        solver = LaplacianSolver(grid, seed=0)
        b = np.random.default_rng(8).standard_normal(grid.n)
        x1 = solver.solve_many(b, eps=1e-8)
        assert x1.shape == (grid.n,)
        np.testing.assert_allclose(x1, solver.solve(b, eps=1e-8),
                                   rtol=1e-6, atol=1e-9)

    def test_single_column_block(self, grid):
        solver = LaplacianSolver(grid, seed=0)
        b = np.random.default_rng(9).standard_normal((grid.n, 1))
        x = solver.solve_many(b, eps=1e-8)
        assert x.shape == (grid.n, 1)
        np.testing.assert_allclose(x[:, 0],
                                   solver.solve(b[:, 0], eps=1e-8),
                                   rtol=1e-6, atol=1e-9)

    def test_rejects_bad_shapes(self, grid):
        solver = LaplacianSolver(grid, seed=0)
        with pytest.raises(DimensionMismatchError):
            solver.solve_many(np.zeros((grid.n + 1, 2)))

    def test_solve_dense_pseudo_blocked(self, grid):
        rng = np.random.default_rng(10)
        B = rng.standard_normal((grid.n, 4))
        blocked = solve_dense_pseudo(laplacian(grid), B)
        looped = np.column_stack([
            solve_dense_pseudo(laplacian(grid), B[:, j]) for j in range(4)])
        np.testing.assert_allclose(blocked, looped, rtol=1e-9, atol=1e-10)


class TestLeverageEquivalence:
    def test_blocked_matches_looped_fixed_seed(self):
        g = G.grid2d(12, 12)
        opts = practical_options()
        tau_b = leverage_overestimates(g, K=4, seed=11, options=opts,
                                       blocked=True)
        tau_l = leverage_overestimates(g, K=4, seed=11, options=opts,
                                       blocked=False)
        # Same G', same signs, same inner chain — the only difference
        # is blocked vs sequential outer iteration, which agrees to
        # solver tolerance.
        np.testing.assert_allclose(tau_b, tau_l, rtol=0.1, atol=1e-9)


class TestSpanningEdges:
    @pytest.mark.parametrize("maker", [
        lambda: G.grid2d(7, 7),
        lambda: G.complete(25),
        lambda: G.erdos_renyi(40, 0.15, seed=3),
    ])
    def test_spanning_forest(self, maker):
        g = maker()
        keep = _spanning_edges(g)
        sub = MultiGraph(g.n, g.u[keep], g.v[keep], g.w[keep],
                         validate=False)
        n_components = int(connected_components(g).max()) + 1
        # A spanning forest: same connectivity, acyclic edge count.
        assert int(connected_components(sub).max()) + 1 == n_components
        assert keep.size == g.n - n_components
        assert is_connected(sub) == is_connected(g)

    def test_parallel_edges(self):
        # Duplicate edges must not corrupt the index recovery.
        u = np.array([0, 0, 0, 1, 1, 2])
        v = np.array([1, 1, 2, 2, 2, 3])
        w = np.ones(6)
        g = MultiGraph(4, u, v, w, validate=False)
        keep = _spanning_edges(g)
        assert keep.size == 3
        sub = MultiGraph(4, u[keep], v[keep], w[keep], validate=False)
        assert is_connected(sub)


class TestKeepGraphs:
    def test_streaming_chain_solves(self):
        g = G.grid2d(9, 9)
        H = naive_split(g, 0.1)
        opts = SolverOptions(min_vertices=20)
        kept = block_cholesky(H, opts, seed=0, keep_graphs=True)
        streamed = block_cholesky(H, opts, seed=0, keep_graphs=False)
        assert streamed.graphs is None
        # Diagnostics that only need counts keep working...
        assert streamed.edge_counts == kept.edge_counts
        assert streamed.stored_edge_counts == kept.stored_edge_counts
        assert streamed.total_stored_edges() == kept.total_stored_edges()
        assert f"d={streamed.d}" in streamed.summary()
        # ...and the operator is identical (same seed, same randomness).
        Wk = ApplyCholeskyOperator(kept)
        Ws = ApplyCholeskyOperator(streamed)
        b = np.random.default_rng(1).standard_normal(g.n)
        np.testing.assert_allclose(Ws.apply(b), Wk.apply(b),
                                   rtol=1e-12, atol=1e-12)

    def test_graph_diagnostics_raise_when_streamed(self):
        g = G.grid2d(6, 6)
        chain = block_cholesky(naive_split(g, 0.2),
                               SolverOptions(min_vertices=10),
                               seed=0, keep_graphs=False)
        with pytest.raises(FactorizationError):
            chain.dense_factorization()

    @staticmethod
    def _holds_level(root) -> bool:
        """Whether a :class:`Level` is reachable from ``root`` through
        attributes and containers (classes, modules and arrays are
        leaves)."""
        import types

        from repro.core.chain import Level

        stack, seen = [root], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(
                    obj, (type, types.ModuleType, np.ndarray)):
                continue
            seen.add(id(obj))
            if isinstance(obj, Level):
                return True
            if isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set)):
                stack.extend(obj)
            elif hasattr(obj, "__dict__"):
                stack.append(vars(obj))
        return False

    def test_streaming_solver_keeps_only_the_payload(self):
        g = G.grid2d(32, 32)
        streamed = LaplacianSolver(g, seed=0)
        # The same build with its levels kept: naive splitting draws no
        # randomness, so seed 0 replays the solver's elimination.
        kept = block_cholesky(streamed.multigraph, streamed.options,
                              seed=0, keep_graphs=True)
        assert self._holds_level(kept)
        assert not self._holds_level(streamed)
        assert streamed.chain.levels is None
        assert streamed.chain.payload_fingerprint() \
            == kept.payload_fingerprint()
        assert streamed.chain.nbytes == kept.nbytes
        assert streamed.chain.active_counts == kept.active_counts
        assert streamed.chain.summary() == kept.summary()
        with pytest.raises(FactorizationError):
            streamed.chain.dense_factorization()

    def test_solver_option_threads_through(self):
        # Every solver build streams.
        g = G.grid2d(8, 8)
        solver = LaplacianSolver(g, seed=0)
        assert solver.chain.graphs is None
        B = project_out_ones(
            np.random.default_rng(2).standard_normal((g.n, 3)))
        x = solver.solve_many(B, eps=1e-10)
        assert x.shape == (g.n, 3)
        np.testing.assert_allclose(x, exact_solution(g, B),
                                   rtol=1e-6, atol=1e-8)


class TestBlockedApps:
    def test_label_propagation_ignores_negative_sentinels(self, grid):
        # -1 "unlabeled" sentinels matched nothing in the old per-class
        # loop; the blocked RHS assembly must ignore them the same way.
        from repro.apps.semi_supervised import harmonic_label_propagation
        labeled = np.array([0, 5, 11, 17])
        labels = np.array([0, 1, -1, 0])
        assign, scores = harmonic_label_propagation(
            grid, labeled, labels, num_classes=2,
            options=practical_options(), seed=0)
        assert scores.shape == (grid.n, 2)
        assert assign[0] == 0 and assign[5] == 1

    def test_electrical_kcl_checked_per_column(self, grid):
        # A column violating KCL at its own (tiny) scale must raise even
        # when another column is huge.
        from repro.apps.electrical import electrical_voltages, st_demand
        from repro.errors import ReproError
        big = 1e6 * st_demand(grid.n, 0, 1)
        bad = np.zeros(grid.n)
        bad[2] = 1e-4
        with pytest.raises(ReproError):
            electrical_voltages(grid, np.column_stack([big, bad]),
                                options=practical_options(), seed=0)


class TestChargeGuards:
    def test_lev_est_charges_only_with_ledger(self):
        g = G.grid2d(6, 6)
        opts = practical_options()
        # Without a ledger: runs fine, nothing to record.
        leverage_overestimates(g, K=3, seed=0, options=opts)
        # With a ledger: the guarded labels appear.
        with use_ledger() as ledger:
            leverage_overestimates(g, K=3, seed=0, options=opts)
        for label in ("uniform_edge_sample", "jl_row", "jl_distances"):
            assert label in ledger.by_label, label

    def test_blocked_matvec_cost_scales_with_k(self):
        g = G.grid2d(6, 6)
        solver = LaplacianSolver(g, seed=0)
        B = np.random.default_rng(3).standard_normal((g.n, 4))
        with use_ledger() as one:
            solver.apply_L(B[:, :1])
        with use_ledger() as four:
            solver.apply_L(B)
        assert four.by_label["apply_laplacian"].work == pytest.approx(
            4.0 * one.by_label["apply_laplacian"].work)
