"""End-to-end solver tests (Theorems 1.1 / 1.2)."""

import numpy as np
import pytest

from repro import (
    LaplacianSolver,
    SolverOptions,
    practical_options,
    solve_laplacian,
    theorem_1_1_options,
    theorem_1_2_options,
)
from repro.core.solver import DEFAULT_METHOD
from repro.errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotConnectedError,
    ReproError,
)
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian
from repro.linalg.ops import relative_lnorm_error
from repro.linalg.pinv import exact_solution


def _check_eps(graph, eps, seed=0, options=None, method="richardson"):
    b = np.random.default_rng(seed).standard_normal(graph.n)
    b -= b.mean()
    solver = LaplacianSolver(graph, options=options or practical_options(),
                             seed=seed)
    x = solver.solve(b, eps=eps, method=method)
    err = relative_lnorm_error(laplacian(graph), x,
                               exact_solution(graph, b))
    assert err <= eps, f"err {err} > eps {eps}"
    return solver


class TestTheorem11Accuracy:
    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    def test_grid(self, eps):
        _check_eps(G.grid2d(12, 12), eps)

    def test_expander(self):
        _check_eps(G.random_regular(150, 4, seed=1), 1e-6)

    def test_weighted(self):
        g = G.with_random_weights(G.grid2d(11, 11), 0.01, 100.0, seed=2,
                                  log_uniform=True)
        _check_eps(g, 1e-6)

    def test_barbell(self):
        _check_eps(G.barbell(60, 3), 1e-6)

    def test_zoo(self, zoo_graph, balanced_rhs):
        # Small graphs hit the dense base case — still must meet eps.
        b = balanced_rhs(zoo_graph)
        solver = LaplacianSolver(zoo_graph, options=practical_options(),
                                 seed=3)
        x = solver.solve(b, eps=1e-8)
        err = relative_lnorm_error(laplacian(zoo_graph), x,
                                   exact_solution(zoo_graph, b))
        assert err <= 1e-8

    def test_theorem_1_1_literal_options(self):
        _check_eps(G.grid2d(11, 11), 1e-4, options=theorem_1_1_options())

    def test_theorem_1_2_leverage_options(self):
        _check_eps(G.erdos_renyi(140, 0.2, seed=4), 1e-4,
                   options=theorem_1_2_options())


class TestSolveVariants:
    def test_pcg_method(self):
        _check_eps(G.grid2d(12, 12), 1e-8, method="pcg")

    def test_pcg_fewer_iterations_than_richardson(self):
        g = G.grid2d(12, 12)
        b = np.random.default_rng(0).standard_normal(g.n)
        b -= b.mean()
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        rich = solver.solve_report(b, eps=1e-8, method="richardson")
        pcg = solver.solve_report(b, eps=1e-8, method="pcg")
        assert pcg.iterations <= rich.iterations

    def test_unknown_method(self):
        solver = LaplacianSolver(G.grid2d(5, 5), seed=0)
        with pytest.raises(ReproError):
            solver.solve(np.zeros(25), method="magic")

    def test_report_fields(self):
        g = G.grid2d(12, 12)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        b = np.zeros(g.n)
        b[0], b[-1] = 1, -1
        rep = solver.solve_report(b, eps=1e-4)
        assert rep.method == DEFAULT_METHOD
        assert rep.target_eps == 1e-4
        assert rep.iterations >= 1
        assert rep.chain_depth == solver.chain.d
        assert rep.multiedges == solver.multigraph.m_logical
        # The block report carries the resident chain's size, whole and
        # per level.
        block = solver.solve_many_report(b[:, None], eps=1e-4)
        assert block.chain_nbytes == solver.chain.nbytes > 0
        assert len(block.chain_level_nbytes) == solver.chain.d
        assert sum(block.chain_level_nbytes) <= block.chain_nbytes

    def test_unbalanced_rhs_projected(self):
        g = G.grid2d(8, 8)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        b = np.zeros(g.n)
        b[0] = 1.0  # sums to 1, not 0
        x = solver.solve(b, eps=1e-6)
        assert np.allclose(laplacian(g) @ x, b - b.mean(), atol=1e-4)

    def test_many_rhs_one_factorization(self):
        g = G.grid2d(10, 10)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        rng = np.random.default_rng(5)
        for _ in range(4):
            b = rng.standard_normal(g.n)
            b -= b.mean()
            x = solver.solve(b, eps=1e-6)
            err = relative_lnorm_error(laplacian(g), x,
                                       exact_solution(g, b))
            assert err <= 1e-6


class TestInputHandling:
    def test_requires_connected(self):
        g = G.union_disjoint(G.path(10), G.path(10))
        with pytest.raises(NotConnectedError):
            LaplacianSolver(g)

    def test_rejects_matrix_in_class(self):
        with pytest.raises(TypeError):
            LaplacianSolver(laplacian(G.path(4)))

    def test_b_shape_checked(self):
        solver = LaplacianSolver(G.path(10), seed=0)
        with pytest.raises(DimensionMismatchError):
            solver.solve(np.zeros(4))

    def test_nan_rhs_is_rejected_before_iterating(self, monkeypatch):
        import repro.core.solver as solver_mod

        solver = LaplacianSolver(G.path(10), seed=0)

        def boom(*args, **kwargs):
            raise AssertionError("iterated on a non-finite b")

        monkeypatch.setattr(solver_mod, "preconditioned_richardson", boom)
        b = np.zeros(10)
        b[0], b[-1] = 1.0, -1.0
        b[3] = np.nan
        with pytest.raises(InvalidInputError):
            solver.solve_report(b)
        B = np.zeros((10, 3))
        B[5, 2] = np.inf
        with pytest.raises(InvalidInputError):
            solver.solve_many(B)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, -1e-3, np.nan])
    def test_eps_outside_unit_interval_is_rejected(self, eps):
        solver = LaplacianSolver(G.path(10), seed=0)
        b = np.zeros(10)
        b[0], b[-1] = 1.0, -1.0
        with pytest.raises(InvalidInputError):
            solver.solve(b, eps=eps)
        with pytest.raises(InvalidInputError):
            solver.solve_many(np.column_stack([b, b]),
                              eps=np.array([1e-6, eps]))

    def test_invalid_input_is_a_value_error(self):
        assert issubclass(InvalidInputError, ReproError)
        assert issubclass(InvalidInputError, ValueError)

    def test_solve_laplacian_with_sparse_matrix(self):
        g = G.grid2d(6, 6)
        b = np.random.default_rng(1).standard_normal(g.n)
        b -= b.mean()
        x = solve_laplacian(laplacian(g), b, eps=1e-6,
                            options=practical_options(), seed=0)
        assert relative_lnorm_error(laplacian(g), x,
                                    exact_solution(g, b)) <= 1e-6

    def test_solve_laplacian_with_dense_matrix(self):
        g = G.cycle(9)
        b = np.zeros(9)
        b[0], b[3] = 1, -1
        x = solve_laplacian(laplacian(g).toarray(), b, eps=1e-6, seed=0)
        assert np.allclose(laplacian(g) @ x, b, atol=1e-4)

    def test_solve_laplacian_rejects_junk(self):
        with pytest.raises(TypeError):
            solve_laplacian("nope", np.zeros(3))

    def test_splitting_none_accepts_multigraph(self):
        from repro.core.boundedness import naive_split

        g = naive_split(G.grid2d(8, 8), 0.25)
        solver = LaplacianSolver(g, options=SolverOptions(splitting="none"),
                                 seed=0)
        assert solver.multigraph is g

    def test_determinism_given_seed(self):
        g = G.grid2d(9, 9)
        b = np.zeros(g.n)
        b[0], b[-1] = 1, -1
        x1 = LaplacianSolver(g, options=practical_options(),
                             seed=99).solve(b, eps=1e-6)
        x2 = LaplacianSolver(g, options=practical_options(),
                             seed=99).solve(b, eps=1e-6)
        assert np.array_equal(x1, x2)
