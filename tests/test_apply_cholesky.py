"""ApplyCholesky (Algorithm 2): the operator W with W⁺ ≈₁ L."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import SolverOptions
from repro.core.apply_cholesky import K_WAVE, ApplyCholeskyOperator
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split
from repro.errors import DimensionMismatchError, FactorizationError
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian
from repro.linalg.loewner import operator_approximation_factor
from repro.pram import charge, use_ledger
from repro.pram import primitives as P


def _operator(graph, alpha=0.1, seed=0, min_vertices=20):
    H = naive_split(graph, alpha)
    chain = block_cholesky(H, SolverOptions(min_vertices=min_vertices),
                           seed=seed)
    return ApplyCholeskyOperator(chain)


class TestOperatorQuality:
    @pytest.mark.parametrize("maker", [
        lambda: G.grid2d(8, 8),
        lambda: G.random_regular(60, 4, seed=5),
        lambda: G.with_random_weights(G.grid2d(7, 7), 0.2, 5.0, seed=6),
    ])
    def test_theorem_3_10(self, maker):
        # W ≈_1 L⁺ (Theorem 3.10 states W⁺ ≈₁ L; equivalent by Fact 2.1).
        g = maker()
        W = _operator(g, seed=1)
        factor = operator_approximation_factor(W.apply, laplacian(g))
        assert factor <= 1.0

    def test_no_levels_is_exact(self):
        g = G.grid2d(4, 4)
        chain = block_cholesky(g, SolverOptions(min_vertices=100), seed=0)
        W = ApplyCholeskyOperator(chain)
        factor = operator_approximation_factor(W.apply, laplacian(g))
        assert factor <= 1e-6


class TestOperatorProperties:
    def test_symmetric(self):
        g = G.grid2d(7, 7)
        Wd = _operator(g).dense_operator()
        # dense_operator symmetrises; check raw applications instead:
        W = _operator(g, seed=2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(g.n)
        y = rng.standard_normal(g.n)
        assert float(y @ W.apply(x)) == pytest.approx(
            float(x @ W.apply(y)), rel=1e-8)

    def test_psd_on_complement_of_ones(self):
        g = G.grid2d(7, 7)
        Wd = _operator(g, seed=3).dense_operator()
        evals = np.linalg.eigvalsh(Wd)
        assert evals.min() > -1e-8

    def test_linear(self):
        g = G.grid2d(6, 6)
        W = _operator(g, seed=4)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, g.n))
        assert np.allclose(W.apply(2.0 * x - 3.0 * y),
                           2.0 * W.apply(x) - 3.0 * W.apply(y),
                           atol=1e-9)

    def test_shape_check(self):
        W = _operator(G.grid2d(6, 6))
        with pytest.raises(DimensionMismatchError):
            W.apply(np.zeros(7))

    def test_as_linear_operator(self):
        g = G.grid2d(6, 6)
        W = _operator(g, seed=5)
        lin = W.as_linear_operator()
        x = np.random.default_rng(2).standard_normal(g.n)
        assert np.allclose(lin @ x, W.apply(x))

    def test_rejects_chain_without_flat_form(self):
        g = naive_split(G.grid2d(6, 6), 0.5)
        chain = block_cholesky(g, SolverOptions(min_vertices=15), seed=0)
        chain.A = None
        with pytest.raises(FactorizationError):
            ApplyCholeskyOperator(chain)

    def test_callable(self):
        g = G.grid2d(6, 6)
        W = _operator(g, seed=6)
        b = np.zeros(g.n)
        b[0], b[-1] = 1, -1
        assert np.allclose(W(b), W.apply(b))


def _algorithm2(chain, b):
    """Per-level reference: Algorithm 2 as two Python sweeps over the
    levels' blocks and Jacobi operators (charging the paper's costs)."""
    k = 1 if b.ndim == 1 else b.shape[1]
    cur, saved = b, []
    for level in chain.levels:
        yF = level.jacobi.apply(cur[level.idxF])
        charge(*P.matvec_cost(level.blocks.L_FC.nnz * k),
               label="forward_coupling")
        cur = cur[level.idxC] - level.blocks.L_FC.T @ yF
        saved.append(yF)
    x = chain.final_pinv @ cur
    nb = chain.final_active.size
    charge(float(nb * nb * k), 2.0 * np.ceil(P.log2p(nb)),
           label="base_case_solve")
    for level, yF in zip(reversed(chain.levels), reversed(saved)):
        corr = level.jacobi.apply(level.blocks.L_FC @ x)
        charge(*P.matvec_cost(level.blocks.L_FC.nnz * k),
               label="backward_coupling")
        parent = np.empty((level.nf + level.nc,) + b.shape[1:])
        parent[level.idxF] = yF - corr
        parent[level.idxC] = x
        x = parent
    return x


def _rhs(n, k, seed=0):
    B = np.random.default_rng(seed).standard_normal((n, k))
    return B - B.mean(axis=0)


class TestFlatMatchesAlgorithm2:
    @pytest.mark.parametrize("maker", [
        lambda: G.grid2d(12, 12),
        lambda: G.with_random_weights(G.grid2d(10, 10), 0.01, 100.0,
                                      seed=3, log_uniform=True),
        lambda: G.random_regular(120, 4, seed=5),
        lambda: G.preferential_attachment(120, 2, seed=7),
        lambda: G.barbell(40, 3),
    ], ids=["grid", "weighted_grid", "random_regular",
            "preferential_attachment", "barbell"])
    def test_matches_per_level_reference(self, maker):
        g = maker()
        W = _operator(g, seed=1)
        assert W.chain.d > 0
        B = _rhs(g.n, 5)
        ref = _algorithm2(W.chain, B)
        got = W.apply(B)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_no_levels(self):
        g = G.grid2d(4, 4)
        chain = block_cholesky(g, SolverOptions(min_vertices=100), seed=0)
        assert chain.d == 0
        W = ApplyCholeskyOperator(chain)
        B = _rhs(g.n, 3)
        np.testing.assert_allclose(W.apply(B), chain.final_pinv @ B,
                                   rtol=1e-12, atol=1e-12)

    def test_empty_block(self):
        W = _operator(G.grid2d(8, 8))
        assert W.apply(np.zeros((W.n, 0))).shape == (W.n, 0)

    def test_vector_is_block_column_bitwise(self):
        W = _operator(G.grid2d(9, 9), seed=2)
        B = _rhs(W.n, 7)
        X = W.apply(B)
        for j in (0, 3, 6):
            assert np.array_equal(W.apply(B[:, j]), X[:, j])

    def test_solve_path_makes_no_jacobi_calls(self, monkeypatch):
        from repro.core.solver import LaplacianSolver
        from repro.linalg.jacobi import JacobiOperator

        solver = LaplacianSolver(G.grid2d(10, 10), seed=0)

        def boom(self, b):
            raise AssertionError("per-level Jacobi apply on the solve path")

        monkeypatch.setattr(JacobiOperator, "apply", boom)
        solver.solve_many(_rhs(solver.n, 4))
        solver.solve(_rhs(solver.n, 1)[:, 0])


    def test_concurrent_applies_share_one_factor(self):
        # Column chunks of a blocked solve apply one operator (one
        # SuperLU factor, one E) from several pool threads at once;
        # every fourth task is a block wide enough for the wavefronts.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        W = _operator(G.grid2d(10, 10), seed=7)
        B = _rhs(W.n, 16)
        expect = np.column_stack([W.apply(B[:, j]) for j in range(16)])

        def task(j):
            if j % 4:
                return slice(j % 16, j % 16 + 1), W.apply(B[:, j % 16])
            cols = slice(j % 8, j % 8 + K_WAVE + j % 3)
            return cols, W.apply(B[:, cols])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(task, j) for j in range(200)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for cols, x in got:
            assert np.array_equal(x.reshape(W.n, -1), expect[:, cols])


def _solver_operator(graph):
    """``W`` exactly as :class:`LaplacianSolver` builds it."""
    from repro.core.solver import LaplacianSolver

    return LaplacianSolver(graph, seed=0).preconditioner


_KERNEL_GRAPHS = {
    "grid": lambda: _operator(G.grid2d(16, 16), seed=1),
    "weighted_grid": lambda: _operator(
        G.with_random_weights(G.grid2d(12, 12), 0.01, 100.0, seed=3,
                              log_uniform=True), seed=1),
    "random_regular": lambda: _operator(G.random_regular(200, 4, seed=5),
                                        seed=1),
    "torus": lambda: _operator(G.torus2d(12, 12), seed=1),
    # The default relax would let SuperLU form relaxed supernodes here
    # and reorder rows, so its rounding would leave the wavefronts'.
    "watts_strogatz": lambda: _solver_operator(
        G.watts_strogatz(1024, 6, 0.1, seed=0)),
    "preferential_attachment": lambda: _operator(
        G.preferential_attachment(300, 2, seed=7), seed=1),
    "no_levels": lambda: ApplyCholeskyOperator(block_cholesky(
        G.grid2d(4, 4), SolverOptions(min_vertices=100), seed=0)),
}


@pytest.fixture(scope="module", params=sorted(_KERNEL_GRAPHS))
def kernel_operator(request):
    return _KERNEL_GRAPHS[request.param]()


class TestKernelEquivalence:
    """SuperLU (narrow) and wavefronts (``k ≥ K_WAVE``) agree bitwise."""

    @pytest.mark.parametrize("k", [1, K_WAVE - 1, K_WAVE, 16, 64])
    def test_every_column_equals_the_vector_apply(self, kernel_operator,
                                                  k):
        W = kernel_operator
        B = _rhs(W.n, k, seed=k)
        X = W.apply(B)
        for j in range(k):
            assert np.array_equal(W.apply(B[:, j]), X[:, j]), j

    @pytest.mark.parametrize("k", [1, 4, 8, 16])
    @pytest.mark.parametrize("graph", ["grid32", "disconnected"])
    def test_exact_base_columns_are_bitwise(self, graph, k):
        # The base solve (projection, dpptrs, projection) runs on an
        # (n_B, k) view: a 1-D apply equals every block column on both
        # kernels, with a 140-vertex base and with a base grounded in
        # three components.
        if graph == "grid32":
            W = _solver_operator(G.grid2d(32, 32))
            assert W.chain.base.size > 100
        else:
            W = _operator(G.union_disjoint(
                G.union_disjoint(G.grid2d(7, 7), G.cycle(12)), G.path(1)),
                seed=1)
            assert W.chain.base.bounds.size == 4
        B = _rhs(W.n, k, seed=k)
        X = W.apply(B)
        for j in range(k):
            assert np.array_equal(W.apply(B[:, j]), X[:, j]), j

    def test_wide_blocks_run_the_wavefronts(self, monkeypatch):
        W = _operator(G.grid2d(8, 8), seed=1)
        widths = []
        real = ApplyCholeskyOperator._wavefronts

        def spy(self, r):
            widths.append(r.shape[1])
            return real(self, r)

        monkeypatch.setattr(ApplyCholeskyOperator, "_wavefronts", spy)
        for k in (1, K_WAVE - 1, K_WAVE, 16):
            W.apply(_rhs(W.n, k))
        W.apply(_rhs(W.n, 1)[:, 0])
        assert widths == [K_WAVE, 16]


def _tampered(W, edit):
    """``W``'s chain with ``edit`` applied to a copy of ``A``."""
    arrays, _ = W.chain.payload_arrays()
    arrays = {name: arr.copy() for name, arr in arrays.items()}
    edit(arrays)
    A = sp.csc_matrix((arrays["A_data"], arrays["A_indices"],
                       arrays["A_indptr"]), shape=W.chain.A.shape)
    return replace(W.chain, A=A)


def _long_column(arrays):
    """Start of the first column of ``A`` with at least three entries."""
    ptr = arrays["A_indptr"]
    return int(ptr[np.flatnonzero(np.diff(ptr) >= 3)[0]])


class TestSweepFormCheck:
    """Construction refuses an ``A`` the sweep kernels would misread."""

    def test_rejects_non_unit_diagonal(self):
        W = _operator(G.grid2d(9, 9), seed=3)

        def edit(arrays):
            p = _long_column(arrays)
            arrays["A_data"][p] = 2.0

        with pytest.raises(FactorizationError, match="unit-lower"):
            ApplyCholeskyOperator(_tampered(W, edit))

    def test_rejects_unsorted_column(self):
        W = _operator(G.grid2d(9, 9), seed=3)

        def edit(arrays):
            p = _long_column(arrays)
            idx = arrays["A_indices"]
            idx[p + 1], idx[p + 2] = idx[p + 2], idx[p + 1]

        with pytest.raises(FactorizationError, match="unit-lower"):
            ApplyCholeskyOperator(_tampered(W, edit))

    def test_rejects_entry_above_diagonal(self):
        W = _operator(G.grid2d(9, 9), seed=3)

        def edit(arrays):
            # Column j = [j, i, …] becomes [j - 1, j, …]: still sorted,
            # but its first entry sits above the diagonal.
            ptr = arrays["A_indptr"]
            j = int(np.flatnonzero(np.diff(ptr) >= 2)[1])
            p = int(ptr[j])
            arrays["A_indices"][p:p + 2] = [j - 1, j]
            arrays["A_data"][p:p + 2] = [arrays["A_data"][p + 1], 1.0]

        with pytest.raises(FactorizationError, match="unit-lower"):
            ApplyCholeskyOperator(_tampered(W, edit))

    def test_rejects_a_factor_that_is_not_A(self, monkeypatch):
        # SuperLU with its default relax reorders the rows of this
        # chain's factor; the check must catch that, not the kernels.
        import repro.core.apply_cholesky as mod

        W = _solver_operator(G.watts_strogatz(1024, 6, 0.1, seed=0))
        real = mod.spla.splu

        def splu(A, **kw):
            kw.pop("relax")
            return real(A, **kw)

        monkeypatch.setattr(mod.spla, "splu", splu)
        with pytest.raises(FactorizationError, match="factor"):
            ApplyCholeskyOperator(W.chain)


class TestLedgerReplay:
    @pytest.mark.parametrize("k", [1, 16])
    def test_charges_match_algorithm2(self, k):
        W = _operator(G.grid2d(12, 12), seed=4)
        B = _rhs(W.n, k)
        b = B[:, 0] if k == 1 else B
        with use_ledger() as ref:
            _algorithm2(W.chain, b)
        with use_ledger() as got:
            W.apply(b)
        assert got.work == ref.work and got.depth == ref.depth
        assert got.by_label == ref.by_label
        assert set(got.by_label) == {"jacobi_apply", "forward_coupling",
                                     "base_case_solve", "backward_coupling"}

    def test_no_ledger_skips_replay(self, monkeypatch):
        W = _operator(G.grid2d(8, 8), seed=5)

        def boom(self, k):
            raise AssertionError("ledger replay ran without a ledger")

        monkeypatch.setattr(ApplyCholeskyOperator, "_charge", boom)
        B = _rhs(W.n, 3)
        W.apply(B)
        W.apply(B[:, 0])
