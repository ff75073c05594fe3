"""BlockCholesky (Algorithm 1) — the five Theorem 3.9 guarantees."""

import numpy as np
import pytest

from repro.config import SolverOptions
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split
from repro.core.dd_subset import verify_five_dd
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian
from repro.linalg.loewner import approximation_factor


def _chain(graph, alpha=0.25, seed=0, **opt_kwargs):
    opts = SolverOptions(min_vertices=20, **opt_kwargs)
    H = naive_split(graph, alpha)
    return H, block_cholesky(H, opts, seed=seed)


class TestTheorem39Invariants:
    def test_edge_counts_never_exceed_m(self):
        # Theorem 3.9-(1).
        for maker in (lambda: G.grid2d(10, 10),
                      lambda: G.random_regular(120, 4, seed=1),
                      lambda: G.erdos_renyi(100, 0.08, seed=2)):
            H, chain = _chain(maker())
            assert all(mk <= H.m_logical for mk in chain.edge_counts)

    def test_every_F_is_5dd_in_parent(self):
        # Theorem 3.9-(2).
        H, chain = _chain(G.grid2d(9, 9), seed=3)
        for k, level in enumerate(chain.levels):
            assert verify_five_dd(chain.graphs[k], level.F)

    def test_base_case_small(self):
        # Theorem 3.9-(3): the packed grounded base factor fits in
        # min_vertices² doubles.
        H, chain = _chain(G.grid2d(10, 10))
        a = chain.final_active.size
        assert a * (a - 1) // 2 <= 20 ** 2

    def test_level_count_logarithmic(self):
        # Theorem 3.9-(4): d <= log_{40/39} n.
        g = G.grid2d(12, 12)
        H, chain = _chain(g)
        assert chain.d <= np.log(g.n) / np.log(40.0 / 39.0) + 10

    def test_factorization_constant_approximation(self):
        # Theorem 3.9-(5): (U^d)^T D^d U^d ≈_{0.5} L.
        g = G.grid2d(8, 8)
        H, chain = _chain(g, alpha=0.1, seed=4)
        approx = chain.dense_factorization()
        eps = approximation_factor(approx, laplacian(g).toarray())
        assert eps <= 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_factorization_approximation_across_seeds(self, seed):
        g = G.random_regular(80, 4, seed=10)
        H, chain = _chain(g, alpha=0.1, seed=seed)
        eps = approximation_factor(chain.dense_factorization(),
                                   laplacian(g).toarray())
        assert eps <= 0.5


    def test_factorization_success_rate_over_40_chains(self):
        # Theorem 3.9-(5) holds whp: count the chains that reach ε = 0.5.
        g = G.grid2d(6, 6)
        H = naive_split(g, 0.1)
        L = laplacian(g).toarray()
        opts = SolverOptions(min_vertices=12)
        eps = np.array([
            approximation_factor(
                block_cholesky(H, opts, seed=seed).dense_factorization(), L)
            for seed in range(40)])
        assert np.count_nonzero(eps <= 0.5) >= 36
        assert np.median(eps) <= 0.4


FAMILIES = {
    "grid": lambda: G.grid2d(12, 12),
    "weighted_grid": lambda: G.with_random_weights(
        G.grid2d(11, 11), 0.1, 10.0, seed=3, log_uniform=True),
    "random_regular": lambda: G.random_regular(150, 4, seed=1),
    "torus": lambda: G.torus2d(11, 12),
    "watts_strogatz": lambda: G.watts_strogatz(150, 6, 0.2, seed=2),
    "preferential_attachment": lambda: G.preferential_attachment(
        150, 3, seed=4),
    "barbell": lambda: G.barbell(30, 4),
    "star": lambda: G.star(120),
}


class TestExtendedLevels:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_F_is_5dd_and_large(self, family):
        # Theorem 3.9-(2) and Lemma 3.4 on every level, with each F
        # extended by its independent set.
        H, chain = _chain(FAMILIES[family](), seed=5)
        assert chain.levels
        for k, (level, n_k) in enumerate(zip(chain.levels,
                                             chain.active_counts)):
            assert verify_five_dd(chain.graphs[k], level.F)
            assert level.F.size > n_k / 40

    def test_grid_needs_fewer_levels(self):
        # The extension eliminates far more than Algorithm 3's ~n/20
        # sample: the first level of a grid takes about a third.
        H, chain = _chain(G.grid2d(20, 20), seed=6)
        assert chain.levels[0].F.size > H.n / 5


class TestChainStructure:
    def test_levels_partition_actives(self):
        H, chain = _chain(G.grid2d(8, 8))
        active = np.arange(H.n)
        for level in chain.levels:
            assert np.array_equal(np.union1d(level.F, level.C), active)
            assert np.intersect1d(level.F, level.C).size == 0
            active = level.C
        assert np.array_equal(active, chain.final_active)

    def test_positions_consistent(self):
        H, chain = _chain(G.grid2d(8, 8))
        parent = np.arange(H.n)
        for level in chain.levels:
            assert np.array_equal(parent[level.idxF], level.F)
            assert np.array_equal(parent[level.idxC], level.C)
            parent = level.C

    def test_active_counts_shrink(self):
        H, chain = _chain(G.grid2d(10, 10))
        counts = chain.active_counts
        assert all(b < a for a, b in zip(counts, counts[1:]))

    def test_jacobi_attached_with_paper_eps(self):
        H, chain = _chain(G.grid2d(8, 8))
        assert chain.jacobi_eps == pytest.approx(1.0 / (2 * chain.d))
        for level in chain.levels:
            assert level.jacobi is not None
            assert level.jacobi.eps == chain.jacobi_eps

    def test_jacobi_eps_override(self):
        H, chain = _chain(G.grid2d(8, 8), jacobi_eps=0.125)
        assert chain.jacobi_eps == 0.125

    def test_small_graph_no_levels(self):
        g = G.grid2d(4, 4)  # 16 < min_vertices
        chain = block_cholesky(g, SolverOptions(min_vertices=20), seed=0)
        assert chain.d == 0 or chain.levels == []
        # base-case pinv must still solve the whole system
        L = laplacian(g).toarray()
        assert np.allclose(chain.final_pinv, np.linalg.pinv(L), atol=1e-8)

    def test_base_case_densifies_only_the_surviving_block(self,
                                                          monkeypatch):
        # The base case scatters L_{G^(d)}'s edges straight onto the
        # a×a block of surviving vertices: no sparse matrix is
        # densified and no n×n array is ever built.
        import importlib

        import scipy.sparse as sp

        from repro.linalg.pinv import pinv_psd

        bc_module = importlib.import_module("repro.core.block_cholesky")

        shapes, lengths = [], []
        toarray = sp.csr_matrix.toarray
        bincount = bc_module.weighted_bincount

        def spy(self, *args, **kwargs):
            shapes.append(self.shape)
            return toarray(self, *args, **kwargs)

        def spy_bincount(idx, weights, minlength):
            lengths.append(minlength)
            return bincount(idx, weights, minlength)

        monkeypatch.setattr(sp.csr_matrix, "toarray", spy)
        monkeypatch.setattr(bc_module, "weighted_bincount", spy_bincount)
        H, chain = _chain(G.grid2d(10, 10))
        a = chain.final_active.size
        assert 0 < a < H.n
        assert shapes == []
        assert lengths == [a * a]
        monkeypatch.undo()
        L = laplacian(chain.graphs[-1]).toarray()
        want = pinv_psd(L[np.ix_(chain.final_active, chain.final_active)])
        assert np.linalg.norm(chain.final_pinv - want) \
            <= 1e-10 * np.linalg.norm(want)

    def test_summary_mentions_levels(self):
        H, chain = _chain(G.grid2d(8, 8))
        text = chain.summary()
        assert "level 1" in text
        assert "base case" in text

    def test_deterministic_given_seed(self):
        g = naive_split(G.grid2d(7, 7), 0.5)
        opts = SolverOptions(min_vertices=15)
        c1 = block_cholesky(g, opts, seed=123)
        c2 = block_cholesky(g, opts, seed=123)
        assert c1.d == c2.d
        assert all(a == b for a, b in zip(c1.graphs, c2.graphs))


class TestDenseFactorizationOracle:
    def test_no_levels_is_base_laplacian(self):
        g = G.grid2d(4, 4)
        chain = block_cholesky(g, SolverOptions(min_vertices=20), seed=0)
        assert np.allclose(chain.dense_factorization(),
                           laplacian(g).toarray())

    def test_factorization_is_laplacian_like(self):
        # symmetric PSD with the all-ones kernel
        H, chain = _chain(G.grid2d(7, 7), seed=1)
        A = chain.dense_factorization()
        assert np.allclose(A, A.T, atol=1e-9)
        assert np.abs(A @ np.ones(A.shape[0])).max() < 1e-8
        assert np.linalg.eigvalsh(A).min() > -1e-8


def _base_laplacian(chain):
    L = laplacian(chain.graphs[-1]).toarray()
    return L[np.ix_(chain.final_active, chain.final_active)]


def _disconnected():
    # Two components and an isolated vertex: the base must ground one
    # vertex in each.
    return G.union_disjoint(G.union_disjoint(G.grid2d(7, 7), G.cycle(12)),
                            G.path(1))


#: Every family in ``graphs/generators.py`` (weights via
#: ``with_random_weights``; the disjoint union is the disconnected case).
GENERATOR_FAMILIES = {
    "path": lambda: G.path(90),
    "cycle": lambda: G.cycle(90),
    "complete": lambda: G.complete(40),
    "star": lambda: G.star(90),
    "grid2d": lambda: G.grid2d(10, 10),
    "torus2d": lambda: G.torus2d(10, 10),
    "grid3d": lambda: G.grid3d(5, 5, 4),
    "binary_tree": lambda: G.binary_tree(6),
    "barbell": lambda: G.barbell(30, 4),
    "dumbbell": lambda: G.dumbbell(6),
    "lollipop": lambda: G.lollipop(25, 40),
    "erdos_renyi": lambda: G.erdos_renyi(100, 0.08, seed=2),
    "random_regular": lambda: G.random_regular(100, 4, seed=1),
    "watts_strogatz": lambda: G.watts_strogatz(100, 6, 0.2, seed=2),
    "preferential_attachment": lambda: G.preferential_attachment(
        100, 3, seed=4),
    "random_bipartite": lambda: G.random_bipartite(40, 50, 0.1, seed=3),
    "with_random_weights": lambda: G.with_random_weights(
        G.grid2d(10, 10), 0.01, 100.0, seed=3, log_uniform=True),
    "union_disjoint": _disconnected,
}


class TestExactBase:
    """The base is factored exactly (packed Cholesky, grounded)."""

    @pytest.mark.parametrize("maker", [
        lambda: G.grid2d(12, 12),
        lambda: G.with_random_weights(G.grid2d(11, 11), 0.01, 100.0,
                                      seed=3, log_uniform=True),
        lambda: G.barbell(30, 4),
        lambda: G.preferential_attachment(150, 3, seed=4),
        _disconnected,
    ], ids=["grid", "weighted_grid", "barbell", "preferential_attachment",
            "disconnected"])
    def test_final_pinv_matches_pinv_psd(self, maker):
        from repro.linalg.pinv import pinv_psd

        H, chain = _chain(maker(), seed=5)
        assert chain.levels
        want = pinv_psd(_base_laplacian(chain))
        assert np.linalg.norm(chain.final_pinv - want) \
            <= 1e-10 * np.linalg.norm(want)

    def test_disconnected_base_grounds_every_component(self):
        from repro.linalg.pinv import pinv_psd

        g = _disconnected()
        H = naive_split(g, 0.25)
        for min_vertices in (20, 100):
            chain = block_cholesky(H, SolverOptions(
                min_vertices=min_vertices), seed=0)
            assert chain.base.bounds.size - 1 == 3
            assert chain.base.order is not None
            assert chain.base.packed.size == (
                (chain.base.size - 3) * (chain.base.size - 2) // 2)
            want = pinv_psd(_base_laplacian(chain))
            assert np.linalg.norm(chain.final_pinv - want) \
                <= 1e-10 * np.linalg.norm(want)

    def test_connected_base_keeps_its_order(self):
        H, chain = _chain(G.grid2d(10, 10))
        a = chain.final_active.size
        assert chain.base.order is None
        np.testing.assert_array_equal(chain.base.bounds, [0, a - 1])
        assert chain.base.packed.size == a * (a - 1) // 2

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    @pytest.mark.parametrize("min_vertices", [5, 12])
    def test_base_fits_the_byte_budget(self, family, min_vertices):
        H = naive_split(GENERATOR_FAMILIES[family](), 0.25)
        chain = block_cholesky(H, SolverOptions(min_vertices=min_vertices),
                               seed=1)
        a = chain.final_active.size
        assert a * (a - 1) // 2 <= min_vertices ** 2
        assert chain.base.packed.nbytes <= 8 * min_vertices ** 2
        # The cut-over is the first level whose base fits: the level
        # before it did not.
        if chain.levels:
            p = chain.active_counts[-2]
            assert p * (p - 1) // 2 > min_vertices ** 2

    def test_build_calls_neither_pinv_psd_nor_eigh(self, monkeypatch):
        import scipy.linalg

        import repro.linalg.pinv as pinv

        def boom(*args, **kwargs):
            raise AssertionError("dense eigensolver on the build path")

        monkeypatch.setattr(pinv, "pinv_psd", boom)
        monkeypatch.setattr(scipy.linalg, "eigh", boom)
        monkeypatch.setattr(np.linalg, "eigh", boom)
        _chain(G.grid2d(10, 10))
        block_cholesky(G.grid2d(4, 4), SolverOptions(min_vertices=20),
                       seed=0)


#: ``chain.nbytes`` of the perfbench keys (seed-0 keyset, solver seed
#: 0, ``practical_options``) with the earlier dense ``eigh``
#: pseudo-inverse base of at most ``min_vertices`` vertices.
DENSE_BASE_CHAIN_BYTES = {
    "grid": 214832, "wgrid": 211920, "regular": 394512,
    "torus": 237848, "smallworld": 324504, "powerlaw": 398976,
}


@pytest.mark.parametrize("key", sorted(DENSE_BASE_CHAIN_BYTES))
def test_chain_bytes_below_the_dense_base(key):
    from repro.config import practical_options
    from repro.core.solver import LaplacianSolver

    graph = {
        "grid": lambda: G.grid2d(32, 32),
        "wgrid": lambda: G.with_random_weights(
            G.grid2d(32, 32), 0.1, 10.0, seed=0, log_uniform=True),
        "regular": lambda: G.random_regular(1024, 4, seed=0),
        "torus": lambda: G.torus2d(32, 32),
        "smallworld": lambda: G.watts_strogatz(1024, 6, 0.1, seed=0),
        "powerlaw": lambda: G.preferential_attachment(1024, 3, seed=0),
    }[key]()
    opts = practical_options(0).with_(coalesce_emitted=False)
    chain = LaplacianSolver(graph, options=opts, seed=0).chain
    assert chain.nbytes < DENSE_BASE_CHAIN_BYTES[key]
