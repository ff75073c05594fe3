"""Laplacian assembly, edge-array application, and block extraction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import DimensionMismatchError, GraphStructureError
from repro.graphs import generators as G
from repro.graphs.laplacian import (
    adjacency_matrix,
    apply_laplacian,
    laplacian,
    laplacian_blocks,
)
from repro.graphs.multigraph import MultiGraph


class TestLaplacian:
    def test_path3_matrix(self):
        L = laplacian(G.path(3)).toarray()
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
                            dtype=float)
        assert np.allclose(L, expected)

    def test_row_sums_zero(self, zoo_graph):
        L = laplacian(zoo_graph)
        assert np.abs(np.asarray(L.sum(axis=1))).max() < 1e-12

    def test_offdiagonal_nonpositive(self, zoo_graph):
        L = laplacian(zoo_graph)
        off = L - sp.diags(L.diagonal())
        if off.nnz:
            assert off.data.max() <= 1e-12

    def test_psd(self, zoo_graph):
        L = laplacian(zoo_graph).toarray()
        evals = np.linalg.eigvalsh(L)
        assert evals.min() > -1e-9

    def test_parallel_edges_coalesce(self):
        g = MultiGraph(2, [0, 0], [1, 1], [1.0, 2.0])
        L = laplacian(g).toarray()
        assert np.allclose(L, [[3, -3], [-3, 3]])

    def test_matches_networkx(self, zoo_graph):
        nx = pytest.importorskip("networkx")
        from repro.graphs.conversions import to_networkx

        L_nx = nx.laplacian_matrix(
            to_networkx(zoo_graph),
            nodelist=range(zoo_graph.n)).toarray().astype(float)
        assert np.allclose(laplacian(zoo_graph).toarray(), L_nx)


class TestApplyLaplacian:
    def test_matches_matrix(self, zoo_graph, rng):
        x = rng.standard_normal(zoo_graph.n)
        assert np.allclose(apply_laplacian(zoo_graph, x),
                           laplacian(zoo_graph) @ x)

    def test_kernel(self, zoo_graph):
        ones = np.ones(zoo_graph.n)
        assert np.abs(apply_laplacian(zoo_graph, ones)).max() < 1e-12

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            apply_laplacian(G.path(3), np.zeros(5))


class TestAdjacencyMatrix:
    def test_symmetric(self, zoo_graph):
        A = adjacency_matrix(zoo_graph)
        assert abs(A - A.T).max() < 1e-12

    def test_zero_diagonal(self, zoo_graph):
        assert np.abs(adjacency_matrix(zoo_graph).diagonal()).max() == 0.0


class TestLaplacianBlocks:
    def _check_blocks(self, g, F, C):
        blocks = laplacian_blocks(g, F, C)
        L = laplacian(g).toarray()
        LFF = L[np.ix_(F, F)]
        LFC = L[np.ix_(F, C)]
        assert np.allclose(np.diag(blocks.X) + blocks.Y.toarray(), LFF)
        assert np.allclose(blocks.L_FC.toarray(), LFC)

    def test_grid_split(self):
        g = G.grid2d(4, 4)
        F = np.arange(0, g.n, 3)
        C = np.setdiff1d(np.arange(g.n), F)
        self._check_blocks(g, F, C)

    def test_random_split(self, zoo_graph, rng):
        perm = rng.permutation(zoo_graph.n)
        cut = max(1, zoo_graph.n // 3)
        F = np.sort(perm[:cut])
        C = np.sort(perm[cut:])
        self._check_blocks(zoo_graph, F, C)

    def test_X_is_degree_to_C(self):
        g = G.path(4)  # 0-1-2-3
        F = np.array([1])
        C = np.array([0, 2, 3])
        blocks = laplacian_blocks(g, F, C)
        assert np.allclose(blocks.X, [2.0])  # edges (0,1) and (1,2)
        assert blocks.Y.nnz == 0

    def test_partition_must_cover(self):
        g = G.path(4)
        with pytest.raises(DimensionMismatchError):
            laplacian_blocks(g, np.array([0]), np.array([1]))

    def test_shapes(self):
        g = G.cycle(6)
        F = np.array([0, 2])
        C = np.array([1, 3, 4, 5])
        blocks = laplacian_blocks(g, F, C)
        assert blocks.nf == 2
        assert blocks.nc == 4
        assert blocks.L_FC.shape == (2, 4)


def _dense_laplacian(g):
    """Reference ``L`` by per-edge accumulation."""
    L = np.zeros((g.n, g.n))
    for a, b, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        L[a, a] += w
        L[b, b] += w
        L[a, b] -= w
        L[b, a] -= w
    return L


def _scipy_laplacian(g):
    """The COO → CSR plus ``diags(deg) − A`` assembly these helpers
    replaced: the nnz reference."""
    A = sp.coo_matrix((np.concatenate([g.w, g.w]),
                       (np.concatenate([g.u, g.v]),
                        np.concatenate([g.v, g.u]))),
                      shape=(g.n, g.n)).tocsr()
    return (sp.diags(np.asarray(A.sum(axis=1)).ravel()) - A).tocsr()


def _scipy_blocks_nnz(g, F, C):
    """``(nnz(Y), nnz(L_FC))`` as the COO path formed them:
    ``Y = diags(deg_in_F) − A_F`` and ``L_FC`` by COO → CSR."""
    nf, nc = F.size, C.size
    pos = np.empty(g.n, dtype=np.int64)
    pos[F], pos[C] = np.arange(nf), np.arange(nc)
    uF, vF = np.isin(g.u, F), np.isin(g.v, F)
    ff = uF & vF
    uf, vf, wf = pos[g.u[ff]], pos[g.v[ff]], g.w[ff]
    A_F = sp.coo_matrix((np.r_[wf, wf], (np.r_[uf, vf], np.r_[vf, uf])),
                        shape=(nf, nf)).tocsr()
    deg = np.bincount(uf, wf, nf) + np.bincount(vf, wf, nf)
    Y = (sp.diags(deg) - A_F).tocsr()
    a, b = uF & ~vF, vF & ~uF
    L_FC = sp.coo_matrix(
        (-np.r_[g.w[a], g.w[b]],
         (np.r_[pos[g.u[a]], pos[g.v[b]]], np.r_[pos[g.v[a]], pos[g.u[b]]])),
        shape=(nf, nc)).tocsr()
    return Y.nnz, L_FC.nnz


def _assert_canonical(M):
    assert isinstance(M, sp.csr_matrix)
    for i in range(M.shape[0]):
        row = M.indices[M.indptr[i]:M.indptr[i + 1]]
        assert np.all(np.diff(row) > 0), f"row {i} unsorted or duplicated"
    assert np.all(M.data != 0), "stored zero"


def _heavy_duplicates():
    """12 vertices, 400 edge groups over ~30 pairs in both orientations."""
    rng = np.random.default_rng(7)
    pairs = rng.choice(12, size=(30, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pick = pairs[rng.integers(0, len(pairs), 400)]
    flip = rng.random(400) < 0.5
    u = np.where(flip, pick[:, 1], pick[:, 0])
    v = np.where(flip, pick[:, 0], pick[:, 1])
    return MultiGraph(12, u, v, rng.uniform(0.01, 100.0, 400))


def _assembly_graphs():
    from tests.test_block_cholesky import GENERATOR_FAMILIES

    graphs = {name: make for name, make in GENERATOR_FAMILIES.items()}
    graphs["heavy_duplicates"] = _heavy_duplicates
    return graphs


ASSEMBLY_GRAPHS = _assembly_graphs()


class TestOutOfRangeEndpoints:
    """An endpoint outside ``[0, n)`` on an unvalidated graph raises
    instead of reaching the assembler's C kernels."""

    @pytest.mark.parametrize("u,v", [([0, 5], [1, 2]), ([0, 1], [1, -1])])
    @pytest.mark.parametrize("build", [laplacian, adjacency_matrix])
    def test_assembly_raises(self, build, u, v):
        g = MultiGraph(3, u, v, [1.0, 1.0], validate=False)
        with pytest.raises(GraphStructureError, match="out of range"):
            build(g)


class TestCanonicalAssembly:
    """Direct CSR assembly against a dense reference and against the
    scipy COO path's nnz, on every generator family and a multigraph
    whose pairs each carry many parallel edges."""

    @pytest.mark.parametrize("family", sorted(ASSEMBLY_GRAPHS))
    def test_laplacian(self, family):
        g = ASSEMBLY_GRAPHS[family]()
        L = laplacian(g)
        _assert_canonical(L)
        assert L.nnz == _scipy_laplacian(g).nnz
        np.testing.assert_allclose(L.toarray(), _dense_laplacian(g),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", sorted(ASSEMBLY_GRAPHS))
    def test_adjacency_exactly_symmetric(self, family):
        A = adjacency_matrix(ASSEMBLY_GRAPHS[family]())
        _assert_canonical(A)
        assert (A != A.T).nnz == 0

    @pytest.mark.parametrize("family", sorted(ASSEMBLY_GRAPHS))
    def test_blocks(self, family):
        g = ASSEMBLY_GRAPHS[family]()
        rng = np.random.default_rng(3)
        perm = rng.permutation(g.n)
        F, C = np.sort(perm[:g.n // 3]), np.sort(perm[g.n // 3:])
        blocks = laplacian_blocks(g, F, C)
        Ld = _dense_laplacian(g)
        np.testing.assert_allclose(np.diag(blocks.X) + blocks.Y.toarray(),
                                   Ld[np.ix_(F, F)], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(blocks.L_FC.toarray(), Ld[np.ix_(F, C)],
                                   rtol=1e-12, atol=1e-12)
        _assert_canonical(blocks.Y)
        _assert_canonical(blocks.L_FC)
        assert (blocks.Y.nnz, blocks.L_FC.nnz) == _scipy_blocks_nnz(g, F, C)

    def test_three_copies_sum_in_edge_order(self):
        # 1e16 + 1 rounds back to 1e16; 1 + 1 + 1e16 does not.
        first = MultiGraph(3, [0, 1, 0, 1], [1, 0, 1, 2],
                           [1e16, 1.0, 1.0, 1.0])
        last = MultiGraph(3, [0, 1, 0, 1], [1, 0, 1, 2],
                          [1.0, 1.0, 1e16, 1.0])
        for g, total in ((first, 1e16), (last, 1e16 + 2)):
            A = adjacency_matrix(g)
            assert A[0, 1] == A[1, 0] == total
            assert laplacian(g)[0, 1] == -total
            blocks = laplacian_blocks(g, np.array([0]), np.array([1, 2]))
            assert blocks.L_FC[0, 0] == -total
            blocks = laplacian_blocks(g, np.array([0, 1]), np.array([2]))
            assert blocks.Y[0, 1] == blocks.Y[1, 0] == -total

    def test_isolated_vertex_degree_not_stored(self):
        g = MultiGraph(4, [0, 1], [1, 2], [1.0, 2.0])
        L = laplacian(g)
        assert L.nnz == _scipy_laplacian(g).nnz == 7
        assert L.indptr[4] == L.indptr[3]
