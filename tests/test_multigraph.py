"""Unit tests for the MultiGraph substrate."""

import numpy as np
import pytest

from repro.errors import (
    DimensionMismatchError,
    EmptyGraphError,
    GraphStructureError,
)
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph


class TestConstruction:
    def test_basic(self):
        g = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0])
        assert g.n == 3
        assert g.m == 2
        assert g.w.dtype == np.float64

    def test_parallel_edges_allowed(self):
        g = MultiGraph(2, [0, 0, 0], [1, 1, 1], [1.0, 1.0, 1.0])
        assert g.m == 3

    def test_rejects_self_loop(self):
        with pytest.raises(GraphStructureError, match="self-loop"):
            MultiGraph(2, [0], [0], [1.0])

    def test_rejects_zero_weight(self):
        with pytest.raises(GraphStructureError, match="positive"):
            MultiGraph(2, [0], [1], [0.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphStructureError):
            MultiGraph(2, [0], [1], [-1.0])

    def test_rejects_nan_weight(self):
        with pytest.raises(GraphStructureError):
            MultiGraph(2, [0], [1], [float("nan")])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphStructureError, match="out of range"):
            MultiGraph(2, [0], [5], [1.0])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(EmptyGraphError):
            MultiGraph(0, [], [], [])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(DimensionMismatchError):
            MultiGraph(3, [0, 1], [1], [1.0])

    def test_edgeless_graph_ok(self):
        g = MultiGraph(4, [], [], [])
        assert g.m == 0
        assert g.total_weight() == 0.0

    def test_from_edges(self):
        g = MultiGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.m == 2
        assert g.total_weight() == 5.0

    def test_from_edges_empty(self):
        g = MultiGraph.from_edges(3, [])
        assert g.m == 0


class TestDegrees:
    def test_weighted_degrees_triangle(self):
        g = G.cycle(3)
        assert np.allclose(g.weighted_degrees(), [2.0, 2.0, 2.0])

    def test_weighted_degrees_parallel(self):
        g = MultiGraph(2, [0, 0], [1, 1], [1.5, 2.5])
        assert np.allclose(g.weighted_degrees(), [4.0, 4.0])

    def test_multi_degrees(self):
        g = MultiGraph(3, [0, 0], [1, 1], [1.0, 1.0])
        assert list(g.multi_degrees()) == [2, 2, 0]

    def test_degrees_cached(self):
        g = G.path(5)
        assert g.weighted_degrees() is g.weighted_degrees()


class TestAdjacency:
    def test_row_contents(self):
        g = MultiGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 2.0, 3.0])
        nbr, w, eid = g.adjacency().row(0)
        assert sorted(nbr.tolist()) == [1, 2]
        assert sorted(w.tolist()) == [1.0, 3.0]

    def test_each_edge_twice(self, zoo_graph):
        adj = zoo_graph.adjacency()
        assert adj.neighbor.size == 2 * zoo_graph.m
        counts = np.bincount(adj.edge_id, minlength=zoo_graph.m)
        assert np.all(counts == 2)

    def test_indptr_monotone(self, zoo_graph):
        adj = zoo_graph.adjacency()
        assert np.all(np.diff(adj.indptr) >= 0)
        assert adj.indptr[-1] == 2 * zoo_graph.m

    def test_cumweight_strictly_increasing(self, zoo_graph):
        # The bisection oracle's global prefix sums: strictly
        # increasing, so every slot owns a non-empty value interval.
        from repro.sampling.rowsample import RowSampler

        cum = RowSampler(zoo_graph.adjacency())._cum
        if cum.size:
            assert np.all(np.diff(cum) > 0)

    def test_neighbors_sorted_unique(self):
        g = MultiGraph(4, [0, 0, 0], [2, 1, 2], [1.0, 1.0, 1.0])
        assert g.neighbors(0).tolist() == [1, 2]


class TestDerivedGraphs:
    def test_copy_independent(self):
        g = G.path(4)
        h = g.copy()
        h.w[0] = 99.0
        assert g.w[0] == 1.0

    def test_edge_subset(self):
        g = G.path(4)
        h = g.edge_subset(np.array([True, False, True]))
        assert h.m == 2
        assert h.n == 4

    def test_edge_subset_bad_mask(self):
        with pytest.raises(DimensionMismatchError):
            G.path(4).edge_subset(np.array([True]))

    def test_induced_subgraph(self):
        g = G.cycle(6)
        h, vertices = g.induced_subgraph(np.array([0, 1, 2]))
        assert h.n == 3
        assert h.m == 2  # edges (0,1) and (1,2); the wrap edge is cut
        assert vertices.tolist() == [0, 1, 2]

    def test_induced_subgraph_relabels(self):
        g = G.path(5)
        h, _ = g.induced_subgraph(np.array([2, 3, 4]))
        assert h.u.max() < 3 and h.v.max() < 3

    def test_coalesced_merges_parallel(self):
        g = MultiGraph(3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 5.0])
        h = g.coalesced()
        assert h.m == 2
        assert h.total_weight() == 8.0

    def test_coalesced_huge_vertex_count_no_overflow(self):
        # Regression: the old packed key `lo * n + hi` overflowed int64
        # for n > ~3e9; the stacked (lo, hi) key cannot.
        n = 2 ** 33
        a, b = n - 2, n - 1
        g = MultiGraph(n, [a, a, 0], [b, b, a], [1.0, 2.0, 4.0],
                       validate=False)
        h = g.coalesced()
        assert h.m == 2
        pairs = {(int(u), int(v)) for u, v in zip(h.u, h.v)}
        assert pairs == {(a, b), (0, a)}
        assert h.total_weight() == 7.0
        merged = h.w[(h.u == a) & (h.v == b)]
        assert np.allclose(merged, [3.0])

    def test_coalesced_preserves_laplacian(self, zoo_graph):
        from repro.graphs.laplacian import laplacian

        doubled = MultiGraph(
            zoo_graph.n,
            np.concatenate([zoo_graph.u, zoo_graph.u]),
            np.concatenate([zoo_graph.v, zoo_graph.v]),
            np.concatenate([zoo_graph.w * 0.25, zoo_graph.w * 0.75]))
        L1 = laplacian(doubled).toarray()
        L2 = laplacian(doubled.coalesced()).toarray()
        assert np.allclose(L1, L2)

    def test_equality(self):
        assert G.path(4) == G.path(4)
        assert G.path(4) != G.path(5)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(G.path(3))

    def test_repr(self):
        assert repr(G.path(3)) == "MultiGraph(n=3, m=2)"


class TestImplicitMultiplicity:
    def test_default_is_single_copy(self):
        g = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0])
        assert g.mult is None
        assert g.m_logical == g.m == 2
        assert np.all(g.multiplicities() == 1)

    def test_logical_count(self):
        g = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0], mult=[3, 5])
        assert g.m == 2
        assert g.m_logical == 8
        assert repr(g) == "MultiGraph(n=3, m=2, m_logical=8)"

    def test_rejects_nonpositive_mult(self):
        with pytest.raises(GraphStructureError, match="multiplicities"):
            MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0], mult=[1, 0])

    def test_rejects_mult_beyond_int32(self):
        # Regression: oversized multiplicities must raise, not wrap.
        with pytest.raises(GraphStructureError, match="int32"):
            MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0],
                       mult=np.array([1, 2 ** 31], dtype=np.int64),
                       validate=False)

    def test_rejects_mismatched_mult_shape(self):
        with pytest.raises(DimensionMismatchError):
            MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0], mult=[1])

    def test_weighted_degrees_use_totals(self):
        a = MultiGraph(2, [0], [1], [4.0], mult=[4])
        b = MultiGraph(2, [0, 0, 0, 0], [1, 1, 1, 1], [1.0] * 4)
        assert np.allclose(a.weighted_degrees(), b.weighted_degrees())

    def test_multi_degrees_count_logical_copies(self):
        g = MultiGraph(3, [0, 1], [1, 2], [1.0, 1.0], mult=[3, 2])
        assert list(g.multi_degrees()) == [3, 5, 2]

    def test_materialized_expands(self):
        g = MultiGraph(3, [0, 1], [1, 2], [3.0, 2.0], mult=[3, 2])
        x = g.materialized()
        assert x.mult is None
        assert x.m == 5
        assert np.allclose(np.sort(x.w), [1.0, 1.0, 1.0, 1.0, 1.0])
        from repro.graphs.laplacian import laplacian

        assert np.allclose(laplacian(x).toarray(), laplacian(g).toarray())

    def test_equality_compares_logical_multiplicity(self):
        plain = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0])
        ones = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0], mult=[1, 1])
        double = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0], mult=[2, 1])
        assert plain == ones
        assert plain != double

    def test_edge_nbytes_accounts_mult(self):
        plain = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0])
        with_mult = MultiGraph(3, [0, 1], [1, 2], [1.0, 2.0], mult=[2, 2])
        assert with_mult.edge_nbytes > plain.edge_nbytes
