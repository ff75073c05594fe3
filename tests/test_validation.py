"""Connectivity and structural validation."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.errors import GraphStructureError, NotConnectedError
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.graphs.validation import (
    connected_components,
    is_connected,
    require_connected,
    validate_graph,
)


class TestConnectivity:
    def test_zoo_connected(self, zoo_graph):
        assert is_connected(zoo_graph)

    def test_disjoint_union_disconnected(self):
        g = G.union_disjoint(G.path(3), G.cycle(4))
        assert not is_connected(g)
        labels = connected_components(g)
        assert labels.max() == 1
        assert set(labels[:3]) == {0}
        assert set(labels[3:]) == {1}

    def test_singleton_connected(self):
        assert is_connected(MultiGraph(1, [], [], []))

    def test_edgeless_multi_vertex_disconnected(self):
        assert not is_connected(MultiGraph(3, [], [], []))

    def test_isolated_vertex(self):
        g = MultiGraph(4, [0, 1], [1, 2], [1.0, 1.0])
        labels = connected_components(g)
        assert labels[3] != labels[0]

    def test_labels_in_order_of_first_appearance(self):
        labels = connected_components(
            MultiGraph(4, [3, 1], [0, 2], [1.0, 1.0]))
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [0, 1, 1, 0])

    def test_components_matches_networkx(self, zoo_graph):
        nx = pytest.importorskip("networkx")
        from repro.graphs.conversions import to_networkx

        # The zoo graphs are connected: add a path and an isolated
        # vertex so the partition has several blocks to match.
        g = G.union_disjoint(G.union_disjoint(zoo_graph, G.path(3)),
                             MultiGraph(1, [], [], []))
        labels = connected_components(g)
        ours = {frozenset(np.flatnonzero(labels == c).tolist())
                for c in range(labels.max() + 1)}
        theirs = {frozenset(c) for c in
                  nx.connected_components(to_networkx(g))}
        assert ours == theirs

    def test_require_connected_raises(self):
        g = G.union_disjoint(G.path(2), G.path(2))
        with pytest.raises(NotConnectedError):
            require_connected(g)

    def test_require_connected_passes(self):
        require_connected(G.path(5))


def _reference_labels(g):
    """The COO, ``directed=False`` labelling the certificate replaced."""
    adj = sp.coo_matrix((np.ones(g.m), (g.u, g.v)), shape=(g.n, g.n))
    return csgraph.connected_components(adj, directed=False)[1]


def _certificate_graphs():
    from tests.test_block_cholesky import GENERATOR_FAMILIES

    graphs = dict(GENERATOR_FAMILIES)
    graphs.update({
        "barbell_union": lambda: G.union_disjoint(G.barbell(6, 3),
                                                  G.barbell(4, 1)),
        "isolated": lambda: G.union_disjoint(
            MultiGraph(3, [], [], []), G.union_disjoint(
                G.path(4), MultiGraph(2, [], [], []))),
        "edgeless": lambda: MultiGraph(5, [], [], []),
        "parallel": lambda: MultiGraph(6, [4, 1, 4, 3, 1], [1, 4, 1, 5, 4],
                                       [1.0, 2.0, 3.0, 1.0, 1.0]),
    })
    return graphs


CERTIFICATE_GRAPHS = _certificate_graphs()


class TestCertificate:
    """The counting-sorted ``u → v`` certificate labels exactly as the
    symmetric COO labelling did."""

    @pytest.mark.parametrize("family", sorted(CERTIFICATE_GRAPHS))
    def test_labels_match_undirected_coo(self, family):
        g = CERTIFICATE_GRAPHS[family]()
        np.testing.assert_array_equal(connected_components(g),
                                      _reference_labels(g))

    @pytest.mark.parametrize("family", sorted(CERTIFICATE_GRAPHS))
    def test_components_on_counts(self, family):
        from repro.core.block_cholesky import _components_on

        g = CERTIFICATE_GRAPHS[family]()
        ends = np.concatenate([g.u, g.v])
        size = int(ends.max()) + 1 if ends.size else 0
        want = int(_reference_labels(g).max()) + 1 - (g.n - size)
        count, labels = _components_on(g, size)
        assert count == want
        np.testing.assert_array_equal(labels, _reference_labels(g))


class TestOutOfRangeEndpoints:
    """Endpoints outside ``[0, n)`` on an unvalidated graph raise before
    any C kernel indexes with them."""

    @pytest.mark.parametrize("u,v", [([0, 5], [1, 2]), ([0, 1], [1, -1]),
                                      ([0, -2], [1, 2]), ([0, 1], [3, 2])])
    def test_connected_components_raises(self, u, v):
        g = MultiGraph(3, u, v, [1.0, 1.0], validate=False)
        with pytest.raises(GraphStructureError, match="out of range"):
            connected_components(g)

    def test_adjacency_raises(self):
        g = MultiGraph(3, [0, 5], [1, 2], [1.0, 1.0], validate=False)
        with pytest.raises(GraphStructureError, match="out of range"):
            g.adjacency()


class TestValidateGraph:
    def test_valid(self, zoo_graph):
        validate_graph(zoo_graph)

    def test_detects_in_place_corruption(self):
        g = G.path(3)
        g.w[0] = -5.0  # bypasses constructor validation
        with pytest.raises(GraphStructureError, match="non-positive"):
            validate_graph(g, connected=False)

    def test_detects_nan_corruption(self):
        g = G.path(3)
        g.w[1] = float("nan")
        with pytest.raises(GraphStructureError, match="non-finite"):
            validate_graph(g, connected=False)

    def test_detects_disconnection(self):
        g = G.union_disjoint(G.path(2), G.path(2))
        with pytest.raises(NotConnectedError):
            validate_graph(g)
