"""Connectivity and structural validation."""

import numpy as np
import pytest

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
