"""α-boundedness and Lemma 3.2 naive splitting."""

import numpy as np
import pytest

from repro.core.boundedness import (
    is_alpha_bounded,
    leverage_scores,
    naive_split,
    split_counts_for_alpha,
)
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian


class TestLeverageScores:
    def test_tree_edges_leverage_one(self):
        tau = leverage_scores(G.binary_tree(3))
        assert np.allclose(tau, 1.0, atol=1e-9)

    def test_cycle_uniform(self):
        n = 8
        tau = leverage_scores(G.cycle(n))
        assert np.allclose(tau, (n - 1) / n, atol=1e-9)

    def test_reference_graph(self):
        # Measure a cycle's edges against the same cycle via the
        # reference argument: identical results.
        g = G.cycle(6)
        assert np.allclose(leverage_scores(g, reference=g),
                           leverage_scores(g))

    def test_reference_shape_check(self):
        from repro.errors import GraphStructureError

        with pytest.raises(GraphStructureError):
            leverage_scores(G.path(4), reference=G.path(5))


class TestSplitCounts:
    def test_values(self):
        assert split_counts_for_alpha(1.0) == 1
        assert split_counts_for_alpha(0.5) == 2
        assert split_counts_for_alpha(0.3) == 4
        assert split_counts_for_alpha(2.0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_counts_for_alpha(0.0)


class TestNaiveSplit:
    def test_preserves_laplacian(self, zoo_graph):
        H = naive_split(zoo_graph, alpha=0.25)
        assert np.allclose(laplacian(H).toarray(),
                           laplacian(zoo_graph).toarray())

    def test_edge_count(self, zoo_graph):
        # Implicit split: O(m) stored groups, m * ceil(1/alpha) logical
        # copies carried as multiplicities.
        H = naive_split(zoo_graph, alpha=0.2)
        assert H.m == zoo_graph.m
        assert H.m_logical == 5 * zoo_graph.m
        assert np.all(H.multiplicities() == 5)

    def test_materialized_edge_count(self, zoo_graph):
        H = naive_split(zoo_graph, alpha=0.2).materialized()
        assert H.m == 5 * zoo_graph.m
        assert H.mult is None
        implicit = naive_split(zoo_graph, alpha=0.2)
        assert implicit.materialized() == H

    def test_achieves_alpha_boundedness(self):
        g = G.barbell(5, 1)  # contains a leverage-1 bridge
        alpha = 0.25
        H = naive_split(g, alpha)
        assert is_alpha_bounded(H, alpha)

    def test_alpha_one_is_copy(self, zoo_graph):
        H = naive_split(zoo_graph, 1.0)
        assert H == zoo_graph
        assert H is not zoo_graph

    def test_copies_have_equal_weight(self):
        g = G.path(3)
        H = naive_split(g, 1.0 / 3.0)
        # Per-copy weight is w/mult; totals are untouched.
        assert np.allclose(H.w / H.multiplicities(), 1.0 / 3.0)
        assert np.allclose(H.w, g.w)
        assert np.allclose(naive_split(g, 1.0 / 3.0).materialized().w,
                           1.0 / 3.0)

    def test_lemma_3_2_bound_formula(self, zoo_graph):
        # leverage of each copy = tau(e)/k <= 1/k <= alpha
        alpha = 0.2
        H = naive_split(zoo_graph, alpha)
        tau = leverage_scores(H)
        assert np.all(tau <= alpha + 1e-9)


class TestIsAlphaBounded:
    def test_simple_graph_always_1_bounded(self, zoo_graph):
        assert is_alpha_bounded(zoo_graph, 1.0)

    def test_bridge_not_half_bounded(self):
        g = G.barbell(4, 1)
        assert not is_alpha_bounded(g, 0.5)
