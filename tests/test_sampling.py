"""Alias tables, row sampling, and the walk engine."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.pram.executor import ExecutionContext
from repro.sampling import AliasTable, RowSampler, WalkEngine


class TestAliasTable:
    def test_pmf_matches_weights(self, rng):
        w = rng.random(37) + 0.01
        table = AliasTable(w)
        assert np.allclose(table.pmf(), w / w.sum(), atol=1e-12)

    def test_pmf_with_zeros(self):
        w = np.array([0.0, 1.0, 0.0, 3.0])
        assert np.allclose(AliasTable(w).pmf(), [0, 0.25, 0, 0.75])

    def test_empirical_distribution(self):
        w = np.array([1.0, 4.0, 5.0])
        s = AliasTable(w).sample(200_000, seed=0)
        freq = np.bincount(s, minlength=3) / s.size
        assert np.allclose(freq, [0.1, 0.4, 0.5], atol=0.01)

    def test_single_item(self):
        assert np.all(AliasTable(np.array([2.0])).sample(10, seed=0) == 0)

    def test_zero_size_sample(self):
        assert AliasTable(np.array([1.0])).sample(0, seed=0).size == 0

    def test_rejects_bad_weights(self):
        with pytest.raises(SamplingError):
            AliasTable(np.array([]))
        with pytest.raises(SamplingError):
            AliasTable(np.array([-1.0, 2.0]))
        with pytest.raises(SamplingError):
            AliasTable(np.array([0.0, 0.0]))
        with pytest.raises(SamplingError):
            AliasTable(np.array([np.inf]))

    def test_rejects_negative_size(self):
        with pytest.raises(SamplingError):
            AliasTable(np.array([1.0])).sample(-1)

    def test_deterministic_given_seed(self):
        t = AliasTable(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(t.sample(100, seed=5), t.sample(100, seed=5))


class TestRowSampler:
    def test_slots_stay_in_row(self, zoo_graph, rng):
        adj = zoo_graph.adjacency()
        sampler = RowSampler(adj)
        rows = rng.integers(0, zoo_graph.n, size=2000)
        slots = sampler.sample(rows, seed=1)
        assert np.all(slots >= adj.indptr[rows])
        assert np.all(slots < adj.indptr[rows + 1])

    def test_row_totals_are_degrees(self, zoo_graph):
        sampler = RowSampler(zoo_graph.adjacency())
        assert np.allclose(sampler.row_totals(),
                           zoo_graph.weighted_degrees())

    def test_weight_proportional(self):
        # Star with very asymmetric weights from the centre.
        g = MultiGraph(4, [0, 0, 0], [1, 2, 3], [1.0, 1.0, 8.0])
        sampler = RowSampler(g.adjacency())
        slots = sampler.sample(np.zeros(100_000, dtype=np.int64), seed=2)
        picked = g.adjacency().neighbor[slots]
        freq = np.bincount(picked, minlength=4) / picked.size
        assert np.allclose(freq[[1, 2, 3]], [0.1, 0.1, 0.8], atol=0.01)

    def test_isolated_vertex_raises(self):
        g = MultiGraph(3, [0], [1], [1.0])
        sampler = RowSampler(g.adjacency())
        with pytest.raises(SamplingError):
            sampler.sample(np.array([2]), seed=0)


class TestWalkEngine:
    def test_walkers_end_on_terminals(self, zoo_graph, rng):
        is_term = np.zeros(zoo_graph.n, dtype=bool)
        is_term[rng.choice(zoo_graph.n, size=max(1, zoo_graph.n // 3),
                           replace=False)] = True
        engine = WalkEngine(zoo_graph, is_term)
        res = engine.run(np.arange(zoo_graph.n), seed=1)
        assert is_term[res.terminal].all()

    def test_start_on_terminal_is_trivial(self):
        g = G.path(5)
        is_term = np.array([True, False, False, False, True])
        res = WalkEngine(g, is_term).run(np.array([0, 4]), seed=0)
        assert res.terminal.tolist() == [0, 4]
        assert res.length.tolist() == [0, 0]
        assert np.allclose(res.resistance, 0.0)

    def test_resistance_accumulates(self):
        # Path 0-1-2 with terminal {0, 2}: a walker from 1 takes exactly
        # one step of resistance 1/w.
        g = MultiGraph(3, [0, 1], [1, 2], [2.0, 2.0])
        is_term = np.array([True, False, True])
        res = WalkEngine(g, is_term).run(np.full(1000, 1), seed=3)
        assert np.allclose(res.resistance, 0.5)
        assert np.all(res.length == 1)

    def test_max_steps_guard(self):
        # Terminal unreachable in few steps from a long path's far end.
        g = G.path(200)
        is_term = np.zeros(200, dtype=bool)
        is_term[0] = True
        with pytest.raises(SamplingError, match="exceeded"):
            WalkEngine(g, is_term).run(np.array([199]), seed=0,
                                       max_steps=3)

    def test_requires_nonempty_terminal(self):
        g = G.path(3)
        with pytest.raises(SamplingError):
            WalkEngine(g, np.zeros(3, dtype=bool))

    def test_terminal_mask_shape_checked(self):
        with pytest.raises(SamplingError):
            WalkEngine(G.path(3), np.zeros(5, dtype=bool))

    def test_hitting_distribution_path(self):
        # From the middle of a 3-path with equal weights, the walker
        # hits each end w.p. 1/2.
        g = G.path(3)
        is_term = np.array([True, False, True])
        res = WalkEngine(g, is_term).run(np.full(40_000, 1), seed=4)
        frac0 = float(np.mean(res.terminal == 0))
        assert abs(frac0 - 0.5) < 0.01

    def test_hitting_distribution_weighted(self):
        # Gambler's ruin with asymmetric conductances: from vertex 1 of
        # 0 -(3)- 1 -(1)- 2, P(hit 0) = 3/4.
        g = MultiGraph(3, [0, 1], [1, 2], [3.0, 1.0])
        is_term = np.array([True, False, True])
        res = WalkEngine(g, is_term).run(np.full(40_000, 1), seed=5)
        frac0 = float(np.mean(res.terminal == 0))
        assert abs(frac0 - 0.75) < 0.01

    def test_chunked_matches_semantics(self):
        g = G.grid2d(6, 6)
        is_term = np.zeros(g.n, dtype=bool)
        is_term[:6] = True
        engine = WalkEngine(g, is_term)
        # 36 walkers at 9 per chunk: four chunks.
        res = engine.run_chunked(np.arange(g.n),
                                 ExecutionContext(chunk_items=9), seed=6)
        assert is_term[res.terminal].all()
        assert res.terminal.size == g.n

    def test_chunked_empty_input(self):
        g = G.path(3)
        is_term = np.array([True, False, True])
        res = WalkEngine(g, is_term).run_chunked(
            np.empty(0, dtype=np.int64), ExecutionContext(), seed=0)
        assert res.terminal.size == 0
