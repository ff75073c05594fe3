"""5DDSubset (Algorithm 3, Lemma 3.4)."""

import numpy as np
import pytest

from repro.config import SolverOptions
from repro.core.dd_subset import (
    DDSubsetStats,
    extend_independent,
    five_dd_subset,
    verify_five_dd,
)
from repro.errors import FactorizationError
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.linalg.jacobi import is_k_diagonally_dominant
from repro.pram import primitives as P
from repro.pram import use_ledger


class TestFiveDDSubset:
    def test_result_is_five_dd(self, zoo_graph):
        F = five_dd_subset(zoo_graph, seed=0)
        assert verify_five_dd(zoo_graph, F)

    def test_result_is_five_dd_matrix_sense(self):
        from repro.graphs.laplacian import laplacian

        g = G.grid2d(10, 10)
        F = five_dd_subset(g, seed=1)
        LFF = laplacian(g).toarray()[np.ix_(F, F)]
        assert is_k_diagonally_dominant(LFF, 5.0)

    def test_size_lower_bound(self):
        # Lemma 3.4: |F| >= n/40 (we accept > n*dd_fraction).
        for seed in range(5):
            g = G.grid2d(12, 12)
            F = five_dd_subset(g, seed=seed)
            assert F.size > g.n / 40

    def test_expected_constant_rounds(self):
        # Lemma 3.4's proof: success probability >= 1/2 per round.
        stats = DDSubsetStats()
        g = G.random_regular(200, 4, seed=0)
        rounds = []
        for seed in range(20):
            s = DDSubsetStats()
            five_dd_subset(g, seed=seed, stats=s)
            rounds.append(s.rounds)
        assert np.mean(rounds) <= 4.0

    def test_respects_active_set(self):
        g = G.grid2d(8, 8)
        active = np.arange(0, g.n, 2)
        F = five_dd_subset(g, active=active, seed=2)
        assert np.all(np.isin(F, active))

    def test_excludes_zero_degree_vertices(self):
        # Vertex 3 isolated: must never enter F (it would break X > 0).
        g = MultiGraph(4, [0, 1], [1, 2], [1.0, 1.0])
        for seed in range(10):
            F = five_dd_subset(g, seed=seed)
            assert 3 not in F

    def test_singleton_eligible(self):
        g = MultiGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        F = five_dd_subset(g, active=np.array([1]), seed=0)
        assert F.tolist() == [1]

    def test_no_edges_raises(self):
        g = MultiGraph(5, [], [], [])
        with pytest.raises(FactorizationError):
            five_dd_subset(g, seed=0)

    def test_sorted_output(self, zoo_graph):
        F = five_dd_subset(zoo_graph, seed=3)
        assert np.all(np.diff(F) > 0)

    def test_deterministic_given_seed(self):
        g = G.erdos_renyi(60, 0.1, seed=0)
        assert np.array_equal(five_dd_subset(g, seed=9),
                              five_dd_subset(g, seed=9))

    def test_independent_set_fully_kept(self):
        # A star's leaves never neighbour each other: any sampled
        # candidate set not containing the centre passes entirely.
        g = G.star(50)
        F = five_dd_subset(g, seed=1)
        assert verify_five_dd(g, F)

    def test_custom_thresholds(self):
        opts = SolverOptions(dd_threshold=0.1)
        g = G.grid2d(10, 10)
        F = five_dd_subset(g, seed=4, options=opts)
        assert verify_five_dd(g, F, threshold=0.1)


def _extend(graph, seed=0, active=None):
    """Algorithm 3 then the extension, on one generator (the order
    ``block_cholesky`` draws in).  Returns ``(active, F, F ∪ S)``."""
    rng = np.random.default_rng(seed)
    if active is None:
        active = np.arange(graph.n, dtype=np.int64)
    F = five_dd_subset(graph, active=active, seed=rng)
    return active, F, extend_independent(graph, active, F, seed=rng)


def _mask(n, idx):
    out = np.zeros(n, dtype=bool)
    out[idx] = True
    return out


class TestExtendIndependent:
    def test_contains_F_sorted_within_active(self, zoo_graph):
        active, F, out = _extend(zoo_graph, seed=1)
        assert np.all(np.isin(F, out))
        assert np.all(np.diff(out) > 0)
        assert np.all(np.isin(out, active))

    def test_S_independent_and_apart_from_F(self, zoo_graph):
        g = zoo_graph
        _, F, out = _extend(g, seed=2)
        inS = _mask(g.n, np.setdiff1d(out, F))
        inF = _mask(g.n, F)
        assert not np.any(inS[g.u] & inS[g.v])
        assert not np.any((inS[g.u] & inF[g.v]) | (inF[g.u] & inS[g.v]))

    def test_maximal(self, zoo_graph):
        # Every active vertex left out has a neighbour in F ∪ S or no
        # edge at all.
        g = zoo_graph
        active, _, out = _extend(g, seed=3)
        chosen = _mask(g.n, out)
        near = np.zeros(g.n, dtype=bool)
        near[g.u[chosen[g.v]]] = True
        near[g.v[chosen[g.u]]] = True
        left = np.setdiff1d(active, out)
        assert np.all(near[left] | (g.weighted_degrees()[left] == 0))

    def test_extension_stays_five_dd(self, zoo_graph):
        _, _, out = _extend(zoo_graph, seed=4)
        assert verify_five_dd(zoo_graph, out)

    def test_C_never_emptied(self, zoo_graph):
        for seed in range(5):
            active, F, out = _extend(zoo_graph, seed=seed)
            if F.size < active.size:
                assert out.size < active.size

    def test_grows_F_on_a_grid(self):
        # A 5-DD sample keeps ~n/20 grid vertices; the extension packs
        # the rest of the grid with an independent set.
        g = G.grid2d(20, 20)
        _, F, out = _extend(g, seed=5)
        assert out.size > 4 * F.size
        assert out.size <= g.n // 2

    def test_respects_active_and_zero_degree(self):
        # Vertices 4 and 5 carry no edge; 0..3 form a path.
        g = MultiGraph(6, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        for seed in range(10):
            _, _, out = _extend(g, seed=seed)
            assert not np.isin([4, 5], out).any()
            _, _, out = _extend(g, seed=seed, active=np.arange(4))
            assert np.all(out < 4)

    def test_nothing_free_draws_nothing(self):
        # In a clique every vertex touches F: F comes back unchanged and
        # the generator is not advanced.
        g = G.complete(12)
        F = np.array([3])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        stats = DDSubsetStats()
        out = extend_independent(g, np.arange(g.n), F, seed=rng, stats=stats)
        assert out.tolist() == [3]
        assert stats.rounds == 0
        assert rng.bit_generator.state == before

    def test_isolated_free_vertices_join_in_one_round(self):
        # A star with F = one leaf: the centre touches F, the other
        # leaves are free and pairwise non-adjacent.
        g = G.star(10)
        center = int(np.argmax(g.weighted_degrees()))
        leaf = int(np.flatnonzero(np.arange(g.n) != center)[0])
        stats = DDSubsetStats()
        out = extend_independent(g, np.arange(g.n), np.array([leaf]),
                                 seed=0, stats=stats)
        assert out.tolist() == np.setdiff1d(np.arange(g.n),
                                            [center]).tolist()
        assert stats.rounds == 1

    def test_deterministic_given_seed(self, zoo_graph):
        a = _extend(zoo_graph, seed=9)[2]
        b = _extend(zoo_graph, seed=9)[2]
        assert np.array_equal(a, b)

    def test_few_luby_rounds_each_charged(self):
        g = G.grid2d(30, 30)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            F = five_dd_subset(g, seed=rng)
            stats = DDSubsetStats()
            with use_ledger() as ledger:
                extend_independent(g, np.arange(g.n), F, seed=rng,
                                   stats=stats)
            assert 1 <= stats.rounds <= 8
            assert ledger.by_label["dd_extend_round"].work == pytest.approx(
                stats.rounds * P.map_cost(g.m)[0])
            assert sum(stats.accepted) > 0


class TestVerifyFiveDD:
    def test_rejects_clique_subset(self):
        g = G.complete(10)
        F = np.arange(5)  # half of a clique: heavily interconnected
        assert not verify_five_dd(g, F)

    def test_accepts_singleton(self, zoo_graph):
        assert verify_five_dd(zoo_graph, np.array([0]))

    def test_accepts_independent_set(self):
        g = G.cycle(10)
        F = np.arange(0, 10, 2)[:3]  # pairwise non-adjacent
        assert verify_five_dd(g, F)
