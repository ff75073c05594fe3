"""TerminalWalks (Algorithm 4): Lemmas 5.1, 5.2, and 5.4."""

import numpy as np
import pytest

from repro.core.boundedness import leverage_scores, naive_split
from repro.core.dd_subset import five_dd_subset, verify_five_dd
from repro.core.terminal_walks import terminal_walks
from repro.errors import SamplingError
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.pinv import exact_schur_complement


class TestBasicContract:
    def test_edges_touch_only_C(self, zoo_graph, rng):
        C = np.sort(rng.choice(zoo_graph.n,
                               size=max(2, zoo_graph.n // 2),
                               replace=False))
        H = terminal_walks(zoo_graph, C, seed=0)
        in_C = np.zeros(zoo_graph.n, dtype=bool)
        in_C[C] = True
        assert in_C[H.u].all() and in_C[H.v].all()

    def test_edge_count_never_increases(self, zoo_graph, rng):
        # Lemma 5.4 part 1.
        C = np.sort(rng.choice(zoo_graph.n,
                               size=max(2, zoo_graph.n // 2),
                               replace=False))
        for seed in range(5):
            H = terminal_walks(zoo_graph, C, seed=seed)
            assert H.m <= zoo_graph.m

    def test_edge_within_C_kept_verbatim(self):
        # Both endpoints in C: the walk is empty and f_e = e.
        g = G.path(3)
        H = terminal_walks(g, np.array([0, 1, 2]), seed=0)
        assert H.m == 2
        assert np.allclose(laplacian(H).toarray(), laplacian(g).toarray())

    def test_empty_graph(self):
        g = MultiGraph(4, [], [], [])
        H = terminal_walks(g, np.array([0, 1]), seed=0)
        assert H.m == 0

    def test_rejects_empty_C(self):
        with pytest.raises(SamplingError):
            terminal_walks(G.path(3), np.array([], dtype=np.int64))

    def test_stats(self):
        g = G.grid2d(5, 5)
        F = five_dd_subset(g, seed=0)
        C = np.setdiff1d(np.arange(g.n), F)
        H, stats = terminal_walks(g, C, seed=1, return_stats=True)
        assert stats.edges_in == g.m
        assert stats.edges_out == H.m
        assert stats.edges_out + stats.self_loops_dropped == g.m
        assert stats.max_walk_length >= stats.mean_walk_length >= 0

    def test_deterministic_given_seed(self):
        g = G.grid2d(5, 5)
        C = np.arange(0, g.n, 2)
        assert terminal_walks(g, C, seed=7) == terminal_walks(g, C, seed=7)


class TestLemma51Unbiased:
    """E[L_H] = SC(L_G, C) — statistical check on small graphs."""

    @pytest.mark.parametrize("maker,Cids", [
        (lambda: G.path(5), [0, 4]),
        (lambda: G.cycle(6), [0, 2, 4]),
        (lambda: G.with_random_weights(G.complete(6), 0.5, 2.0, seed=1),
         [0, 1, 2]),
    ])
    def test_unbiased(self, maker, Cids):
        g = maker()
        C = np.asarray(Cids)
        SC = exact_schur_complement(laplacian(g).toarray(), C)
        trials = 4000
        rng = np.random.default_rng(0)
        acc = np.zeros((C.size, C.size))
        for _ in range(trials):
            H = terminal_walks(g, C, seed=rng)
            acc += laplacian(H).toarray()[np.ix_(C, C)]
        acc /= trials
        scale = np.abs(SC).max()
        # Monte-Carlo tolerance: generous but catches systematic bias.
        assert np.abs(acc - SC).max() < 0.08 * scale

    def test_unbiased_on_multigraph(self):
        # Parallel edges must be handled per multi-edge (Lemma 3.7's
        # multigraph extension).
        g = MultiGraph(4, [0, 0, 1, 2, 1], [1, 1, 2, 3, 3],
                       [1.0, 2.0, 1.0, 1.5, 0.5])
        C = np.array([0, 3])
        SC = exact_schur_complement(laplacian(g).toarray(), C)
        rng = np.random.default_rng(1)
        acc = np.zeros((2, 2))
        trials = 6000
        for _ in range(trials):
            H = terminal_walks(g, C, seed=rng)
            acc += laplacian(H).toarray()[np.ix_(C, C)]
        acc /= trials
        assert np.abs(acc - SC).max() < 0.08 * np.abs(SC).max()


class TestLemma52AlphaClosure:
    def test_new_edges_alpha_bounded_wrt_original(self):
        alpha = 0.25
        g0 = G.grid2d(5, 5)
        g = naive_split(g0, alpha)
        F = five_dd_subset(g, seed=0)
        C = np.setdiff1d(np.arange(g.n), F)
        for seed in range(3):
            H = terminal_walks(g, C, seed=seed)
            tau = leverage_scores(H, reference=g0)
            assert np.all(tau <= alpha + 1e-9)


class TestLemma54WalkLengths:
    def test_short_walks_under_5dd(self):
        g = naive_split(G.grid2d(10, 10), 0.5)
        F = five_dd_subset(g, seed=0)
        C = np.setdiff1d(np.arange(g.n), F)
        _, stats = terminal_walks(g, C, seed=1, return_stats=True)
        # Escape probability >= 4/5 per step: mean length O(1),
        # max O(log m) whp.  Generous constants.
        assert stats.mean_walk_length < 2.0
        assert stats.max_walk_length <= 4 * np.log2(max(g.m, 2)) + 8
        assert stats.total_steps <= 4 * g.m

    def test_interior_not_5dd_hits_the_cap(self):
        # Lemma 5.4 needs V \ C to be 5-DD.  Here the interior {1, 2}
        # is joined by a heavy edge, so a walk escapes to C = {0, 3}
        # with probability ~1e-6 per step and a small cap is reached:
        # the documented SamplingError, not a silent long loop.
        g = MultiGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 1e6, 1.0])
        assert not verify_five_dd(g, np.array([1, 2]))
        with pytest.raises(SamplingError, match="5-DD"):
            terminal_walks(g, np.array([0, 3]), seed=0, max_steps=8)

    def test_resistance_composition_on_path(self):
        # Eliminating the middle of a 3-path: every surviving walk is
        # exactly 0-1-2 (the terminals block any detour), so every
        # emitted edge has weight exactly 1/(1/w1 + 1/w2) = 4/3.
        g = MultiGraph(3, [0, 1], [1, 2], [2.0, 4.0])
        rng = np.random.default_rng(0)
        seen_any = False
        for _ in range(50):
            H = terminal_walks(g, np.array([0, 2]), seed=rng)
            assert H.m <= 2
            if H.m:
                seen_any = True
                assert np.allclose(H.w, 4.0 / 3.0)
        assert seen_any
