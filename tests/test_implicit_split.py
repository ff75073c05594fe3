"""Implicit α-split multigraphs: equivalence with materialised splits.

Three contracts (see DESIGN.md):

1. ``naive_split`` with implicit multiplicities preserves the Laplacian
   *exactly* (bit-identical arrays — the stored totals are untouched)
   and its logical copies are α-bounded.
2. ``terminal_walks`` consuming an implicit split is statistically
   indistinguishable from the same walk on the materialised split:
   both are unbiased estimators of the same Schur complement, checked
   by comparing Monte-Carlo means under a fixed seed strategy.
3. ``WalkEngine`` compaction and CSR restriction are pure
   optimisations: for the same seed they produce bit-identical
   results to the uncompacted / unrestricted reference loops.
"""

import numpy as np
import pytest

from repro.baselines import seed_approx_schur, seed_terminal_walks
from repro.core.boundedness import (
    is_alpha_bounded,
    leverage_scores,
    naive_split,
    split_counts_for_alpha,
)
from repro.core.schur import approx_schur
from repro.core.terminal_walks import terminal_walks
from repro.errors import SamplingError
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.pinv import exact_schur_complement
from repro.sampling.walks import WalkEngine


class TestImplicitSplitExact:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1])
    def test_laplacian_bit_identical(self, zoo_graph, alpha):
        H = naive_split(zoo_graph, alpha)
        L_G = laplacian(zoo_graph)
        L_H = laplacian(H)
        # Not just allclose: the split never touches the stored totals,
        # so the assembled Laplacians agree to the last bit.
        assert (L_H != L_G).nnz == 0

    def test_materialized_laplacian_matches(self, zoo_graph):
        H = naive_split(zoo_graph, 0.2)
        M = H.materialized()
        assert np.allclose(laplacian(M).toarray(),
                           laplacian(zoo_graph).toarray())

    @pytest.mark.parametrize("alpha", [0.5, 0.2])
    def test_implicit_split_alpha_bounded(self, zoo_graph, alpha):
        H = naive_split(zoo_graph, alpha)
        assert is_alpha_bounded(H, alpha)
        tau = leverage_scores(H)
        assert tau.shape == (H.m,)
        assert np.all(tau <= alpha + 1e-9)

    def test_per_copy_scores_match_materialized(self, zoo_graph):
        H = naive_split(zoo_graph, 0.25)
        tau_implicit = np.repeat(leverage_scores(H), H.multiplicities())
        tau_explicit = leverage_scores(H.materialized())
        assert np.allclose(tau_implicit, tau_explicit)

    def test_split_counts_consistency(self, zoo_graph):
        for alpha in (1.0, 0.5, 0.3, 0.05):
            H = naive_split(zoo_graph, alpha)
            k = split_counts_for_alpha(alpha)
            assert H.m_logical == k * zoo_graph.m

    def test_composed_splits_multiply(self):
        g = G.path(4)
        H = naive_split(naive_split(g, 0.5), 0.25)
        assert H.m_logical == 2 * 4 * g.m
        # Materialising a split of an already-split graph must equal
        # the materialization of the implicit result (copies compose).
        mat = naive_split(naive_split(g, 0.5), 0.25).materialized()
        assert mat == H.materialized()
        assert np.allclose(mat.w, 1.0 / 8.0)

    def test_oversized_split_raises(self):
        from repro.errors import GraphStructureError

        g = naive_split(G.path(3), 1.0 / 70_000)
        with pytest.raises(GraphStructureError, match="int32"):
            naive_split(g, 1.0 / 70_000)

    def test_split_copies_rejects_nonpositive(self):
        from repro.errors import GraphStructureError

        g = G.path(3)
        with pytest.raises(GraphStructureError, match=">= 1"):
            g.split_copies(0)
        with pytest.raises(GraphStructureError, match=">= 1"):
            g.split_copies(np.array([1, 0]))

    def test_group_total_leverage_recoverable(self, zoo_graph):
        # Consumers that reweight whole groups (spectral_sparsify's
        # exact path) need w·R_eff = per-copy score × mult.
        H = naive_split(zoo_graph, 0.25)
        total = leverage_scores(H) * H.multiplicities()
        assert np.allclose(total, leverage_scores(zoo_graph))

    def test_sparsify_exact_leverage_on_implicit_split(self):
        from repro.core.sparsify import spectral_sparsify
        from repro.linalg.loewner import approximation_factor

        g = G.complete(14)
        H = naive_split(g, 0.25)
        S = spectral_sparsify(H, eps=0.5, exact_leverage=True, seed=0)
        LS = laplacian(S).toarray()
        assert approximation_factor(LS, laplacian(g).toarray()) <= 0.5

    def test_leverage_split_not_inflated_on_presplit_input(self):
        from repro.core.lev_est import leverage_split

        g = G.path(4)
        H = naive_split(g, 0.5)  # mult = 2, per-copy tau <= 0.5
        tau_total = np.full(H.m, 0.5)  # group-total overestimate
        out = leverage_split(H, alpha=0.25, tau_hat=tau_total)
        # Each existing copy carries tau 0.25 = alpha already: no
        # further splitting, so the logical count must not inflate.
        assert out.m_logical == H.m_logical

    def test_mult_threads_through_derived_graphs(self):
        g = G.grid2d(4, 4)
        H = naive_split(g, 0.25)
        mask = np.zeros(H.m, dtype=bool)
        mask[::2] = True
        sub = H.edge_subset(mask)
        assert np.all(sub.multiplicities() == 4)
        ind, _ = H.induced_subgraph(np.arange(8))
        assert np.all(ind.multiplicities() == 4)
        assert np.all(H.copy().multiplicities() == 4)
        assert H.copy() == H

    def test_coalesce_merges_logical_copies(self, zoo_graph):
        H = naive_split(zoo_graph, 0.25)
        flat = H.coalesced()
        assert flat.mult is None
        assert np.allclose(laplacian(flat).toarray(),
                           laplacian(zoo_graph).toarray())


class TestWalkEquivalence:
    """Implicit and materialised splits drive the same walk process."""

    def _mean_schur_laplacian(self, graph, C, trials, base_seed):
        acc = np.zeros((C.size, C.size))
        for t in range(trials):
            H = terminal_walks(graph, C, seed=base_seed + t)
            acc += laplacian(H).toarray()[np.ix_(C, C)]
        return acc / trials

    def test_statistical_match_implicit_vs_materialized(self):
        g = G.with_random_weights(G.grid2d(4, 4), 0.5, 2.0, seed=0)
        implicit = naive_split(g, 0.25)
        explicit = implicit.materialized()
        C = np.array([0, 3, 12, 15])
        SC = exact_schur_complement(laplacian(g).toarray(), C)
        trials = 2500
        mean_i = self._mean_schur_laplacian(implicit, C, trials, 10_000)
        mean_e = self._mean_schur_laplacian(explicit, C, trials, 50_000)
        scale = np.abs(SC).max()
        # Both estimators are unbiased for SC (Lemma 5.1), so their
        # Monte-Carlo means must agree with it — and each other —
        # within Monte-Carlo noise.
        assert np.abs(mean_i - SC).max() < 0.10 * scale
        assert np.abs(mean_e - SC).max() < 0.10 * scale
        assert np.abs(mean_i - mean_e).max() < 0.15 * scale

    def test_deterministic_outcomes_identical(self):
        # A 3-path with interior {1}: every walk outcome is forced, so
        # implicit and materialised splits agree exactly, per copy.
        g = MultiGraph(3, [0, 1], [1, 2], [2.0, 4.0])
        implicit = naive_split(g, 0.5)
        explicit = naive_split(g, 0.5).materialized()
        C = np.array([0, 2])
        Hi = terminal_walks(implicit, C, seed=1)
        He = terminal_walks(explicit, C, seed=2)
        # weight 1/(1/w_copy1 + 1/w_copy2) = 1/(1 + 1/2) = 2/3 for every
        # surviving copy, whichever representation produced it.
        assert np.allclose(np.sort(Hi.w), np.full(Hi.m, 2.0 / 3.0))
        assert np.allclose(np.sort(He.w), np.full(He.m, 2.0 / 3.0))
        assert Hi.m_logical <= implicit.m_logical
        assert He.m <= explicit.m

    def test_passthrough_preserves_groups(self):
        g = G.grid2d(3, 3)
        H = naive_split(g, 0.2)
        out = terminal_walks(H, np.arange(g.n), seed=0)
        # Everything is terminal: the graph passes through verbatim,
        # multiplicities included, and no walkers are launched.
        assert out == H
        _, stats = terminal_walks(H, np.arange(g.n), seed=0,
                                  return_stats=True)
        assert stats.walkers == 0
        assert stats.edges_in == stats.edges_out == H.m_logical

    def test_edge_budget_logical(self):
        g = G.grid2d(5, 5)
        H = naive_split(g, 0.25)
        C = np.arange(0, g.n, 2)
        for seed in range(3):
            out, stats = terminal_walks(H, C, seed=seed, return_stats=True)
            assert out.m_logical <= H.m_logical
            assert stats.edges_out + stats.self_loops_dropped \
                == stats.edges_in

    def test_legacy_requires_materialized(self):
        H = naive_split(G.grid2d(3, 3), 0.5)
        with pytest.raises(SamplingError, match="materialised"):
            seed_terminal_walks(H, np.array([0, 1]))

    def test_legacy_matches_seed_semantics(self):
        g = G.grid2d(4, 4)
        C = np.arange(0, g.n, 2)
        H_new = terminal_walks(g, C, seed=9)
        H_old = seed_terminal_walks(g, C, seed=9)
        # Different RNG consumption order (pass-through edges launch no
        # walkers in the new path), so compare distributional summaries.
        in_C = np.zeros(g.n, dtype=bool)
        in_C[C] = True
        for H in (H_new, H_old):
            assert in_C[H.u].all() and in_C[H.v].all()
            assert H.m <= g.m


class TestWalkEngineCompaction:
    def _engine_and_starts(self, seed=0):
        g = naive_split(G.with_random_weights(G.grid2d(6, 6), 0.5, 2.0,
                                              seed=3), 0.5)
        rng = np.random.default_rng(seed)
        is_term = np.zeros(g.n, dtype=bool)
        is_term[rng.choice(g.n, size=g.n // 2, replace=False)] = True
        starts = np.repeat(np.arange(g.n), 3)
        return g, is_term, starts

    @pytest.mark.parametrize("seed", range(4))
    def test_compacted_identical_to_reference(self, seed):
        g, is_term, starts = self._engine_and_starts(seed)
        engine = WalkEngine(g, is_term)
        a = engine.run(starts, seed=seed, compact=True)
        b = engine.run(starts, seed=seed, compact=False)
        assert np.array_equal(a.terminal, b.terminal)
        assert np.array_equal(a.length, b.length)
        assert np.allclose(a.resistance, b.resistance)
        assert a.rounds == b.rounds

    @pytest.mark.parametrize("seed", range(3))
    def test_restricted_csr_identical_to_full(self, seed):
        g, is_term, starts = self._engine_and_starts(seed)
        restricted = WalkEngine(g, is_term)
        adj = g.adjacency()
        full = WalkEngine.from_adjacency(
            adj, g.multiplicities()[adj.edge_id], is_term)
        a = restricted.run(starts, seed=seed)
        b = full.run(starts, seed=seed)
        assert np.array_equal(a.terminal, b.terminal)
        assert np.array_equal(a.length, b.length)
        assert np.allclose(a.resistance, b.resistance)

    def test_restricted_rows_match_full_rows(self):
        g = G.with_random_weights(G.grid2d(5, 5), 0.1, 10.0, seed=1)
        mask = np.zeros(g.n, dtype=bool)
        mask[::3] = True
        full = g.adjacency()
        restr = g.adjacency_restricted(mask)
        for x in range(g.n):
            nbr_r, w_r, eid_r = restr.row(x)
            if not mask[x]:
                assert nbr_r.size == 0
                continue
            nbr_f, w_f, eid_f = full.row(x)
            assert np.array_equal(nbr_r, nbr_f)
            assert np.array_equal(w_r, w_f)
            assert np.array_equal(eid_r, eid_f)

    def test_mult_scales_traversed_resistance(self):
        # Path 0-1-2, terminal {0, 2}; walker from 1 crosses one copy:
        # its resistance must be mult/w, not 1/w.
        g = MultiGraph(3, [0, 1], [1, 2], [2.0, 2.0], mult=[4, 4])
        is_term = np.array([True, False, True])
        res = WalkEngine(g, is_term).run(np.full(500, 1), seed=0)
        assert np.allclose(res.resistance, 4.0 / 2.0)


class TestApproxSchurImplicit:
    def test_implicit_meets_eps_and_stays_compact(self):
        g = G.grid2d(7, 7)
        rng = np.random.default_rng(0)
        C = np.sort(rng.choice(g.n, size=16, replace=False))
        SC = exact_schur_complement(laplacian(g).toarray(), C)
        from repro.linalg.loewner import approximation_factor

        rep = approx_schur(g, C, eps=0.5, seed=3, return_report=True)
        LH = laplacian(rep.graph).toarray()[np.ix_(C, C)]
        assert approximation_factor(LH, SC) <= 0.5
        # The split level stores O(m) groups, not O(m/alpha) rows.
        assert rep.stored_edges_per_round[0] == g.m
        assert rep.edges_per_round[0] > g.m

    def test_legacy_mode_meets_eps(self):
        g = G.grid2d(6, 6)
        C = np.arange(0, g.n, 3)
        SC = exact_schur_complement(laplacian(g).toarray(), C)
        from repro.linalg.loewner import approximation_factor

        rep = seed_approx_schur(g, C, eps=0.5, seed=4, return_report=True)
        LH = laplacian(rep.graph).toarray()[np.ix_(C, C)]
        assert approximation_factor(LH, SC) <= 0.5
        # Legacy materialises the split: stored == logical everywhere.
        assert rep.stored_edges_per_round == rep.edges_per_round

    def test_peak_bytes_reported_smaller_for_implicit(self):
        g = G.grid2d(10, 10)
        C = np.arange(0, g.n, 3)
        imp = approx_schur(g, C, eps=0.5, seed=5, return_report=True)
        leg = seed_approx_schur(g, C, eps=0.5, seed=5, return_report=True)
        assert 0 < imp.peak_edge_bytes < leg.peak_edge_bytes
