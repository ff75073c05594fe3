"""Emitted-edge coalescing in the incremental walk store (PR 8).

Contract under test (DESIGN.md §11):

* **Laplacian equality.**  A store fed coalesced batches and a store
  fed the raw batches represent the same Laplacian after every round:
  identical coalesced edge *structure* and logical edge counts
  exactly, per-group weights equal up to float-addition association
  (bitwise when a pair's copies all land in one batch — asserted —
  and to a few ulps when a pair accumulates across rounds or folds
  into a pre-existing group).
* **Scratch equality.**  The coalesced store's extracted views, alias
  planes, and interior degrees stay *bit-identical* to from-scratch
  builds over its own live graph — coalescing changes what is stored,
  never how it is extracted.
* **Representation lift.**  ``insert(mult > 1)`` into a
  multiplicity-less store promotes a mult column instead of raising,
  and the column is charged in ``nbytes``.
* **Determinism.**  Fixed seed + fixed coalesce setting ⇒
  bit-identical graphs and ledger totals across worker counts; the
  flag resolves SolverOptions → REPRO_COALESCE with loud
  typos.
"""

import numpy as np
import pytest

from repro.config import default_options, practical_options
from repro.core.boundedness import naive_split
from repro.core.schur import approx_schur
from repro.core.solver import LaplacianSolver
from repro.core.terminal_walks import terminal_walks
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.pram import use_ledger
from repro.sampling.alias import build_alias_tables
from repro.sampling.inc_csr import IncrementalWalkCSR

ULP_RTOL = 1e-12  # float-addition association slack, a few ulps


def lockstep_rounds(side=9, alpha=0.25, seed=0, rounds=4,
                    rebuild_factor=None):
    """Drive a raw store and a coalescing store with identical
    emission batches; yield both after every round.

    The raw run realises the walks (so both stores consume the same
    batches — this isolates coalescing as a pure store
    transformation); the coalescing store consumes them with
    ``coalesce=True``.
    """
    g = naive_split(G.grid2d(side, side), alpha)
    kw = {} if rebuild_factor is None \
        else {"rebuild_factor": rebuild_factor}
    raw = IncrementalWalkCSR(g, **kw)
    co = IncrementalWalkCSR(g, **kw)
    rng = np.random.default_rng(seed)
    work = g
    remaining = np.arange(g.n)
    for _ in range(rounds):
        if remaining.size <= 4:
            break
        F = np.unique(rng.choice(remaining,
                                 size=max(1, remaining.size // 5),
                                 replace=False))
        terminals = np.setdiff1d(remaining, F)
        nxt, stats = terminal_walks(work, terminals, seed=rng,
                                    return_stats=True)
        p = stats.passthrough_stored
        mult = None if nxt.mult is None else nxt.mult[p:]
        raw.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:], mult)
        co.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:], mult,
                   coalesce=True)
        yield raw, co, F, terminals
        work = nxt
        remaining = terminals


def assert_same_laplacian(a: MultiGraph, b: MultiGraph):
    """Coalesced images bit-equal in structure, ulp-equal in weight."""
    ca, cb = a.coalesced(), b.coalesced()
    np.testing.assert_array_equal(ca.u, cb.u)
    np.testing.assert_array_equal(ca.v, cb.v)
    np.testing.assert_allclose(ca.w, cb.w, rtol=ULP_RTOL, atol=0.0)


class TestCoalescedStoreLockstep:
    def test_per_round_and_end_to_end_laplacian_equality(self):
        rounds = 0
        raw = co = None
        for raw, co, _, _ in lockstep_rounds():
            la, lb = raw.live_graph(), co.live_graph()
            assert_same_laplacian(la, lb)
            # Logical multi-edge counts match exactly (mults sum).
            assert la.m_logical == lb.m_logical
            # Coalescing strictly shrinks the stored representation
            # once duplicates exist.
            assert lb.m <= la.m
            rounds += 1
        assert rounds >= 3
        assert co.emitted_slots_saved > 0
        assert_same_laplacian(raw.live_graph(), co.live_graph())

    def test_survives_epoch_compaction(self):
        # A tiny rebuild factor forces compaction nearly every round:
        # the coalesce lookup must be remapped, not stale.
        for raw, co, _, _ in lockstep_rounds(rebuild_factor=0.05):
            assert_same_laplacian(raw.live_graph(), co.live_graph())
            assert co.m == co.m_alive  # compacted

    def test_single_batch_coalesce_is_bitwise(self):
        # All copies of a pair inside one batch, pair absent from the
        # base graph: the coalesced weight is the same left-to-right
        # float sum the raw store's coalesced() computes — bitwise.
        g = MultiGraph(5, [0], [1], [1.0])
        raw = IncrementalWalkCSR(g)
        co = IncrementalWalkCSR(g)
        u = np.array([2, 3, 2, 2], dtype=np.int64)
        v = np.array([3, 4, 3, 3], dtype=np.int64)
        w = np.array([0.5, 1.0, 0.25, 0.125])
        raw.insert(u, v, w)
        co.insert(u, v, w, coalesce=True)
        ca = raw.live_graph().coalesced()
        cb = co.live_graph().coalesced()
        np.testing.assert_array_equal(ca.u, cb.u)
        np.testing.assert_array_equal(ca.v, cb.v)
        np.testing.assert_array_equal(ca.w, cb.w)  # bitwise
        assert co.m_alive == 3  # (0,1) + (2,3) + (3,4)
        assert co.emitted_slots_saved == 2

    def test_live_slot_folding_accumulates_in_place(self):
        g = MultiGraph(4, [0], [1], [1.0])
        co = IncrementalWalkCSR(g)
        co.insert(np.array([2]), np.array([3]), np.array([0.5]),
                  coalesce=True)
        m_after_first = co.m_alive
        co.insert(np.array([2, 3]), np.array([3, 2]),
                  np.array([0.25, 0.125]), coalesce=True)
        # Second batch (both orientations of the same pair) folded
        # into the existing slot: no growth.
        assert co.m_alive == m_after_first
        live = co.live_graph()
        key = (live.u == 2) & (live.v == 3)
        assert key.sum() == 1
        np.testing.assert_allclose(live.w[key], [0.875])
        np.testing.assert_array_equal(live.mult[key], [3])
        assert co.live_merged_slots == 1


class TestCoalescedViewsMatchScratch:
    """Extraction from a coalesced store == from-scratch rebuilds.

    Coalescing changes the live graph (fewer groups, same Laplacian);
    the contract is that every extraction stays bit-identical to a
    scratch build **over the coalesced store's own live graph**.
    """

    @pytest.mark.parametrize("rebuild_factor", [None, 0.05])
    def test_views_planes_and_degrees(self, rebuild_factor):
        g = naive_split(G.grid2d(9, 9), 0.25)
        kw = {} if rebuild_factor is None \
            else {"rebuild_factor": rebuild_factor}
        co = IncrementalWalkCSR(g, **kw)
        rng = np.random.default_rng(0)
        work = g
        remaining = np.arange(g.n)
        checked = 0
        for _ in range(4):
            if remaining.size <= 4:
                break
            F = np.unique(rng.choice(remaining,
                                     size=max(1, remaining.size // 5),
                                     replace=False))
            terminals = np.setdiff1d(remaining, F)
            live = co.live_graph()
            mask = np.zeros(live.n, dtype=bool)
            mask[F] = True
            view, slot_mult = co.restricted_view(F)
            want = live.adjacency_restricted(mask)
            np.testing.assert_array_equal(view.indptr, want.indptr)
            np.testing.assert_array_equal(view.neighbor, want.neighbor)
            np.testing.assert_array_equal(view.weight, want.weight)
            got_mult = slot_mult if slot_mult is not None \
                else np.ones(view.weight.size, dtype=np.int32)
            np.testing.assert_array_equal(
                got_mult, live.multiplicities()[want.edge_id])
            # Alias planes bitwise == a from-scratch build on the view.
            prob, alias, total = co.alias_planes(F, view)
            w_prob, w_alias, w_total = build_alias_tables(view.indptr,
                                                          view.weight)
            np.testing.assert_array_equal(prob, w_prob)
            np.testing.assert_array_equal(alias, w_alias)
            np.testing.assert_array_equal(total[F], w_total[F])
            # Interior degree oracle bitwise == the rebuild path.
            member = np.zeros(live.n, dtype=bool)
            member[remaining] = True
            oracle = co.interior_degrees(remaining)
            rebuild = live.edge_subset(member[live.u] & member[live.v])
            np.testing.assert_array_equal(oracle.weighted_degrees(),
                                          rebuild.weighted_degrees())
            checked += 1
            nxt, stats = terminal_walks(work, terminals, seed=rng,
                                        return_stats=True)
            p = stats.passthrough_stored
            co.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:],
                       None if nxt.mult is None else nxt.mult[p:],
                       coalesce=True)
            # Stay in lockstep with the store: the next round walks
            # the coalesced graph, exactly as approx_schur does.
            work = co.live_graph()
            remaining = terminals
        assert checked >= 3
        assert co.emitted_slots_saved > 0

    def test_interior_degrees_flag_invariant_up_to_rounding(self):
        # Cross-flag: the coalesced store's interior degrees are the
        # same sums in a different association — equal to ulps.
        for raw, co, _, terminals in lockstep_rounds():
            a = raw.interior_degrees(terminals).weighted_degrees()
            b = co.interior_degrees(terminals).weighted_degrees()
            np.testing.assert_allclose(a, b, rtol=ULP_RTOL, atol=0.0)


class TestMultPromotion:
    def test_mult_insert_no_longer_raises(self):
        g = MultiGraph(4, [0, 1], [1, 2], [1.0, 2.0])  # mult-less
        inc = IncrementalWalkCSR(g)
        assert inc.mult is None
        inc.insert(np.array([2]), np.array([3]), np.array([3.0]),
                   mult=np.array([5]))
        assert inc.mult is not None
        np.testing.assert_array_equal(inc.mult, [1, 1, 5])
        live = inc.live_graph()
        assert live.m_logical == 7
        # The promoted column is charged in the store footprint.
        assert inc.nbytes > IncrementalWalkCSR(g).nbytes
        # Extraction carries per-slot multiplicities.
        view, slot_mult = inc.restricted_view(np.array([2]))
        assert slot_mult is not None
        np.testing.assert_array_equal(slot_mult,
                                      live.multiplicities()[view.edge_id])

    def test_all_ones_mult_insert_stays_implicit(self):
        g = MultiGraph(4, [0], [1], [1.0])
        inc = IncrementalWalkCSR(g)
        inc.insert(np.array([2]), np.array([3]), np.array([1.0]),
                   mult=np.array([1]))
        assert inc.mult is None  # unchanged historical behaviour


class TestFlagResolution:
    def test_options_take_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_COALESCE", "1")
        assert default_options().resolve_coalesce() is True
        assert default_options().with_(
            coalesce_emitted=False).resolve_coalesce() is False
        monkeypatch.delenv("REPRO_COALESCE")
        assert default_options().resolve_coalesce() is False
        assert default_options().with_(
            coalesce_emitted=True).resolve_coalesce() is True

    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("true", True), ("ON", True),
        ("0", False), ("off", False), ("", False),
    ])
    def test_env_values(self, raw, expect, monkeypatch):
        monkeypatch.setenv("REPRO_COALESCE", raw)
        assert default_options().resolve_coalesce() is expect

    def test_typo_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_COALESCE", "yep")
        with pytest.raises(ValueError, match="REPRO_COALESCE"):
            default_options().resolve_coalesce()

    def test_cli_flag_threads_through(self):
        import argparse

        from repro.cli import main  # noqa: F401 - import check
        parser = argparse.ArgumentParser()
        parser.add_argument("--coalesce", default=None,
                            action=argparse.BooleanOptionalAction)
        assert parser.parse_args(["--coalesce"]).coalesce is True
        assert parser.parse_args(["--no-coalesce"]).coalesce is False
        assert parser.parse_args([]).coalesce is None


class TestCoalesceEndToEnd:
    def _workload(self):
        g = G.grid2d(13, 13)
        C = np.arange(0, g.n, 4)
        return g, C

    def test_report_metrics_shrink(self):
        g, C = self._workload()
        off = approx_schur(g, C, eps=0.5, seed=5, return_report=True,
                           options=default_options().with_(
                               coalesce_emitted=False))
        on = approx_schur(g, C, eps=0.5, seed=5, return_report=True,
                          options=default_options().with_(
                              coalesce_emitted=True))
        assert not off.coalesced and on.coalesced
        assert on.emitted_slots_saved > 0
        assert (sum(on.stored_edges_per_round)
                < sum(off.stored_edges_per_round))
        assert on.peak_edge_bytes < off.peak_edge_bytes
        assert on.alias_built_slots < off.alias_built_slots
        # Logical accounting (the paper's m) is preserved per round 0/1
        # (walks diverge distributionally afterwards).
        assert on.edges_per_round[:2] == off.edges_per_round[:2]

    def test_deterministic_across_backends_and_workers(self, monkeypatch):
        g, C = self._workload()
        opts = default_options().with_(coalesce_emitted=True,
                                       chunk_items=512)

        def run(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            with use_ledger() as ledger:
                got = approx_schur(g, C, eps=0.5, seed=11, options=opts)
            return got, ledger.work, ledger.depth

        base = run(1)
        for workers in (2, 4):
            got = run(workers)
            assert got[0] == base[0], workers
            assert got[1:] == base[1:], workers

    @pytest.mark.parametrize("sampler", [None, "alias"])
    def test_deterministic_per_sampler(self, sampler):
        g, C = self._workload()
        opts = default_options().with_(coalesce_emitted=True,
                                       sampler=sampler)
        a = approx_schur(g, C, eps=0.5, seed=3, options=opts)
        b = approx_schur(g, C, eps=0.5, seed=3, options=opts)
        assert a == b

    def test_solver_solves_under_coalescing(self):
        g = G.grid2d(12, 12)
        opts = practical_options().with_(coalesce_emitted=True)
        solver = LaplacianSolver(g, options=opts, seed=2)
        b = np.zeros(g.n)
        b[0], b[-1] = 1.0, -1.0
        report = solver.solve_report(b, eps=1e-8)
        assert report.residual_2norm <= 1e-6
        # Same seed + same flag ⇒ bit-identical chain.
        again = LaplacianSolver(g, options=opts, seed=2)
        np.testing.assert_array_equal(solver.chain.final_pinv,
                                      again.chain.final_pinv)

    def test_legacy_baseline_pinned_off(self):
        from repro.baselines import seed_approx_schur

        g, C = self._workload()
        opts = default_options().with_(coalesce_emitted=True)
        report = seed_approx_schur(g, C, eps=0.5, seed=1, options=opts,
                                   split=True, return_report=True)
        assert not report.coalesced  # no store on the seed path
