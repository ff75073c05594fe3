"""CSR-aligned alias sampling (ISSUE 5 tentpole).

Pins the PR-5 contracts:

* the batched Vose construction encodes every row's distribution
  exactly (pmf reconstruction == weights / total, aliases stay in-row);
* the alias sampler and the bisection oracle (``RowSampler``) agree
  per row (chi-square) and in hitting distributions;
* the alias sampler is the only walk path: ``SolverOptions.sampler``
  accepts only ``None``/``"alias"``, a stale ``REPRO_SAMPLER`` is
  ignored, and the seed baseline in :mod:`repro.baselines` bisects;
* fixed seed ⇒ bit-identical results across
  ``{serial, thread}`` × ``{1, 2, 4}`` workers;
* every elimination round's alias planes equal a from-scratch build
  over that round's restricted view — bitwise;
* the satellite guards: ``RowSampler``'s empty-row clip validation and
  the ``chunk_items`` chunk-grain override.
"""

import numpy as np
import pytest
from scipy import stats

from repro.config import SolverOptions, default_options
from repro.core.schur import approx_schur
from repro.core.terminal_walks import terminal_walks
from repro.errors import InvalidInputError, SamplingError
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.pram import use_ledger
from repro.pram.executor import (
    BACKENDS,
    DEFAULT_CHUNK_ITEMS,
    ExecutionContext,
    default_chunk_items,
    run_column_chunks,
)
from repro.sampling import (
    AliasTable,
    CSRAliasSampler,
    IncrementalWalkCSR,
    RowSampler,
    WalkEngine,
    build_alias_tables,
)

#: The values ``SolverOptions.sampler`` accepts; both name the alias
#: sampler, so both must give the same bits.
SAMPLER_OPTIONS = (None, "alias")


def _random_csr(rng, n_max=14, deg_max=11):
    n = int(rng.integers(1, n_max))
    deg = rng.integers(0, deg_max, size=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    scale = rng.choice([1e-9, 1e-3, 1.0, 1e6], size=int(deg.sum()))
    w = rng.random(int(deg.sum())) * scale
    return indptr, w, deg


class TestBuildAliasTables:
    def test_pmf_exact_per_row(self, rng):
        for _ in range(60):
            indptr, w, deg = _random_csr(rng)
            prob, alias, total = build_alias_tables(indptr, w)
            row_of = np.repeat(np.arange(deg.size), deg)
            # aliases never leave their row
            assert np.all(row_of[alias] == row_of)
            denom = np.maximum(deg[row_of], 1).astype(np.float64)
            out = prob / denom
            np.add.at(out, alias, (1.0 - prob) / denom)
            ok = total[row_of] > 0
            want = np.where(ok, w / np.where(ok, total[row_of], 1.0), 0.0)
            np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-15)

    def test_uniform_row_is_identity(self):
        prob, alias, total = build_alias_tables(np.array([0, 5]),
                                                np.full(5, 3.25))
        assert np.all(prob == 1.0)
        np.testing.assert_array_equal(alias, np.arange(5))
        assert total[0] == pytest.approx(5 * 3.25)

    def test_zero_weight_slots_never_sampled(self):
        prob, alias, _ = build_alias_tables(np.array([0, 4]),
                                            np.array([0.0, 1.0, 0.0, 3.0]))
        out = prob / 4.0
        np.add.at(out, alias, (1.0 - prob) / 4.0)
        np.testing.assert_allclose(out, [0.0, 0.25, 0.0, 0.75])

    def test_subnormal_totals_stay_proportional(self):
        # Regression: scaling must normalise (w / total) before the
        # degree fan-out — deg / total overflows to inf for subnormal
        # totals and silently degraded the row to uniform sampling.
        w = np.array([1e-310, 3e-310])
        prob, alias, total = build_alias_tables(np.array([0, 2]), w)
        out = prob / 2.0
        np.add.at(out, alias, (1.0 - prob) / 2.0)
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)
        s = AliasTable(w).sample(40_000, seed=0)
        assert abs(float(np.mean(s == 0)) - 0.25) < 0.01

    def test_empty_input(self):
        prob, alias, total = build_alias_tables(np.zeros(4, np.int64),
                                                np.empty(0))
        assert prob.size == 0 and alias.size == 0
        np.testing.assert_array_equal(total, np.zeros(3))

    def test_high_degree_sweep_rows_exact(self, rng):
        # Rows at/above the sweep threshold use the vectorised
        # prefix-sum construction; exactness degrades only by prefix-
        # sum rounding.
        for _ in range(15):
            n = int(rng.integers(1, 5))
            deg = rng.choice([0, 3, 130, 500, 2000], size=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=indptr[1:])
            w = rng.random(int(deg.sum())) \
                * rng.choice([1e-6, 1.0, 1e5], size=int(deg.sum()))
            prob, alias, total = build_alias_tables(indptr, w)
            row_of = np.repeat(np.arange(n), deg)
            assert np.all(row_of[alias] == row_of)
            assert np.all((prob >= 0.0) & (prob <= 1.0))
            denom = np.maximum(deg[row_of], 1).astype(np.float64)
            out = prob / denom
            np.add.at(out, alias, (1.0 - prob) / denom)
            ok = total[row_of] > 0
            want = np.where(ok, w / np.where(ok, total[row_of], 1.0), 0.0)
            np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-12)

    def test_batched_sweep_bit_identical_to_per_row(self):
        # Rows are padded into one 2-D sweep per degree bucket; every
        # row's planes must equal _vose_row_sweep on that row alone, bit
        # for bit, so neither the bucketing nor the padding can leak
        # into results.
        import repro.sampling.alias as A

        for trial in range(6):
            trial_rng = np.random.default_rng(100 + trial)
            degs = [0, 1, 2, 3, 5, 40, 127, 128, 129, 500, 2000] * 2
            trial_rng.shuffle(degs)
            indptr = np.concatenate(
                ([0], np.cumsum(degs))).astype(np.int64)
            w = trial_rng.gamma(0.4, size=int(indptr[-1]))
            w[trial_rng.random(w.size) < 0.05] = 0.0
            prob, alias, total = build_alias_tables(indptr, w)
            for r, deg in enumerate(degs):
                lo, hi = indptr[r], indptr[r + 1]
                want_p, want_a = np.ones(deg), np.arange(deg)
                if deg and total[r] > 0:
                    scaled = (w[lo:hi] / total[r]) * deg
                    smalls = np.flatnonzero(scaled < 1.0)
                    larges = np.flatnonzero(scaled >= 1.0)
                    if smalls.size and larges.size:
                        A._vose_row_sweep(want_p, want_a, smalls, larges,
                                          scaled)
                np.clip(want_p, 0.0, 1.0, out=want_p)
                np.testing.assert_array_equal(prob[lo:hi], want_p)
                np.testing.assert_array_equal(alias[lo:hi] - lo, want_a)

    def test_row_planes_independent_of_batch_grouping(self):
        # A row's planes must not depend on which rows share its
        # build — at low and high degree alike.
        for deg0 in (9, 700):
            w0 = np.random.default_rng(7).random(deg0) * 10.0
            p1, a1, _ = build_alias_tables(np.array([0, deg0]), w0)
            wb = np.concatenate([[1.0, 2.0], w0, [5.0]])
            ib = np.array([0, 2, 2 + deg0, 3 + deg0])
            p2, a2, _ = build_alias_tables(ib, wb)
            np.testing.assert_array_equal(p1, p2[2:2 + deg0])
            np.testing.assert_array_equal(a1 + 2, a2[2:2 + deg0])


class TestCSRAliasSampler:
    def test_slots_stay_in_row(self, zoo_graph, rng):
        adj = zoo_graph.adjacency()
        sampler = CSRAliasSampler(adj)
        rows = rng.integers(0, zoo_graph.n, size=2000)
        slots = sampler.sample(rows, seed=1)
        assert np.all(slots >= adj.indptr[rows])
        assert np.all(slots < adj.indptr[rows + 1])

    def test_row_totals_are_degrees(self, zoo_graph):
        sampler = CSRAliasSampler(zoo_graph.adjacency())
        assert np.allclose(sampler.row_totals(),
                           zoo_graph.weighted_degrees())

    def test_weight_proportional(self):
        g = MultiGraph(4, [0, 0, 0], [1, 2, 3], [1.0, 1.0, 8.0])
        sampler = CSRAliasSampler(g.adjacency())
        slots = sampler.sample(np.zeros(100_000, dtype=np.int64), seed=2)
        picked = g.adjacency().neighbor[slots]
        freq = np.bincount(picked, minlength=4) / picked.size
        assert np.allclose(freq[[1, 2, 3]], [0.1, 0.1, 0.8], atol=0.01)

    def test_isolated_vertex_raises(self):
        g = MultiGraph(3, [0], [1], [1.0])
        sampler = CSRAliasSampler(g.adjacency())
        with pytest.raises(SamplingError):
            sampler.sample(np.array([2]), seed=0)

    def test_deterministic_given_seed(self, zoo_graph):
        sampler = CSRAliasSampler(zoo_graph.adjacency())
        rows = np.arange(zoo_graph.n)
        np.testing.assert_array_equal(sampler.sample(rows, seed=7),
                                      sampler.sample(rows, seed=7))

    def test_pmf_method(self, zoo_graph):
        adj = zoo_graph.adjacency()
        sampler = CSRAliasSampler(adj)
        deg = np.diff(adj.indptr)
        row_of = np.repeat(np.arange(zoo_graph.n), deg)
        want = adj.weight / sampler.row_totals()[row_of]
        np.testing.assert_allclose(sampler.pmf(), want, rtol=1e-12)

    def test_from_planes_charges_nothing(self, zoo_graph):
        adj = zoo_graph.adjacency()
        prob, alias, total = build_alias_tables(adj.indptr, adj.weight)
        with use_ledger() as ledger:
            CSRAliasSampler.from_planes(adj, prob, alias, total)
        assert ledger.work == 0


class TestChiSquareAgreement:
    """The alias sampler and the bisection oracle encode the same
    per-row transition pmf."""

    @pytest.mark.parametrize("kind", ["alias", "bisect"])
    def test_per_row_chi_square(self, kind):
        # Irregular weighted graph: a weighted star glued to a path.
        g = MultiGraph(6,
                       [0, 0, 0, 0, 1, 2],
                       [1, 2, 3, 4, 2, 5],
                       [0.5, 2.0, 7.5, 1.0, 3.0, 0.25])
        adj = g.adjacency()
        sampler = CSRAliasSampler(adj) if kind == "alias" \
            else RowSampler(adj)
        rng = np.random.default_rng(42)
        draws = 40_000
        for row in range(g.n):
            lo, hi = adj.indptr[row], adj.indptr[row + 1]
            if hi - lo < 2:
                continue
            slots = sampler.sample(np.full(draws, row, dtype=np.int64),
                                   seed=rng)
            counts = np.bincount(slots - lo, minlength=hi - lo)
            expected = adj.weight[lo:hi] / adj.weight[lo:hi].sum() * draws
            _, p = stats.chisquare(counts, expected)
            assert p > 1e-4, (kind, row, p)

    def test_cross_sampler_hitting_distribution(self):
        # Gambler's ruin 0 -(3)- 1 -(1)- 2: the alias engine and the
        # bisection oracle both hit 0 from 1 w.p. 3/4 — distributional
        # agreement, not bitwise.
        g = MultiGraph(3, [0, 1], [1, 2], [3.0, 1.0])
        is_term = np.array([True, False, True])
        adj = g.adjacency_restricted(~is_term)
        oracle = WalkEngine.from_adjacency(adj, None, is_term,
                                           row_sampler=RowSampler(adj))
        for engine in (WalkEngine(g, is_term), oracle):
            res = engine.run(np.full(40_000, 1), seed=5)
            assert abs(float(np.mean(res.terminal == 0)) - 0.75) < 0.01


class TestSamplerSelection:
    def test_options_resolve_sampler(self):
        # None and "alias" both name the only sampler.
        assert SolverOptions().sampler is None
        assert SolverOptions(sampler="alias").sampler == "alias"
        assert default_options().with_(sampler="alias").sampler == "alias"

    def test_default_sampler_rejects_typos(self):
        # The bisect sampler left the walk path: naming it is an error,
        # like any typo, raised when the options are constructed.
        for bad in ("bisect", "ailas", ""):
            with pytest.raises(InvalidInputError):
                SolverOptions(sampler=bad)
            with pytest.raises(InvalidInputError):
                default_options().with_(sampler=bad)

    def test_engine_sampler_kinds(self):
        g = G.grid2d(4, 4)
        is_term = np.zeros(g.n, dtype=bool)
        is_term[:4] = True
        assert isinstance(WalkEngine(g, is_term).sampler, CSRAliasSampler)
        adj = g.adjacency_restricted(~is_term)
        oracle = RowSampler(adj)
        engine = WalkEngine.from_adjacency(adj, None, is_term,
                                           row_sampler=oracle)
        assert engine.sampler is oracle
        assert isinstance(
            WalkEngine.from_adjacency(adj, None, is_term).sampler,
            CSRAliasSampler)

    def test_env_matches_explicit_param(self, monkeypatch):
        # REPRO_SAMPLER is no longer read: a stale value in the
        # environment changes nothing.
        g = G.grid2d(8, 8)
        C = np.arange(0, g.n, 3)
        monkeypatch.delenv("REPRO_SAMPLER", raising=False)
        base = terminal_walks(g, C, seed=11)
        monkeypatch.setenv("REPRO_SAMPLER", "bisect")
        assert terminal_walks(g, C, seed=11) == base

    def test_legacy_pinned_to_bisect(self, monkeypatch):
        import repro.baselines.seed_hotpath as seed_hotpath
        from repro.baselines import seed_terminal_walks

        g = G.grid2d(6, 6)
        C = np.arange(0, g.n, 2)
        queries = []

        class CountingRowSampler(RowSampler):
            __slots__ = ()

            def sample(self, rows, seed=None):
                queries.append(len(rows))
                return super().sample(rows, seed=seed)

        base = seed_terminal_walks(g, C, seed=3)
        monkeypatch.setattr(seed_hotpath, "RowSampler", CountingRowSampler)
        assert seed_terminal_walks(g, C, seed=3) == base
        assert queries  # every step bisected
        with pytest.raises(SamplingError):
            seed_terminal_walks(g.split_copies(2), C, seed=3)

    def test_samplers_change_results_distributionally(self):
        from repro.baselines import seed_approx_schur

        g = G.grid2d(10, 10)
        C = np.arange(0, g.n, 3)
        a = approx_schur(g, C, eps=0.5, seed=7)
        b = seed_approx_schur(g, C, eps=0.5, seed=7)
        assert a != b  # different RNG-to-transition maps
        # ... but both remain supported on C only.
        for h in (a, b):
            assert np.isin(np.concatenate([h.u, h.v]), C).all()


class TestPerSamplerBackendMatrix:
    """Fixed seed ⇒ bit-identical results and ledger totals across
    backends × worker counts, for either accepted ``sampler`` value
    (checked against a serial run with the default ``None``)."""

    @pytest.mark.parametrize("kind", SAMPLER_OPTIONS)
    def test_backend_matrix_bit_identical(self, kind, monkeypatch):
        opts = default_options().with_(chunk_items=512)

        def schur(backend, workers, opts):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            g = G.grid2d(14, 14)
            C = np.arange(0, g.n, 3)
            return approx_schur(g, C, eps=0.5, seed=123, options=opts)

        base = schur("serial", 1, opts)
        opts = opts.with_(sampler=kind)
        for backend in BACKENDS:
            for workers in (1, 2, 4):
                assert schur(backend, workers, opts) == base, \
                    (backend, workers)

    @pytest.mark.parametrize("kind", SAMPLER_OPTIONS)
    def test_ledger_totals_invariant(self, kind, monkeypatch):
        g = G.grid2d(10, 10)
        C = np.arange(0, g.n, 2)
        opts = default_options().with_(chunk_items=512)

        def totals(backend, workers, opts):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            with use_ledger() as ledger:
                approx_schur(g, C, eps=0.5, seed=3, options=opts)
            return ledger.work, ledger.depth

        base = totals("serial", 1, opts)
        opts = opts.with_(sampler=kind)
        for backend in BACKENDS:
            assert totals(backend, 2, opts) == base, backend


class TestIncrementalAliasPlanes:
    """The store's alias planes == from-scratch builds, every round."""

    @pytest.mark.parametrize("maker", [
        lambda: G.grid2d(16, 16),
        lambda: G.preferential_attachment(300, 3, seed=4),
    ], ids=["grid", "preferential_attachment"])
    def test_every_build_round_equals_scratch(self, maker, monkeypatch):
        from repro.config import SolverOptions
        from repro.core.block_cholesky import block_cholesky
        from repro.core.boundedness import naive_split

        real = IncrementalWalkCSR.alias_planes
        rounds = []

        def spy(self, rows, view):
            got = real(self, rows, view)
            want = build_alias_tables(view.indptr, view.weight)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
            rounds.append(view.weight.size)
            return got

        monkeypatch.setattr(IncrementalWalkCSR, "alias_planes", spy)
        chain = block_cholesky(naive_split(maker(), 0.25),
                               SolverOptions(min_vertices=10), seed=3)
        assert len(rounds) >= chain.d >= 3

    def test_round_by_round_plane_equality(self):
        from repro.core.boundedness import naive_split

        g = naive_split(G.grid2d(9, 9), 0.25)
        inc = IncrementalWalkCSR(g, rebuild_factor=0.3)
        rng = np.random.default_rng(0)
        work = g
        remaining = np.arange(g.n)
        rounds = 0
        for _ in range(4):
            if remaining.size <= 4:
                break
            F = np.unique(rng.choice(remaining,
                                     size=max(1, remaining.size // 5),
                                     replace=False))
            terminals = np.setdiff1d(remaining, F)
            view, _ = inc.restricted_view(F)
            got = inc.alias_planes(F, view)
            want = build_alias_tables(view.indptr, view.weight)
            np.testing.assert_array_equal(got[0], want[0])  # prob
            np.testing.assert_array_equal(got[1], want[1])  # alias
            np.testing.assert_array_equal(got[2][F], want[2][F])  # totals
            # A second extraction builds the same planes again.
            again = inc.alias_planes(F, view)
            np.testing.assert_array_equal(again[0], got[0])
            np.testing.assert_array_equal(again[1], got[1])
            nxt, stats = terminal_walks(work, terminals, seed=rng,
                                        return_stats=True)
            p = stats.passthrough_stored
            inc.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:],
                        None if nxt.mult is None else nxt.mult[p:])
            work = nxt
            remaining = terminals
            rounds += 1
        assert rounds >= 2

    def test_round_by_round_plane_equality_coalesced(self):
        # Same lockstep as above, but the store coalesces each round's
        # emissions: planes must stay bitwise == scratch builds over
        # the coalesced view, through churn and epoch compaction.
        from repro.core.boundedness import naive_split

        g = naive_split(G.grid2d(9, 9), 0.25)
        inc = IncrementalWalkCSR(g, rebuild_factor=0.05)
        rng = np.random.default_rng(0)
        work = g
        remaining = np.arange(g.n)
        rounds = 0
        for _ in range(4):
            if remaining.size <= 4:
                break
            F = np.unique(rng.choice(remaining,
                                     size=max(1, remaining.size // 5),
                                     replace=False))
            terminals = np.setdiff1d(remaining, F)
            view, _ = inc.restricted_view(F)
            got = inc.alias_planes(F, view)
            want = build_alias_tables(view.indptr, view.weight)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[2][F], want[2][F])
            nxt, stats = terminal_walks(work, terminals, seed=rng,
                                        return_stats=True)
            p = stats.passthrough_stored
            inc.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:],
                        None if nxt.mult is None else nxt.mult[p:],
                        coalesce=True)
            work = inc.live_graph()  # walk the coalesced graph next
            remaining = terminals
            rounds += 1
        assert rounds >= 2
        assert inc.emitted_slots_saved > 0

    def test_incremental_matches_scratch_end_to_end(self, scratch_walks):
        g = G.grid2d(13, 13)
        C = np.arange(0, g.n, 4)
        # Scratch rebuilds cannot coalesce — pin the flag off so the
        # equality is well-defined under a REPRO_COALESCE=1 ambient.
        opts = default_options().with_(coalesce_emitted=False)
        a = approx_schur(g, C, eps=0.5, seed=99, options=opts)
        with scratch_walks():
            b = approx_schur(g, C, eps=0.5, seed=99, options=opts)
        assert a == b

    def test_solver_chain_alias_incremental_invariant(self,
                                                      scratch_walks):
        from repro.config import practical_options
        from repro.core.solver import LaplacianSolver

        g = G.grid2d(12, 12)
        opts = practical_options().with_(coalesce_emitted=False)
        on = LaplacianSolver(g, options=opts, seed=8)
        with scratch_walks():
            off = LaplacianSolver(g, options=opts, seed=8)
        np.testing.assert_array_equal(on.chain.final_pinv,
                                      off.chain.final_pinv)


class TestRowSamplerClipGuard:
    def test_empty_row_raises_instead_of_clipping(self):
        # Simulate inconsistent derived planes (the shipped-
        # reconstruction hazard): an empty row whose base/top bounds
        # wrongly claim positive span must raise, not clip into a
        # neighbouring row's slots.
        g = MultiGraph(3, [0], [1], [1.0])
        adj = g.adjacency()
        sampler = RowSampler(adj)
        sampler._base = np.array([0.0, 1.0, 0.5])
        sampler._top = np.array([1.0, 2.0, 1.5])
        with pytest.raises(SamplingError, match="empty adjacency row"):
            sampler.sample(np.array([2]), seed=0)


class TestChunkItemsOverride:
    def test_explicit_chunk_items_wins(self, monkeypatch):
        # Only the chunk_items option moves the walker-chunk layout; a
        # stale REPRO_CHUNK_ITEMS from an older release changes nothing.
        monkeypatch.setenv("REPRO_CHUNK_ITEMS", "7")
        assert default_chunk_items() == DEFAULT_CHUNK_ITEMS
        n = 4 * DEFAULT_CHUNK_ITEMS
        assert len(ExecutionContext().item_chunks(n)) == 4
        ctx = default_options().with_(
            chunk_items=2 * DEFAULT_CHUNK_ITEMS).execution()
        assert ctx.resolve_chunk_items() == 2 * DEFAULT_CHUNK_ITEMS
        assert len(ctx.item_chunks(n)) == 2


class TestRunColumnChunks:
    def test_single_chunk_returns_none(self):
        ctx = ExecutionContext(chunk_columns=16)
        assert run_column_chunks(ctx, np.zeros((3, 4)),
                                 lambda bc: bc) is None

    def test_broadcasts_and_slices(self):
        ctx = ExecutionContext(chunk_columns=2)
        b = np.arange(12.0).reshape(3, 4)
        seen_ids = []

        def block(bc, tc, none_col, ids):
            assert none_col is None
            seen_ids.append(ids)
            return bc.sum(axis=0) + tc

        results = run_column_chunks(ctx, b, block, cols=(0.5, None))
        merged = np.concatenate(results)
        np.testing.assert_allclose(merged, b.sum(axis=0) + 0.5)
        # Each chunk sees its global column ids (PR 6 quarantine needs
        # caller-visible indices inside a chunk).
        np.testing.assert_array_equal(np.concatenate(seen_ids),
                                      np.arange(4))

    def test_col_ids_passthrough(self):
        ctx = ExecutionContext(chunk_columns=1)
        b = np.zeros((2, 3))
        got = run_column_chunks(ctx, b, lambda bc, ids: ids.copy(),
                                col_ids=np.array([7, 9, 11]))
        np.testing.assert_array_equal(np.concatenate(got), [7, 9, 11])
