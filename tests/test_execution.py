"""ExecutionContext: determinism contract, incremental CSR, satellites.

The worker-invariance tests pin the PR-3 contract: for a fixed seed,
every chunked phase — walker stepping in ``approx_schur``, column-
blocked ``solve_many`` — produces bit-identical results for
``workers ∈ {1, 2, 4}``, because chunk layout and per-chunk RNG
streams are functions of problem size only.  Both matrices use small
walker and column chunks, so every worker count genuinely fans out;
``TestWorkerInvariance`` sets the count through ``SolverOptions`` and
``TestBackendMatrix`` through ``REPRO_WORKERS``.  ``workers=1`` is the
serial reference (every chunk in the calling thread).  The
incremental-CSR tests pin the other tentpole
invariant: the maintained restricted adjacency (and the interior
degree oracle it serves the 5DD scan from) equals a from-scratch
rebuild after every elimination round.
"""

import numpy as np
import pytest

from repro.config import SolverOptions, default_options, practical_options
from repro.core.schur import approx_schur
from repro.core.solver import LaplacianSolver
from repro.graphs import generators as G
from repro.pram import use_ledger
from repro.pram.executor import (
    DEFAULT_CHUNK_ITEMS,
    ExecutionContext,
    default_workers,
)
from repro.sampling.inc_csr import IncrementalWalkCSR


class TestExecutionContext:
    def test_chunk_layout_ignores_workers(self):
        n = 10 * DEFAULT_CHUNK_ITEMS + 17
        layouts = [ExecutionContext(workers=w).item_chunks(n)
                   for w in (1, 2, 4, 32)]
        assert all(lay == layouts[0] for lay in layouts)
        covered = [i for lo, hi in layouts[0] for i in range(lo, hi)]
        assert covered[0] == 0 and covered[-1] == n - 1
        assert len(covered) == n

    def test_column_chunks_cover(self):
        ctx = ExecutionContext(chunk_columns=4)
        pieces = ctx.column_chunks(11)
        assert pieces[0][0] == 0 and pieces[-1][1] == 11
        assert len(pieces) == 3

    def test_max_chunks_cap(self):
        ctx = ExecutionContext(chunk_items=1, max_chunks=8)
        assert len(ctx.item_chunks(1000)) == 8

    def test_lazy_worker_resolution(self, monkeypatch):
        ctx = ExecutionContext()  # workers=None: consult env per call
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ctx.resolve_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert ctx.resolve_workers() == 5

    def test_explicit_workers_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert ExecutionContext(workers=2).resolve_workers() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionContext(chunk_items=0)
        with pytest.raises(ValueError):
            ExecutionContext(workers=0)

    def test_run_chunks_spawns_deterministic_streams(self):
        ctx = ExecutionContext(chunk_items=10)
        pieces = ctx.item_chunks(35)

        def draws(seed):
            rng = np.random.default_rng(seed)
            return ctx.run_chunks(
                lambda lo, hi, stream: stream.random(hi - lo), pieces,
                rng=rng)

        a, b = draws(9), draws(9)
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_run_chunks_ledger_fork_join(self):
        from repro.pram import charge

        ctx = ExecutionContext(chunk_items=5)
        pieces = ctx.item_chunks(20)

        def one(lo, hi):
            charge(hi - lo, 3.0, label="chunk_work")
            return hi - lo

        with use_ledger() as ledger:
            ctx.run_chunks(one, pieces)
        assert ledger.work == 20          # works add across branches
        assert ledger.depth == 3.0        # depths max at the join
        assert ledger.by_label["chunk_work"].work == 20


class TestDefaultWorkersCache:
    def test_monkeypatched_env_is_seen(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == 2
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_repeat_lookup_is_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4
        from repro.pram import executor

        assert executor._env_caches["REPRO_WORKERS"] == ("4", 4)


class TestWorkerInvariance:
    """Same seed ⇒ bit-identical results for ``workers ∈ {1, 2, 4}``.

    Walker chunks of 512 items and column chunks of 4 columns make
    every dispatch split, so each worker count really fans out; the
    ``pieces`` spy checks that it did.  The chunk policy is part of
    the result, so it is held fixed across the matrix.
    """

    WORKER_COUNTS = (1, 2, 4)

    @pytest.fixture
    def pieces(self, monkeypatch):
        """Piece count of every ``ExecutionContext.run_chunks`` call."""
        counts: list[int] = []
        real = ExecutionContext.run_chunks

        def spy(ctx, fn, pieces, rng=None):
            counts.append(len(pieces))
            return real(ctx, fn, pieces, rng)

        monkeypatch.setattr(ExecutionContext, "run_chunks", spy)
        return counts

    @staticmethod
    def _opts(base: SolverOptions, workers: int) -> SolverOptions:
        return base.with_(workers=workers, chunk_items=512,
                          chunk_columns=4)

    def _schur(self, workers: int):
        g = G.grid2d(14, 14)
        C = np.arange(0, g.n, 3)
        return approx_schur(g, C, eps=0.5, seed=123,
                            options=self._opts(default_options(), workers))

    def test_approx_schur_bit_identical(self, pieces):
        base = self._schur(1)
        assert max(pieces) > 1
        for w in self.WORKER_COUNTS[1:]:
            other = self._schur(w)
            assert other == base, w  # array-level equality, order included

    def test_solve_many_bit_identical(self, pieces):
        g = G.grid2d(12, 12)
        rng = np.random.default_rng(7)
        B = rng.standard_normal((g.n, 9))
        B -= B.mean(axis=0)

        def solutions(workers):
            solver = LaplacianSolver(
                g, options=self._opts(practical_options(), workers),
                seed=11)
            built = len(pieces)
            x = solver.solve_many(B, eps=1e-6)
            # Walkers split during the build, columns during the solve.
            assert max(pieces[:built]) > 1
            assert max(pieces[built:], default=0) > 1
            del pieces[:]
            return x

        base = solutions(1)
        for w in self.WORKER_COUNTS[1:]:
            np.testing.assert_array_equal(solutions(w), base,
                                          err_msg=f"workers={w}")

    def test_block_cholesky_chain_invariant(self, pieces):
        g = G.grid2d(12, 12)

        def chain_pinv(workers):
            solver = LaplacianSolver(
                g, options=self._opts(practical_options(), workers),
                seed=5)
            return solver.chain.final_pinv

        base = chain_pinv(1)
        assert max(pieces) > 1
        for w in self.WORKER_COUNTS[1:]:
            np.testing.assert_array_equal(chain_pinv(w), base)

    def test_ledger_totals_invariant(self, pieces):
        g = G.grid2d(10, 10)
        C = np.arange(0, g.n, 2)

        def totals(workers):
            with use_ledger() as ledger:
                approx_schur(g, C, eps=0.5, seed=3,
                             options=self._opts(default_options(),
                                                workers))
            return ledger.work, ledger.depth

        base = totals(1)
        assert max(pieces) > 1
        assert totals(2) == totals(4) == base


#: The two ways chunks are scheduled: ``workers=1`` runs them in the
#: calling thread (the serial reference), more workers on a pool.
SCHEDULES = [pytest.param(1, id="serial"), pytest.param(2, id="thread")]


class TestExecutionBackends:
    """Unit surface of chunk dispatch on both schedules."""

    @staticmethod
    def _square(x):
        """Chunk closure: deterministic value + one charged region."""
        from repro.pram import charge

        def one(lo, hi, stream):
            charge(hi - lo, 2.0, label="sq")
            return float((x[lo:hi] ** 2).sum()) + float(stream.random())

        return one

    @pytest.mark.parametrize("workers", SCHEDULES)
    def test_run_chunks_matches_serial(self, workers):
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(workers=workers, chunk_items=8)
        pieces = ctx.item_chunks(x.size)
        assert len(pieces) > 1

        def run(context):
            rng = np.random.default_rng(5)
            with use_ledger() as ledger:
                out = context.run_chunks(self._square(x), pieces, rng=rng)
            return out, ledger.work, ledger.depth, \
                ledger.by_label["sq"].work

        base = run(ExecutionContext(workers=1, chunk_items=8))
        out = run(ctx)
        assert out == base
        assert out[2] == 2.0  # fork/join: depths max, not add

    @pytest.mark.parametrize("workers", SCHEDULES)
    def test_run_chunks_raises_lowest_index_error(self, workers):
        from repro.pram import charge

        ctx = ExecutionContext(workers=workers, chunk_items=4)
        pieces = ctx.item_chunks(20)
        fail_from = pieces[2][0]

        def one(lo, hi):
            charge(hi - lo, 1.0, label="chunk")
            if lo >= fail_from:
                raise ValueError(f"boom {lo}")
            return lo

        with use_ledger() as ledger:
            with pytest.raises(ValueError, match=f"boom {fail_from}"):
                ctx.run_chunks(one, pieces)
        # Every chunk ran and charged before the deterministic re-raise.
        assert ledger.by_label["chunk"].work == 20


class TestBackendMatrix:
    """Fixed seed ⇒ bit-identical solutions and ledger totals for
    ``REPRO_WORKERS ∈ {1, 2, 4}`` with walker chunks small enough
    that every worker count fans out (``1`` is the serial
    reference)."""

    WORKER_COUNTS = (1, 2, 4)

    @staticmethod
    def _opts() -> SolverOptions:
        # Small walker chunks so every worker count fans out.  The
        # chunk policy is part of the result, so it is held fixed
        # across the whole matrix.
        return default_options().with_(chunk_items=512)

    def _schur(self, monkeypatch, workers: int):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        g = G.grid2d(14, 14)
        C = np.arange(0, g.n, 3)
        return approx_schur(g, C, eps=0.5, seed=123, options=self._opts())

    def test_approx_schur_backend_matrix_bit_identical(self, monkeypatch):
        base = self._schur(monkeypatch, 1)
        for workers in self.WORKER_COUNTS[1:]:
            assert self._schur(monkeypatch, workers) == base, workers

    def test_ledger_totals_backend_invariant(self, monkeypatch):
        g = G.grid2d(10, 10)
        C = np.arange(0, g.n, 2)

        def totals(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            with use_ledger() as ledger:
                approx_schur(g, C, eps=0.5, seed=3, options=self._opts())
            return ledger.work, ledger.depth

        base = totals(1)
        for workers in self.WORKER_COUNTS[1:]:
            assert totals(workers) == base, workers

    def test_approx_schur_backend_matrix_with_coalesce(self, monkeypatch):
        # The determinism matrix holds per fixed coalesce setting too:
        # coalescing happens store-side, after the (worker-invariant)
        # walk realisation, so the flag cannot reintroduce worker
        # dependence.
        opts = self._opts().with_(coalesce_emitted=True)

        def schur(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            g = G.grid2d(14, 14)
            C = np.arange(0, g.n, 3)
            return approx_schur(g, C, eps=0.5, seed=123, options=opts)

        base = schur(1)
        for workers in self.WORKER_COUNTS[1:]:
            assert schur(workers) == base, workers

    def test_solve_many_backend_invariant(self, monkeypatch):
        g = G.grid2d(12, 12)
        rng = np.random.default_rng(7)
        B = rng.standard_normal((g.n, 9))
        B -= B.mean(axis=0)
        # Column chunks of 4 so the 9 columns split three ways.
        opts = practical_options().with_(chunk_items=512, chunk_columns=4)

        def solutions(workers):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            solver = LaplacianSolver(g, options=opts, seed=11)
            return solver.solve_many(B, eps=1e-6)

        base = solutions(1)
        for workers in self.WORKER_COUNTS[1:]:
            np.testing.assert_array_equal(solutions(workers), base,
                                          err_msg=f"workers={workers}")

    def test_options_backend_threads_through(self):
        # The retired ``backend="thread"`` is still accepted and read by
        # nothing: the worker count alone reaches the context.
        opts = default_options().with_(backend="thread", workers=3)
        assert opts.execution() == ExecutionContext(workers=3)
        assert opts.execution().resolve_workers() == 3


class TestInteriorDegreeOracle:
    """The incremental store's degree oracle == the induced rebuild."""

    def test_oracle_matches_induced_rebuild_per_round(self):
        from repro.core.boundedness import naive_split
        from repro.core.dd_subset import _within_subset_degrees
        from repro.core.terminal_walks import terminal_walks

        g = naive_split(G.grid2d(9, 9), 0.25)
        inc = IncrementalWalkCSR(g, rebuild_factor=0.3)
        rng = np.random.default_rng(0)
        work = g
        remaining = np.arange(g.n)
        for _ in range(4):
            if remaining.size <= 4:
                break
            member = np.zeros(g.n, dtype=bool)
            member[remaining] = True
            induced = work.edge_subset(member[work.u] & member[work.v])
            oracle = inc.interior_degrees(remaining)
            assert oracle.m == induced.m
            np.testing.assert_array_equal(oracle.weighted_degrees(),
                                          induced.weighted_degrees())
            # Candidate-scan kernel: several random candidate subsets.
            for _ in range(3):
                cand = rng.choice(remaining,
                                  size=max(1, remaining.size // 4),
                                  replace=False)
                cm = np.zeros(g.n, dtype=bool)
                cm[cand] = True
                np.testing.assert_array_equal(
                    oracle.within_subset_degrees(cm),
                    _within_subset_degrees(induced, cm))
            F = np.unique(rng.choice(remaining,
                                     size=max(1, remaining.size // 5),
                                     replace=False))
            terminals = np.setdiff1d(remaining, F)
            nxt, stats = terminal_walks(work, terminals, seed=rng,
                                        return_stats=True)
            p = stats.passthrough_stored
            inc.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:],
                        None if nxt.mult is None else nxt.mult[p:])
            work = nxt
            remaining = terminals

    def test_scan_path_does_not_change_approx_schur(self, scratch_walks):
        # The store routes the 5DD scan through the degree oracle; the
        # scratch path rebuilds the induced subgraph.  Outputs must be
        # bit-identical (same degrees ⇒ same candidate acceptance ⇒
        # same RNG consumption ⇒ same F sequence).
        g = G.grid2d(13, 13)
        C = np.arange(0, g.n, 4)
        # Coalescing only exists in the store: pin it off so both
        # paths realise the same walks (tests/test_coalesce.py covers
        # the coalesced store's own scratch-equality contract).
        opts = default_options().with_(coalesce_emitted=False)
        a = approx_schur(g, C, eps=0.5, seed=99, options=opts)
        with scratch_walks():
            b = approx_schur(g, C, eps=0.5, seed=99, options=opts)
        assert a == b


class TestIncrementalCSR:
    """The maintained restricted CSR equals a from-scratch rebuild."""

    def _assert_view_equal(self, got, want, got_mult, want_graph):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.neighbor, want.neighbor)
        np.testing.assert_array_equal(got.weight, want.weight)
        want_mult = want_graph.multiplicities()[want.edge_id]
        got_m = got_mult if got_mult is not None \
            else np.ones(got.weight.size, dtype=np.int32)
        np.testing.assert_array_equal(got_m, want_mult)

    def test_round_by_round_equality(self):
        from repro.core.boundedness import naive_split
        from repro.core.terminal_walks import terminal_walks

        g = naive_split(G.grid2d(9, 9), 0.25)
        inc = IncrementalWalkCSR(g, rebuild_factor=0.3)
        rng = np.random.default_rng(0)
        work = g
        remaining = np.arange(g.n)
        for _ in range(4):
            if remaining.size <= 4:
                break
            F = rng.choice(remaining, size=max(1, remaining.size // 5),
                           replace=False)
            F = np.unique(F)
            terminals = np.setdiff1d(remaining, F)
            is_term = np.zeros(g.n, dtype=bool)
            is_term[terminals] = True
            view, slot_mult = inc.restricted_view(F)
            want = work.adjacency_restricted(~is_term)
            self._assert_view_equal(view, want, slot_mult, work)
            nxt, stats = terminal_walks(work, terminals, seed=rng,
                                        return_stats=True)
            p = stats.passthrough_stored
            inc.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:],
                        None if nxt.mult is None else nxt.mult[p:])
            assert inc.live_graph() == nxt
            work = nxt
            remaining = terminals

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

    def test_epoch_rebuild_compacts(self):
        g = G.grid2d(6, 6)
        inc = IncrementalWalkCSR(g, rebuild_factor=0.01)
        inc.eliminate(np.array([0, 1, 2]))
        dead_before = inc.m - inc.m_alive
        assert dead_before > 0
        # Any insert past the tiny rebuild threshold triggers compaction.
        inc.insert(np.array([3]), np.array([20]), np.array([1.0]))
        assert inc.m == inc.m_alive

    def test_live_graph_order_matches_terminal_walks_layout(self):
        g = G.grid2d(5, 5)
        from repro.core.terminal_walks import terminal_walks

        inc = IncrementalWalkCSR(g)
        terminals = np.arange(0, g.n, 2)
        F = np.setdiff1d(np.arange(g.n), terminals)
        nxt, stats = terminal_walks(g, terminals, seed=1,
                                    return_stats=True)
        p = stats.passthrough_stored
        inc.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:])
        assert inc.live_graph() == nxt


class TestBlockedTrackErrors:
    def test_history_has_per_column_entries(self):
        from repro.core.richardson import preconditioned_richardson
        from repro.graphs.laplacian import apply_laplacian
        from repro.linalg.ops import project_out_ones

        # > min_vertices so the chain is non-trivial and the iteration
        # actually runs (a dense-base-case preconditioner is exact and
        # freezes every column at iteration 0).
        g = G.grid2d(12, 12)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        B = np.random.default_rng(2).standard_normal((g.n, 3))
        B = project_out_ones(B)

        def errs(X):
            return np.linalg.norm(apply_laplacian(g, X) - B, axis=0)

        res = preconditioned_richardson(
            lambda X: apply_laplacian(g, X),
            solver.preconditioner.apply, B, eps=1e-6,
            track_errors=errs)
        assert len(res.error_history) >= 2
        assert all(h.shape == (3,) for h in res.error_history)
        # Residuals decay overall (geometric convergence, Theorem 3.8).
        assert np.all(res.error_history[-1] < res.error_history[0])


class TestChebyshevPreconditionedFreeze:
    def _setup(self):
        import math

        from repro.graphs.laplacian import laplacian

        g = G.grid2d(8, 8)
        solver = LaplacianSolver(g, options=practical_options(), seed=4)
        L = laplacian(g)
        B = np.random.default_rng(5).standard_normal((g.n, 5))
        return g, solver, L, B, math.exp(-1), math.exp(1)

    def test_preconditioned_rule_converges(self):
        from repro.linalg.chebyshev import chebyshev_iteration
        from repro.linalg.ops import project_out_ones

        g, solver, L, B, lo, hi = self._setup()
        X = chebyshev_iteration(L, solver.preconditioner.apply, B,
                                lo, hi, 200, tol=1e-9)
        R = np.asarray(L @ X) - project_out_ones(B)
        # The preconditioned rule targets the preconditioned residual;
        # raw residuals still land within the spectral-equivalence
        # factor of the target.
        bnorm = np.linalg.norm(B, axis=0)
        assert np.all(np.linalg.norm(R, axis=0) <= 1e-6 * bnorm)

    def test_ctx_column_chunks_match_unchunked(self):
        from repro.linalg.chebyshev import chebyshev_iteration

        g, solver, L, B, lo, hi = self._setup()
        plain = chebyshev_iteration(L, solver.preconditioner.apply, B,
                                    lo, hi, 30)
        ctx = ExecutionContext(chunk_columns=2)
        chunked = chebyshev_iteration(L, solver.preconditioner.apply, B,
                                      lo, hi, 30, ctx=ctx)
        np.testing.assert_allclose(chunked, plain, rtol=1e-12, atol=1e-12)
