"""Fault-tolerant execution (ISSUE 6): injection harness + recovery.

The determinism contract (chunk layout and per-chunk RNG streams are
functions of problem size only) makes recovery cheap: a lost chunk
re-dispatched with its original ``(lo, hi, seed_key)`` is bit-identical
to what the lost attempt would have produced.  These tests *prove* it:
for every backend and fault kind, a faulted run must equal a fault-free
run bit-for-bit — solutions **and** ledger totals — and every recovery
action must appear in the structured :class:`FaultLog`.
"""

import os

import numpy as np
import pytest

from repro.config import default_options, practical_options
from repro.core.apply_cholesky import K_WAVE, ApplyCholeskyOperator
from repro.core.solver import DEFAULT_METHOD, LaplacianSolver
from repro.errors import (
    ConvergenceError,
    ExecutionError,
    NumericalBreakdownError,
)
from repro.graphs import generators as G
from repro.pram import use_ledger
from repro.pram.executor import (
    BACKENDS,
    ExecutionContext,
    RetryPolicy,
    default_chunk_timeout,
    default_degrade,
    default_retries,
    live_segment_names,
)
from repro.pram.faults import (
    FaultDirective,
    FaultLog,
    FaultPlan,
    InjectedFault,
    active_plan,
    apply_chunk_faults,
    use_fault_log,
    use_faults,
)

#: A fast retry policy for tests (no reason to sleep real backoffs).
FAST = RetryPolicy(max_attempts=3, base_delay=0.01)


def _square_task(arrays, meta, lo, hi, stream, ledger):
    """Module-level shipped task (pickled by reference under the
    process backend): deterministic value + one charged region."""
    from repro.pram import charge, use_ledger as _use

    value = float((arrays["x"][lo:hi] ** 2).sum()) + meta["bias"]
    if stream is not None:
        value += float(stream.random())
    if ledger is not None:
        with _use(ledger):
            charge(hi - lo, 2.0, label="sq")
    return value


class TestPlanParsing:
    def test_parse_directives(self):
        plan = FaultPlan.parse(
            "kill:chunk=2:attempt=1, hang:chunk=0:seconds=2,"
            "nan:col=3:iter=1:stage=cg")
        kill, hang, nan = plan.directives
        assert (kill.kind, kill.chunk, kill.attempt) == ("kill", 2, 1)
        assert (hang.kind, hang.chunk, hang.seconds) == ("hang", 0, 2.0)
        assert (nan.kind, nan.col, nan.iteration, nan.stage) == \
            ("nan", 3, 1, "cg")

    def test_spec_roundtrip(self):
        text = ("kill:chunk=2:attempt=1,hang:chunk=0:seconds=2,"
                "nan:col=3:iter=1:stage=cg,"
                "kill:chunk=1:attempt=*:backend=process:phase=walk")
        plan = FaultPlan.parse(text)
        reparsed = FaultPlan.parse(
            ",".join(d.spec() for d in plan.directives))
        assert reparsed == plan

    def test_attempt_star_means_every_attempt(self):
        d = FaultPlan.parse("kill:chunk=1:attempt=*").directives[0]
        assert d.attempt is None
        assert d.matches_chunk(chunk=1, attempt=0)
        assert d.matches_chunk(chunk=1, attempt=5)
        assert not d.matches_chunk(chunk=2, attempt=0)

    def test_backend_and_phase_selectors(self):
        d = FaultPlan.parse(
            "kill:chunk=0:backend=process:phase=walk").directives[0]
        assert d.matches_chunk(chunk=0, attempt=0, backend="process",
                               phase="walk")
        assert not d.matches_chunk(chunk=0, attempt=0, backend="thread",
                                   phase="walk")
        assert not d.matches_chunk(chunk=0, attempt=0, backend="process",
                                   phase="columns")
        # Unknown coordinate at the call site: selector not consulted.
        assert d.matches_chunk(chunk=0, attempt=0)

    def test_chunk_directives_prefilter(self):
        plan = FaultPlan.parse(
            "kill:chunk=0:backend=process,kill:chunk=1:backend=serial,"
            "nan:col=2,hang:chunk=3")
        ships = plan.chunk_directives(backend="process", phase="walk")
        assert [d.chunk for d in ships] == [0, 3]

    @pytest.mark.parametrize("bad", [
        "explode:chunk=1",       # unknown kind
        "kill",                  # kill needs chunk=
        "nan:iter=1",            # nan needs col=
        "kill:chunk=x",          # non-integer
        "hang:chunk=0:seconds=no",
        "hang:chunk=0:seconds=-1",
        "kill:chunk=0:wat=1",    # unknown selector
        "kill:chunk",            # selector without =
        " , ",                   # no directives at all
        "kill:chunk=1:backend=bogus",        # unknown backend
        "kill:chunk=1:backend=distributed",  # retired backend
        "kill:chunk=1:phase=wlak",           # typo'd phase
        "nan:col=1:stage=richardsn",         # typo'd stage
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_every_listed_selector_value_parses(self):
        # The selector check must not reject a value some dispatch
        # site can actually match (case-insensitive, like the rest).
        from repro.pram.faults import PHASES, STAGES

        for key, values in (("backend", BACKENDS), ("phase", PHASES),
                            ("stage", STAGES)):
            for value in values:
                d = FaultPlan.parse(
                    f"kill:chunk=0:{key}={value.upper()}").directives[0]
                assert getattr(d, key) == value

    def test_env_activation(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "kill:chunk=2")
        plan = active_plan()
        assert plan is not None and plan.directives[0].chunk == 2
        # use_faults overrides the env var ...
        with use_faults("kill:chunk=7"):
            assert active_plan().directives[0].chunk == 7
        # ... and use_faults(None) masks it entirely.
        with use_faults(None):
            assert active_plan() is None
        assert active_plan().directives[0].chunk == 2

    def test_apply_chunk_faults_logs_and_raises(self):
        plan = FaultPlan.parse("kill:chunk=1")
        log = FaultLog()
        apply_chunk_faults(plan, chunk=0, attempt=0, log=log)  # no match
        assert len(log) == 0
        with pytest.raises(InjectedFault):
            apply_chunk_faults(plan, chunk=1, attempt=0, log=log)
        assert log.actions() == ("inject",)
        assert log.events[0].kind == "kill"


class TestEnvKnobs:
    def test_default_retries(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert default_retries() == 2
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert default_retries() == 0
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ValueError):
            default_retries()

    def test_default_chunk_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert default_chunk_timeout() is None
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "2.5")
        assert default_chunk_timeout() == 2.5
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "0")
        with pytest.raises(ValueError):
            default_chunk_timeout()

    def test_default_degrade(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        assert default_degrade() is False
        monkeypatch.setenv("REPRO_DEGRADE", "1")
        assert default_degrade() is True
        monkeypatch.setenv("REPRO_DEGRADE", "0")
        assert default_degrade() is False

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        policy = RetryPolicy(max_attempts=4, base_delay=0.1)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.4)  # doubles per round

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "1.5")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 6
        assert policy.timeout == 1.5

    def test_options_thread_through(self):
        ctx = default_options().with_(
            retries=1, chunk_timeout=2.0, degrade=True).execution()
        assert ctx.retry == RetryPolicy(max_attempts=2, timeout=2.0)
        assert ctx.resolve_degrade() is True
        # All-defaults options still share the singleton context.
        assert default_options().execution() is ExecutionContext.DEFAULT


class TestChunkRedispatch:
    """Fault ⇒ re-dispatch ⇒ bit-identical values and ledger totals."""

    def _run(self, ctx, pieces, x, plan):
        rng = np.random.default_rng(5)
        with use_ledger() as ledger:
            with use_faults(plan), use_fault_log() as flog:
                out = ctx.run_shipped(_square_task, {"x": x},
                                      {"bias": 1.5}, pieces, rng=rng)
        return out, ledger.work, ledger.depth, flog

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", [
        "kill:chunk=1", "hang:chunk=1:seconds=0.01",
    ])
    def test_faulted_matches_clean(self, backend, fault, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(backend=backend, chunk_items=8, retry=FAST)
        pieces = ctx.item_chunks(x.size)
        assert len(pieces) > 2
        base, work, depth, _ = self._run(ctx, pieces, x, None)
        out, fwork, fdepth, flog = self._run(ctx, pieces, x, fault)
        assert out == base
        assert (fwork, fdepth) == (work, depth)
        assert flog.count("retry") >= 1
        if backend == "process" and fault.startswith("kill"):
            assert flog.count("worker_replace") >= 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_second_attempt_can_fault_too(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(backend=backend, chunk_items=8, retry=FAST)
        pieces = ctx.item_chunks(x.size)
        base, work, *_ = self._run(ctx, pieces, x, None)
        out, fwork, _, flog = self._run(
            ctx, pieces, x, "kill:chunk=1,kill:chunk=1:attempt=1")
        assert out == base and fwork == work
        assert flog.count("retry") >= 2

    def test_lease_timeout_replaces_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, timeout=0.5)
        ctx = ExecutionContext(backend="process", chunk_items=8,
                               retry=policy)
        pieces = ctx.item_chunks(x.size)
        base, work, *_ = self._run(ctx, pieces, x, None)
        # A real 30s sleep in a worker that keeps heartbeating: only
        # the lease timeout can save this dispatch within the test's
        # lifetime, and it replaces that one worker, not the pool.
        out, fwork, _, flog = self._run(ctx, pieces, x,
                                        "hang:chunk=0:seconds=30")
        assert out == base and fwork == work
        assert [e.chunk for e in flog.events
                if e.action == "timeout"] == [0]
        assert flog.count("worker_replace") == 1
        assert flog.count("retry") == 1
        assert flog.count("pool_rebuild") == 0
        assert live_segment_names() == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhaustion_error_shape(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(
            backend=backend, chunk_items=8,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01))
        pieces = ctx.item_chunks(x.size)
        with use_faults("kill:chunk=1:attempt=*"), \
                use_fault_log() as flog:
            with pytest.raises(ExecutionError) as err:
                ctx.run_shipped(_square_task, {"x": x}, {"bias": 1.5},
                                pieces)
        # A dying worker loses only its own lease, so chunk 1 is the
        # one and only chunk to exhaust on every backend.
        assert err.value.chunk == 1
        assert err.value.attempts == 2
        assert err.value.__cause__ is not None
        assert [e.chunk for e in flog.events
                if e.action == "exhausted"] == [1]
        assert live_segment_names() == ()

    def test_nontransient_errors_are_not_retried(self, monkeypatch):
        # A deterministic bug must not burn retry attempts: only
        # injected faults / crashes / timeouts are transient.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        ctx = ExecutionContext(backend="serial", chunk_items=4,
                               retry=FAST)
        pieces = ctx.item_chunks(8)
        calls = []

        def one(lo, hi):
            calls.append(lo)
            raise ValueError(f"boom {lo}")

        with pytest.raises(ValueError, match="boom 0"):
            ctx.run_chunks(one, pieces)
        assert sorted(calls) == [lo for lo, _ in pieces]  # once each

    def test_run_chunks_retries_injected_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        ctx = ExecutionContext(backend="thread", chunk_items=4,
                               retry=FAST)
        pieces = ctx.item_chunks(12)
        with use_faults("kill:chunk=0"), use_fault_log() as flog:
            out = ctx.run_chunks(lambda lo, hi: hi - lo, pieces)
        assert out == [hi - lo for lo, hi in pieces]
        assert flog.count("inject") == 1 and flog.count("retry") == 1


class TestShmHygiene:
    """Satellite: no leaked segments when workers die mid-dispatch."""

    def _assert_no_leaks(self):
        assert live_segment_names() == ()
        shm_dir = "/dev/shm"
        prefix = f"repro-{os.getpid()}-"
        if os.path.isdir(shm_dir):
            leaked = [name for name in os.listdir(shm_dir)
                      if name.startswith(prefix)]
            assert leaked == []

    def test_killed_worker_leaves_no_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(
            backend="process", chunk_items=8,
            retry=RetryPolicy(max_attempts=1, base_delay=0.01))
        pieces = ctx.item_chunks(x.size)
        with use_faults("kill:chunk=1:attempt=*"):
            with pytest.raises(ExecutionError):
                ctx.run_shipped(_square_task, {"x": x}, {"bias": 1.5},
                                pieces)
        self._assert_no_leaks()

    def test_recovered_dispatch_leaves_no_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        ctx = ExecutionContext(backend="process", chunk_items=8,
                               retry=FAST)
        pieces = ctx.item_chunks(x.size)
        with use_faults("kill:chunk=0"):
            ctx.run_shipped(_square_task, {"x": x}, {"bias": 1.5}, pieces)
        self._assert_no_leaks()


class TestDegradation:
    """Retry-exhausted chunks fall down the backend ladder — and the
    degraded result is still bit-identical."""

    def test_process_degrades_to_thread_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        x = np.linspace(0.0, 3.0, 37)
        policy = RetryPolicy(max_attempts=2, base_delay=0.01)
        pieces = ExecutionContext(chunk_items=8).item_chunks(x.size)

        def run(ctx, plan):
            rng = np.random.default_rng(5)
            with use_faults(plan), use_fault_log() as flog:
                out = ctx.run_shipped(_square_task, {"x": x},
                                      {"bias": 1.5}, pieces, rng=rng)
            return out, flog

        base, _ = run(ExecutionContext(backend="serial", chunk_items=8),
                      None)
        ctx = ExecutionContext(backend="process", chunk_items=8,
                               retry=policy, degrade=True)
        # backend=process pins the kill to the process attempts only, so
        # the degraded (thread) re-dispatch of the same chunk succeeds.
        out, flog = run(ctx, "kill:chunk=1:attempt=*:backend=process")
        assert out == base
        # Leases confine the deaths to chunk 1: it alone exhausts, and
        # one degrade step (process -> thread) recovers it.
        assert [e.chunk for e in flog.events
                if e.action == "exhausted"] == [1]
        assert flog.count("degrade") == 1
        assert flog.events[-1].action != "exhausted"
        assert live_segment_names() == ()

    def test_degrade_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEGRADE", raising=False)
        ctx = ExecutionContext(backend="process", chunk_items=8,
                               retry=RetryPolicy(max_attempts=1))
        assert ctx.resolve_degrade() is False
        x = np.linspace(0.0, 3.0, 37)
        pieces = ctx.item_chunks(x.size)
        with use_faults("kill:chunk=1:attempt=*"):
            with pytest.raises(ExecutionError):
                ctx.run_shipped(_square_task, {"x": x}, {"bias": 1.5},
                                pieces)


class TestSolverFaultInvariance:
    """The bench gate, in-tree: fixed seed ⇒ identical solutions and
    ledger totals with and without injected faults, on every backend."""

    WORKER_COUNTS = (1, 2)

    def _solve(self, monkeypatch, backend, workers, plan):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        g = G.grid2d(12, 12)
        rng = np.random.default_rng(7)
        B = rng.standard_normal((g.n, 5))
        B -= B.mean(axis=0)
        opts = practical_options().with_(chunk_items=512, retries=2)
        with use_faults(plan):
            with use_ledger() as ledger:
                solver = LaplacianSolver(g, options=opts, seed=11)
                X = solver.solve_many(B, eps=1e-6)
        return X, ledger.work, ledger.depth

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kill_one_chunk_is_invisible(self, backend, monkeypatch):
        base = self._solve(monkeypatch, backend, 1, None)
        for workers in self.WORKER_COUNTS:
            faulted = self._solve(monkeypatch, backend, workers,
                                  "kill:chunk=1")
            np.testing.assert_array_equal(faulted[0], base[0],
                                          err_msg=f"{backend} w={workers}")
            assert faulted[1:] == base[1:], (backend, workers)

    def test_hang_on_process_backend_is_invisible(self, monkeypatch):
        base = self._solve(monkeypatch, "process", 2, None)
        faulted = self._solve(monkeypatch, "process", 2,
                              "hang:chunk=0:seconds=0.01")
        np.testing.assert_array_equal(faulted[0], base[0])
        assert faulted[1:] == base[1:]
        assert live_segment_names() == ()

    def test_column_chunk_faults_are_invisible(self, monkeypatch):
        # phase=columns pins the fault to the column-chunked solve
        # dispatches (run_chunks closures), leaving the walk phase
        # alone — exercises the in-process retry path end-to-end.
        base = self._solve(monkeypatch, "thread", 2, None)
        faulted = self._solve(monkeypatch, "thread", 2,
                              "kill:chunk=0:phase=columns")
        np.testing.assert_array_equal(faulted[0], base[0])
        assert faulted[1:] == base[1:]


class TestShippedSolveFaults:
    """ISSUE 7: the fault machinery covers shipped solve chunks
    unchanged.  ``stage=solve`` pins kill/hang to the shipped-solve
    dispatch scope (and widens nan directives over every kernel
    stage); recovery replays the identical column chunks, so faulted
    runs stay bit-identical — solutions and ledger totals — and no
    shared memory survives a worker dying mid-solve."""

    def _solve(self, plan, backend="process", ship=True, retries=2):
        g = G.grid2d(12, 12)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((g.n, 8))
        B -= B.mean(axis=0)
        opts = practical_options().with_(
            chunk_columns=2, chunk_items=512, backend=backend,
            workers=2, ship_solves=ship, retries=retries)
        solver = LaplacianSolver(g, options=opts, seed=11)
        with use_faults(plan):
            with use_ledger() as ledger:
                rep = solver.solve_many_report(B, eps=1e-6)
        solver.close()
        return rep, (ledger.work, ledger.depth)

    def test_stage_solve_selector_semantics(self):
        plan = FaultPlan.parse("kill:chunk=1:stage=solve")
        assert plan.chunk_directives(phase="solve")
        assert not plan.chunk_directives(phase="walk")
        assert not plan.chunk_directives(phase="columns")
        d = plan.directives[0]
        assert d.matches_chunk(chunk=1, attempt=0, phase="solve")
        assert not d.matches_chunk(chunk=1, attempt=0, phase="walk")
        assert FaultPlan.parse(d.spec()) == plan  # spec round-trips

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_killed_solve_chunk_recovers_bit_identical(self, backend):
        base, lbase = self._solve(None, backend=backend)
        assert base.iterations > 0
        rep, led = self._solve("kill:chunk=1:stage=solve",
                               backend=backend)
        np.testing.assert_array_equal(rep.x, base.x)
        assert rep.iterations == base.iterations
        assert led == lbase
        assert rep.fault_log.summary().get("retry", 0) >= 1
        assert live_segment_names() == ()

    def test_hung_solve_chunk_recovers_bit_identical(self):
        base, lbase = self._solve(None)
        rep, led = self._solve(
            "hang:chunk=0:seconds=0.01:stage=solve")
        np.testing.assert_array_equal(rep.x, base.x)
        assert led == lbase
        assert rep.fault_log.summary().get("retry", 0) >= 1
        assert live_segment_names() == ()

    def test_nan_stage_solve_shipped_matches_inprocess(self):
        # stage=solve is a wildcard over the kernel stages for nan
        # directives; the quarantine fires inside a shipped worker, the
        # escalation runs parent-side — the whole trajectory (status,
        # solutions, ledger) must equal the unshipped thread run.
        ship, led_s = self._solve("nan:col=3:stage=solve")
        plain, led_p = self._solve("nan:col=3:stage=solve",
                                   backend="thread", ship=False)
        np.testing.assert_array_equal(ship.x, plain.x)
        assert ship.method == plain.method
        assert list(ship.column_status) == list(plain.column_status)
        assert "dense" in ship.column_status or \
            "pcg" in ship.column_status
        assert led_s == led_p
        assert ship.fault_log.summary()["quarantine"] == \
            plain.fault_log.summary()["quarantine"]
        assert live_segment_names() == ()

    def test_shm_clean_after_killed_worker_mid_solve(self):
        # The killed worker dies holding live attachments to both the
        # dispatch payload and the persistent chain payload; neither
        # may outlive the run on the filesystem.
        rep, _ = self._solve("kill:chunk=1:stage=solve")
        assert np.isfinite(rep.x).all()
        assert live_segment_names() == ()
        prefix = f"repro-{os.getpid()}-"
        if os.path.isdir("/dev/shm"):
            assert [name for name in os.listdir("/dev/shm")
                    if name.startswith(prefix)] == []


class TestNumericalContainment:
    """NaN/Inf guards: quarantine broken columns, escalate, contain."""

    def _solver(self, k=6, chunk_columns=4, **with_):
        g = G.grid2d(8, 8)
        opts = default_options().with_(chunk_columns=chunk_columns,
                                       **with_)
        solver = LaplacianSolver(g, options=opts, seed=0)
        B = np.random.default_rng(1).normal(size=(g.n, k))
        return solver, B

    def test_clean_report_surface(self):
        solver, B = self._solver()
        rep = solver.solve_many_report(B, eps=1e-8)
        assert list(rep.column_status) == [DEFAULT_METHOD] * 6
        assert len(rep.fault_log) == 0
        assert len(solver.build_fault_log) == 0

    def test_richardson_breakdown_escalates_to_pcg(self):
        solver, B = self._solver()
        clean = solver.solve_many_report(B, eps=1e-8, method="richardson")
        with use_faults("nan:col=3:stage=richardson"):
            rep = solver.solve_many_report(B, eps=1e-8,
                                           method="richardson")
        assert rep.method == "richardson+pcg"
        assert list(rep.column_status) == \
            ["richardson"] * 3 + ["pcg"] + ["richardson"] * 2
        assert rep.fault_log.summary()["quarantine"] == 1
        assert rep.fault_log.summary()["escalate"] == 1
        # Healthy columns never felt the fault — bit-identical.
        keep = [0, 1, 2, 4, 5]
        np.testing.assert_array_equal(rep.x[:, keep], clean.x[:, keep])
        # The escalated column still meets its target.
        assert np.isfinite(rep.x).all()
        assert rep.residual_2norms[3] <= 1e-6

    def test_pcg_breakdown_escalates(self):
        # The default method's analogue: the certified PCG kernel
        # quarantines column 3 and the residual-stopped PCG re-solves it.
        solver, B = self._solver()
        clean = solver.solve_many_report(B, eps=1e-8, method="pcg")
        with use_faults("nan:col=3:stage=pcg"):
            rep = solver.solve_many_report(B, eps=1e-8, method="pcg")
        assert rep.method == "pcg+pcg"
        assert list(rep.column_status) == ["pcg"] * 6
        assert rep.fault_log.summary()["quarantine"] == 1
        events = [e for e in rep.fault_log.events
                  if e.action == "escalate"]
        assert [(e.kind, e.columns) for e in events] == [("nan", (3,))]
        keep = [0, 1, 2, 4, 5]
        np.testing.assert_array_equal(rep.x[:, keep], clean.x[:, keep])
        assert np.isfinite(rep.x).all()
        assert rep.residual_2norms[3] <= 1e-6

    def test_double_breakdown_escalates_to_dense(self):
        solver, B = self._solver()
        clean = solver.solve_many_report(B, eps=1e-8)
        # No stage= pin: the directive re-fires inside the PCG
        # escalation too, forcing the dense pseudo-inverse last line.
        with use_faults("nan:col=3"):
            rep = solver.solve_many_report(B, eps=1e-8)
        assert rep.method == f"{DEFAULT_METHOD}+pcg+dense"
        assert rep.column_status[3] == "dense"
        assert np.isfinite(rep.x).all()
        assert rep.residual_2norms[3] <= 1e-8
        keep = [0, 1, 2, 4, 5]
        np.testing.assert_array_equal(rep.x[:, keep], clean.x[:, keep])

    @pytest.mark.parametrize("method, directive, escalated", [
        ("richardson", "nan:col=3:stage=richardson", "richardson+pcg"),
        ("pcg", "nan:col=3:stage=pcg", "pcg+pcg"),
        (DEFAULT_METHOD, "nan:col=3", f"{DEFAULT_METHOD}+pcg+dense"),
    ])
    def test_wide_chunk_healthy_columns_bit_identical(
            self, monkeypatch, method, directive, escalated):
        # K_WAVE + 1 columns in one chunk: the block starts on the
        # wavefront kernel and falls back to SuperLU once quarantine and
        # certification shrink it below K_WAVE.
        k = K_WAVE + 1
        widths = []
        real = ApplyCholeskyOperator._wavefronts

        def spy(self, r):
            widths.append(r.shape[1])
            return real(self, r)

        monkeypatch.setattr(ApplyCholeskyOperator, "_wavefronts", spy)
        solver, B = self._solver(k=k, chunk_columns=k)
        clean = solver.solve_many_report(B, eps=1e-8, method=method)
        assert k in widths
        with use_faults(directive):
            rep = solver.solve_many_report(B, eps=1e-8, method=method)
        assert rep.method == escalated
        assert rep.fault_log.summary()["quarantine"] >= 1
        keep = [j for j in range(k) if j != 3]
        np.testing.assert_array_equal(rep.x[:, keep], clean.x[:, keep])
        assert np.isfinite(rep.x).all()
        assert rep.residual_2norms[3] <= 1e-6

    def test_blocked_cg_quarantines_and_reports(self):
        from repro.linalg.cg import conjugate_gradient

        solver, B = self._solver()
        with use_faults("nan:col=2:stage=cg"):
            res = conjugate_gradient(solver.apply_L, B, tol=1e-8,
                                     preconditioner=solver.
                                     preconditioner.apply,
                                     ctx=solver.ctx)
        assert res.broken_columns is not None
        assert list(res.broken_columns) == [2]
        assert np.isnan(res.x[:, 2]).all()
        assert np.isfinite(np.delete(res.x, 2, axis=1)).all()

    def test_blocked_cg_raise_on_fail_error_shape(self):
        from repro.linalg.cg import conjugate_gradient

        solver, B = self._solver()
        with use_faults("nan:col=2:stage=cg"):
            with pytest.raises(NumericalBreakdownError) as err:
                conjugate_gradient(solver.apply_L, B, tol=1e-8,
                                   preconditioner=solver.
                                   preconditioner.apply,
                                   raise_on_fail=True)
        assert err.value.column_indices == (2,)
        assert isinstance(err.value, ConvergenceError)  # old handlers work

    def test_single_vector_cg_breakdown(self):
        from repro.linalg.cg import conjugate_gradient

        def bad_apply(v):
            return np.full_like(v, np.nan)

        with pytest.raises(NumericalBreakdownError):
            conjugate_gradient(bad_apply, np.arange(8.0), tol=1e-8,
                               raise_on_fail=True)

    def test_chebyshev_quarantines_broken_columns(self):
        import math

        from repro.graphs.laplacian import laplacian
        from repro.linalg.chebyshev import chebyshev_iteration

        solver, B = self._solver()
        L = laplacian(solver.graph)
        clean = chebyshev_iteration(L, solver.preconditioner.apply, B,
                                    math.exp(-1), math.exp(1), 50,
                                    tol=1e-9)
        with use_faults("nan:col=1:stage=chebyshev"), \
                use_fault_log() as flog:
            X = chebyshev_iteration(L, solver.preconditioner.apply, B,
                                    math.exp(-1), math.exp(1), 50,
                                    tol=1e-9)
        assert np.isnan(X[:, 1]).all()
        keep = [0, 2, 3, 4, 5]
        np.testing.assert_array_equal(X[:, keep], clean[:, keep])
        assert flog.count("quarantine") == 1

    def test_nan_injection_survives_column_chunking(self):
        # col=5 lands in the second column chunk (chunk_columns=4):
        # global col_ids must reach the blocked kernels for the
        # directive to find its target.
        solver, B = self._solver()
        with use_faults(f"nan:col=5:stage={DEFAULT_METHOD}"):
            rep = solver.solve_many_report(B, eps=1e-8)
        assert rep.column_status[5] == "pcg"
        assert rep.fault_log.summary()["quarantine"] == 1
        assert np.isfinite(rep.x).all()
