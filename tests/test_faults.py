"""Fault-tolerant execution (ISSUE 6): injection harness + recovery.

The determinism contract (chunk layout and per-chunk RNG streams are
functions of problem size only) makes recovery cheap: a lost chunk
re-dispatched with its original ``(lo, hi, seed_key)`` is bit-identical
to what the lost attempt would have produced.  These tests *prove* it:
for every backend and fault kind, a faulted run must equal a fault-free
run bit-for-bit — solutions **and** ledger totals — and every recovery
action must appear in the structured :class:`FaultLog`.
"""

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
    default_retries,
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


def _square(x):
    """Chunk closure: deterministic value + one charged region."""
    from repro.pram import charge

    def one(lo, hi, stream=None):
        charge(hi - lo, 2.0, label="sq")
        value = float((x[lo:hi] ** 2).sum()) + 1.5
        if stream is not None:
            value += float(stream.random())
        return value

    return one


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
                "kill:chunk=1:attempt=*:backend=thread:phase=walk")
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
            "kill:chunk=0:backend=thread:phase=walk").directives[0]
        assert d.matches_chunk(chunk=0, attempt=0, backend="thread",
                               phase="walk")
        assert not d.matches_chunk(chunk=0, attempt=0, backend="serial",
                                   phase="walk")
        assert not d.matches_chunk(chunk=0, attempt=0, backend="thread",
                                   phase="columns")
        # Unknown coordinate at the call site: selector not consulted.
        assert d.matches_chunk(chunk=0, attempt=0)

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
        # Directives naming the retired process backend, its wire or
        # its shipped solves could never fire.
        "drop:frame=0",
        "disconnect:worker=1",
        "kill:chunk=0:backend=process",
        "kill:chunk=0:phase=transport",
        "kill:chunk=0:stage=solve",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_every_listed_selector_value_parses(self):
        # The selector check must not reject a value some dispatch
        # site can actually match (case-insensitive, like the rest).
        # Kernel stages are nan coordinates; kill/hang take stage= as
        # an alias of a dispatch scope.
        from repro.pram.faults import PHASES, STAGES

        scopes = tuple(v for v in STAGES if v in PHASES)
        assert scopes == ("serve",)
        for kind, key, values in (("kill:chunk=0", "backend", BACKENDS),
                                  ("kill:chunk=0", "phase", PHASES),
                                  ("kill:chunk=0", "stage", scopes),
                                  ("nan:col=0", "stage", STAGES)):
            for value in values:
                d = FaultPlan.parse(
                    f"{kind}:{key}={value.upper()}").directives[0]
                assert getattr(d, key) == value

    def test_nan_stage_solve_is_a_kernel_wildcard(self):
        # kill/hang lost stage=solve with the shipped solves; nan keeps
        # it as the wildcard over the blocked kernels.
        from repro.pram.faults import inject_nan_columns

        plan = FaultPlan.parse("nan:col=0:stage=solve")
        d = plan.directives[0]
        assert d.stage == "solve"
        assert FaultPlan.parse(d.spec()) == plan
        for stage in ("richardson", "pcg", "cg", "chebyshev"):
            block = np.ones((3, 2))
            hit = inject_nan_columns(plan, block, np.array([0, 1]), 0,
                                     stage)
            assert hit == [0], stage
            assert np.isnan(block[:, 0]).all()
            assert np.isfinite(block[:, 1]).all()

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

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        policy = RetryPolicy(max_attempts=4, base_delay=0.1)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.4)  # doubles per round

    def test_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 6

    def test_options_thread_through(self):
        ctx = default_options().with_(retries=1).execution()
        assert ctx.retry == RetryPolicy(max_attempts=2)
        # All-defaults options still share the singleton context.
        assert default_options().execution() is ExecutionContext.DEFAULT


class TestChunkRedispatch:
    """Fault ⇒ re-dispatch ⇒ bit-identical values and ledger totals."""

    def _run(self, ctx, pieces, x, plan):
        rng = np.random.default_rng(5)
        with use_ledger() as ledger:
            with use_faults(plan), use_fault_log() as flog:
                out = ctx.run_chunks(_square(x), pieces, rng=rng)
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
                ctx.run_chunks(_square(x), pieces)
        # Only chunk 1 faults, so it is the one and only chunk to
        # exhaust on every backend.
        assert err.value.chunk == 1
        assert err.value.attempts == 2
        assert err.value.__cause__ is not None
        assert [e.chunk for e in flog.events
                if e.action == "exhausted"] == [1]

    def test_nontransient_errors_are_not_retried(self, monkeypatch):
        # A deterministic bug must not burn retry attempts: only
        # injected faults are transient.
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

    def test_column_chunk_faults_are_invisible(self, monkeypatch):
        # phase=columns pins the fault to the column-chunked solve
        # dispatches (run_chunks closures), leaving the walk phase
        # alone — exercises the in-process retry path end-to-end.
        base = self._solve(monkeypatch, "thread", 2, None)
        faulted = self._solve(monkeypatch, "thread", 2,
                              "kill:chunk=0:phase=columns")
        np.testing.assert_array_equal(faulted[0], base[0])
        assert faulted[1:] == base[1:]


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
