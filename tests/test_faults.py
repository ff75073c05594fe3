"""Numerical-breakdown containment and its NaN-injection harness.

A column whose iterate goes non-finite in a blocked kernel is
quarantined without poisoning its siblings, then escalated per column
(DESIGN.md §9).  ``nan:col=N`` directives make that path run on
demand; these tests pin the directive grammar, that healthy columns
stay bit-identical to the fault-free solve, and that every
containment action appears in the structured :class:`FaultLog`.
"""

import numpy as np
import pytest

from repro.config import default_options, practical_options
from repro.core.apply_cholesky import K_WAVE, ApplyCholeskyOperator
from repro.core.solver import DEFAULT_METHOD, LaplacianSolver
from repro.errors import ConvergenceError, NumericalBreakdownError
from repro.graphs import generators as G
from repro.pram.executor import ExecutionContext
from repro.pram.faults import (
    FaultPlan,
    active_plan,
    inject_nan_columns,
    use_fault_log,
    use_faults,
)


class TestPlanParsing:
    def test_parse_directives(self):
        plan = FaultPlan.parse("nan:col=3:iter=1:stage=cg, nan:col=0")
        first, second = plan.directives
        assert (first.kind, first.col, first.iteration, first.stage) == \
            ("nan", 3, 1, "cg")
        assert (second.col, second.iteration, second.stage) == (0, 0, None)

    def test_spec_roundtrip(self):
        text = ("nan:col=3:iter=1:stage=cg,nan:col=0,"
                "nan:col=2:stage=solve")
        plan = FaultPlan.parse(text)
        reparsed = FaultPlan.parse(
            ",".join(d.spec() for d in plan.directives))
        assert reparsed == plan

    @pytest.mark.parametrize("bad", [
        "explode:chunk=1",       # unknown kind
        "kill",                  # retired kind
        "nan:iter=1",            # nan needs col=
        "kill:chunk=x",
        "hang:chunk=0:seconds=no",
        "hang:chunk=0:seconds=-1",
        "kill:chunk=0:wat=1",
        "kill:chunk",            # selector without =
        " , ",                   # no directives at all
        "kill:chunk=1:backend=bogus",
        "kill:chunk=1:backend=distributed",
        "kill:chunk=1:phase=wlak",
        "nan:col=1:stage=richardsn",         # typo'd stage
        "drop:frame=0",
        "disconnect:worker=1",
        "kill:chunk=0:backend=process",
        "kill:chunk=0:phase=transport",
        "kill:chunk=0:stage=solve",
        # The chunk-retry layer and its selectors are gone; a directive
        # naming them could never fire.
        "kill:chunk=1",
        "hang:chunk=0",
        "nan:col=0:chunk=1",
        "nan:col=0:attempt=1",
        "nan:col=0:backend=thread",
        "nan:col=0:phase=columns",
        "nan:col=0:stage=serve",
        "nan:col=x",             # non-integer
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_every_listed_selector_value_parses(self):
        # The selector check must not reject a stage some kernel can
        # actually match (case-insensitive, like the rest).
        from repro.pram.faults import STAGES

        assert STAGES == ("richardson", "pcg", "cg", "chebyshev", "solve")
        for value in STAGES:
            d = FaultPlan.parse(
                f"nan:col=0:stage={value.upper()}").directives[0]
            assert d.stage == value

    def test_nan_stage_solve_is_a_kernel_wildcard(self):
        # ``stage=solve`` is the wildcard over the blocked kernels.
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
        # Plans come only from use_faults: the environment activates
        # nothing, even a stale variable from an older release.
        monkeypatch.setenv("REPRO_FAULTS", "nan:col=2")
        assert active_plan() is None
        with use_faults("nan:col=7"):
            assert active_plan().directives[0].col == 7
            with use_faults(None):
                assert active_plan() is None
            assert active_plan().directives[0].col == 7
        assert active_plan() is None


class TestEnvKnobs:
    def test_options_thread_through(self):
        # The retired retries field accepts only 0 and never reaches
        # the execution context: such options still share the
        # all-defaults singleton.
        assert default_options().with_(retries=0).execution() \
            is ExecutionContext.DEFAULT
        assert default_options().execution() is ExecutionContext.DEFAULT
        ctx = practical_options().with_(chunk_items=512).execution()
        assert ctx.resolve_chunk_items() == 512


class TestChunkRedispatch:
    """Chunks are dispatched once: nothing is re-run."""

    def test_nontransient_errors_are_not_retried(self):
        # A raising chunk is never re-run; every chunk runs exactly
        # once and the lowest-index error surfaces.
        ctx = ExecutionContext(workers=1, chunk_items=4)
        pieces = ctx.item_chunks(8)
        calls = []

        def one(lo, hi):
            calls.append(lo)
            raise ValueError(f"boom {lo}")

        with pytest.raises(ValueError, match="boom 0"):
            ctx.run_chunks(one, pieces)
        assert sorted(calls) == [lo for lo, _ in pieces]  # once each


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
