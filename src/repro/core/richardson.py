"""``PreconRichardson`` — Algorithm 5 (Theorem 3.8).

Given ``B ≈_δ A⁺``, the iteration

    ``x^(k) = (I − α B A) x^(k-1) + α x^(0)``,  ``x^(0) = B b``,
    ``α = 2 / (e^{-δ} + e^{δ})``,

returns an ε-approximate solution to ``A x = b`` after
``⌈e^{2δ} log(1/ε)⌉`` iterations, each costing one apply of ``A`` and
one of ``B``.  With the paper's δ = 1 preconditioner this is
``O(log 1/ε)`` applications — the only place the solver's accuracy
parameter enters.

The blocked entry point accepts ``b`` of shape ``(n, k)`` (``k``
right-hand sides against one factorization — the IPM-loop pattern) with
a scalar or per-column ``eps``.  Each column runs to *its own*
iteration budget ``⌈e^{2δ} log(1/ε_j)⌉`` and is additionally frozen
early once its 2-norm residual falls below
``FREEZE_FACTOR · ε_j · ‖b_j‖``; frozen columns are compacted out of
the active block (mirroring the walker compaction of the sampling
engine), so every ``A``/``B`` apply works on the still-active columns
only — as sparse×dense-matrix (BLAS-3-style) products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.linalg.ops import project_out_ones

__all__ = ["preconditioned_richardson", "richardson_iterations",
           "RichardsonResult", "FREEZE_FACTOR"]

#: Early-freeze threshold for blocked solves: column ``j`` stops once
#: ``‖A x_j − b_j‖₂ ≤ FREEZE_FACTOR · ε_j · ‖b_j‖₂``.  This is a
#: conservative *heuristic*: the 2-norm residual bounds the A-norm
#: error only up to ``sqrt(λ_max/λ_2)``, so on extremely
#: ill-conditioned inputs a frozen column can sit slightly above its
#: ε_j A-norm target (the a-priori per-column budget of Theorem 3.8
#: still caps every column; blocked results match looped ones to
#: solver tolerance, not bitwise).  Set to 0 to disable freezing.
FREEZE_FACTOR = 0.02


def richardson_iterations(delta: float, eps: float) -> int:
    """``⌈e^{2δ} log(1/ε)⌉`` (Algorithm 5, line 4)."""
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    if delta <= 0:
        raise ValueError(f"need delta > 0, got {delta}")
    return max(1, math.ceil(math.exp(2.0 * delta) * math.log(1.0 / eps)))


@dataclass
class RichardsonResult:
    """Solution plus iteration diagnostics."""

    x: np.ndarray
    iterations: int
    alpha: float
    #: ``track_errors`` samples: one float per iteration for
    #: single-vector solves, one per-column ``(k,)`` array per
    #: iteration for blocked solves.
    error_history: list = field(default_factory=list)
    #: Blocked solves only: iterations each column actually ran before
    #: it converged/was frozen (``None`` for single-vector solves).
    per_column_iterations: np.ndarray | None = None
    #: Blocked solves only: global column indices whose iterates went
    #: non-finite and were quarantined (their ``x`` columns are NaN;
    #: the caller escalates them — see DESIGN.md §9).  ``None`` when
    #: no column broke.
    broken_columns: np.ndarray | None = None


def preconditioned_richardson(apply_A: Callable[[np.ndarray], np.ndarray],
                              apply_B: Callable[[np.ndarray], np.ndarray],
                              b: np.ndarray,
                              delta: float = 1.0,
                              eps: float | np.ndarray = 1e-6,
                              project: bool = True,
                              iterations: int | None = None,
                              track_errors: Callable[[np.ndarray], float]
                              | None = None,
                              divergence_guard: bool = True,
                              freeze: bool = True,
                              ctx=None,
                              col_ids: np.ndarray | None = None,
                              ship=None) -> RichardsonResult:
    """Solve ``A x = b`` given a δ-quality preconditioner ``B ≈_δ A⁺``.

    Parameters
    ----------
    apply_A, apply_B:
        The system operator and preconditioner as callables.  For a
        blocked ``b`` of shape ``(n, k)`` both must accept ``(n, j)``
        blocks for any ``j ≤ k`` (columns are compacted as they
        converge).
    b:
        One right-hand side ``(n,)`` or ``k`` of them as ``(n, k)``.
    delta:
        The preconditioner quality δ (Theorem 3.10 gives δ = 1 for the
        block Cholesky chain).
    eps:
        Target relative accuracy in the ``A``-norm.  For blocked ``b``
        this may be a scalar (shared) or a length-``k`` array
        (per-column targets; each column stops at its own ε).
    project:
        Project iterates onto ``1⊥`` (Laplacian kernel handling).
    iterations:
        Override the iteration count (benchmarks sweep this).  For
        blocked solves this caps every column uniformly.
    track_errors:
        Optional callback evaluated on the full iterate every iteration
        and stored in ``error_history`` (used by benchmark E10 to
        expose the geometric decay).  For single-vector solves it
        receives/returns a scalar; for blocked solves it receives the
        complete ``(n, k)`` iterate (frozen columns included at their
        frozen values) and should return per-column errors.  Error
        tracking runs in-block — it disables ``ctx`` column chunking
        so the history covers all columns at every iteration.
    divergence_guard:
        Theorem 3.8's convergence *assumes* ``B ≈_δ A⁺``; if the
        supplied preconditioner is worse than claimed the iteration can
        diverge silently.  The guard monitors the residual (cheap — the
        iteration computes ``A x`` anyway) and raises
        :class:`repro.errors.ConvergenceError` once it exceeds 10× the
        initial residual, so callers can fall back (the solver falls
        back to PCG, which converges for *any* SPD preconditioner).
    freeze:
        Blocked solves only: enable the residual-based early freeze
        (see :data:`FREEZE_FACTOR`).  ``False`` runs every column to
        its full a-priori budget — the seed-faithful baseline, and
        what the single-vector path always does.
    ctx:
        Optional :class:`repro.pram.ExecutionContext`.  Blocked solves
        split their columns into the context's (size-determined, hence
        worker-independent) column chunks and iterate each chunk on
        the context's pool (these chunks are numpy-bound closures, so
        the process backend schedules them on threads — see
        :meth:`repro.pram.ExecutionContext.run_chunks`) — column
        results are identical to the unchunked block up to each
        chunk's own freeze decisions, and identical across worker
        counts and backends.
    col_ids:
        Global right-hand-side index of each column of ``b`` (defaults
        to ``arange(k)``) — the coordinates breakdown quarantine and
        ``nan:col=N`` fault directives are expressed in, kept stable
        under column chunking and escalation re-solves.
    ship:
        Optional :class:`repro.pram.executor.SolveShipment` (the
        solver's picklable chain payload).  When shipping is enabled
        the column chunks run as pure tasks through ``run_shipped`` —
        crossing the process boundary under the process backend —
        with bit-identical results; when disabled (or the
        layout is one chunk) the call falls through to the
        closure-chunked ``ctx`` path.  ``ship`` implies ``apply_A`` /
        ``apply_B`` are the owning solver's operators.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2:
        # Resolve the ambient fault plan / log here, in the calling
        # thread: pool threads do not inherit contextvars, so the
        # blocked kernels receive both explicitly.
        from repro.pram import faults as _faults

        plan = _faults.active_plan()
        flog = _faults.current_fault_log()
        if (ctx is not None or ship is not None) \
                and track_errors is None:
            # Column chunks iterate independently — shipped as pure
            # tasks when a SolveShipment is enabled, as closures on
            # the context's pool otherwise; the layout is a function
            # of the column count only, so results do not depend on
            # the worker count, backend, or transport.  A diverging
            # chunk raises ConvergenceError exactly as the unchunked
            # block would (the caller's fallback covers the whole
            # block).
            results = None
            if ship is not None:
                results = ship.run(
                    "richardson", b, cols=(eps,), col_ids=col_ids,
                    params={"delta": delta, "project": project,
                            "iterations": iterations,
                            "divergence_guard": divergence_guard,
                            "freeze": freeze})
            if results is None and ctx is not None:
                from repro.pram.executor import run_column_chunks

                results = run_column_chunks(
                    ctx, b,
                    lambda bc, ec, ids: _blocked_richardson(
                        apply_A, apply_B, bc, delta=delta, eps=ec,
                        project=project, iterations=iterations,
                        divergence_guard=divergence_guard, freeze=freeze,
                        col_ids=ids, plan=plan, flog=flog),
                    cols=(eps,), col_ids=col_ids)
            if results is not None:
                broken = [r.broken_columns for r in results
                          if r.broken_columns is not None]
                return RichardsonResult(
                    x=np.hstack([r.x for r in results]),
                    iterations=max(r.iterations for r in results),
                    alpha=results[0].alpha,
                    per_column_iterations=np.concatenate(
                        [r.per_column_iterations for r in results]),
                    broken_columns=np.concatenate(broken)
                    if broken else None)
        return _blocked_richardson(apply_A, apply_B, b, delta=delta,
                                   eps=eps, project=project,
                                   iterations=iterations,
                                   divergence_guard=divergence_guard,
                                   freeze=freeze,
                                   track_errors=track_errors,
                                   col_ids=col_ids, plan=plan, flog=flog)
    from repro.errors import ConvergenceError, NumericalBreakdownError
    eps = float(eps)
    if project:
        b = project_out_ones(b)
    alpha = 2.0 / (math.exp(-delta) + math.exp(delta))
    iters = iterations if iterations is not None \
        else richardson_iterations(delta, eps)

    x0 = apply_B(b)
    if project:
        x0 = project_out_ones(x0)
    x = x0.copy()
    history: list[float] = []
    if track_errors is not None:
        history.append(track_errors(x))
    bnorm = float(np.linalg.norm(b))
    for k in range(iters):
        Ax = apply_A(x)
        if divergence_guard and bnorm > 0:
            rnorm = float(np.linalg.norm(Ax - b))
            if not np.isfinite(rnorm):
                raise NumericalBreakdownError(
                    "preconditioned Richardson iterate became "
                    f"non-finite at iteration {k}",
                    iteration=k)
            if rnorm > 10.0 * bnorm:
                raise ConvergenceError(
                    "preconditioned Richardson diverged: the "
                    "preconditioner is worse than the assumed "
                    f"delta={delta} (residual {rnorm:.2e} vs "
                    f"|b| {bnorm:.2e} at iteration {k})",
                    iterations=k, residual=rnorm / bnorm)
        correction = apply_B(Ax)
        if project:
            correction = project_out_ones(correction)
        x = x - alpha * correction + alpha * x0
        if track_errors is not None:
            history.append(track_errors(x))
    return RichardsonResult(x=x, iterations=iters, alpha=alpha,
                            error_history=history)


def _blocked_richardson(apply_A, apply_B, b: np.ndarray,
                        delta: float, eps, project: bool,
                        iterations: int | None,
                        divergence_guard: bool,
                        freeze: bool = True,
                        track_errors=None,
                        col_ids: np.ndarray | None = None,
                        plan=None, flog=None) -> RichardsonResult:
    """Algorithm 5 on an ``(n, k)`` block with column-wise convergence.

    Breakdown containment: a column whose residual goes non-finite is
    *quarantined* — frozen out of the active set immediately (its
    output column stays NaN) and reported via
    ``RichardsonResult.broken_columns`` in global ``col_ids``
    coordinates — rather than aborting the whole block.  Finite
    divergence still raises :class:`~repro.errors.ConvergenceError`
    (the preconditioner is bad for *every* column, so the caller's
    whole-block fallback is the right response).  ``plan``/``flog``
    are the fault plan and log resolved by the caller's thread.
    """
    from repro.errors import ConvergenceError
    n, k = b.shape
    ids = np.arange(k, dtype=np.int64) if col_ids is None \
        else np.asarray(col_ids, dtype=np.int64)
    broken = np.zeros(k, dtype=bool)
    eps_col = np.broadcast_to(np.asarray(eps, dtype=np.float64),
                              (k,)).copy()
    if iterations is not None:
        caps = np.full(k, int(iterations), dtype=np.int64)
    else:
        caps = np.array([richardson_iterations(delta, e) for e in eps_col],
                        dtype=np.int64)
    if project:
        b = project_out_ones(b)
    alpha = 2.0 / (math.exp(-delta) + math.exp(delta))
    bnorm = np.linalg.norm(b, axis=0)
    factor = FREEZE_FACTOR if freeze else 0.0
    freeze_at = factor * eps_col * bnorm

    X0 = apply_B(b)
    if project:
        X0 = project_out_ones(X0)
    X = X0.copy()

    out = np.empty((n, k), dtype=np.float64)
    used = np.zeros(k, dtype=np.int64)
    active = np.arange(k)
    frozen = np.zeros(k, dtype=bool)
    history: list = []
    if track_errors is not None:
        history.append(track_errors(X))
    b_act, X0_act, X_act = b, X0, X
    caps_act, bnorm_act, freeze_act = caps, bnorm, freeze_at
    max_iters = int(caps.max(initial=1))
    for it in range(max_iters):
        if plan is not None:
            from repro.pram.faults import inject_nan_columns

            inject_nan_columns(plan, X_act, ids[active], it,
                               "richardson", flog)
        AX = apply_A(X_act)
        rnorm = np.linalg.norm(AX - b_act, axis=0)
        nonfin = ~np.isfinite(rnorm)
        if divergence_guard:
            bad = (bnorm_act > 0) & ~nonfin & (rnorm > 10.0 * bnorm_act)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise ConvergenceError(
                    "preconditioned Richardson diverged on column "
                    f"{int(active[j])}: the preconditioner is worse than "
                    f"the assumed delta={delta} (residual {rnorm[j]:.2e} "
                    f"vs |b| {bnorm_act[j]:.2e} at iteration {it})",
                    iterations=it, residual=float(
                        rnorm[j] / max(bnorm_act[j], 1e-300)))
        if nonfin.any():
            # Quarantine: freeze the broken columns out of the block
            # so the remaining columns keep iterating on clean data;
            # the caller escalates the NaN columns (DESIGN.md §9).
            broken[active[nonfin]] = True
            if flog is not None:
                flog.record(
                    "quarantine", kind="nan",
                    columns=tuple(int(c) for c in ids[active[nonfin]]),
                    detail=f"stage=richardson iteration={it}")
        done = nonfin | (rnorm <= freeze_act) | (caps_act <= it)
        if done.any():
            out[:, active[done]] = X_act[:, done]
            used[active[done]] = it
            frozen[active[done]] = True
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            b_act = b_act[:, keep]
            X0_act = X0_act[:, keep]
            X_act = X_act[:, keep]
            AX = AX[:, keep]
            caps_act = caps_act[keep]
            bnorm_act = bnorm_act[keep]
            freeze_act = freeze_act[keep]
        corr = apply_B(AX)
        if project:
            corr = project_out_ones(corr)
        X_act = X_act - alpha * corr + alpha * X0_act
        if track_errors is not None:
            # Mirror the scalar path's per-iteration sampling on the
            # full-width iterate (frozen columns at frozen values).
            full = np.empty((n, k), dtype=np.float64)
            full[:, frozen] = out[:, frozen]
            full[:, active] = X_act
            history.append(track_errors(full))
    if active.size:
        out[:, active] = X_act
        used[active] = max_iters
    return RichardsonResult(x=out, iterations=int(used.max(initial=0)),
                            alpha=alpha, error_history=history,
                            per_column_iterations=used,
                            broken_columns=ids[np.flatnonzero(broken)]
                            if broken.any() else None)
