"""Chebyshev semi-iteration (extension module).

An alternative outer loop to preconditioned Richardson (Theorem 3.8):
given spectral bounds ``λ_min ≤ spec(B A) ≤ λ_max`` on ``1⊥``, Chebyshev
acceleration converges in ``O(sqrt(κ) log 1/ε)`` iterations instead of
Richardson's ``O(κ log 1/ε)``.  With the paper's constant-quality
preconditioner (κ ≤ e²) the asymptotic difference is a constant, but it
is a practically useful knob and exercises the operator interfaces.

Accepts one right-hand side ``(n,)`` (run as a one-column block) or a
block ``(n, k)``.  The Chebyshev recurrence scalars (``ρ``, ``σ₁``) depend only on the spectral
bounds, so a block iterates all columns in lockstep with sparse×dense
products; with ``tol`` set, converged columns are frozen (and compacted
out of the active block).

Stopping rule
-------------
With ``tol`` set, a column is frozen from the *preconditioned*
quantities the recurrence already holds: the update
``d ≈ (2ρ/δ)·B(b − Lx) + momentum`` is a constant-factor proxy for the
preconditioned residual, so a column whose update norm has fallen below
``(λ_min/λ_max) · tol_j · ‖B b_j‖`` is frozen **before** the next
iteration's operator applies — each converged column saves the one
``apply_L`` (and one ``B`` apply) per iteration that a raw-residual
check would spend just to confirm convergence.  The ``λ_min/λ_max``
factor compensates the metric change conservatively.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.linalg.ops import as_apply, project_out_ones

__all__ = ["chebyshev_iteration"]


def chebyshev_iteration(L,
                        B: Callable[[np.ndarray], np.ndarray],
                        b: np.ndarray,
                        lam_min: float,
                        lam_max: float,
                        iterations: int,
                        singular: bool = True,
                        tol: float | np.ndarray | None = None,
                        ctx=None,
                        col_ids: np.ndarray | None = None) -> np.ndarray:
    """Approximate ``L⁺ b`` by Chebyshev-accelerated iteration on ``BA``.

    Parameters
    ----------
    L, B:
        The system operator and a preconditioner approximating ``L⁺``.
        A callable must accept ``(n, j)`` column blocks.
    b:
        Right-hand side ``(n,)`` or block ``(n, k)``; the result has
        the same shape.
    lam_min, lam_max:
        Bounds on the spectrum of ``B L`` restricted to ``1⊥``.  For the
        paper's ``W ≈_1 L⁺`` these are ``e⁻¹`` and ``e``.
    iterations:
        Number of Chebyshev steps (a cap when ``tol`` is given).
    tol:
        Optional relative stopping target; scalar or per-column array
        for blocked ``b``.  Applied to the preconditioned update (see
        module docstring).
    ctx:
        Optional :class:`repro.pram.ExecutionContext`: blocked calls
        split their columns into the context's size-determined chunks
        and iterate the chunks on its pool (worker-independent
        results).
    """
    if not (0 < lam_min <= lam_max):
        raise ValueError("need 0 < lam_min <= lam_max")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    apply_L = as_apply(L)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        return chebyshev_iteration(apply_L, B, b[:, None], lam_min,
                                   lam_max, iterations, singular=singular,
                                   tol=tol, ctx=ctx, col_ids=col_ids)[:, 0]
    # Resolved in the calling thread — pool threads do not inherit
    # contextvars, so the blocked kernel gets both explicitly.
    from repro.pram import faults as _faults

    plan = _faults.active_plan()
    flog = _faults.current_fault_log()
    if ctx is not None:
        from repro.pram.executor import run_column_chunks

        results = run_column_chunks(
            ctx, b,
            lambda bc, tc, ids: _blocked_chebyshev(
                apply_L, B, bc, lam_min, lam_max, iterations,
                singular, tc, col_ids=ids, plan=plan, flog=flog),
            cols=(tol,), col_ids=col_ids)
        if results is not None:
            return np.hstack(results)
    return _blocked_chebyshev(apply_L, B, b, lam_min, lam_max,
                              iterations, singular, tol,
                              col_ids=col_ids, plan=plan, flog=flog)


def _blocked_chebyshev(apply_L, B, b: np.ndarray,
                       lam_min: float, lam_max: float,
                       iterations: int, singular: bool,
                       tol, col_ids: np.ndarray | None = None,
                       plan=None, flog=None) -> np.ndarray:
    """Chebyshev on an ``(n, k)`` block with column-wise freezing.

    Columns whose update norm goes non-finite are quarantined — frozen
    out of the active block immediately (their output columns are NaN,
    for the caller to detect and escalate) with a ``quarantine`` event
    on ``flog`` — so one broken column cannot poison its siblings.
    """
    n, k = b.shape
    ids = np.arange(k, dtype=np.int64) if col_ids is None \
        else np.asarray(col_ids, dtype=np.int64)
    if singular:
        b = project_out_ones(b)
    theta = 0.5 * (lam_max + lam_min)
    delta = 0.5 * (lam_max - lam_min)

    def precondition(r: np.ndarray) -> np.ndarray:
        z = B(r)
        return project_out_ones(z) if singular else z

    out = np.zeros((n, k))
    active = np.arange(k)
    b_act = b
    r = precondition(b_act)
    pre_norm0 = np.linalg.norm(r, axis=0)
    if tol is None:
        stop_pre = None
    else:
        tol_col = np.broadcast_to(np.asarray(tol, dtype=np.float64), (k,))
        stop_pre = (lam_min / lam_max) * tol_col * pre_norm0
    d = r / theta
    x = d.copy()
    if delta == 0.0 or iterations == 1:
        out[:, active] = x
        return out
    sigma1 = theta / delta
    rho_old = 1.0 / sigma1
    for it in range(iterations - 1):
        if plan is not None:
            from repro.pram.faults import inject_nan_columns

            inject_nan_columns(plan, x, ids[active], it,
                               "chebyshev", flog)
        nonfin = ~np.isfinite(np.linalg.norm(x, axis=0) +
                              np.linalg.norm(d, axis=0))
        if nonfin.any():
            # Quarantine broken columns: their output stays NaN for
            # the caller to escalate (DESIGN.md §9).
            if flog is not None:
                flog.record(
                    "quarantine", kind="nan",
                    columns=tuple(int(c) for c in ids[active[nonfin]]),
                    detail=f"stage=chebyshev iteration={it}")
            out[:, active[nonfin]] = x[:, nonfin]
            keep = ~nonfin
            active = active[keep]
            if active.size == 0:
                return out
            b_act = b_act[:, keep]
            x = x[:, keep]
            d = d[:, keep]
        if stop_pre is not None:
            # Freeze on the just-applied preconditioned update — no
            # confirmation apply_L/B for converged columns.
            done = np.linalg.norm(d, axis=0) <= stop_pre[active]
            if done.any():
                out[:, active[done]] = x[:, done]
                keep = ~done
                active = active[keep]
                if active.size == 0:
                    return out
                b_act = b_act[:, keep]
                x = x[:, keep]
                d = d[:, keep]
        raw = b_act - apply_L(x)
        r = precondition(raw)
        rho = 1.0 / (2.0 * sigma1 - rho_old)
        d = rho * rho_old * d + (2.0 * rho / delta) * r
        x = x + d
        rho_old = rho
    out[:, active] = x
    return out
