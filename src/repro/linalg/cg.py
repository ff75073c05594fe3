"""Conjugate gradient with optional preconditioning.

Stops on the 2-norm residual.  Used in three roles:

* unpreconditioned CG — the classic iterative baseline (benchmark E12);
* PCG with the KS16 approximate Cholesky — the sequential
  state-of-practice the paper's introduction positions itself against;
* PCG with *our* ``ApplyCholesky`` operator as the solver's escalation
  and fallback — for columns the certified kernel could not certify or
  quarantined, and for whole blocks on which δ is disproven (DESIGN.md
  §9, §15).

The solver's default outer loop is a different PCG: the certified
kernel in :mod:`repro.core.richardson` (``update="pcg"``), which stops
each column on the chain's own L-norm error certificate under the
Theorem 3.8 budget.

For singular Laplacian systems, CG is run on the image of ``L``: the
right-hand side is projected onto ``1⊥`` and iterates are re-centred,
which is exactly solving the system in the pseudo-inverse sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConvergenceError, NumericalBreakdownError
from repro.linalg.ops import as_apply, project_out_ones
from repro.pram import charge
from repro.pram import primitives as P

__all__ = ["CGResult", "conjugate_gradient"]


@dataclass
class CGResult:
    """Outcome of a CG run."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    #: Iterations each column ran before it converged (``(1,)`` for
    #: single-vector solves).
    per_column_iterations: np.ndarray | None = None
    #: Global indices of columns whose iterates went non-finite and
    #: were quarantined (NaN in ``x``; callers escalate them — see
    #: DESIGN.md §9).  ``None`` when no column broke this way.  The
    #: lost-positive-definiteness ``pLp <= 0`` stop is *not* counted
    #: here: those columns hold a valid partial iterate.
    broken_columns: np.ndarray | None = None

    @property
    def final_residual(self) -> float:
        """Last recorded 2-norm residual (NaN when none recorded)."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def conjugate_gradient(L,
                       b: np.ndarray,
                       tol: float = 1e-8,
                       max_iter: int | None = None,
                       preconditioner: Callable[[np.ndarray], np.ndarray]
                       | None = None,
                       singular: bool = True,
                       matvec_edges: int | None = None,
                       raise_on_fail: bool = False,
                       ctx=None,
                       col_ids: np.ndarray | None = None) -> CGResult:
    """Solve ``L x = b`` by (preconditioned) conjugate gradient.

    Parameters
    ----------
    L:
        Matrix, sparse matrix, or callable ``x ↦ L x``.  A callable
        must accept ``(n, j)`` blocks (converged columns are compacted
        out as they finish).
    b:
        Right-hand side ``(n,)`` or block ``(n, k)``.  A vector runs as
        a one-column block and its ``x`` is squeezed back to ``(n,)``.
    tol:
        Relative 2-norm residual target ``‖Lx − b‖ ≤ tol·‖b‖``.  For
        blocked ``b`` this may be a scalar or a length-``k`` array of
        per-column targets.
    preconditioner:
        Callable approximating ``L⁺`` (must be SPD on ``1⊥``); like
        ``L`` it receives ``(n, j)`` blocks.
    singular:
        Treat ``L`` as a Laplacian: project ``b`` and re-centre iterates.
    matvec_edges:
        Edge count for ledger charging of each matvec (optional).
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    ctx:
        Optional :class:`repro.pram.ExecutionContext`: blocked solves
        split their columns into the context's size-determined chunks
        and run the chunks on its pool (column results are
        worker-independent).
    """
    apply_L = as_apply(L)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        res = conjugate_gradient(apply_L, b[:, None], tol=tol,
                                 max_iter=max_iter,
                                 preconditioner=preconditioner,
                                 singular=singular,
                                 matvec_edges=matvec_edges,
                                 raise_on_fail=raise_on_fail, ctx=ctx,
                                 col_ids=col_ids)
        res.x = res.x[:, 0]
        return res
    # Resolved in the calling thread — pool threads do not inherit
    # contextvars, so the blocked kernel gets both explicitly.
    from repro.pram import faults as _faults

    plan = _faults.active_plan()
    flog = _faults.current_fault_log()
    if ctx is not None:
        from repro.pram.executor import run_column_chunks

        results = run_column_chunks(
            ctx, b,
            lambda bc, tc, ids: _blocked_cg(
                apply_L, bc, tol=tc, max_iter=max_iter,
                preconditioner=preconditioner, singular=singular,
                matvec_edges=matvec_edges,
                raise_on_fail=raise_on_fail,
                col_ids=ids, plan=plan, flog=flog),
            cols=(tol,), col_ids=col_ids)
        if results is not None:
            # Per-iteration residual_norms merge as the max over the
            # chunks still running at that iteration, matching the
            # unchunked block's max-over-active semantics.
            depth = max(len(r.residual_norms) for r in results)
            merged = [max(r.residual_norms[i] for r in results
                          if i < len(r.residual_norms))
                      for i in range(depth)]
            broken = [r.broken_columns for r in results
                      if r.broken_columns is not None]
            return CGResult(
                x=np.hstack([r.x for r in results]),
                iterations=max(r.iterations for r in results),
                converged=all(r.converged for r in results),
                residual_norms=merged,
                per_column_iterations=np.concatenate(
                    [r.per_column_iterations for r in results]),
                broken_columns=np.concatenate(broken)
                if broken else None)
    return _blocked_cg(apply_L, b, tol=tol, max_iter=max_iter,
                       preconditioner=preconditioner,
                       singular=singular, matvec_edges=matvec_edges,
                       raise_on_fail=raise_on_fail,
                       col_ids=col_ids, plan=plan, flog=flog)


def _blocked_cg(apply_L, b: np.ndarray, tol, max_iter: int | None,
                preconditioner, singular: bool,
                matvec_edges: int | None,
                raise_on_fail: bool,
                col_ids: np.ndarray | None = None,
                plan=None, flog=None) -> CGResult:
    """``k`` independent PCG runs sharing batched matvecs.

    Each column carries its own ``α``/``β`` scalars (the runs are
    mathematically independent), but every ``L``/preconditioner apply
    is one sparse×dense-matrix product over the still-active columns;
    converged columns are frozen and compacted out.  Columns whose
    residual goes non-finite are quarantined (frozen, reported via
    ``broken_columns`` in global ``col_ids`` coordinates) instead of
    poisoning the block; ``plan``/``flog`` are the fault plan and log
    resolved by the caller's thread.
    """
    n, k = b.shape
    ids = np.arange(k, dtype=np.int64) if col_ids is None \
        else np.asarray(col_ids, dtype=np.int64)
    broken = np.zeros(k, dtype=bool)
    tol_col = np.broadcast_to(np.asarray(tol, dtype=np.float64),
                              (k,)).copy()
    if singular:
        b = project_out_ones(b)
    if max_iter is None:
        max_iter = 10 * n

    X = np.zeros((n, k))
    used = np.zeros(k, dtype=np.int64)
    bnorm = np.linalg.norm(b, axis=0)
    residuals = [float(bnorm.max(initial=0.0))]
    if not bnorm.any():
        return CGResult(x=X, iterations=0, converged=True,
                        residual_norms=[0.0],
                        per_column_iterations=used)

    def prec(V: np.ndarray) -> np.ndarray:
        if preconditioner is None:
            return V
        out = preconditioner(V)
        return project_out_ones(out) if singular else out

    # Zero columns are converged immediately; start with the rest.
    active = np.flatnonzero(bnorm > 0)
    done_flags = np.zeros(k, dtype=bool)
    done_flags[bnorm == 0] = True
    R = b[:, active].copy()
    Z = prec(R)
    Pm = Z.copy()
    rz = np.einsum("ij,ij->j", R, Z)
    it = 0
    for it in range(1, max_iter + 1):
        if plan is not None:
            from repro.pram.faults import inject_nan_columns

            inject_nan_columns(plan, Pm, ids[active], it - 1, "cg", flog)
        LP = apply_L(Pm)
        if matvec_edges:
            charge(*P.matvec_cost(matvec_edges * active.size),
                   label="cg_matvec")
        pLp = np.einsum("ij,ij->j", Pm, LP)
        # Columns that lost positive-definiteness stop where they are,
        # without touching the others.
        broke = pLp <= 0
        ok = ~broke
        alpha = np.where(ok, rz / np.where(ok, pLp, 1.0), 0.0)
        X[:, active[ok]] += alpha[ok] * Pm[:, ok]
        R[:, ok] -= alpha[ok] * LP[:, ok]
        if singular:
            R -= R.mean(axis=0)
        rnorm = np.linalg.norm(R, axis=0)
        residuals.append(float(np.nanmax(
            np.where(np.isfinite(rnorm), rnorm, 0.0), initial=0.0)))
        nonfin = ~np.isfinite(rnorm)
        if nonfin.any():
            # Quarantine non-finite columns: freeze them (NaN in X)
            # and report them for escalation (DESIGN.md §9).
            broken[active[nonfin]] = True
            if flog is not None:
                flog.record(
                    "quarantine", kind="nan",
                    columns=tuple(int(c) for c in ids[active[nonfin]]),
                    detail=f"stage=cg iteration={it - 1}")
        conv = (rnorm <= tol_col[active] * bnorm[active]) & ~nonfin
        finished = broke | conv | nonfin
        if finished.any():
            done_flags[active[conv]] = True
            used[active[finished]] = it
            keep = ~finished
            active = active[keep]
            if active.size == 0:
                break
            R = R[:, keep]
            Pm = Pm[:, keep]
            rz = rz[keep]
        Z = prec(R)
        rz_new = np.einsum("ij,ij->j", R, Z)
        beta = rz_new / rz
        rz = rz_new
        Pm = Z + beta * Pm
    if active.size:
        used[active] = it
    if singular:
        X = project_out_ones(X)
    converged = bool(done_flags.all())
    if raise_on_fail and not converged:
        if broken.any():
            raise NumericalBreakdownError(
                f"blocked CG: {int(broken.sum())}/{k} columns became "
                f"non-finite by iteration {it}",
                column_indices=tuple(int(c)
                                     for c in ids[np.flatnonzero(broken)]),
                iteration=it)
        raise ConvergenceError(
            f"blocked CG: {int((~done_flags).sum())}/{k} columns failed "
            f"to reach tolerance in {it} iterations",
            iterations=it, residual=residuals[-1] / max(bnorm.max(), 1e-300))
    return CGResult(x=X, iterations=it, converged=converged,
                    residual_norms=residuals,
                    per_column_iterations=used,
                    broken_columns=ids[np.flatnonzero(broken)]
                    if broken.any() else None)
