"""``PreconRichardson`` — Algorithm 5 (Theorem 3.8) — and certified PCG.

Given ``B ≈_δ A⁺``, the iteration

    ``x^(k) = (I − α B A) x^(k-1) + α x^(0)``,  ``x^(0) = B b``,
    ``α = 2 / (e^{-δ} + e^{δ})``,

returns an ε-approximate solution to ``A x = b`` after
``⌈e^{2δ} log(1/ε)⌉`` iterations, each costing one apply of ``A`` and
one of ``B``.  With the paper's δ = 1 preconditioner this is
``O(log 1/ε)`` applications — the only place the solver's accuracy
parameter enters.

Every solve runs one blocked kernel: ``b`` of shape ``(n, k)`` (``k``
right-hand sides against one factorization — the IPM-loop pattern), a
1-D ``b`` as ``b[:, None]``, with a scalar or per-column ``eps``.  The
a-priori budget ``⌈e^{2δ} log(1/ε_j)⌉`` only caps column ``j``; it
stops as soon as the preconditioner's own error bound *certifies* it.
With ``r = A x − b``, ``B ≈_δ A⁺`` gives

    ``‖x − A⁺b‖_A² = rᵀA⁺r ≤ e^{δ} rᵀBr``,  ``‖A⁺b‖_A² ≥ e^{-δ} bᵀBb``,

so ``rᵀBr ≤ e^{-2δ} ε_j² bᵀBb`` proves ``‖x − A⁺b‖_A ≤ ε_j ‖A⁺b‖_A``
— for *any* iterate ``x``; the exact condition is ``κ(BA) ≤ e^{2δ}``
on ``1⊥``, since the certificate is a ratio and so blind to the scale
of ``B``.  Certified columns are compacted out of the active block
(mirroring the walker compaction of the sampling engine), so every
``A``/``B`` apply works on the still-active columns only — as
sparse×dense-matrix (BLAS-3-style) products.  A column that reaches
its budget uncertified is reported in
``RichardsonResult.uncertified_columns`` for the caller to escalate.

The kernel has two update rules (``update=``), sharing the budget, the
certificate, compaction, quarantine, fault injection and column
chunking:

* ``"richardson"`` — Algorithm 5 as above.  ``B r = B(A x) − x^(0)``
  is the correction the iteration computes anyway, so the certificate
  costs one column-wise dot product and no extra apply.
* ``"pcg"`` — conjugate gradient preconditioned by ``B``, from
  ``x = 0``.  Its iterate ``t + 1`` is ``A``-norm optimal over the
  Krylov space ``K_{t+1}(BA, Bb)``, which holds Richardson's iterate
  ``t`` (same number of ``B`` applies), so the Theorem 3.8 budget,
  plus that one step, caps it too.  The certificate is evaluated on
  the true residual ``b − A x`` every step (one extra ``A`` apply);
  ``B r`` and ``rᵀBr`` are the step's own search-direction inputs.
  PCG converges whatever the scale of ``B``, so divergence no longer
  exposes a chain worse than δ; the Ritz values of the Lanczos
  tridiagonal built from each column's step lengths lie inside
  ``spec(BA)``, and a column whose Ritz spread exceeds ``e^{2δ}``
  when it certifies is reported uncertified instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.linalg.ops import project_out_ones

__all__ = ["preconditioned_richardson", "richardson_iterations",
           "RichardsonResult", "UPDATES"]

#: The kernel's update rules: Algorithm 5 and certified PCG.
UPDATES = ("richardson", "pcg")


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
    #: Richardson's step ``2 / (e^{-δ} + e^{δ})`` (the ``"pcg"`` rule
    #: computes its own per-column steps).
    alpha: float
    #: ``track_errors`` samples, one per iteration: a float for 1-D
    #: solves, a per-column ``(k,)`` array for blocked solves.
    error_history: list = field(default_factory=list)
    #: Iterations each column ran before it was certified or reached
    #: its budget (``(1,)`` for a 1-D solve).
    per_column_iterations: np.ndarray | None = None
    #: Global column indices whose iterates went non-finite and were
    #: quarantined (their ``x`` columns are NaN; the caller escalates
    #: them — see DESIGN.md §9).  ``None`` when no column broke.
    broken_columns: np.ndarray | None = None
    #: Global column indices that reached their a-priori budget without
    #: passing the certificate, or (``"pcg"``) passed it with a Ritz
    #: spread that disproves δ — finite, but not proven ε-accurate; the
    #: caller escalates them (DESIGN.md §15).  ``None`` when every
    #: column certified, or when ``freeze=False`` tested no certificate.
    uncertified_columns: np.ndarray | None = None


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
                              update: str = "richardson"
                              ) -> RichardsonResult:
    """Solve ``A x = b`` given a δ-quality preconditioner ``B ≈_δ A⁺``.

    Parameters
    ----------
    apply_A, apply_B:
        The system operator and preconditioner as callables.  Both must
        accept ``(n, j)`` blocks for any ``j ≤ k`` (a 1-D ``b`` runs as
        one column; columns are compacted as they certify).
    b:
        One right-hand side ``(n,)`` or ``k`` of them as ``(n, k)``;
        ``x`` comes back in the same shape.
    delta:
        The preconditioner quality δ (Theorem 3.10 gives δ = 1 for the
        block Cholesky chain).  Both the budget and the certificate
        assume it (``"pcg"`` only its scale-free part,
        ``κ(BA) ≤ e^{2δ}``).
    eps:
        Target relative accuracy in the ``A``-norm.  For blocked ``b``
        this may be a scalar (shared) or a length-``k`` array
        (per-column targets; each column stops at its own ε).
    project:
        Project iterates onto ``1⊥`` (Laplacian kernel handling).
    iterations:
        Override the a-priori budget (benchmarks sweep this); caps
        every column uniformly.  ``"pcg"`` gets the budget plus one
        step either way: its first step rescales Richardson's
        ``x^(0) = Bb``.
    track_errors:
        Optional callback evaluated on the full iterate every iteration
        and stored in ``error_history`` (used by benchmark E10 to
        expose the geometric decay).  For 1-D ``b`` it receives the
        ``(n,)`` iterate and returns a scalar; for blocked ``b`` it
        receives the complete ``(n, k)`` iterate (finished columns
        included at their final values) and should return per-column
        errors.  Error tracking runs in-block — it disables ``ctx``
        column chunking so the history covers all columns at every
        iteration.
    divergence_guard:
        Theorem 3.8's convergence *assumes* ``B ≈_δ A⁺``; if the
        supplied preconditioner is worse than claimed the iteration can
        diverge silently.  The guard monitors the certificate quantity
        ``rᵀBr`` and raises :class:`repro.errors.ConvergenceError` once
        it exceeds ``100·bᵀBb`` (the value at ``x = 0``), so callers
        can fall back (the solver falls back to PCG, which converges
        for *any* SPD preconditioner).  Under ``"pcg"``, ``rᵀBr`` stays
        below ``κ(BA)·bᵀBb``, so the guard fires only when
        ``κ(BA) > 100``.
    freeze:
        Stop each column once its certificate holds.  ``False`` tests
        no certificate and runs every column to its full a-priori
        budget — the Theorem 3.8 reference.
    ctx:
        Optional :class:`repro.pram.ExecutionContext`.  Blocked solves
        split their columns into the context's (size-determined, hence
        worker-independent) column chunks and iterate each chunk on
        the context's pool (see
        :meth:`repro.pram.ExecutionContext.run_chunks`).  Columns are
        independent, so results are identical across worker counts.
    col_ids:
        Global right-hand-side index of each column of ``b`` (defaults
        to ``arange(k)``) — the coordinates breakdown quarantine,
        uncertified columns and ``nan:col=N`` fault directives are
        expressed in, kept stable under column chunking and escalation
        re-solves.
    update:
        ``"richardson"`` (Algorithm 5) or ``"pcg"`` (certified
        conjugate gradient; see the module docstring).
    """
    if update not in UPDATES:
        raise ValueError(f"update must be one of {UPDATES}, got {update!r}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        track = None if track_errors is None \
            else (lambda X: track_errors(X[:, 0]))
        res = preconditioned_richardson(
            apply_A, apply_B, b[:, None], delta=delta, eps=eps,
            project=project, iterations=iterations, track_errors=track,
            divergence_guard=divergence_guard, freeze=freeze, ctx=ctx,
            col_ids=col_ids, update=update)
        res.x = res.x[:, 0]
        return res
    # Resolve the ambient fault plan / log here, in the calling thread:
    # pool threads do not inherit contextvars, so the blocked kernels
    # receive both explicitly.
    from repro.pram import faults as _faults

    plan = _faults.active_plan()
    flog = _faults.current_fault_log()
    if ctx is not None and track_errors is None:
        # Column chunks iterate independently on the context's pool;
        # the layout is a function of the column count only, so
        # results do not depend on the worker count.  A
        # diverging chunk raises ConvergenceError exactly as the
        # unchunked block would (the caller's fallback covers the
        # whole block).
        from repro.pram.executor import run_column_chunks

        results = run_column_chunks(
            ctx, b,
            lambda bc, ec, ids: _blocked_richardson(
                apply_A, apply_B, bc, delta=delta, eps=ec,
                project=project, iterations=iterations,
                divergence_guard=divergence_guard, freeze=freeze,
                update=update, col_ids=ids, plan=plan, flog=flog),
            cols=(eps,), col_ids=col_ids)
        if results is not None:
            def merged(attr):
                parts = [getattr(r, attr) for r in results
                         if getattr(r, attr) is not None]
                return np.concatenate(parts) if parts else None

            return RichardsonResult(
                x=np.hstack([r.x for r in results]),
                iterations=max(r.iterations for r in results),
                alpha=results[0].alpha,
                per_column_iterations=merged("per_column_iterations"),
                broken_columns=merged("broken_columns"),
                uncertified_columns=merged("uncertified_columns"))
    return _blocked_richardson(apply_A, apply_B, b, delta=delta, eps=eps,
                               project=project, iterations=iterations,
                               divergence_guard=divergence_guard,
                               freeze=freeze, update=update,
                               track_errors=track_errors,
                               col_ids=col_ids, plan=plan, flog=flog)




def _blocked_richardson(apply_A, apply_B, b: np.ndarray,
                        delta: float, eps, project: bool,
                        iterations: int | None,
                        divergence_guard: bool,
                        freeze: bool = True,
                        update: str = "richardson",
                        track_errors=None,
                        col_ids: np.ndarray | None = None,
                        plan=None, flog=None) -> RichardsonResult:
    """Algorithm 5 or certified PCG on an ``(n, k)`` block with
    certified column stops.

    Each iteration applies ``A`` to the iterate and ``B`` to its
    residual, evaluates every active column's certificate ``rᵀBr``
    against ``e^{-2δ} ε_j² bᵀBb``, then updates.  A certified column
    leaves the block with the iterate the certificate was computed on;
    a column at its budget leaves with the budget's iterate and is
    reported as uncertified.  Under ``"pcg"`` a certified column whose
    Ritz spread exceeds ``e^{2δ}`` is reported as uncertified too.

    Breakdown containment: a column whose certificate goes non-finite
    is *quarantined* — frozen out of the active set immediately (its
    output column stays NaN) and reported via
    ``RichardsonResult.broken_columns`` in global ``col_ids``
    coordinates — rather than aborting the whole block.  Finite
    divergence still raises :class:`~repro.errors.ConvergenceError`
    (the preconditioner is bad for *every* column, so the caller's
    whole-block fallback is the right response).  ``plan``/``flog``
    are the fault plan and log resolved by the caller's thread.
    """
    from repro.errors import ConvergenceError
    pcg = update == "pcg"
    n, k = b.shape
    ids = np.arange(k, dtype=np.int64) if col_ids is None \
        else np.asarray(col_ids, dtype=np.int64)
    broken = np.zeros(k, dtype=bool)
    uncertified = np.zeros(k, dtype=bool)
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

    def threshold(bWb):
        """Per-column certificate bound ``e^{-2δ} ε_j² bᵀBb`` (none
        passes it under ``freeze=False``)."""
        if not freeze:
            return np.full(k, -np.inf)
        return math.exp(-2.0 * delta) * eps_col ** 2 * bWb

    if pcg:
        # From x = 0 the first residual is b itself, so iteration 0's
        # B r is B b and yields bᵀBb: no separate x^(0) apply.
        caps = caps + 1
        X = np.zeros((n, k))
        X0 = bWb = certify_at = None
        ritz_cap = math.exp(2.0 * delta)
        #: Per-iteration step lengths and β's of every column, for the
        #: Lanczos tridiagonal behind the Ritz check.
        steps = np.zeros((int(caps.max(initial=1)), k))
        betas = np.zeros_like(steps)
    else:
        X0 = apply_B(b)
        if project:
            X0 = project_out_ones(X0)
        X = X0.copy()
        bWb = np.einsum("ij,ij->j", b, X0)
        certify_at = threshold(bWb)

    out = np.empty((n, k), dtype=np.float64)
    used = np.zeros(k, dtype=np.int64)
    active = np.arange(k)
    history: list = []
    if track_errors is not None:
        history.append(track_errors(X))
    b_act, X0_act, X_act = b, X0, X
    caps_act, bWb_act, certify_act = caps, bWb, certify_at
    P_act = rz_act = None
    max_iters = int(caps.max(initial=1))
    for it in range(max_iters):
        if plan is not None:
            from repro.pram.faults import inject_nan_columns

            inject_nan_columns(plan, X_act, ids[active], it, update, flog)
        AX = apply_A(X_act)
        if pcg:
            # The certificate runs on the true residual, not on CG's
            # recurrence; its B r is also the next search direction's.
            R = b_act - AX
            Z = apply_B(R)
            if project:
                Z = project_out_ones(Z)
            rWr = np.einsum("ij,ij->j", R, Z)
            if it == 0:
                bWb_act = rWr
                certify_act = threshold(rWr)
        else:
            corr = apply_B(AX)
            if project:
                corr = project_out_ones(corr)
            # B r = B(A x) − B b = corr − x^(0): the certificate for free.
            rWr = np.einsum("ij,ij->j", AX - b_act, corr - X0_act)
        nonfin = ~np.isfinite(rWr)
        if divergence_guard:
            bad = (bWb_act > 0) & ~nonfin & (rWr > 100.0 * bWb_act)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise ConvergenceError(
                    f"preconditioned {update} diverged on column "
                    f"{int(ids[active[j]])}: the preconditioner is worse "
                    f"than the assumed delta={delta} (rᵀBr {rWr[j]:.2e} "
                    f"vs bᵀBb {bWb_act[j]:.2e} at iteration {it})",
                    iterations=it, residual=float(math.sqrt(
                        rWr[j] / max(bWb_act[j], 1e-300))))
        if nonfin.any():
            # Quarantine: freeze the broken columns out of the block
            # so the remaining columns keep iterating on clean data;
            # the caller escalates the NaN columns (DESIGN.md §9).
            broken[active[nonfin]] = True
            if flog is not None:
                flog.record(
                    "quarantine", kind="nan",
                    columns=tuple(int(c) for c in ids[active[nonfin]]),
                    detail=f"stage={update} iteration={it}")
        certified = ~nonfin & (rWr <= certify_act)
        if pcg and it and certified.any():
            cols = active[certified]
            falsified = _ritz_spread(steps[:it, cols],
                                     betas[:it, cols]) > ritz_cap
            uncertified[cols[falsified]] = True
        stop = nonfin | certified
        if stop.any():
            out[:, active[stop]] = X_act[:, stop]
            used[active[stop]] = it
        if pcg:
            beta = np.zeros_like(rWr)
            if it:
                np.divide(rWr, rz_act, out=beta, where=rz_act > 0)
            P_act = Z if it == 0 else Z + beta * P_act
            AP = apply_A(P_act)
            pAp = np.einsum("ij,ij->j", P_act, AP)
            step = np.zeros_like(rWr)
            np.divide(rWr, pAp, out=step, where=pAp > 0)
            X_act = X_act + step * P_act
            rz_act = rWr
            steps[it, active] = step
            betas[it, active] = beta
        else:
            X_act = X_act - alpha * corr + alpha * X0_act
        at_cap = ~stop & (caps_act <= it + 1)
        if at_cap.any():
            out[:, active[at_cap]] = X_act[:, at_cap]
            used[active[at_cap]] = it + 1
            if freeze:
                uncertified[active[at_cap]] = True
        done = stop | at_cap
        if done.any():
            keep = ~done
            active = active[keep]
            b_act = b_act[:, keep]
            X_act = X_act[:, keep]
            caps_act = caps_act[keep]
            bWb_act = bWb_act[keep]
            certify_act = certify_act[keep]
            if pcg:
                P_act = P_act[:, keep]
                rz_act = rz_act[keep]
            else:
                X0_act = X0_act[:, keep]
        if track_errors is not None and (active.size or at_cap.any()):
            # The full-width iterate x^(it+1) (finished columns at
            # their final values); a step on which every remaining
            # column certified produced no new iterate.
            full = out.copy()
            full[:, active] = X_act
            history.append(track_errors(full))
        if active.size == 0:
            break
    if active.size:
        out[:, active] = X_act
    return RichardsonResult(x=out, iterations=int(used.max(initial=0)),
                            alpha=alpha, error_history=history,
                            per_column_iterations=used,
                            broken_columns=ids[np.flatnonzero(broken)]
                            if broken.any() else None,
                            uncertified_columns=ids[
                                np.flatnonzero(uncertified)]
                            if uncertified.any() else None)


def _ritz_spread(steps: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Per-column ``θ_max / θ_min`` of the Lanczos tridiagonal that
    ``t`` CG steps built (``steps``/``betas`` are ``(t, c)``; row ``j``
    holds step ``j``'s length and the β that formed its direction).

    The Ritz values lie inside the spectrum of the preconditioned
    operator, so a spread above ``e^{2δ}`` disproves ``κ(BA) ≤
    e^{2δ}`` — the certificate's exact condition.  A non-positive step
    or β means the operators are not positive definite on ``1⊥``:
    infinite spread.
    """
    t, c = steps.shape
    spread = np.full(c, np.inf)
    sound = (steps > 0).all(axis=0) & (betas >= 0).all(axis=0)
    if not sound.any():
        return spread
    steps, betas = steps[:, sound], betas[:, sound]
    diag = 1.0 / steps
    diag[1:] += betas[1:] / steps[:-1]
    off = np.sqrt(betas[1:]) / steps[:-1]
    idx = np.arange(t)
    T = np.zeros((steps.shape[1], t, t))
    T[:, idx, idx] = diag.T
    T[:, idx[:-1], idx[1:]] = off.T
    T[:, idx[1:], idx[:-1]] = off.T
    theta = np.linalg.eigvalsh(T)
    lo = theta[:, 0]
    spread[sound] = np.where(lo > 0, theta[:, -1] / np.where(lo > 0, lo, 1.0),
                             np.inf)
    return spread
