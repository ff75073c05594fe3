"""Deterministic NaN injection for the blocked solve kernels.

The blocked iterative kernels quarantine columns whose iterate goes
non-finite and the solver escalates them (DESIGN.md §9).  A real
breakdown is rare and input-dependent, so this module provides the
harness that exercises that path on demand: a declarative
:class:`FaultPlan` naming which column goes NaN where, applied inside
the kernels, plus a structured :class:`FaultLog` recording every
injection and every containment action.

A plan is a comma-separated list of directives, each
``nan:sel=value:sel=value...``::

    nan:col=3:stage=richardson   # column 3's iterate goes NaN at iter 0
    nan:col=0:iter=1:stage=cg    # column 0, at iteration 1, in CG

Selectors
---------
``col=N`` (required), ``iter=N`` (default 0),
``stage=richardson|pcg|cg|chebyshev|solve`` (``pcg`` is the solver's
certified PCG, ``cg`` the residual-stopped one; ``solve`` matches
every blocked solve kernel, where a specific stage name matches only
that kernel; no ``stage=`` matches every kernel too).  An unknown
kind, selector or ``stage=`` value raises :class:`ValueError` at parse
time — a typo'd directive would otherwise parse and never fire.

Directives are **stateless**: whether one fires depends only on the
match coordinates (column, iteration, stage), never on how often it
fired before — the property that keeps faulted runs deterministic and
therefore comparable bit-for-bit to fault-free runs.

Plans activate only through the :func:`use_faults` context manager.
Because pool threads do not inherit the caller's context, the kernels
resolve :func:`active_plan` / :func:`current_fault_log` **in the
calling thread** and pass both down explicitly.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

__all__ = ["FAULT_KINDS", "STAGES", "FaultDirective", "FaultPlan",
           "FaultEvent", "FaultLog", "use_faults", "active_plan",
           "faults_active", "use_fault_log", "current_fault_log",
           "inject_nan_columns"]

#: Recognised fault kinds.
FAULT_KINDS = ("nan",)

#: Stages a ``stage=`` selector can name: the blocked kernels, plus
#: ``solve`` as the wildcard over all of them.
STAGES = ("richardson", "pcg", "cg", "chebyshev", "solve")


@dataclass(frozen=True)
class FaultDirective:
    """One declarative fault: a kind plus match selectors.

    Frozen, so plans can be shared across threads.  ``stage=None``
    means "don't filter on the stage".
    """

    kind: str
    col: int | None = None
    iteration: int = 0
    stage: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.col is None:
            raise ValueError("nan directives require col=N")

    def spec(self) -> str:
        """The directive back in ``kind:sel=value`` form."""
        parts = [self.kind, f"col={self.col}"]
        if self.iteration != 0:
            parts.append(f"iter={self.iteration}")
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        return ":".join(parts)


def _parse_directive(token: str) -> FaultDirective:
    parts = [p.strip() for p in token.split(":") if p.strip()]
    if not parts:
        raise ValueError("empty fault directive")
    kind = parts[0].lower()
    kwargs: dict = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(
                f"fault selector must be key=value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key == "iter":
            key = "iteration"
        if key in ("col", "iteration"):
            try:
                kwargs[key] = int(raw)
            except ValueError:
                raise ValueError(
                    f"fault selector {key}= needs an integer, "
                    f"got {raw!r}") from None
        elif key == "stage":
            value = raw.lower()
            if value not in STAGES:
                raise ValueError(
                    f"fault selector stage= must be one of {STAGES}, "
                    f"got {raw!r}")
            kwargs[key] = value
        else:
            raise ValueError(f"unknown fault selector {key!r}")
    return FaultDirective(kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultDirective`\\ s."""

    directives: tuple[FaultDirective, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated directive list (see module docs)."""
        directives = tuple(_parse_directive(tok)
                           for tok in text.split(",") if tok.strip())
        if not directives:
            raise ValueError(f"no fault directives in {text!r}")
        return cls(directives)

    def __bool__(self) -> bool:
        return bool(self.directives)


# -- activation ---------------------------------------------------------------

_plan_var: contextvars.ContextVar[FaultPlan | None] = contextvars.ContextVar(
    "repro_fault_plan", default=None)


def active_plan() -> FaultPlan | None:
    """The fault plan in effect for the calling thread, if any.

    Returns ``None`` when no :func:`use_faults` block is active — the
    common case, kept cheap so iteration loops can guard on it.
    """
    return _plan_var.get()


def faults_active() -> bool:
    """Cheap guard: is any fault plan currently active?"""
    return active_plan() is not None


@contextlib.contextmanager
def use_faults(plan: "FaultPlan | str | None"):
    """Install ``plan`` as the active fault plan for this context.

    Accepts a :class:`FaultPlan`, a directive string (parsed), or
    ``None`` (no faults).  The plan is visible in the installing
    thread — the kernels resolve it there and hand it to pool threads
    explicitly.
    """
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    token = _plan_var.set(plan)
    try:
        yield plan
    finally:
        _plan_var.reset(token)


# -- the structured log -------------------------------------------------------


@dataclass
class FaultEvent:
    """One injection or containment action.

    ``action`` is the event type: ``inject`` (a directive fired),
    ``quarantine`` (broken columns were frozen out of an iteration),
    ``escalate`` (quarantined columns, or columns that reached their
    budget uncertified, moved to a stronger solver); the serving layer
    adds ``shed`` (a request was refused under admission control) and
    ``breaker_open`` / ``breaker_close`` (circuit-breaker transitions).
    """

    action: str
    kind: str = ""
    columns: tuple[int, ...] = ()
    backend: str = ""
    detail: str = ""


class FaultLog:
    """Structured record of injections and containment actions.

    Appended to from the dispatching thread and from pool threads
    running column chunks — ``list.append`` is atomic under the GIL,
    so no locking is needed.  Attached to
    :class:`repro.core.solver.BlockSolveReport` so callers can see
    what the solve contained.
    """

    def __init__(self) -> None:
        self.events: list[FaultEvent] = []

    def record(self, action: str, **kw) -> FaultEvent:
        """Append a :class:`FaultEvent` for ``action`` and return it."""
        event = FaultEvent(action, **kw)
        self.events.append(event)
        return event

    def count(self, action: str) -> int:
        """Number of recorded events with the given ``action``."""
        return sum(1 for e in self.events if e.action == action)

    def actions(self) -> tuple[str, ...]:
        """Event actions in record order."""
        return tuple(e.action for e in self.events)

    def summary(self) -> dict[str, int]:
        """Action → count over all recorded events."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.action] = out.get(e.action, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultLog({self.summary()})"


_log_var: contextvars.ContextVar[FaultLog | None] = contextvars.ContextVar(
    "repro_fault_log", default=None)


def current_fault_log() -> FaultLog | None:
    """The ambient fault log for the calling thread, if any."""
    return _log_var.get()


@contextlib.contextmanager
def use_fault_log(log: FaultLog | None = None):
    """Install ``log`` (a fresh one when ``None``) as the ambient
    fault log; yields the installed log."""
    if log is None:
        log = FaultLog()
    token = _log_var.set(log)
    try:
        yield log
    finally:
        _log_var.reset(token)


# -- application point --------------------------------------------------------


def inject_nan_columns(plan: FaultPlan, block: np.ndarray,
                       col_ids: np.ndarray, iteration: int, stage: str,
                       log: FaultLog | None = None) -> list[int]:
    """Poison matching columns of ``block`` with NaN, in place.

    ``col_ids`` maps the block's local columns to global right-hand-side
    column indices (the coordinates ``nan:col=N`` directives are
    written in), so injection keeps working when the blocked kernels
    run on a column-chunked slice.  Returns the global ids hit.
    """
    hit: list[int] = []
    for d in plan.directives:
        if d.iteration != iteration:
            continue
        # ``stage=solve`` is a wildcard over the blocked solve kernels
        # (richardson/pcg/cg/chebyshev).
        if d.stage is not None and d.stage != stage \
                and d.stage != "solve":
            continue
        local = np.nonzero(np.asarray(col_ids) == d.col)[0]
        if local.size:
            block[:, local] = np.nan
            hit.extend(int(c) for c in np.asarray(col_ids)[local])
            if log is not None:
                log.record("inject", kind="nan", columns=(int(d.col),),
                           detail=f"stage={stage} iteration={iteration}")
    return hit
