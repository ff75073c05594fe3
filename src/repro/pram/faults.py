"""Deterministic fault injection for the execution layer.

The determinism contract (DESIGN.md §6–§8) makes fault tolerance cheap:
chunk layout and per-chunk RNG streams are functions of problem size
only, so a lost chunk re-executed — same ``(lo, hi, seed_key)`` —
produces bit-identical results.  This module provides the harness
that *proves* it: a declarative :class:`FaultPlan` describing where
faults should strike, applied at well-defined points inside the
dispatch and iteration machinery, plus a structured :class:`FaultLog`
recording every injection and every recovery action.

A plan is a comma-separated list of directives, each
``kind:sel=value:sel=value...``::

    kill:chunk=2:attempt=1       # chunk 2's second dispatch attempt dies
    hang:chunk=0:seconds=30      # chunk 0 stalls (bounded in-process)
    nan:col=3:stage=richardson   # column 3's iterate goes NaN at iter 0

Selectors
---------
``chunk=N`` (required for kill/hang), ``attempt=N`` (default ``0``;
``*`` = every attempt — how the exhaustion path is exercised),
``backend=serial|thread`` (only fire under that backend),
``phase=walk|columns|serve`` (only fire in that dispatch scope),
``seconds=F`` (hang duration, default 30), ``col=N`` (required for
nan), ``iter=N`` (default 0),
``stage=richardson|pcg|cg|chebyshev|solve|serve`` (``pcg`` is the
solver's certified PCG, ``cg`` the residual-stopped one).  For
kill/hang directives ``stage=`` is an alias for ``phase=`` and must
name a dispatch scope; for nan directives ``stage=solve`` matches
every blocked solve kernel, where a specific stage name matches only
that kernel.  A ``backend=``, ``phase=`` or ``stage=`` value outside
these lists raises :class:`ValueError` at parse time — a typo'd
directive would otherwise parse and never fire.

The ``serve`` scope targets the micro-batch dispatch point of
:class:`repro.serve.SolverService`: a serve-pinned kill/hang uses the
**batch sequence number** as its ``chunk=`` coordinate and fires in
the serving thread before the batched ``solve_many`` runs (retried
under the ambient :class:`repro.pram.executor.RetryPolicy`, exactly
like a lost chunk); ``nan:col=N:stage=serve`` is rewritten by
:func:`split_serve_plan` to ``stage=solve`` so the existing in-kernel
injection poisons batch column ``N`` — i.e. the ``N``-th request of
the batch — and the quarantine/escalation ladder (DESIGN.md §9)
contains the damage to that one caller.

Directives are **stateless**: whether one fires depends only on the
match coordinates (chunk, attempt, column, iteration, ...), never on
how often it fired before — the property that keeps faulted runs
deterministic and therefore comparable bit-for-bit to fault-free runs.

Plans activate either through the ``REPRO_FAULTS`` env var (read
lazily, like every other ``REPRO_*`` knob) or through the
:func:`use_faults` context manager, which overrides the environment
for its dynamic extent.  Because pool threads do not inherit the
caller's context, the dispatch sites resolve :func:`active_plan` /
:func:`current_fault_log` **in the calling thread** and pass both
down explicitly.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "PHASES", "STAGES", "FaultDirective",
           "FaultPlan", "FaultEvent", "FaultLog", "InjectedFault",
           "use_faults", "active_plan", "faults_active", "use_fault_log",
           "current_fault_log", "apply_chunk_faults",
           "inject_nan_columns", "split_serve_plan",
           "apply_serve_faults"]

#: Recognised fault kinds.
FAULT_KINDS = ("kill", "hang", "nan")

#: A hung thread cannot be interrupted from outside, so an injected
#: hang degenerates to a bounded stall before failing.
_INPROCESS_HANG_CAP = 0.05


class InjectedFault(ReproError):
    """Raised where a :class:`FaultPlan` directive fires.

    Classified as *transient* by the execution layer: a chunk failing
    with :class:`InjectedFault` is re-dispatched under the ambient
    :class:`repro.pram.executor.RetryPolicy`.
    """


@dataclass(frozen=True)
class FaultDirective:
    """One declarative fault: a kind plus match selectors.

    Frozen, so plans can be shared across threads.  ``attempt=None``
    means *every* attempt (the ``*`` spelling); every other ``None``
    selector means "don't filter on this coordinate".
    """

    kind: str
    chunk: int | None = None
    attempt: int | None = 0
    col: int | None = None
    iteration: int = 0
    stage: str | None = None
    phase: str | None = None
    backend: str | None = None
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.kind in ("kill", "hang") and self.chunk is None:
            raise ValueError(f"{self.kind} directives require chunk=N")
        if self.kind == "nan" and self.col is None:
            raise ValueError("nan directives require col=N")
        if self.kind in ("kill", "hang") and self.stage is not None \
                and self.stage not in PHASES:
            # stage= aliases phase= here; a kernel stage names no
            # dispatch scope, so the directive could never fire.
            raise ValueError(
                f"{self.kind} directives take stage= as a dispatch "
                f"scope, one of {PHASES}; got {self.stage!r}")
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")

    def matches_chunk(self, *, chunk: int, attempt: int,
                      backend: str | None = None,
                      phase: str | None = None) -> bool:
        """Does this kill/hang directive fire at these coordinates?

        A ``None`` *argument* means the coordinate is unknown at the
        call site and the corresponding selector is not consulted.
        """
        if self.kind not in ("kill", "hang"):
            return False
        if self.chunk is not None and self.chunk != chunk:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.backend is not None and backend is not None \
                and self.backend != backend:
            return False
        if self.phase is not None and phase is not None \
                and self.phase != phase:
            return False
        # For kill/hang, stage= is a phase alias.
        if self.stage is not None and phase is not None \
                and self.stage != phase:
            return False
        return True

    def spec(self) -> str:
        """The directive back in ``kind:sel=value`` form."""
        parts = [self.kind]
        defaults = FaultDirective("kill", chunk=0) if self.kind != "nan" \
            else FaultDirective("nan", col=0)
        for name, key in (("chunk", "chunk"), ("attempt", "attempt"),
                          ("col", "col"), ("iteration", "iter"),
                          ("stage", "stage"), ("phase", "phase"),
                          ("backend", "backend"), ("seconds", "seconds")):
            value = getattr(self, name)
            if name in ("chunk", "col"):
                if value is not None:
                    parts.append(f"{key}={value}")
                continue
            if name == "attempt":
                if value is None:
                    parts.append("attempt=*")
                elif value != 0:
                    parts.append(f"attempt={value}")
                continue
            if value != getattr(defaults, name):
                if name == "seconds":
                    parts.append(f"{key}={value:g}")
                else:
                    parts.append(f"{key}={value}")
        return ":".join(parts)


#: Dispatch scopes a ``phase=`` selector can name.
PHASES = ("walk", "columns", "serve")

#: Stages a ``stage=`` selector can name: the blocked kernels plus the
#: scopes ``stage=`` aliases for kill/hang.
STAGES = ("richardson", "pcg", "cg", "chebyshev", "solve", "serve")


def _selector_values(key: str) -> tuple[str, ...]:
    if key == "backend":
        from repro.pram.executor import BACKENDS

        return BACKENDS
    return PHASES if key == "phase" else STAGES


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
        if key in ("chunk", "attempt", "col", "iteration"):
            if key == "attempt" and raw == "*":
                kwargs[key] = None
                continue
            try:
                kwargs[key] = int(raw)
            except ValueError:
                raise ValueError(
                    f"fault selector {key}= needs an integer, "
                    f"got {raw!r}") from None
        elif key == "seconds":
            try:
                kwargs[key] = float(raw)
            except ValueError:
                raise ValueError(
                    f"fault selector seconds= needs a number, "
                    f"got {raw!r}") from None
        elif key in ("stage", "phase", "backend"):
            value = raw.lower()
            allowed = _selector_values(key)
            if value not in allowed:
                raise ValueError(
                    f"fault selector {key}= must be one of {allowed}, "
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

#: ``None`` → fall through to the env var; ``(plan_or_None,)`` → an
#: explicit override installed by :func:`use_faults` (a 1-tuple so that
#: ``use_faults(None)`` can mask an env-var plan).
_override: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "repro_fault_plan", default=None)


def _parse_env(env: str | None) -> FaultPlan | None:
    if not env or not env.strip():
        return None
    return FaultPlan.parse(env)


def active_plan() -> FaultPlan | None:
    """The fault plan in effect for the calling thread, if any.

    A :func:`use_faults` override wins; otherwise the ``REPRO_FAULTS``
    env var is consulted lazily (cached per raw value, like every
    other ``REPRO_*`` knob).  Returns ``None`` when no faults are
    active — the common case, kept cheap so iteration loops can guard
    on it.
    """
    override = _override.get()
    if override is not None:
        return override[0]
    from repro.pram.executor import _env_cached

    return _env_cached("REPRO_FAULTS", _parse_env)


def faults_active() -> bool:
    """Cheap guard: is any fault plan currently active?"""
    return active_plan() is not None


@contextlib.contextmanager
def use_faults(plan: "FaultPlan | str | None"):
    """Install ``plan`` as the active fault plan for this context.

    Accepts a :class:`FaultPlan`, a directive string (parsed), or
    ``None`` (masks any ``REPRO_FAULTS`` env plan).  The override is
    visible in the installing thread — dispatch sites resolve the plan
    there and hand it to pool threads explicitly.
    """
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    token = _override.set((plan,))
    try:
        yield plan
    finally:
        _override.reset(token)


# -- the structured log -------------------------------------------------------


@dataclass
class FaultEvent:
    """One injection or recovery action.

    ``action`` is the event type: ``inject`` (a directive fired),
    ``retry`` (a chunk was re-dispatched), ``exhausted`` (a chunk ran
    out of attempts), ``quarantine`` (broken columns were frozen out
    of an iteration), ``escalate`` (quarantined columns, or Richardson
    columns that reached their budget uncertified, moved to a stronger
    solver); the serving layer adds ``shed`` (a request was
    refused under admission control) and ``breaker_open`` /
    ``breaker_close`` (circuit-breaker transitions).
    """

    action: str
    kind: str = ""
    chunk: int | None = None
    attempt: int | None = None
    columns: tuple[int, ...] = ()
    backend: str = ""
    detail: str = ""


class FaultLog:
    """Structured record of injections and recovery actions.

    Appended to from the dispatching thread and (for in-process chunk
    faults) from pool threads — ``list.append`` is atomic under the
    GIL, so no locking is needed.  Attached to
    :class:`repro.core.solver.BlockSolveReport` so callers can see
    what the execution layer survived.
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


# -- application points -------------------------------------------------------


def apply_chunk_faults(plan: FaultPlan, *, chunk: int, attempt: int,
                       backend: str | None = None,
                       phase: str | None = None,
                       log: FaultLog | None = None) -> None:
    """Fire any matching kill/hang directive for an in-process chunk.

    There is no worker to kill and no way to interrupt a hung thread
    from outside, so both kinds raise :class:`InjectedFault` (hang
    after a bounded stall), which the retry machinery re-dispatches.
    """
    for d in plan.directives:
        if not d.matches_chunk(chunk=chunk, attempt=attempt,
                               backend=backend, phase=phase):
            continue
        if log is not None:
            log.record("inject", kind=d.kind, chunk=chunk, attempt=attempt,
                       backend=backend or "", detail=d.spec())
        if d.kind == "hang":
            time.sleep(min(d.seconds, _INPROCESS_HANG_CAP))
        raise InjectedFault(
            f"injected {d.kind}: chunk={chunk} attempt={attempt}")


def split_serve_plan(plan: FaultPlan | None
                     ) -> tuple[tuple[FaultDirective, ...],
                                FaultPlan | None]:
    """Partition ``plan`` for the serving layer's dispatch point.

    Returns ``(serve_directives, inner_plan)``.  Kill/hang directives
    pinned to the ``serve`` scope (``stage=serve`` or ``phase=serve``)
    fire at the micro-batch dispatch point — the batch sequence number
    is their ``chunk=`` coordinate — and must *not* reach the blocked
    kernels; ``nan:...:stage=serve`` directives are rewritten to
    ``stage=solve`` so the existing in-kernel injection poisons the
    request's batch column.  Everything else passes through to
    ``inner_plan`` unchanged, preserving composed plans that mix serve
    and executor faults.
    """
    if plan is None:
        return (), None
    from dataclasses import replace

    serve: list[FaultDirective] = []
    inner: list[FaultDirective] = []
    for d in plan.directives:
        if d.kind in ("kill", "hang") and "serve" in (d.stage, d.phase):
            serve.append(d)
        elif d.kind == "nan" and d.stage == "serve":
            inner.append(replace(d, stage="solve"))
        else:
            inner.append(d)
    return tuple(serve), (FaultPlan(tuple(inner)) if inner else None)


def apply_serve_faults(directives: tuple[FaultDirective, ...], *,
                       batch: int, attempt: int,
                       log: FaultLog | None = None) -> None:
    """Fire any matching serve-scope kill/hang for a micro-batch.

    Serve dispatches are in-process (the batch runs in the service's
    solve thread), so the semantics mirror :func:`apply_chunk_faults`:
    both kinds raise :class:`InjectedFault` (hang after a bounded
    stall), which the service's retry loop treats exactly like a lost
    executor chunk — stateless directives make the re-dispatched batch
    bit-identical to an undisturbed one.
    """
    for d in directives:
        if not d.matches_chunk(chunk=batch, attempt=attempt,
                               phase="serve"):
            continue
        if log is not None:
            log.record("inject", kind=d.kind, chunk=batch,
                       attempt=attempt, backend="serve", detail=d.spec())
        if d.kind == "hang":
            time.sleep(min(d.seconds, _INPROCESS_HANG_CAP))
        raise InjectedFault(
            f"injected {d.kind}: batch={batch} attempt={attempt}")


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
        if d.kind != "nan":
            continue
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
