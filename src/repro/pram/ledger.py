"""Work/depth ledger for the CREW PRAM cost model.

Usage pattern inside an algorithm::

    from repro.pram import charge, parallel_region
    from repro.pram import primitives as P

    charge(*P.map_cost(m), label="scale weights")      # sequential step
    with parallel_region("walks") as region:           # parallel branches
        region.branch(work_1, depth_1)
        region.branch(work_2, depth_2)
    # region contributes sum(work_i) work and max(depth_i) depth.

Ledger semantics
----------------
* ``charge(w, d)`` models running a parallel primitive of work ``w`` and
  depth ``d`` *after* everything charged before it:  work adds, depth
  adds (sequential composition).
* ``parallel_region()`` models a fork/join:  its branches' works add but
  only the maximum branch depth is added to the ledger at the join.
* Ledgers nest via a context variable (:func:`use_ledger`), so library
  code can charge costs without threading a ledger argument through
  every call.  When no ledger is installed, charging is a no-op with
  near-zero overhead.

The ledger also keeps per-label subtotals so benchmarks can attribute
work to phases (``5DDSubset`` vs ``TerminalWalks`` vs ``Jacobi`` ...).
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "WorkDepthLedger",
    "CostSnapshot",
    "ParallelRegion",
    "current_ledger",
    "ledger_active",
    "use_ledger",
    "charge",
    "parallel_region",
]


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable (work, depth) pair; supports arithmetic for reporting."""

    work: float = 0.0
    depth: float = 0.0

    def __add__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(self.work + other.work, self.depth + other.depth)

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(self.work - other.work, self.depth - other.depth)

    def parallel_join(self, other: "CostSnapshot") -> "CostSnapshot":
        """Fork/join combination: work adds, depth takes the maximum."""
        return CostSnapshot(self.work + other.work,
                            max(self.depth, other.depth))


class ParallelRegion:
    """Collects branch costs inside a ``with parallel_region():`` block."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._work = 0.0
        self._depth = 0.0
        self.branches = 0

    def branch(self, work: float, depth: float) -> None:
        """Record one parallel branch of the fork."""
        if work < 0 or depth < 0:
            raise ValueError("work and depth must be non-negative")
        self._work += work
        self._depth = max(self._depth, depth)
        self.branches += 1

    @property
    def cost(self) -> CostSnapshot:
        """Joined fork/join cost: branch works added, depths maxed."""
        return CostSnapshot(self._work, self._depth)


class WorkDepthLedger:
    """Accumulates work/depth charges with per-label attribution."""

    def __init__(self) -> None:
        self.work: float = 0.0
        self.depth: float = 0.0
        self.by_label: dict[str, CostSnapshot] = {}
        self.events: int = 0

    # -- charging ---------------------------------------------------------

    def charge(self, work: float, depth: float, label: str = "") -> None:
        """Sequentially compose a primitive of the given work/depth."""
        if work < 0 or depth < 0:
            raise ValueError("work and depth must be non-negative")
        self.work += work
        self.depth += depth
        self.events += 1
        if label:
            prev = self.by_label.get(label, CostSnapshot())
            self.by_label[label] = prev + CostSnapshot(work, depth)

    def charge_region(self, region: ParallelRegion) -> None:
        """Sequentially compose a completed fork/join region."""
        cost = region.cost
        self.charge(cost.work, cost.depth, label=region.label)

    def absorb_parallel(self, subledgers: "list[WorkDepthLedger]") -> None:
        """Join sub-ledgers recorded by concurrent branches (fork/join).

        Branch works add; the joined depth is the maximum branch depth
        (the branches ran in parallel).  Per-label subtotals merge the
        same way across branches before being added to this ledger, so
        phase attribution survives chunked execution.  The result is
        independent of how many threads actually ran the branches —
        the executor uses this to keep ledger totals worker-invariant.
        """
        if not subledgers:
            return
        self.charge(sum(s.work for s in subledgers),
                    max(s.depth for s in subledgers))
        labels: dict[str, CostSnapshot] = {}
        for sub in subledgers:
            for label, cost in sub.by_label.items():
                prev = labels.get(label)
                labels[label] = cost if prev is None \
                    else prev.parallel_join(cost)
        for label, cost in labels.items():
            prev = self.by_label.get(label, CostSnapshot())
            self.by_label[label] = prev + cost

    # -- inspection --------------------------------------------------------

    @property
    def snapshot(self) -> CostSnapshot:
        """Immutable copy of the current (work, depth) totals."""
        return CostSnapshot(self.work, self.depth)

    def reset(self) -> None:
        """Zero all totals, counters, and per-label subtotals."""
        self.work = 0.0
        self.depth = 0.0
        self.events = 0
        self.by_label.clear()

    def report(self) -> str:
        """Human-readable phase breakdown, widest phases first."""
        lines = [f"total: work={self.work:.3e} depth={self.depth:.3e} "
                 f"({self.events} events)"]
        for label, cost in sorted(self.by_label.items(),
                                  key=lambda kv: -kv[1].work):
            lines.append(f"  {label:<28s} work={cost.work:.3e} "
                         f"depth={cost.depth:.3e}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WorkDepthLedger(work={self.work:.3e}, "
                f"depth={self.depth:.3e}, events={self.events})")


_current: contextvars.ContextVar[WorkDepthLedger | None] = \
    contextvars.ContextVar("repro_pram_ledger", default=None)


def current_ledger() -> WorkDepthLedger | None:
    """The ledger installed by the innermost :func:`use_ledger`, if any."""
    return _current.get()


def ledger_active() -> bool:
    """True when a cost ledger is installed.

    Hot loops guard their :func:`charge` calls with this so that, in
    production runs (no ledger), cost accounting costs nothing — not
    even building the ``(work, depth)`` tuple and label string the
    charge would have recorded.
    """
    return _current.get() is not None


@contextlib.contextmanager
def use_ledger(ledger: WorkDepthLedger | None = None
               ) -> Iterator[WorkDepthLedger]:
    """Install ``ledger`` (or a fresh one) as the ambient cost ledger."""
    ledger = ledger if ledger is not None else WorkDepthLedger()
    token = _current.set(ledger)
    try:
        yield ledger
    finally:
        _current.reset(token)


def charge(work: float, depth: float, label: str = "") -> None:
    """Charge the ambient ledger; no-op when none is installed."""
    ledger = _current.get()
    if ledger is not None:
        ledger.charge(work, depth, label)


@contextlib.contextmanager
def parallel_region(label: str = "") -> Iterator[ParallelRegion]:
    """Open a fork/join region; at exit its joined cost is charged."""
    region = ParallelRegion(label)
    yield region
    ledger = _current.get()
    if ledger is not None:
        ledger.charge_region(region)
