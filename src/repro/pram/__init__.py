"""Work/depth (CREW PRAM) cost accounting and parallel execution helpers.

The paper states all running times as *work* (total operations) and
*depth* (longest chain of sequentially dependent operations).  Python
cannot honestly realise PRAM wall-clock scaling (GIL), so this package
provides:

* :mod:`repro.pram.ledger` — an instrumented ledger; algorithms charge
  the work/depth they would incur under the paper's cost model, and the
  benchmarks check the *measured* ledger totals against the theorems'
  asymptotic shapes.
* :mod:`repro.pram.primitives` — cost formulas for the parallel
  primitives the paper invokes (Lemma 2.6 sampling, Lemma 2.7
  conversions, reductions, scans, sorts, sparse matvec).
* :mod:`repro.pram.executor` — chunked in-process execution for the
  embarrassingly parallel phases (walker stepping, column-blocked
  solves), scheduled serially or on a thread pool (numpy releases the
  GIL inside chunk kernels).  Results are bit-identical across
  schedulers and worker counts for a fixed seed (DESIGN.md §6–§7).
* :mod:`repro.pram.faults` — deterministic NaN injection
  (:func:`use_faults`) into the blocked solve kernels and the
  structured :class:`FaultLog` of containment actions (quarantine and
  escalation, DESIGN.md §9).
"""

from repro.pram.ledger import (
    WorkDepthLedger,
    CostSnapshot,
    current_ledger,
    ledger_active,
    use_ledger,
    charge,
    parallel_region,
)
from repro.pram import primitives
from repro.pram.executor import (
    ExecutionContext,
    parallel_map,
    chunk_ranges,
    default_workers,
    default_backend,
    BACKENDS,
)
from repro.pram.faults import (
    FaultDirective,
    FaultEvent,
    FaultLog,
    FaultPlan,
    active_plan,
    current_fault_log,
    faults_active,
    use_fault_log,
    use_faults,
)

__all__ = [
    "WorkDepthLedger",
    "CostSnapshot",
    "current_ledger",
    "ledger_active",
    "use_ledger",
    "charge",
    "parallel_region",
    "primitives",
    "ExecutionContext",
    "parallel_map",
    "chunk_ranges",
    "default_workers",
    "default_backend",
    "BACKENDS",
    "FaultDirective",
    "FaultEvent",
    "FaultLog",
    "FaultPlan",
    "active_plan",
    "current_fault_log",
    "faults_active",
    "use_fault_log",
    "use_faults",
]
