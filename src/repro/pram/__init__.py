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
* :mod:`repro.pram.executor` — backend-pluggable chunked execution
  for the embarrassingly parallel phases: serial, thread-pool (numpy
  releases the GIL inside chunk kernels), or worker processes behind
  the hardened transport for the Python-bound phases the GIL would
  otherwise serialise, fed one :class:`SharedPayload` per dispatch
  (shared memory or in-band frames).  Blocked solves can additionally
  ship their column chunks as self-contained tasks against a
  once-published chain payload (:class:`SolveShipment`, DESIGN.md
  §10).  Results are bit-identical across backends and worker counts
  for a fixed seed (DESIGN.md §6–§7).
* :mod:`repro.pram.transport` — the process backend's wire layer
  (DESIGN.md §13): length-prefixed CRC32-checksummed frames with
  bounded retransmission, a mutual HMAC-SHA256 session handshake,
  heartbeat liveness, lease-based scheduling with in-place worker
  replacement, and payload shipping over shared memory or in-band
  frames (``REPRO_TRANSPORT=shm|tcp``).
* :mod:`repro.pram.faults` — deterministic fault injection
  (``REPRO_FAULTS`` / :func:`use_faults`) and the structured
  :class:`FaultLog` of recovery actions, backing the fault-tolerant
  dispatch layer (DESIGN.md §9): per-chunk retries with exponential
  backoff, lease timeouts, worker replacement, and policy-gated
  backend degradation — extended to the wire with ``stage=transport``
  directives (drop/corrupt/disconnect/delay).
"""

from repro.pram.ledger import (
    WorkDepthLedger,
    CostSnapshot,
    current_ledger,
    ledger_active,
    use_ledger,
    detach_ledger,
    charge,
    parallel_region,
)
from repro.pram import primitives
from repro.pram.executor import (
    ExecutionContext,
    ExecutionBackend,
    SerialBackend,
    ThreadPoolBackend,
    ProcessBackend,
    RetryPolicy,
    parallel_map,
    chunk_ranges,
    default_workers,
    default_backend,
    default_retries,
    default_chunk_timeout,
    default_degrade,
    default_ship_solves,
    get_backend,
    live_segment_names,
    shutdown_worker_pools,
    live_worker_pids,
    BACKENDS,
    SharedPayload,
    SolveShipment,
)
from repro.pram.transport import (
    Channel,
    TransportPool,
    payload_fingerprint,
    default_transport,
    default_transport_key,
    default_heartbeat_s,
    default_ack_timeout,
)
from repro.pram.faults import (
    FaultDirective,
    FaultEvent,
    FaultLog,
    FaultPlan,
    InjectedFault,
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
    "detach_ledger",
    "charge",
    "parallel_region",
    "primitives",
    "ExecutionContext",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessBackend",
    "RetryPolicy",
    "parallel_map",
    "chunk_ranges",
    "default_workers",
    "default_backend",
    "default_retries",
    "default_chunk_timeout",
    "default_degrade",
    "default_ship_solves",
    "get_backend",
    "live_segment_names",
    "shutdown_worker_pools",
    "live_worker_pids",
    "BACKENDS",
    "SharedPayload",
    "SolveShipment",
    "Channel",
    "TransportPool",
    "payload_fingerprint",
    "default_transport",
    "default_transport_key",
    "default_heartbeat_s",
    "default_ack_timeout",
    "FaultDirective",
    "FaultEvent",
    "FaultLog",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "current_fault_log",
    "faults_active",
    "use_fault_log",
    "use_faults",
]
