"""Backend-pluggable chunked execution for the solver's parallel phases.

The solver stack has two kinds of embarrassingly parallel work:

* **numpy-bound chunks** (per-edge weight transforms, column-blocked
  iterative solves) — the kernels release the GIL, so a thread pool
  already scales them;
* **Python-bound chunks** (walker-stepping bookkeeping, per-round CSR
  maintenance, chunk orchestration) — under the GIL a thread pool tops
  out around 1.2×, so true multi-core scaling needs separate
  *processes*.

This module is the solver's single dispatch point for both.  An
:class:`ExecutionBackend` decides *where* a fixed set of chunks runs:

* :class:`SerialBackend` — in the calling thread (no pool overhead,
  the reference semantics);
* :class:`ThreadPoolBackend` — a ``ThreadPoolExecutor`` (the PR-3
  behaviour, best for numpy-bound chunks);
* :class:`ProcessBackend` — a persistent fleet of worker processes
  behind :class:`repro.pram.transport.TransportPool`'s lease
  scheduler: the immutable per-level arrays (CSR
  ``indptr``/``neighbor``/weights, slot resistances, terminal masks,
  walker starts) travel **once** per dispatch as a
  :class:`SharedPayload` — a shared-memory segment, or in-band frames
  under ``REPRO_TRANSPORT=tcp`` — and each chunk job pickles only its
  chunk id, seed-spawn key, and slice bounds.

The backend never influences *results* — only wall-clock.
:class:`ExecutionContext`'s determinism contract (DESIGN.md §6–§7):

* **Chunk layout depends only on problem size** (item count + the
  context's chunk policy), never on the worker count or backend.
* **Randomness is per-chunk**: each chunk receives its own
  ``SeedSequence``-spawned child stream, drawn in chunk order from the
  caller's generator.  The thread path spawns child *generators*
  (``rng.spawn``); the process path ships the spawned *seed sequences*
  and reconstructs the identical generators worker-side — same bit
  generator type, same child seed, bit-identical stream.
* **Ledger charges fork/join**: each chunk records its costs into a
  private sub-ledger — in-process via :func:`use_ledger`, in a worker
  process via an explicit ledger handed to the shipped task — and at
  the join the parent ledger absorbs the sum of chunk works and the
  max of chunk depths.  Totals are identical across backends and
  worker counts.

Together these make every chunked phase bit-identical for a fixed seed
regardless of ``REPRO_BACKEND`` / ``REPRO_WORKERS`` — the property the
backend-matrix invariance tests assert.

Shared-memory lifecycle (crash-safe; see DESIGN.md §7): the parent
publishes each payload segment, registers it in a module-level
registry, and closes + unlinks it when its owner closes the payload —
in the dispatch's ``finally`` for per-dispatch payloads, on solver
close for the chain payload; an ``atexit`` hook unlinks anything the
registry still holds (e.g. after a mid-dispatch crash), so no segment
outlives the parent.  Workers attach read-only, keep a small LRU of
attachments, and never unlink — the parent owns the segment.

The lower-level API remains: :func:`chunk_ranges` splits an index range
into contiguous chunks, :func:`parallel_map` maps a function over items
with an optional thread pool.  ``workers=None`` or ``workers<=1`` runs
serially (no pool overhead).
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.errors import ExecutionError, TransportError

__all__ = ["ExecutionContext", "ExecutionBackend", "SerialBackend",
           "ThreadPoolBackend", "ProcessBackend", "SharedPayload",
           "SolveShipment",
           "RetryPolicy", "parallel_map", "chunk_ranges",
           "run_column_chunks", "default_workers", "default_backend",
           "default_chunk_items", "default_retries",
           "default_chunk_timeout", "default_degrade",
           "default_ship_solves",
           "get_backend", "live_segment_names",
           "shutdown_worker_pools", "live_worker_pids",
           "BACKENDS", "DEFAULT_CHUNK_ITEMS", "DEFAULT_CHUNK_COLUMNS",
           "MAX_CHUNKS", "DEFAULT_RETRIES"]

T = TypeVar("T")
R = TypeVar("R")

#: Work items (walkers, edges) per chunk — large enough that each
#: chunk's numpy kernels dominate its Python dispatch overhead.
DEFAULT_CHUNK_ITEMS = 65536

#: Right-hand-side columns per chunk for blocked iterative solves.
DEFAULT_CHUNK_COLUMNS = 16

#: Hard cap on chunks per dispatch (bounds RNG spawns and pool queue
#: length).  Part of the chunk policy, hence worker-independent.
MAX_CHUNKS = 256

#: Recognised execution backends, in increasing isolation order (the
#: degrade ladder walks it backwards).  ``process`` runs worker
#: processes behind the hardened transport (DESIGN.md §13): framed +
#: checksummed + authenticated connections, heartbeat liveness,
#: lease-based scheduling with in-place worker replacement, and
#: payloads over shared memory or in-band frames (``REPRO_TRANSPORT``)
#: — same determinism contract as every other backend.
BACKENDS = ("serial", "thread", "process")

# The ``default_*`` getters cache their (env string → value) lookup so
# hot loops can consult them lazily at every dispatch; keying each
# cache on the raw env value keeps ``monkeypatch.setenv(...)``
# reliable — a changed env invalidates the cache on the next call.
_env_caches: dict[str, tuple[str | None, object]] = {}


def _env_cached(var: str, parse):
    """Shared env-var getter idiom: ``parse(raw)`` once per raw value.

    ``parse`` receives the raw env string (or ``None`` when unset),
    returns the resolved value, and may raise :class:`ValueError` —
    errors are not cached, so a corrected environment recovers.
    """
    env = os.environ.get(var)
    hit = _env_caches.get(var)
    if hit is not None and hit[0] == env:
        return hit[1]
    value = parse(env)
    _env_caches[var] = (env, value)
    return value


def default_workers() -> int:
    """Worker count from the ``REPRO_WORKERS`` env var.

    Unset or empty means the CPU count.  Anything else must be a
    positive integer; junk and values below 1 raise
    :class:`ValueError` like every other ``REPRO_*`` knob.
    """

    def parse(env: str | None) -> int:
        if not env:
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}")
        return value

    return _env_cached("REPRO_WORKERS", parse)


def default_backend() -> str:
    """Backend name from ``REPRO_BACKEND`` env var (default: thread).

    Raises :class:`ValueError` for anything outside :data:`BACKENDS` —
    a typo'd environment should fail loudly, not silently fall back.
    """

    def parse(env: str | None) -> str:
        value = (env or "thread").strip().lower()
        if value not in BACKENDS:
            raise ValueError(
                f"REPRO_BACKEND must be one of {BACKENDS}, got {env!r}")
        return value

    return _env_cached("REPRO_BACKEND", parse)


def default_chunk_items() -> int:
    """Walker-chunk grain from ``REPRO_CHUNK_ITEMS`` env var.

    Defaults to :data:`DEFAULT_CHUNK_ITEMS`.  Lets deployments tune the
    process backend's chunk size (e.g. when the multi-core speedup gate
    is marginal on a given host) without code edits.  **Chunk layout is
    part of the result for a fixed seed** — it decides the per-chunk
    RNG streams — so this is a solver-level knob on par with
    ``SolverOptions.chunk_items`` (which takes precedence), and an
    unparseable or non-positive value raises :class:`ValueError` rather
    than silently changing the layout.
    """

    def parse(env: str | None) -> int:
        if not env:
            return DEFAULT_CHUNK_ITEMS
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"REPRO_CHUNK_ITEMS must be a positive integer, "
                f"got {env!r}")
        return value

    return _env_cached("REPRO_CHUNK_ITEMS", parse)


#: Default number of *re*-dispatches after a transient chunk failure
#: (so ``DEFAULT_RETRIES + 1`` total attempts).
DEFAULT_RETRIES = 2


def default_retries() -> int:
    """Transient-failure retry budget from ``REPRO_RETRIES``.

    Defaults to :data:`DEFAULT_RETRIES`; must be a non-negative
    integer (``0`` disables re-dispatch entirely).
    """

    def parse(env: str | None) -> int:
        if not env:
            return DEFAULT_RETRIES
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(
                f"REPRO_RETRIES must be a non-negative integer, "
                f"got {env!r}")
        return value

    return _env_cached("REPRO_RETRIES", parse)


def default_chunk_timeout() -> float | None:
    """Per-chunk lease timeout (seconds) from ``REPRO_CHUNK_TIMEOUT``.

    ``None`` (the default, when unset or empty) disables lease expiry.
    When set, the process backend treats a chunk leased to one worker
    for longer than this as a hung worker: the lease expires, that
    worker alone is replaced in place, and the chunk re-dispatches
    under the retry budget.
    """

    def parse(env: str | None) -> float | None:
        if not env or not env.strip():
            return None
        try:
            value = float(env)
        except ValueError:
            value = 0.0
        if value <= 0:
            raise ValueError(
                f"REPRO_CHUNK_TIMEOUT must be a positive number of "
                f"seconds, got {env!r}")
        return value

    return _env_cached("REPRO_CHUNK_TIMEOUT", parse)


def default_degrade() -> bool:
    """Backend-degradation gate from ``REPRO_DEGRADE`` (default off).

    Off by default so tests (and anything that *wants* to observe
    failures) see :class:`~repro.errors.ExecutionError` after retry
    exhaustion; the CLI turns it on so interactive solves survive.
    """

    def parse(env: str | None) -> bool:
        value = (env or "").strip().lower()
        if value in ("", "0", "false", "no", "off"):
            return False
        if value in ("1", "true", "yes", "on"):
            return True
        raise ValueError(
            f"REPRO_DEGRADE must be a boolean (0/1/true/false), "
            f"got {env!r}")

    return _env_cached("REPRO_DEGRADE", parse)


def default_ship_solves() -> bool:
    """Shipped-solve gate from ``REPRO_SHIP_SOLVES`` (default off).

    When on, the blocked column solves (Richardson/PCG/Chebyshev) run
    as picklable payload + pure task through :meth:`run_shipped` —
    crossing the process boundary under the process backend — instead
    of dispatching closures onto the thread pool.
    Results are bit-identical either way (that is what the backend
    matrix asserts); the knob only moves where the work runs.
    ``SolverOptions.ship_solves`` takes precedence when set.
    """

    def parse(env: str | None) -> bool:
        value = (env or "").strip().lower()
        if value in ("", "0", "false", "no", "off"):
            return False
        if value in ("1", "true", "yes", "on"):
            return True
        raise ValueError(
            f"REPRO_SHIP_SOLVES must be a boolean (0/1/true/false), "
            f"got {env!r}")

    return _env_cached("REPRO_SHIP_SOLVES", parse)


def default_coalesce() -> bool:
    """Emitted-edge coalescing gate from ``REPRO_COALESCE`` (default
    off).

    When on, the elimination loops' incremental walk store merges each
    round's emitted parallel edges per ``{u, v}`` pair (and folds them
    into previously coalesced live slots), shrinking heavy-row degrees,
    alias-plane rebuild cost, and peak edge memory (DESIGN.md §11).
    The Laplacian is preserved exactly; walk realisations change
    *distributionally* (per flag setting results stay bit-deterministic
    across backends and worker counts).  ``SolverOptions.
    coalesce_emitted`` takes precedence when set; the seed baseline
    (:mod:`repro.baselines.seed_hotpath`) never builds the store.
    """

    def parse(env: str | None) -> bool:
        value = (env or "").strip().lower()
        if value in ("", "0", "false", "no", "off"):
            return False
        if value in ("1", "true", "yes", "on"):
            return True
        raise ValueError(
            f"REPRO_COALESCE must be a boolean (0/1/true/false), "
            f"got {env!r}")

    return _env_cached("REPRO_COALESCE", parse)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-dispatch policy for transient chunk failures.

    Parameters
    ----------
    max_attempts:
        Total dispatch attempts per chunk (first try + retries).
    base_delay:
        Backoff before retry round ``r`` is ``base_delay * 2**(r-1)``
        seconds — exponential, per round (not per chunk).
    timeout:
        Lease timeout in seconds for the process backend: a chunk
        leased to one worker for longer than this expires, that
        worker is replaced in place, and the chunk is re-dispatched.
        ``None`` disables lease expiry.

    Transient failures are worker deaths and wire failures
    (:class:`~repro.errors.TransportError`), lease timeouts, and
    injected faults
    (:class:`repro.pram.faults.InjectedFault`).  Everything else — a
    task raising ``ValueError``, say — is deterministic and propagates
    unchanged on the first attempt.  Because chunk layout and RNG
    streams are functions of problem size only (DESIGN.md §6), a
    re-dispatched chunk is bit-identical to what the lost attempt
    would have produced, so retries never change results.
    """

    max_attempts: int = DEFAULT_RETRIES + 1
    base_delay: float = 0.05
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be None or positive")

    def delay(self, retry_round: int) -> float:
        """Backoff before retry round ``retry_round`` (1-based)."""
        return self.base_delay * (2.0 ** max(0, retry_round - 1))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy from ``REPRO_RETRIES``/``REPRO_CHUNK_TIMEOUT``."""
        return cls(max_attempts=default_retries() + 1,
                   timeout=default_chunk_timeout())


def _is_transient(exc: BaseException) -> bool:
    """Is ``exc`` a transient failure the retry policy may re-dispatch?"""
    from repro.pram.faults import InjectedFault

    return isinstance(exc, (InjectedFault, TimeoutError, TransportError))


def chunk_ranges(n: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``chunks`` contiguous ``(lo, hi)`` pieces.

    The pieces differ in size by at most one and cover the range exactly;
    empty pieces are omitted (so fewer than ``chunks`` pairs may return).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    chunks = min(chunks, max(n, 1))
    base, extra = divmod(n, chunks)
    out: list[tuple[int, int]] = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


def parallel_map(fn: Callable[[T], R],
                 items: Sequence[T],
                 workers: int | None = None) -> list[R]:
    """Map ``fn`` over ``items``, optionally with a thread pool.

    Results preserve input order.  With ``workers`` ``None`` or ≤ 1 the
    map runs serially in the calling thread (no pool overhead).

    The pool is deliberately *transient* (unlike the persistent worker
    pools below): keeping idle worker threads alive between dispatches
    would mean the process backend's ``fork`` (at pool start or when a
    dead worker is replaced) happens in a threaded parent — CPython's
    fork-with-threads hazard.  Tearing the pool down per call
    guarantees a thread-free fork whenever backends are mixed in one
    session, at ~tens of µs per dispatch.
    """
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_column_chunks(ctx: "ExecutionContext", b: np.ndarray,
                      run_block: Callable[..., R],
                      cols: Sequence[np.ndarray | float | None] = (),
                      col_ids: np.ndarray | None = None
                      ) -> list[R] | None:
    """Shared broadcast–slice–dispatch for column-blocked solves.

    The blocked iterative kernels (Richardson, PCG, Chebyshev) all
    chunk an ``(n, k)`` right-hand-side block the same way: split the
    ``k`` columns into the context's size-determined (hence worker- and
    backend-independent) column chunks, broadcast every per-column
    parameter (scalar, length-``k`` array, or ``None``) to a ``(k,)``
    vector, slice block and parameters per chunk, and run the chunks on
    the context's pool.  This helper is that shared mechanics;
    result-type-specific merging (hstack of solutions, max of iteration
    counts, ...) stays with each caller.

    Every chunk additionally receives its slice of ``col_ids`` — the
    global right-hand-side column index of each local column (defaults
    to ``arange(k)``) — as the final positional argument, so breakdown
    quarantine and ``nan:col=N`` fault directives keep addressing
    columns by their caller-visible index inside a chunk.

    Returns the per-chunk ``run_block(b_chunk, *col_chunks, ids_chunk)``
    results in column order, or ``None`` when the layout is a single
    chunk — callers fall through to their unchunked path (avoiding the
    pool and sub-ledger overhead for small blocks).
    """
    k = b.shape[1]
    pieces = ctx.column_chunks(k)
    if len(pieces) <= 1:
        return None
    bc = [None if c is None
          else np.broadcast_to(np.asarray(c, dtype=np.float64), (k,)).copy()
          for c in cols]
    ids = np.arange(k, dtype=np.int64) if col_ids is None \
        else np.asarray(col_ids, dtype=np.int64)

    def one(lo: int, hi: int) -> R:
        return run_block(b[:, lo:hi],
                         *[None if c is None else c[lo:hi] for c in bc],
                         ids[lo:hi])

    return ctx.run_chunks(one, pieces, scope="columns")


# -- shared-memory payloads ---------------------------------------------------

#: Byte alignment of each array inside a payload segment (cache line).
_SHM_ALIGN = 64

#: Segments created by this process that are not yet unlinked.  The
#: dispatch sites close entries in a ``finally``; the ``atexit`` hook
#: below sweeps whatever a crash left behind.
_live_segments: dict[str, object] = {}

_segment_counter = itertools.count()


def _fresh_segment_name() -> str:
    # Short (macOS caps shm names at 31 chars) and unique per process.
    return f"repro-{os.getpid()}-{next(_segment_counter)}"


def live_segment_names() -> tuple[str, ...]:
    """Names of shared-memory segments this process currently owns.

    Empty whenever no shipped dispatch is in flight — the cleanup tests
    assert exactly that after solver teardown.
    """
    return tuple(_live_segments)


@atexit.register
def _cleanup_segments() -> None:  # pragma: no cover - crash path
    for shm in list(_live_segments.values()):
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
    _live_segments.clear()


class SharedPayload:
    """A dict of immutable arrays that worker processes can read.

    Holds the host arrays and publishes them lazily: :meth:`publish`
    copies every array into one aligned shared-memory segment on first
    use — and again if the segment was torn down in between (e.g. by
    the ``atexit`` sweep) — and returns the tiny picklable spec
    (segment name + per-array dtype/shape/offset) workers attach from.
    The in-band (tcp) transport never publishes; it ships
    :attr:`arrays` keyed on :meth:`fingerprint` instead.

    One class serves both lifetimes.  A per-dispatch payload is closed
    in the dispatch's ``finally``; the solver's chain payload
    (DESIGN.md §10) lives as long as its :class:`SolveShipment`, so it
    is published once, attached once per worker, and reused by every
    shipped solve.  The creating process owns the segment:
    :meth:`close` (idempotent, also run on GC) closes **and unlinks**
    it, and the module-level registry plus ``atexit`` hook make the
    unlink crash-safe.  Workers only ever attach and close.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        self.arrays = dict(arrays)
        self._shm = None
        self._spec: tuple | None = None
        self._fingerprint: str | None = None

    def publish(self) -> tuple:
        """The live segment's spec, publishing (or re-publishing) on
        demand."""
        if self._shm is None or self._shm.name not in _live_segments:
            self._publish()
        return self._spec

    def _publish(self) -> None:
        from multiprocessing import shared_memory

        fields: list[tuple[str, str, tuple[int, ...], int]] = []
        prepared: list[tuple[np.ndarray, int]] = []
        offset = 0
        for key, arr in self.arrays.items():
            a = np.ascontiguousarray(arr)
            offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
            fields.append((key, a.dtype.str, a.shape, offset))
            prepared.append((a, offset))
            offset += a.nbytes
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(offset, 1),
                    name=_fresh_segment_name())
                break
            except FileExistsError:
                # A hard-killed earlier run with a recycled pid left a
                # stale segment under this name; the counter advances
                # every attempt, so skipping to the next name converges.
                continue
        _live_segments[shm.name] = shm
        for a, off in prepared:
            if a.nbytes:
                view = np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf,
                                  offset=off)
                view[...] = a
        self._shm = shm
        self._spec = (shm.name, tuple(fields))

    def fingerprint(self) -> str:
        """Content hash of the arrays (cached; the in-band transport's
        attach-once cache key — DESIGN.md §13)."""
        if self._fingerprint is None:
            from repro.pram.transport import payload_fingerprint

            self._fingerprint = payload_fingerprint(self.arrays)
        return self._fingerprint

    @property
    def nbytes(self) -> int:
        """Host-side bytes of the arrays (segment-size proxy)."""
        return sum(int(np.asarray(a).nbytes)
                   for a in self.arrays.values())

    def close(self) -> None:
        """Close and unlink the segment if published (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None or _live_segments.pop(shm.name, None) is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass


# Worker-side attachment cache: segment name → (SharedMemory, arrays).
# Segment names are never reused, so a cache hit can only come from a
# payload that is still the *current* one for its role.  Two roles
# coexist since shipped solves landed: the per-dispatch payload (RHS
# block and column params, fresh each dispatch) and the solver's
# persistent chain payload (attached once, reused across every solve
# dispatch).  Two slots hold exactly one of each — the worker touches
# the chain payload last on every chunk, so it stays most recently used
# and LRU eviction always reclaims the previous dispatch's payload,
# never the chain.  Keeping
# the bound tight matters because an unlinked segment's pages are freed
# only when the last mapping closes: a larger cache would pin that many
# dead payloads in every worker's RSS.
_attached: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACH_CACHE = 2


def _attach_payload(spec: tuple) -> dict[str, np.ndarray]:
    """Attach (or reuse) a payload segment and rebuild its array views."""
    from multiprocessing import shared_memory

    name, fields = spec
    hit = _attached.get(name)
    if hit is not None:
        _attached.move_to_end(name)
        return hit[1]
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13 has no ``track`` parameter: attaching would
        # enrol the segment with the resource tracker a second time,
        # and the tracker would see one more unregister than register
        # once the parent unlinks.  The parent owns the lifecycle, so
        # suppress the worker-side registration entirely.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = (
            lambda rname, rtype: None if rtype == "shared_memory"
            else original(rname, rtype))
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    arrays: dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype),
                          buffer=shm.buf, offset=offset)
        view.setflags(write=False)
        arrays[key] = view
    _attached[name] = (shm, arrays)
    while len(_attached) > _ATTACH_CACHE:
        _, (old_shm, old_arrays) = _attached.popitem(last=False)
        old_arrays.clear()
        try:
            old_shm.close()
        except BufferError:  # pragma: no cover - a view escaped; keep
            pass             # the mapping alive until process exit
    return arrays


# -- worker-process entry -----------------------------------------------------


def _execute_shipped_chunk(arrays_or_fn, task, meta, lo, hi, seed_seq,
                           bitgen_cls, want_ledger, fault_directives=(),
                           chunk=0, attempt=0):
    """Transport-agnostic core of one shipped chunk.

    Rebuilds the chunk's RNG stream from its spawned seed sequence
    (identical to the in-process child stream) and hands the task an
    explicit fresh sub-ledger — the task installs it only around the
    work that the in-process path would have charged, so ledger totals
    stay backend-invariant.  Exceptions are returned, not raised, so
    every chunk runs and the parent re-raises deterministically.

    ``arrays_or_fn`` is either the resolved array dict or a zero-arg
    callable producing it — the callable runs *inside* the try, so
    payload-resolution failures (a vanished shm segment, a poisoned
    in-band payload) settle as ordinary failure triples the retry
    machinery can re-dispatch.

    ``fault_directives`` (pre-filtered kill/hang directives from an
    active :class:`repro.pram.faults.FaultPlan`) are applied before the
    payload resolves: a matching ``kill`` exits this process hard, a
    ``hang`` stalls it — both of which the parent's retry machinery
    must survive.
    """
    from repro.pram.ledger import WorkDepthLedger, detach_ledger

    # A fork start method may have copied the parent's ambient ledger
    # contextvar into this process — detach it so setup work (sampler
    # rebuilds, array reconstruction) charges nothing anywhere.
    detach_ledger()
    stream = None
    if seed_seq is not None:
        stream = np.random.Generator(bitgen_cls(seed_seq))
    ledger = WorkDepthLedger() if want_ledger else None
    try:
        if fault_directives:
            from repro.pram.faults import apply_worker_faults

            apply_worker_faults(fault_directives, chunk=chunk,
                                attempt=attempt)
        arrays = arrays_or_fn() if callable(arrays_or_fn) \
            else arrays_or_fn
        return True, task(arrays, meta, lo, hi, stream, ledger), ledger
    except Exception as exc:
        return False, exc, ledger


def _run_shipped_inprocess(task, arrays, meta, pieces, seed_seqs,
                           bitgen_cls, want_ledger, workers,
                           backend_name="serial", policy=None,
                           scope=None, log=None, shared=None):
    """Shared in-process realisation of the shipped-task protocol.

    Used by the serial and thread backends: same task signature, same
    explicit sub-ledgers, same per-chunk streams as the process
    backend — only the transport (direct references vs worker
    processes) differs, so results and ledger totals cannot.

    Transient failures (injected faults — in-process chunks cannot
    genuinely crash a worker) are retried under ``policy`` with a
    fresh sub-ledger per attempt, so only the successful attempt's
    charges survive and ledger totals stay fault-invariant.  A chunk
    that exhausts its attempts settles as a
    :class:`~repro.errors.ExecutionError` triple.
    """
    from repro.pram import faults as _faults
    from repro.pram.ledger import WorkDepthLedger

    plan = _faults.active_plan()
    if shared is not None:
        # In-process there is no boundary to cross: hand the task the
        # shared payload's host arrays directly (dispatch keys win,
        # mirroring the worker-side merge).
        arrays = {**shared.arrays, **arrays}

    def one(i: int, attempt: int = 0):
        lo, hi = pieces[i]
        stream = None
        if seed_seqs[i] is not None:
            stream = np.random.Generator(bitgen_cls(seed_seqs[i]))
        ledger = WorkDepthLedger() if want_ledger else None
        try:
            if plan is not None:
                _faults.apply_chunk_faults(plan, chunk=i, attempt=attempt,
                                           backend=backend_name,
                                           phase=scope, log=log)
            return True, task(arrays, meta, lo, hi, stream, ledger), ledger
        except Exception as exc:
            return False, exc, ledger

    results = parallel_map(one, range(len(pieces)), workers=workers)
    max_attempts = policy.max_attempts if policy is not None else 1
    for retry_round in range(1, max_attempts):
        failed = [i for i, (ok, val, _) in enumerate(results)
                  if not ok and _is_transient(val)]
        if not failed:
            break
        if log is not None:
            for i in failed:
                log.record("retry", chunk=i, attempt=retry_round,
                           backend=backend_name,
                           detail=repr(results[i][1]))
        time.sleep(policy.delay(retry_round))
        redo = parallel_map(lambda i: one(i, retry_round), failed,
                            workers=workers)
        for i, triple in zip(failed, redo):
            results[i] = triple
    for i, (ok, val, _) in enumerate(results):
        if not ok and _is_transient(val):
            if log is not None:
                log.record("exhausted", chunk=i, attempt=max_attempts,
                           backend=backend_name, detail=repr(val))
            results[i] = (False, ExecutionError(
                f"chunk {i} failed after {max_attempts} attempt(s) "
                f"on the {backend_name} backend",
                chunk=i, attempts=max_attempts, cause=val), None)
    return results


# -- persistent worker pools (DESIGN.md §13) ----------------------------------

_worker_pools: dict[int, "TransportPool"] = {}


def _worker_pool(workers: int) -> "TransportPool":
    """A persistent transport pool per worker count, verified at checkout.

    Two liveness/coherence checks keep a cached pool from rotting:

    * a pool whose transport config (heartbeat interval, ACK timeout,
      session key) no longer matches the environment is torn down and
      rebuilt, so tests and operators changing ``REPRO_HEARTBEAT_S`` /
      ``REPRO_TRANSPORT_KEY`` get a coherent fleet without a restart;
    * otherwise :meth:`TransportPool.ensure_capacity` retires dead
      workers and tops the pool back up to its size.
    """
    from repro.pram import transport as _transport

    pool = _worker_pools.get(workers)
    if pool is not None:
        env_key = _transport.default_transport_key()
        want = (_transport.default_heartbeat_s(),
                _transport.default_ack_timeout(),
                env_key if env_key is not None else pool.config[2])
        if pool.config != want:
            _worker_pools.pop(workers, None)
            pool.shutdown(terminate=True)
            pool = None
        else:
            pool.ensure_capacity()
    if pool is None:
        pool = _transport.TransportPool(workers)
        _worker_pools[workers] = pool
    return pool


def shutdown_worker_pools(terminate: bool = False) -> None:
    """Drain and discard every cached worker pool.

    ``terminate=False`` is the graceful path: workers receive a stop
    message and are joined; stragglers are terminated.  Benchmarks and
    tests call this to prove teardown reaps every worker process.
    """
    pools = list(_worker_pools.values())
    _worker_pools.clear()
    for pool in pools:
        try:
            pool.shutdown(terminate=terminate)
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def live_worker_pids() -> tuple[int, ...]:
    """PIDs of all live workers across the cached pools (empty after
    :func:`shutdown_worker_pools` — the teardown gate benchmarks
    assert)."""
    pids: list[int] = []
    for pool in _worker_pools.values():
        pids.extend(pool.alive_pids())
    return tuple(pids)


@atexit.register
def _shutdown_worker_pools() -> None:  # pragma: no cover - interpreter exit
    shutdown_worker_pools(terminate=True)


# -- backends -----------------------------------------------------------------


class ExecutionBackend:
    """Where a fixed chunk layout actually runs.

    Backends are pure *schedulers*: they receive chunk boundaries, RNG
    seed keys, and an array payload, and return the per-chunk
    ``(ok, result_or_exc, subledger)`` triples in chunk order.  They
    must not influence chunk layout, stream assignment, or charge
    attribution — that is what keeps results bit-identical across
    ``{serial, thread, process}``.

    The one entry point, :meth:`run_shipped`, runs a *module-level*
    task function over a dict of immutable arrays — the form that can
    cross a process boundary (the task is pickled by reference, the
    arrays travel once per dispatch, and each chunk job pickles only
    ``(chunk bounds, seed key)``).  Closure dispatches never reach a
    backend: :meth:`ExecutionContext.run_chunks` runs them in-process.
    """

    name: str = "abstract"

    def run_shipped(self, task, arrays, meta, pieces, seed_seqs,
                    bitgen_cls, want_ledger, workers, policy=None,
                    scope=None, log=None, shared=None) -> list:
        """Run a shippable task; ``(ok, value, ledger)`` per chunk.

        ``policy`` is the :class:`RetryPolicy` governing transient
        failures, ``scope`` labels the dispatch for fault-plan
        matching (``"walk"``/``"columns"``/``"solve"``), ``log`` is an
        optional :class:`repro.pram.faults.FaultLog` that receives
        every recovery action, and ``shared`` is an optional
        :class:`SharedPayload` whose arrays are merged under the
        dispatch payload (the solver's chain payload, published once
        per solver rather than once per dispatch).
        """
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Run every chunk in the calling thread — the reference semantics
    all other backends must reproduce bit-for-bit."""

    name = "serial"

    def run_shipped(self, task, arrays, meta, pieces, seed_seqs,
                    bitgen_cls, want_ledger, workers, policy=None,
                    scope=None, log=None, shared=None):
        """Run the shipped-task protocol sequentially in-process."""
        return _run_shipped_inprocess(task, arrays, meta, pieces,
                                      seed_seqs, bitgen_cls, want_ledger,
                                      workers=1, backend_name=self.name,
                                      policy=policy, scope=scope, log=log,
                                      shared=shared)


class ThreadPoolBackend(ExecutionBackend):
    """Thread-pool scheduling (the PR-3 behaviour): genuine concurrency
    for chunks whose numpy kernels release the GIL."""

    name = "thread"

    def run_shipped(self, task, arrays, meta, pieces, seed_seqs,
                    bitgen_cls, want_ledger, workers, policy=None,
                    scope=None, log=None, shared=None):
        """Run the shipped-task protocol on the thread pool."""
        return _run_shipped_inprocess(task, arrays, meta, pieces,
                                      seed_seqs, bitgen_cls, want_ledger,
                                      workers=workers,
                                      backend_name=self.name,
                                      policy=policy, scope=scope, log=log,
                                      shared=shared)


class ProcessBackend(ExecutionBackend):
    """Worker processes under lease scheduling (DESIGN.md §7, §13).

    Jobs travel over authenticated, checksummed, heartbeat-monitored
    connections to a persistent :class:`~repro.pram.transport.
    TransportPool`, one chunk leased to one worker at a time: a worker
    death — or a lease held past the policy's ``timeout`` — expires
    only that lease, whose chunk re-queues while a **replacement
    worker** is spawned in place; the pool is never torn down
    mid-round.

    Payloads ship per ``REPRO_TRANSPORT``: ``shm`` (default) publishes
    one shared-memory segment per payload (same-host fast path),
    ``tcp`` ships the arrays in-band as chunked frames against a
    worker-side attach-once cache keyed on content fingerprints — no
    ``/dev/shm`` assumption, and bit-identical results either way.
    """

    name = "process"

    def run_shipped(self, task, arrays, meta, pieces, seed_seqs,
                    bitgen_cls, want_ledger, workers, policy=None,
                    scope=None, log=None, shared=None):
        """Dispatch the chunks under worker leases, surviving deaths,
        stalls, and wire faults via deterministic re-dispatch."""
        from repro.pram import faults as _faults
        from repro.pram import transport as _transport

        plan = _faults.active_plan()
        job_directives = () if plan is None else (
            plan.chunk_directives(backend=self.name, phase=scope)
            + plan.transport_directives())
        frame_directives = () if plan is None else \
            plan.frame_directives()
        tcp = _transport.default_transport() == "tcp"
        payload = SharedPayload(arrays)
        inband: dict[str, dict] = {}

        def ref(p: SharedPayload | None) -> tuple | None:
            if p is None:
                return None
            if tcp:
                inband[p.fingerprint()] = p.arrays
                return ("tcp", p.fingerprint())
            return ("shm", p.publish())

        try:
            # The caller owns ``shared``: publish it if needed, never
            # close it here.
            refs = (ref(payload), ref(shared))

            def make_args(i: int, attempt: int) -> tuple:
                lo, hi = pieces[i]
                return (*refs, task, meta, lo, hi, seed_seqs[i],
                        bitgen_cls, want_ledger, job_directives, i,
                        attempt)

            return _worker_pool(max(1, workers)).run_tasks(
                len(pieces), make_args, refs, inband, policy=policy,
                log=log, frame_directives=frame_directives,
                backend_name=self.name)
        finally:
            payload.close()


_BACKENDS: dict[str, ExecutionBackend] = {
    "serial": SerialBackend(),
    "thread": ThreadPoolBackend(),
    "process": ProcessBackend(),
}


def get_backend(name: str) -> ExecutionBackend:
    """The shared singleton backend instance for ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {BACKENDS}") from None


@dataclass(frozen=True)
class ExecutionContext:
    """Parallel-dispatch policy threaded through the solver stack.

    Parameters
    ----------
    workers:
        Worker count (threads or processes, per ``backend``).  ``None``
        (default) consults :func:`default_workers` lazily *at each
        dispatch*, so changing ``REPRO_WORKERS`` mid-session (or
        monkeypatching it in a test) takes effect immediately.  The
        worker count never influences results — only wall-clock.
    backend:
        ``"serial"``, ``"thread"``, or ``"process"`` — see
        :class:`ExecutionBackend`.  ``None`` (default) consults the
        ``REPRO_BACKEND`` env var lazily
        (default ``"thread"``).  Like ``workers``, the backend never
        influences results.
    chunk_items:
        Target work items (walkers) per chunk for :meth:`item_chunks`.
        ``None`` (default) consults the ``REPRO_CHUNK_ITEMS`` env var
        lazily (default :data:`DEFAULT_CHUNK_ITEMS`) — see
        :func:`default_chunk_items`; an explicit value wins.
    chunk_columns:
        Target right-hand-side columns per chunk for
        :meth:`column_chunks`.
    max_chunks:
        Cap on the number of chunks per dispatch.
    retry:
        :class:`RetryPolicy` for transient chunk failures.  ``None``
        (default) builds one lazily from ``REPRO_RETRIES`` /
        ``REPRO_CHUNK_TIMEOUT`` at each dispatch.  Retries never
        influence results — a re-dispatched chunk is bit-identical.
    degrade:
        Whether retry-exhausted chunks fall back to a weaker backend
        (process→thread→serial) instead of raising
        :class:`~repro.errors.ExecutionError`.  ``None`` (default)
        consults ``REPRO_DEGRADE`` lazily (default off — tests want to
        *see* failures; the CLI turns it on).

    The three chunk-policy fields fully determine chunk boundaries from
    the problem size alone — see the module docstring for the
    determinism contract.
    """

    workers: int | None = None
    backend: str | None = None
    chunk_items: int | None = None
    chunk_columns: int = DEFAULT_CHUNK_COLUMNS
    max_chunks: int = MAX_CHUNKS
    retry: "RetryPolicy | None" = None
    degrade: bool | None = None

    def __post_init__(self) -> None:
        if (self.chunk_items is not None and self.chunk_items < 1) \
                or self.chunk_columns < 1 or self.max_chunks < 1:
            raise ValueError("chunk policy values must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be None or >= 1")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be None or one of {BACKENDS}, "
                f"got {self.backend!r}")
        if self.retry is not None and not isinstance(self.retry,
                                                     RetryPolicy):
            raise ValueError("retry must be None or a RetryPolicy")

    # -- worker/backend resolution --------------------------------------------

    def resolve_workers(self) -> int:
        """The worker count to use *right now* (lazy env consultation)."""
        if self.workers is not None:
            return self.workers
        return default_workers()

    def resolve_backend(self) -> str:
        """The backend name to use *right now* (lazy env consultation)."""
        if self.backend is not None:
            return self.backend
        return default_backend()

    def resolve_retry(self) -> "RetryPolicy":
        """The retry policy to use *right now* (lazy env consultation)."""
        if self.retry is not None:
            return self.retry
        return RetryPolicy.from_env()

    def resolve_degrade(self) -> bool:
        """Whether backend degradation is enabled *right now*."""
        if self.degrade is not None:
            return self.degrade
        return default_degrade()

    # -- deterministic chunk layout ------------------------------------------

    def _chunk_count(self, n: int, grain: int) -> int:
        if n <= 0:
            return 1
        return max(1, min(self.max_chunks, math.ceil(n / grain)))

    def resolve_chunk_items(self) -> int:
        """The item-chunk grain to use *right now* (lazy env lookup)."""
        if self.chunk_items is not None:
            return self.chunk_items
        return default_chunk_items()

    def item_chunks(self, n: int) -> list[tuple[int, int]]:
        """Chunk ``range(n)`` work items; layout depends only on ``n``
        and the chunk policy (explicit ``chunk_items`` or the
        ``REPRO_CHUNK_ITEMS`` env default)."""
        return chunk_ranges(n, self._chunk_count(n,
                                                 self.resolve_chunk_items()))

    def column_chunks(self, k: int) -> list[tuple[int, int]]:
        """Chunk ``k`` RHS columns; layout depends only on ``k``."""
        return chunk_ranges(k, self._chunk_count(k, self.chunk_columns))

    # -- dispatch ------------------------------------------------------------

    def _map_workers(self) -> int:
        return 1 if self.resolve_backend() == "serial" \
            else self.resolve_workers()

    def run_chunks(self,
                   fn: Callable[..., R],
                   pieces: Sequence[tuple[int, int]],
                   rng: np.random.Generator | None = None,
                   scope: str | None = None) -> list[R]:
        """Run ``fn(lo, hi[, stream])`` over ``pieces``, in parallel.

        ``pieces`` must come from :meth:`item_chunks` /
        :meth:`column_chunks` (or any layout derived from problem size
        only).  When ``rng`` is given, one independent child stream is
        spawned per piece — in piece order — and passed as the third
        argument; the parent generator's bit stream is not consumed.

        Ledger charges made inside each chunk are collected in private
        sub-ledgers and joined into the ambient ledger as a fork/join
        region (works add, depths max), so ledger totals are identical
        whether the chunks ran on one thread or many.  A raising chunk
        does not short-circuit the others: every chunk runs (and
        charges) regardless of worker count, then the lowest-index
        chunk's exception is re-raised — keeping both the ledger totals
        and the surfaced error deterministic.

        Transient failures (injected faults — see
        :mod:`repro.pram.faults`) are retried under
        :meth:`resolve_retry` with a fresh sub-ledger per attempt, so
        only the surviving attempt charges and both results and ledger
        totals stay fault-invariant.  ``scope`` labels the dispatch
        (``"walk"``/``"columns"``) for fault-directive ``phase=``
        matching.

        ``fn`` may be any in-process callable (closures welcome); use
        :meth:`run_shipped` for chunk work that should cross the
        process boundary under the process backend.
        """
        from repro.pram import faults as _faults
        from repro.pram.ledger import current_ledger, use_ledger

        streams: Sequence[np.random.Generator | None]
        if rng is not None:
            streams = rng.spawn(len(pieces))
        else:
            streams = [None] * len(pieces)

        parent = current_ledger()
        backend_name = self.resolve_backend()
        plan = _faults.active_plan()
        log = _faults.current_fault_log()

        def one(i: int, attempt: int = 0):
            lo, hi = pieces[i]
            args = (lo, hi) if streams[i] is None else (lo, hi, streams[i])
            sub = parent.__class__() if parent is not None else None
            try:
                if plan is not None:
                    _faults.apply_chunk_faults(plan, chunk=i,
                                               attempt=attempt,
                                               backend=backend_name,
                                               phase=scope, log=log)
                if sub is None:
                    return True, fn(*args), None
                with use_ledger(sub):
                    return True, fn(*args), sub
            except BaseException as exc:  # re-raised after the join
                return False, exc, sub

        triples = parallel_map(one, range(len(pieces)),
                               workers=self._map_workers())
        if plan is not None:
            policy = self.resolve_retry()
            for retry_round in range(1, policy.max_attempts):
                failed = [i for i, (ok, val, _) in enumerate(triples)
                          if not ok and _is_transient(val)]
                if not failed:
                    break
                if log is not None:
                    for i in failed:
                        log.record("retry", chunk=i, attempt=retry_round,
                                   backend=backend_name,
                                   detail=repr(triples[i][1]))
                time.sleep(policy.delay(retry_round))
                redo = parallel_map(lambda i: one(i, retry_round), failed,
                                    workers=self._map_workers())
                for i, triple in zip(failed, redo):
                    triples[i] = triple
            for i, (ok, val, _) in enumerate(triples):
                if not ok and _is_transient(val):
                    if log is not None:
                        log.record("exhausted", chunk=i,
                                   attempt=policy.max_attempts,
                                   backend=backend_name, detail=repr(val))
                    triples[i] = (False, ExecutionError(
                        f"chunk {i} failed after {policy.max_attempts} "
                        f"attempt(s) on the {backend_name} backend",
                        chunk=i, attempts=policy.max_attempts,
                        cause=val), None)
        if parent is not None:
            subs = [sub for _, _, sub in triples if sub is not None]
            if subs:
                parent.absorb_parallel(subs)
        for ok, val, _ in triples:
            if not ok:
                raise val
        return [val for _, val, _ in triples]

    def run_shipped(self,
                    task: Callable[..., R],
                    arrays: dict[str, np.ndarray],
                    meta: dict,
                    pieces: Sequence[tuple[int, int]],
                    rng: np.random.Generator | None = None,
                    scope: str | None = None,
                    shared: "SharedPayload | None" = None) -> list[R]:
        """Run a shippable ``task`` over ``pieces`` on this backend.

        ``task`` must be a **module-level** function (pickled by
        reference under the process backend) with signature
        ``task(arrays, meta, lo, hi, stream, ledger)``:

        * ``arrays`` — the payload dict, reconstructed worker-side as
          read-only views over one shared-memory segment (or unpickled
          from in-band frames; direct references in-process);
        * ``meta`` — small picklable scalars;
        * ``stream`` — the chunk's spawned RNG stream (``None`` when no
          ``rng`` was given).  Identical to the stream
          :meth:`run_chunks` would have passed: the same
          ``SeedSequence`` child wrapped in the same bit-generator
          type;
        * ``ledger`` — a fresh sub-ledger when the caller had one
          installed, else ``None``.  The task must install it (via
          :func:`repro.pram.use_ledger`) only around the work the
          in-process path charges, keeping totals backend-invariant.

        Semantics mirror :meth:`run_chunks`: results in piece order,
        sub-ledgers joined fork/join into the ambient ledger, every
        chunk runs, and the lowest-index chunk's exception is re-raised
        after the join.

        Transient failures (worker deaths, lease timeouts, injected
        faults) are re-dispatched under :meth:`resolve_retry`; when
        :meth:`resolve_degrade` is on, chunks that exhaust their
        attempts fall back down the backend ladder
        (process→thread→serial) with the **same** seed keys — the
        fallback results are bit-identical, so degradation never
        changes answers, only where they were computed.
        ``scope`` labels the dispatch for fault-plan ``phase=``
        matching, and ``shared`` is an optional
        :class:`SharedPayload` of long-lived arrays (the solver's
        chain payload) merged under the per-dispatch ``arrays`` —
        published once per owner, attached once per worker, never
        torn down by the dispatch.
        """
        from repro.pram import faults as _faults
        from repro.pram.ledger import current_ledger

        backend_name = self.resolve_backend()
        backend = get_backend(backend_name)
        parent = current_ledger()
        policy = self.resolve_retry()
        log = _faults.current_fault_log()
        if rng is not None:
            seed_seqs = rng.bit_generator.seed_seq.spawn(len(pieces))
            bitgen_cls = type(rng.bit_generator)
        else:
            seed_seqs = [None] * len(pieces)
            bitgen_cls = None
        outs = backend.run_shipped(task, arrays, meta, pieces, seed_seqs,
                                   bitgen_cls, parent is not None,
                                   self.resolve_workers(), policy=policy,
                                   scope=scope, log=log, shared=shared)
        if self.resolve_degrade():
            ladder = list(BACKENDS[:BACKENDS.index(backend_name)])[::-1]
            for fallback in ladder:
                failed = [i for i, (ok, val, _) in enumerate(outs)
                          if not ok and isinstance(val, ExecutionError)]
                if not failed:
                    break
                if log is not None:
                    log.record("degrade", backend=fallback,
                               detail=f"chunks {failed} fell back "
                                      f"{backend_name}->{fallback}")
                sub = get_backend(fallback).run_shipped(
                    task, arrays, meta, [pieces[i] for i in failed],
                    [seed_seqs[i] for i in failed], bitgen_cls,
                    parent is not None, self.resolve_workers(),
                    policy=policy, scope=scope, log=log, shared=shared)
                for i, triple in zip(failed, sub):
                    outs[i] = triple
        subs = [sub for _, _, sub in outs if sub is not None]
        if parent is not None and subs:
            parent.absorb_parallel(subs)
        for ok, value, _ in outs:
            if not ok:
                raise value
        return [value for _, value, _ in outs]


#: Shared all-defaults context (lazy ``REPRO_WORKERS``/``REPRO_BACKEND``
#: resolution).
ExecutionContext.DEFAULT = ExecutionContext()


# -- shipped blocked solves (DESIGN.md §10) -----------------------------------


def _solve_chunk_task(arrays, meta, lo, hi, stream, ledger):
    """Shipped blocked-solve chunk: reconstruct, iterate, report.

    The worker-side half of :class:`SolveShipment`.  ``arrays`` merges
    the solver's persistent chain payload (the flat sweep matrix's CSC
    triple, slot map, level shapes, ``final_pinv``, the Laplacian CSR
    triple) with the per-dispatch payload (RHS block, per-column
    parameter vectors, global column ids).  The task rebuilds view-only operators over
    those arrays — :meth:`CholeskyChain.from_payload` plus a CSR
    ``apply_L`` closure with the in-process path's exact ledger charge
    — and runs the requested blocked kernel on its column slice
    ``[lo, hi)``, charging only inside the explicit sub-ledger so
    totals stay backend-invariant.

    Returns ``(kernel_result, fault_events)``: quarantine/injection
    events recorded by the kernel land in a chunk-local
    :class:`~repro.pram.faults.FaultLog` (contextvars do not cross the
    process boundary) and are merged into the caller's ambient log in
    chunk order.
    """
    import scipy.sparse as sp

    from repro.core.apply_cholesky import ApplyCholeskyOperator
    from repro.core.chain import CholeskyChain
    from repro.pram import charge, ledger_active, use_ledger
    from repro.pram import primitives as P
    from repro.pram.faults import FaultLog

    n = int(meta["n"])
    m_edges = int(meta["m_edges"])
    chain = CholeskyChain.from_payload(arrays, meta["chain"])
    precond = ApplyCholeskyOperator(chain)
    L = sp.csr_matrix((arrays["L_data"], arrays["L_indices"],
                       arrays["L_indptr"]), shape=(n, n), copy=False)

    def apply_L(x):
        x = np.asarray(x, dtype=np.float64)
        if ledger_active():
            charge(*P.matvec_cost(m_edges * x.shape[1]),
                   label="apply_laplacian")
        return L @ x

    b = arrays["rhs"][:, lo:hi]
    cols = [None if key is None else arrays[key][lo:hi]
            for key in meta["col_params"]]
    ids = arrays["col_ids"][lo:hi]
    plan = meta["plan"]
    flog = FaultLog()
    params = dict(meta["params"])
    kernel = meta["kernel"]

    def run():
        if kernel == "richardson":
            from repro.core.richardson import _blocked_richardson

            return _blocked_richardson(
                apply_L, precond.apply, b, eps=cols[0],
                col_ids=ids, plan=plan, flog=flog, **params)
        if kernel == "cg":
            from repro.linalg.cg import _blocked_cg

            prec = precond.apply if params.pop("preconditioned") else None
            return _blocked_cg(apply_L, b, tol=cols[0],
                               preconditioner=prec, col_ids=ids,
                               plan=plan, flog=flog, **params)
        if kernel == "chebyshev":
            from repro.linalg.chebyshev import _blocked_chebyshev

            return _blocked_chebyshev(apply_L, precond.apply, b,
                                      tol=cols[0], col_ids=ids,
                                      plan=plan, flog=flog, **params)
        raise ValueError(f"unknown shipped kernel {kernel!r}")

    if ledger is None:
        result = run()
    else:
        with use_ledger(ledger):
            result = run()
    return result, tuple(flog.events)


class SolveShipment:
    """Shipped-solve dispatcher for one solver's blocked column loops.

    Owns the solver's :class:`SharedPayload` (the serialized
    :class:`~repro.core.chain.CholeskyChain` plus Laplacian CSR —
    published once, reused by every dispatch, unlinked on
    :meth:`close`) and turns a blocked kernel call into a
    :meth:`ExecutionContext.run_shipped` dispatch of
    :func:`_solve_chunk_task` over the context's column chunks.  The
    chunk layout, per-column parameter broadcast, and global-id
    slicing are exactly :func:`run_column_chunks`'s, so for a fixed
    seed the shipped results are bit-identical to the threaded
    closure path on every backend × worker count.

    ``ship=None`` defers the on/off decision to ``REPRO_SHIP_SOLVES``
    lazily at each call; an explicit bool wins
    (``SolverOptions.ship_solves``).
    """

    def __init__(self, ctx: ExecutionContext,
                 arrays: dict[str, np.ndarray], meta: dict,
                 ship: bool | None = None) -> None:
        self.ctx = ctx
        self.payload = SharedPayload(arrays)
        self.meta = dict(meta)
        self.ship = ship

    def enabled(self) -> bool:
        """Is shipping on *right now* (lazy env consultation)?"""
        if self.ship is not None:
            return bool(self.ship)
        return default_ship_solves()

    @property
    def nbytes(self) -> int:
        """Bytes of the persistent payload (the per-solver ship cost)."""
        return self.payload.nbytes

    def close(self) -> None:
        """Unlink the chain payload segment (idempotent)."""
        self.payload.close()

    def run(self, kernel: str, b: np.ndarray,
            cols: Sequence[np.ndarray | float | None] = (),
            col_ids: np.ndarray | None = None,
            params: dict | None = None) -> list | None:
        """Dispatch ``kernel`` over the column chunks of ``b``.

        Mirrors :func:`run_column_chunks`: returns the per-chunk
        kernel results in column order, or ``None`` when shipping is
        disabled or the layout is a single chunk — callers fall
        through to their existing (threaded-closure or unchunked)
        path.
        """
        if not self.enabled():
            return None
        k = b.shape[1]
        pieces = self.ctx.column_chunks(k)
        if len(pieces) <= 1:
            return None
        from repro.pram import faults as _faults

        # Resolve the ambient plan/log here, in the calling thread —
        # the plan crosses in ``meta``; worker-side events come back
        # in the task result and are merged below in chunk order.
        plan = _faults.active_plan()
        flog = _faults.current_fault_log()
        bc = [None if c is None
              else np.broadcast_to(np.asarray(c, dtype=np.float64),
                                   (k,)).copy()
              for c in cols]
        ids = np.arange(k, dtype=np.int64) if col_ids is None \
            else np.asarray(col_ids, dtype=np.int64)
        arrays: dict[str, np.ndarray] = {"rhs": b}
        col_keys: list[str | None] = []
        for j, c in enumerate(bc):
            if c is None:
                col_keys.append(None)
            else:
                key = f"colp{j}"
                col_keys.append(key)
                arrays[key] = c
        arrays["col_ids"] = ids
        meta = {**self.meta, "kernel": kernel,
                "params": dict(params or {}),
                "col_params": tuple(col_keys), "plan": plan}
        outs = self.ctx.run_shipped(_solve_chunk_task, arrays, meta,
                                    pieces, scope="solve",
                                    shared=self.payload)
        if flog is not None:
            for _, events in outs:
                flog.events.extend(events)
        return [result for result, _ in outs]
