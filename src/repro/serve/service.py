"""Long-lived solver service: resident chains + micro-batched solves.

:class:`SolverService` is the in-process heart of ``repro serve``
(DESIGN.md §12).  It owns

* a dedicated thread running an asyncio event loop (request plumbing),
* a single-worker solve executor (batched solves and chain builds run
  one at a time, so batch execution order is deterministic),
* a :class:`repro.serve.cache.ChainCache` of resident solvers built
  with ``keep_graphs=False`` (streaming builds: the cache holds the
  solve payload, not the per-level graphs), and
* a :class:`repro.serve.batcher.MicroBatcher` that fuses concurrent
  single-RHS requests into one ``solve_many`` block.

Thread model: callers live anywhere (:meth:`submit` is thread-safe and
returns a ``concurrent.futures.Future``); fault plans are resolved in
the *calling* thread (the same rule the executor's dispatch sites
follow — see :mod:`repro.pram.faults`) and travel with the request, so
a ``use_faults`` block around a submission works even though the solve
happens on the service's thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.config import SolverOptions, default_options, reset_env_caches
from repro.core.solver import (
    DEFAULT_METHOD,
    LaplacianSolver,
    check_solve_inputs,
)
from repro.errors import (
    DimensionMismatchError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graphs.multigraph import MultiGraph
from repro.pram.executor import _env_cached
from repro.pram.faults import FaultLog, active_plan, use_faults
from repro.serve.batcher import (
    MicroBatcher,
    ServeResult,
    default_serve_max_batch,
    default_serve_window_ms,
)
from repro.serve.cache import ChainCache
from repro.serve.keys import solver_cache_key

__all__ = ["SolverService", "GraphSpec", "default_serve_max_pending",
           "default_serve_breaker_fails",
           "default_serve_breaker_cooldown_s"]

_log = logging.getLogger("repro.serve")

#: Default pending-request budget (admission control).
DEFAULT_MAX_PENDING = 256
#: Default consecutive-batch-failure threshold that opens the breaker.
DEFAULT_BREAKER_FAILS = 5
#: Default open-state cooldown before a half-open probe (seconds).
DEFAULT_BREAKER_COOLDOWN_S = 5.0


def default_serve_max_pending() -> int:
    """Pending-request budget from ``REPRO_SERVE_MAX_PENDING`` (≥ 0).

    Requests beyond this many in flight are **shed** with a retriable
    :class:`~repro.errors.ServiceOverloadedError` (HTTP 503 +
    ``Retry-After``) instead of queueing unboundedly.  ``0`` disables
    admission control.
    """

    def parse(env: str | None) -> int:
        if not env or not env.strip():
            return DEFAULT_MAX_PENDING
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            raise ValueError(
                f"REPRO_SERVE_MAX_PENDING must be a non-negative "
                f"integer, got {env!r}")
        return value

    return _env_cached("REPRO_SERVE_MAX_PENDING", parse)


def default_serve_breaker_fails() -> int:
    """Consecutive batch failures that open the circuit breaker
    (``REPRO_SERVE_BREAKER_FAILS``, ≥ 1)."""

    def parse(env: str | None) -> int:
        if not env or not env.strip():
            return DEFAULT_BREAKER_FAILS
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value < 1:
            raise ValueError(
                f"REPRO_SERVE_BREAKER_FAILS must be a positive "
                f"integer, got {env!r}")
        return value

    return _env_cached("REPRO_SERVE_BREAKER_FAILS", parse)


def default_serve_breaker_cooldown_s() -> float:
    """Open-state cooldown before the half-open probe
    (``REPRO_SERVE_BREAKER_COOLDOWN_S``, seconds > 0)."""

    def parse(env: str | None) -> float:
        if not env or not env.strip():
            return DEFAULT_BREAKER_COOLDOWN_S
        try:
            value = float(env)
        except ValueError:
            value = 0.0
        if value <= 0 or not np.isfinite(value):
            raise ValueError(
                f"REPRO_SERVE_BREAKER_COOLDOWN_S must be a positive "
                f"number of seconds, got {env!r}")
        return value

    return _env_cached("REPRO_SERVE_BREAKER_COOLDOWN_S", parse)


class _Breaker:
    """Circuit breaker over the batched-solve path (DESIGN.md §12).

    ``closed`` → normal admission.  After K *consecutive* batch
    failures the breaker **opens**: requests fail fast with
    :class:`~repro.errors.ServiceOverloadedError` instead of queueing
    behind a path that keeps dying.  After the cooldown one **probe**
    request is admitted (``half-open``); its success re-closes the
    breaker, its failure re-opens it for another cooldown.

    A probe admission returns a token the admitting request must hand
    back via :meth:`release_probe` if it dies before reaching the
    batch path (unknown key, bad shape, …) — otherwise the probe slot
    would stay claimed forever and the breaker could never recover.
    The token guards against releasing a *later* request's probe slot.

    Admission runs on the event-loop thread, outcomes land from the
    solve-executor thread — hence the lock.
    """

    def __init__(self, fails: int | None = None,
                 cooldown_s: float | None = None) -> None:
        self._fails = fails
        self._cooldown = cooldown_s
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.opens = 0
        self._opened_at = 0.0
        self._probing = False
        self._probe_token = 0

    def threshold(self) -> int:
        return self._fails if self._fails is not None \
            else default_serve_breaker_fails()

    def cooldown_s(self) -> float:
        return self._cooldown if self._cooldown is not None \
            else default_serve_breaker_cooldown_s()

    def allow(self) -> tuple[bool, int | None]:
        """``(admitted, probe_token)`` — may transition open→half-open.

        ``probe_token`` is non-``None`` iff this admission *is* the
        half-open probe; the caller owes :meth:`release_probe` for it
        if the request fails before the batch path records an outcome.
        """
        with self._lock:
            if self.state == "closed":
                return True, None
            if self.state == "open":
                if time.monotonic() - self._opened_at < self.cooldown_s():
                    return False, None
                self.state = "half-open"
                self._probing = False
            # half-open: admit exactly one probe at a time.
            if self._probing:
                return False, None
            self._probing = True
            self._probe_token += 1
            return True, self._probe_token

    def release_probe(self, token: int) -> None:
        """Free the half-open probe slot if ``token`` still holds it.

        No-op when the probe already reached :meth:`record_success` /
        :meth:`record_failure` (state moved on) or when a later probe
        owns the slot — so callers can release unconditionally from a
        ``finally``.
        """
        with self._lock:
            if self.state == "half-open" and self._probing \
                    and token == self._probe_token:
                self._probing = False

    def retry_after(self) -> float:
        with self._lock:
            remaining = self.cooldown_s() - (time.monotonic()
                                             - self._opened_at)
        return max(0.1, remaining)

    def record_success(self, log: FaultLog | None = None) -> None:
        with self._lock:
            reopened = self.state != "closed"
            self.state = "closed"
            self.consecutive_failures = 0
            self._probing = False
        if reopened:
            _log.info("circuit breaker closed (probe succeeded)")
            if log is not None:
                log.record("breaker_close", backend="serve",
                           detail="half-open probe succeeded")

    def record_failure(self, log: FaultLog | None = None) -> None:
        with self._lock:
            self.consecutive_failures += 1
            was_open = self.state == "open"
            tripped = (self.state == "half-open"
                       or self.consecutive_failures >= self.threshold())
            if tripped:
                self.state = "open"
                self._opened_at = time.monotonic()
                self._probing = False
                if not was_open:
                    self.opens += 1
            count = self.consecutive_failures
        if tripped and not was_open:
            _log.warning("circuit breaker opened after %d consecutive "
                         "batch failures", count)
            if log is not None:
                log.record("breaker_open", backend="serve",
                           detail=f"{count} consecutive batch failures")


@dataclass(frozen=True)
class GraphSpec:
    """What it takes to (re)build one registered graph's solver."""

    graph: MultiGraph
    options: SolverOptions
    seed: int | None


class SolverService:
    """Resident-chain, micro-batching front end over the solver.

    Parameters
    ----------
    options:
        Default :class:`SolverOptions` for registered graphs (per-graph
        overrides via :meth:`register`).  ``keep_graphs`` is forced off
        for cache builds — the service holds solve payloads, not
        diagnostics graphs.
    window_ms / max_batch / cache_bytes / max_pending:
        Explicit knob overrides; ``None`` resolves
        ``REPRO_SERVE_WINDOW_MS`` / ``REPRO_SERVE_MAX_BATCH`` /
        ``REPRO_SERVE_CACHE_BYTES`` / ``REPRO_SERVE_MAX_PENDING``
        lazily.
    breaker_fails / breaker_cooldown_s:
        Circuit-breaker overrides for ``REPRO_SERVE_BREAKER_FAILS`` /
        ``REPRO_SERVE_BREAKER_COOLDOWN_S``.
    """

    def __init__(self, *, options: SolverOptions | None = None,
                 window_ms: float | None = None,
                 max_batch: int | None = None,
                 cache_bytes: int | None = None,
                 max_pending: int | None = None,
                 breaker_fails: int | None = None,
                 breaker_cooldown_s: float | None = None) -> None:
        self.options = options or default_options()
        self.cache = ChainCache(max_bytes=cache_bytes)
        #: Serve-level fault log: sheds and breaker transitions, plus
        #: every batch report's own events.
        self.fault_log = FaultLog()
        self._window_ms = window_ms
        self._max_batch = max_batch
        self._max_pending = max_pending
        #: Requests admitted but not yet resolved (event-loop thread
        #: only — incremented strictly after the admission check, so
        #: the ``REPRO_SERVE_MAX_PENDING`` budget is a hard bound).
        self._pending = 0
        #: Requests refused under admission control.
        self.shed = 0
        self.breaker = _Breaker(breaker_fails, breaker_cooldown_s)
        self._specs: dict[str, GraphSpec] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._solve_pool: ThreadPoolExecutor | None = None
        self.batcher: MicroBatcher | None = None
        self._http_servers: list = []
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SolverService":
        """Spin up the event loop thread. Idempotent."""
        if self._started:
            return self
        if self._closed:
            raise ServiceError("service was closed; build a new one")
        # A daemon must see the environment it was launched with, not
        # whatever its importing process had already cached.
        reset_env_caches()
        self._solve_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-solve")
        self.batcher = MicroBatcher(
            self._run_batch, self._solve_pool,
            window_ms=self._window_ms, max_batch=self._max_batch)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop",
            daemon=True)
        self._thread.start()
        self._started = True
        return self

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drain, stop the loop, and release every resident chain.

        The loop is closed **unconditionally** once its thread is
        joined — the earlier ``if not is_running()`` guard leaked the
        loop (and its selector fd) whenever the thread was slow to
        stop — and drain problems are logged, never swallowed.
        """
        if not self._started or self._closed:
            self._closed = True
            self.cache.close()
            return
        self._closed = True
        try:
            fut = asyncio.run_coroutine_threadsafe(
                self._shutdown_async(), self._loop)
            fut.result(timeout=30)
        except Exception as exc:  # best-effort drain, but say so
            _log.warning("service drain did not complete cleanly: %r",
                         exc)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if self._thread.is_alive():  # pragma: no cover - wedged loop
            _log.warning("event-loop thread still alive after join "
                         "timeout; closing the loop anyway")
        with contextlib.suppress(Exception):
            self._loop.close()
        self._solve_pool.shutdown(wait=True)
        self.cache.close()

    async def _shutdown_async(self) -> None:
        for server in self._http_servers:
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._http_servers.clear()
        await self.batcher.shutdown(ServiceError("service closed"))

    def _require_started(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")
        if not self._started:
            raise ServiceError("service not started; call start() or "
                               "use it as a context manager")

    # -- graph registry ------------------------------------------------------

    def register(self, graph: MultiGraph,
                 options: SolverOptions | None = None,
                 seed: int | None = None, warm: bool = True) -> str:
        """Register ``graph`` and return its canonical cache key.

        The spec is retained so an evicted chain can be rebuilt on the
        next request for its key; ``warm=True`` (default) builds the
        chain now (through the cache, so concurrent registrations
        single-flight).
        """
        options = options if options is not None else self.options
        if seed is None:
            seed = options.seed if options.seed is not None else 0
        key = solver_cache_key(graph, options, seed)
        self._specs[key] = GraphSpec(graph, options, int(seed))
        if warm:
            self._resolve_solver(key)
        return key

    def _build(self, spec: GraphSpec) -> LaplacianSolver:
        return LaplacianSolver(
            spec.graph, options=spec.options.with_(keep_graphs=False),
            seed=spec.seed)

    def _resolve_solver(self, key: str) -> LaplacianSolver:
        spec = self._specs.get(key)
        if spec is None:
            raise ServiceError(
                f"unknown graph key {key!r}; register the graph first")
        return self.cache.get_or_build(key, lambda: self._build(spec))

    # -- request path --------------------------------------------------------

    def submit(self, key: str, b: np.ndarray, eps: float = 1e-6,
               method: str = DEFAULT_METHOD) -> "Future[ServeResult]":
        """Queue one single-RHS request; thread-safe.

        Returns a ``concurrent.futures.Future`` resolving to this
        request's :class:`ServeResult` once its micro-batch completes.
        The ambient fault plan is captured here, in the calling thread.
        """
        self._require_started()
        b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
        if b.ndim != 1:
            raise DimensionMismatchError(
                f"service requests are single right-hand sides; "
                f"got shape {b.shape}")
        plan = active_plan()
        return asyncio.run_coroutine_threadsafe(
            self._submit(key, b, float(eps), method, plan), self._loop)

    def solve(self, key: str, b: np.ndarray, eps: float = 1e-6,
              method: str = DEFAULT_METHOD,
              timeout: float | None = 120.0) -> ServeResult:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(key, b, eps=eps, method=method).result(
            timeout=timeout)

    def max_pending(self) -> int:
        """Admission budget (constructor override or env; 0 = off)."""
        if self._max_pending is not None:
            return self._max_pending
        return default_serve_max_pending()

    def _admit(self) -> int | None:
        """Admission control — event-loop thread, before any queueing.

        Raises the retriable :class:`ServiceOverloadedError` when the
        pending-request budget is exhausted or the circuit breaker is
        open; both paths record a ``shed`` event so overload behaviour
        is observable.  Returns the breaker's probe token when this
        request is the half-open probe (``None`` otherwise) — the
        caller must hand it back via ``breaker.release_probe`` once
        the request settles, lest a pre-batch failure (unknown key,
        bad shape) strand the probe slot and wedge the breaker
        half-open forever.
        """
        limit = self.max_pending()
        if limit and self._pending >= limit:
            self.shed += 1
            self.fault_log.record(
                "shed", backend="serve",
                detail=f"pending={self._pending} at max_pending={limit}")
            raise ServiceOverloadedError(
                f"service overloaded: {self._pending} requests pending "
                f"(budget {limit}); retry shortly", retry_after=0.1)
        admitted, probe = self.breaker.allow()
        if not admitted:
            self.shed += 1
            self.fault_log.record(
                "shed", backend="serve",
                detail="circuit breaker open (failing batch path)")
            raise ServiceOverloadedError(
                "service unavailable: circuit breaker open after "
                "repeated batch failures",
                retry_after=self.breaker.retry_after())
        return probe

    async def _submit(self, key: str, b: np.ndarray, eps: float,
                      method: str, plan) -> ServeResult:
        loop = asyncio.get_running_loop()
        probe = self._admit()
        self._pending += 1
        try:
            # Reject a bad request alone: before it can cost a build or
            # share (and fail) a micro-batch with healthy ones.
            check_solve_inputs(b, eps)
            solver = self.cache.get(key)
            if solver is None:
                # Build (or wait on the single-flight build) off-loop,
                # in the solve executor: a cold chain must not stall
                # the event loop's request plumbing.
                solver = await loop.run_in_executor(
                    self._solve_pool, self._resolve_solver, key)
            if b.shape != (solver.n,):
                raise DimensionMismatchError(
                    f"b must have shape ({solver.n},) for this graph, "
                    f"got {b.shape}")
            return await self.batcher.submit(key, solver, b, eps,
                                             method, plan=plan)
        finally:
            self._pending -= 1
            if probe is not None:
                # No-op when _run_batch already recorded the probe's
                # outcome; frees the slot when the request died before
                # reaching the batch path.
                self.breaker.release_probe(probe)

    def _run_batch(self, solver: LaplacianSolver, B: np.ndarray,
                   eps_col: np.ndarray, method: str, plan,
                   batch_seq: int):
        """Execute one micro-batch (solve-executor thread).

        ``batch_seq`` is the batcher's monotone batch number.  The solve
        does not use it; perfbench's tracer reads it positionally
        (``args[6]``) as the span's request id, so it stays in the
        signature.

        The request's fault plan is installed around the solve, so
        in-kernel injection behaves exactly as it would under a direct
        ``solve_many``.  The batch's outcome feeds the circuit breaker:
        a raising batch fails every cohabiting request and counts as
        one consecutive failure.
        """
        try:
            with use_faults(plan):
                report = solver.solve_many_report(B, eps=eps_col,
                                                  method=method)
        except BaseException:
            self.breaker.record_failure(self.fault_log)
            raise
        if report.fault_log is not None:
            self.fault_log.events.extend(report.fault_log.events)
        self.breaker.record_success(self.fault_log)
        return report

    # -- HTTP front end ------------------------------------------------------

    def serve_http(self, host: str = "127.0.0.1",
                   port: int = 8000) -> tuple[str, int]:
        """Start the stdlib HTTP front end; returns ``(host, port)``.

        ``port=0`` binds an ephemeral port (the returned value is the
        real one).  Runs on the service's event loop; closed with the
        service.
        """
        self._require_started()
        from repro.serve.http import start_http

        fut = asyncio.run_coroutine_threadsafe(
            start_http(self, host, port), self._loop)
        server = fut.result(timeout=30)
        self._http_servers.append(server)
        sock = server.sockets[0].getsockname()
        return sock[0], sock[1]

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Cache, batcher, fault, and knob snapshot (JSON-friendly)."""
        window_ms = self._window_ms if self._window_ms is not None \
            else default_serve_window_ms()
        max_batch = self._max_batch if self._max_batch is not None \
            else default_serve_max_batch()
        return {
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats()
            if self.batcher is not None else {},
            "faults": self.fault_log.summary(),
            "graphs": len(self._specs),
            "admission": {"pending": int(self._pending),
                          "shed": int(self.shed)},
            "breaker": {"state": self.breaker.state,
                        "opens": int(self.breaker.opens),
                        "consecutive_failures":
                            int(self.breaker.consecutive_failures)},
            "knobs": {"window_ms": float(window_ms),
                      "max_batch": int(max_batch),
                      "cache_bytes": int(self.cache.max_bytes),
                      "max_pending": int(self.max_pending()),
                      "breaker_fails": int(self.breaker.threshold()),
                      "breaker_cooldown_s":
                          float(self.breaker.cooldown_s())},
        }
