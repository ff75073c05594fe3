"""Micro-batching of single-RHS solve requests (DESIGN.md §12).

PR 2 measured one blocked ``solve_many`` at ~4× the throughput of
looping ``k`` single-RHS solves, so the serving layer's job is to turn
``k`` concurrent users into one BLAS-3 block.  The
:class:`MicroBatcher` buckets requests by ``(cache key, method)``,
holds each bucket open for a small time window (``window_ms``) or
until ``max_batch`` requests arrive, then assembles the columns **in
submission order** into one ``(n, k)`` block, runs a single batched
solve in the service's solve executor, and scatters per-column
results — ``x[:, i]``, ``column_status[i]``, per-column iterations
and residuals — back to each caller's future.

Determinism at the batch level: the assembled block is exactly what a
direct ``solve_many`` on the same resident chain would receive, so the
scattered columns are bit-identical to that call (the service's
batching-equivalence contract).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

__all__ = ["MicroBatcher", "ServeResult", "DEFAULT_WINDOW_MS",
           "DEFAULT_MAX_BATCH"]

#: Default micro-batch gathering window (milliseconds).  ``0`` still
#: batches requests that arrive within the same event-loop tick; 2 ms
#: of added latency buys the blocked-solve throughput win.
DEFAULT_WINDOW_MS = 2.0
#: Default flush-early batch width.
DEFAULT_MAX_BATCH = 64


@dataclass(frozen=True)
class ServeResult:
    """One caller's share of a micro-batched solve."""

    #: The solution column (owned copy, ``(n,)``).
    x: np.ndarray
    #: This request's ``BlockSolveReport.column_status`` entry —
    #: the method's name, ``pcg`` (escalated) or ``dense`` (DESIGN.md §9
    #: ladder).
    status: str
    #: Iterations this column took (batch total when the solver did not
    #: report per-column counts).
    iterations: int
    #: 2-norm of ``L x - b`` for this column.
    residual_2norm: float
    #: The batch-level method string (e.g. ``pcg``, or ``pcg+pcg`` when a
    #: column escalated).
    method: str
    #: How many requests shared the batch.
    batched_k: int
    #: Monotone batch sequence number.
    batch_seq: int
    #: Cache key the batch solved against.
    key: str


class _Pending:
    __slots__ = ("b", "eps", "plan", "future")

    def __init__(self, b, eps, plan, future) -> None:
        self.b = b
        self.eps = eps
        self.plan = plan
        self.future = future


class _Bucket:
    __slots__ = ("key", "method", "solver", "requests", "timer")

    def __init__(self, key, method, solver) -> None:
        self.key = key
        self.method = method
        self.solver = solver
        self.requests: list[_Pending] = []
        self.timer: asyncio.Task | None = None


class MicroBatcher:
    """Collects single-RHS requests into blocked solves.

    ``runner(solver, B, eps_col, method, plan, batch_seq)`` executes
    the batched solve (in the service's solve executor) and returns a
    :class:`repro.core.solver.BlockSolveReport`.  ``window_ms`` and
    ``max_batch`` arrive checked from :class:`SolverService`.

    All bucket state is touched only from the owning event loop;
    cross-thread entry goes through the service's
    ``run_coroutine_threadsafe``.
    """

    def __init__(self, runner, executor, *,
                 window_ms: float = DEFAULT_WINDOW_MS,
                 max_batch: int = DEFAULT_MAX_BATCH) -> None:
        self._runner = runner
        self._executor = executor
        self.window_ms = window_ms
        self.max_batch = max_batch
        self._buckets: dict[tuple[str, str], _Bucket] = {}
        self._seq = 0
        self._active_flushes = 0
        self.batches = 0
        self.requests = 0
        self.batch_sizes: dict[int, int] = {}

    # -- submission ----------------------------------------------------------

    async def submit(self, key: str, solver, b: np.ndarray, eps: float,
                     method: str, plan=None) -> ServeResult:
        """Queue one request; resolves when its batch completes."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket_key = (key, method)
        bucket = self._buckets.get(bucket_key)
        if bucket is None:
            bucket = _Bucket(key, method, solver)
            self._buckets[bucket_key] = bucket
            bucket.timer = asyncio.ensure_future(
                self._flush_after_window(bucket_key, bucket))
        bucket.requests.append(_Pending(b, float(eps), plan, future))
        self.requests += 1
        if len(bucket.requests) >= self.max_batch:
            self._detach(bucket_key, bucket)
            if bucket.timer is not None:
                bucket.timer.cancel()
            await self._flush(bucket)
        return await future

    async def _flush_after_window(self, bucket_key, bucket) -> None:
        try:
            await asyncio.sleep(self.window_ms / 1000.0)
        except asyncio.CancelledError:
            return
        self._detach(bucket_key, bucket)
        await self._flush(bucket)

    def _detach(self, bucket_key, bucket) -> None:
        if self._buckets.get(bucket_key) is bucket:
            del self._buckets[bucket_key]

    # -- the batched solve ---------------------------------------------------

    async def _flush(self, bucket: _Bucket) -> None:
        requests = bucket.requests
        bucket.requests = []
        if not requests:
            return
        seq = self._seq
        self._seq += 1
        # Submission order is column order: what a caller batching by
        # hand with np.stack([...], axis=1) would assemble.
        B = np.stack([r.b for r in requests], axis=1)
        eps_col = np.array([r.eps for r in requests], dtype=np.float64)
        plan = next((r.plan for r in requests if r.plan is not None),
                    None)
        loop = asyncio.get_running_loop()
        self._active_flushes += 1
        try:
            report = await loop.run_in_executor(
                self._executor, self._runner, bucket.solver, B, eps_col,
                bucket.method, plan, seq)
        except BaseException as exc:
            # Batch-level failure (a raising solve): every cohabiting
            # request sees it.  Column-level damage never lands here —
            # the quarantine/escalation ladder keeps solve_many
            # returning (DESIGN.md §9).
            for r in requests:
                if not r.future.done():
                    r.future.set_exception(exc)
            return
        finally:
            self._active_flushes -= 1
        self.batches += 1
        k = len(requests)
        self.batch_sizes[k] = self.batch_sizes.get(k, 0) + 1
        per_col = report.per_column_iterations
        status = report.column_status
        for i, r in enumerate(requests):
            if r.future.done():
                continue
            r.future.set_result(ServeResult(
                x=np.ascontiguousarray(report.x[:, i]),
                status=str(status[i]) if status is not None
                else report.method,
                iterations=int(per_col[i]) if per_col is not None
                else int(report.iterations),
                residual_2norm=float(report.residual_2norms[i]),
                method=report.method,
                batched_k=k,
                batch_seq=seq,
                key=bucket.key))

    # -- lifecycle -----------------------------------------------------------

    async def shutdown(self, exc: BaseException) -> None:
        """Fail unflushed requests with ``exc``; drain in-flight batches."""
        buckets = list(self._buckets.values())
        self._buckets.clear()
        for bucket in buckets:
            if bucket.timer is not None:
                bucket.timer.cancel()
            for r in bucket.requests:
                if not r.future.done():
                    r.future.set_exception(exc)
        while self._active_flushes:
            await asyncio.sleep(0.005)

    def stats(self) -> dict:
        """Counters (JSON-friendly)."""
        sizes = dict(sorted(self.batch_sizes.items()))
        return {"batches": self.batches, "requests": self.requests,
                "batch_sizes": {str(k): v for k, v in sizes.items()},
                "max_batch_seen": max(sizes) if sizes else 0,
                "mean_batch": (self.requests / self.batches)
                if self.batches else 0.0}
