"""Keyed LRU cache of resident solver chains (DESIGN.md §12).

The expensive artifact is the block Cholesky chain; the cheap operation
is a blocked apply.  :class:`ChainCache` keeps built
:class:`repro.core.solver.LaplacianSolver` instances resident under a
byte budget measured by the chain's solve-time array size
(:attr:`repro.core.chain.CholeskyChain.nbytes` — everything an apply
reads), with:

* **LRU eviction** — least-recently-*used* entry goes first once the
  resident payload bytes exceed the budget; the most recent entry is
  always retained even when it alone exceeds the budget (a cache that
  cannot hold its only chain would livelock rebuilding it).
* **single-flight builds** — concurrent misses on one key run the
  builder once; every waiter gets the same solver (or the builder's
  exception, which is not cached — a later miss retries).

An evicted solver holds nothing but memory, so dropping the cache's
reference is all the teardown it needs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.core.solver import LaplacianSolver

__all__ = ["ChainCache", "DEFAULT_CACHE_BYTES"]

#: Default resident-chain byte budget (256 MiB).  ``0`` keeps only the
#: most recently used chain.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


class _Build:
    """Single-flight token: one in-progress build and its outcome."""

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: BaseException | None = None


class ChainCache:
    """Thread-safe LRU of resident solvers keyed by canonical hash.

    ``max_bytes`` is the resident-chain byte budget, fixed for the
    cache's lifetime (:class:`~repro.serve.SolverService` checks it).
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, LaplacianSolver] = OrderedDict()
        self._builds: dict[str, _Build] = {}
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0

    # -- sizing --------------------------------------------------------------

    def total_bytes(self) -> int:
        """Resident chain payload bytes across all entries."""
        with self._lock:
            return self._total_bytes_locked()

    def _total_bytes_locked(self) -> int:
        return sum(s.chain.nbytes for s in self._entries.values())

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> tuple[str, ...]:
        """Resident keys, least-recently-used first."""
        with self._lock:
            return tuple(self._entries)

    def get(self, key: str) -> LaplacianSolver | None:
        """The resident solver for ``key`` (LRU-touched), or ``None``.

        Counts a hit or a miss; use :meth:`get_or_build` when a miss
        should build.
        """
        with self._lock:
            solver = self._entries.get(key)
            if solver is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return solver

    def get_or_build(self, key: str,
                     build: Callable[[], LaplacianSolver]
                     ) -> LaplacianSolver:
        """Resident solver for ``key``, building (single-flight) on miss.

        The builder runs outside the cache lock; concurrent misses on
        the same key wait on the first caller's build.  Waiters count
        as a miss at arrival and a hit when the finished entry is
        handed to them, so ``builds`` (not ``misses``) is the number of
        factorizations actually paid for.
        """
        while True:
            with self._lock:
                solver = self._entries.get(key)
                if solver is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return solver
                pending = self._builds.get(key)
                if pending is None:
                    self.misses += 1
                    pending = _Build()
                    self._builds[key] = pending
                    owner = True
                else:
                    owner = False
            if not owner:
                pending.done.wait()
                if pending.error is not None:
                    raise pending.error
                # Loop: the owner inserted the entry (or it was already
                # evicted under a tiny budget, in which case this caller
                # becomes the next owner).
                continue
            try:
                solver = build()
            except BaseException as exc:
                pending.error = exc
                with self._lock:
                    self._builds.pop(key, None)
                pending.done.set()
                raise
            with self._lock:
                self._entries[key] = solver
                self._entries.move_to_end(key)
                self.builds += 1
                self._builds.pop(key, None)
                self._evict_locked()
            pending.done.set()
            return solver

    def _evict_locked(self) -> None:
        while len(self._entries) > 1 \
                and self._total_bytes_locked() > self.max_bytes:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop every entry. Idempotent."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters + residency snapshot (JSON-friendly)."""
        with self._lock:
            resident = {key: int(s.chain.nbytes)
                        for key, s in self._entries.items()}
        return {"hits": self.hits, "misses": self.misses,
                "builds": self.builds, "evictions": self.evictions,
                "resident": len(resident),
                "resident_bytes": sum(resident.values()),
                "budget_bytes": int(self.max_bytes),
                "entries": resident}
