"""Chunked in-process execution for the solver's parallel phases.

The solver stack has two kinds of embarrassingly parallel work —
walker stepping in the elimination rounds and column-blocked iterative
solves — and this module is the single dispatch point for both.
:class:`ExecutionContext` splits a dispatch into a fixed set of chunks
and runs them on one scheduler: a ``ThreadPoolExecutor`` of
``workers`` threads.  ``workers=1`` runs every chunk in the calling
thread (no pool overhead) and is the serial reference.  The chunks'
numpy kernels release the GIL, so wide blocked solves scale on threads
(DESIGN.md §7 has the measurements).

The worker count never influences *results* — only wall-clock.
:class:`ExecutionContext`'s determinism contract (DESIGN.md §6–§7):

* **Chunk layout depends only on problem size** (item count + the
  context's chunk policy), never on the worker count.
* **Randomness is per-chunk**: each chunk receives its own
  ``SeedSequence``-spawned child generator (``rng.spawn``), drawn in
  chunk order from the caller's generator.
* **Ledger charges fork/join**: each chunk records its costs into a
  private sub-ledger via :func:`use_ledger`, and at the join the
  parent ledger absorbs the sum of chunk works and the max of chunk
  depths.  Totals are identical across worker counts.

Together these make every chunked phase bit-identical for a fixed seed
regardless of ``REPRO_WORKERS`` — the property the worker-matrix
invariance tests assert.

The lower-level API remains: :func:`chunk_ranges` splits an index range
into contiguous chunks, :func:`parallel_map` maps a function over items
with an optional thread pool.  ``workers=None`` or ``workers<=1`` runs
serially (no pool overhead).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["ExecutionContext", "parallel_map", "chunk_ranges",
           "run_column_chunks", "default_workers", "DEFAULT_CHUNK_ITEMS",
           "DEFAULT_CHUNK_COLUMNS", "MAX_CHUNKS"]

T = TypeVar("T")
R = TypeVar("R")

#: Work items (walkers, edges) per chunk — large enough that each
#: chunk's numpy kernels dominate its Python dispatch overhead.  Chunk
#: layout decides the per-chunk RNG streams, so it is part of the
#: result for a fixed seed: ``SolverOptions.chunk_items`` overrides
#: it, no environment variable does.
DEFAULT_CHUNK_ITEMS = 65536

#: Right-hand-side columns per chunk for blocked iterative solves.
DEFAULT_CHUNK_COLUMNS = 16

#: Hard cap on chunks per dispatch (bounds RNG spawns and pool queue
#: length).  Part of the chunk policy, hence worker-independent.
MAX_CHUNKS = 256

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


def default_coalesce() -> bool:
    """Emitted-edge coalescing gate from ``REPRO_COALESCE`` (default
    off).

    When on, the elimination loops' incremental walk store merges each
    round's emitted parallel edges per ``{u, v}`` pair (and folds them
    into previously coalesced live slots), shrinking heavy-row degrees,
    alias-plane rebuild cost, and peak edge memory (DESIGN.md §11).
    The Laplacian is preserved exactly; walk realisations change
    *distributionally* (per flag setting results stay bit-deterministic
    across worker counts).  ``SolverOptions.
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
    map runs serially in the calling thread (no pool overhead); larger
    counts start a pool for this call and tear it down on return.
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
    ``k`` columns into the context's size-determined (hence
    worker-independent) column chunks, broadcast every per-column
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

    return ctx.run_chunks(one, pieces)


@dataclass(frozen=True)
class ExecutionContext:
    """Parallel-dispatch policy threaded through the solver stack.

    Parameters
    ----------
    workers:
        Thread count; ``1`` runs every chunk in the calling thread.
        ``None`` (default) consults :func:`default_workers` lazily *at
        each dispatch*, so changing ``REPRO_WORKERS`` mid-session (or
        monkeypatching it in a test) takes effect immediately.  The
        worker count never influences results — only wall-clock.
    chunk_items:
        Target work items (walkers) per chunk for :meth:`item_chunks`.
        ``None`` (default) means :data:`DEFAULT_CHUNK_ITEMS`.
    chunk_columns:
        Target right-hand-side columns per chunk for
        :meth:`column_chunks`.
    max_chunks:
        Cap on the number of chunks per dispatch.

    The three chunk-policy fields fully determine chunk boundaries from
    the problem size alone — see the module docstring for the
    determinism contract.
    """

    workers: int | None = None
    chunk_items: int | None = None
    chunk_columns: int = DEFAULT_CHUNK_COLUMNS
    max_chunks: int = MAX_CHUNKS

    def __post_init__(self) -> None:
        if (self.chunk_items is not None and self.chunk_items < 1) \
                or self.chunk_columns < 1 or self.max_chunks < 1:
            raise ValueError("chunk policy values must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be None or >= 1")

    # -- worker resolution ---------------------------------------------------

    def resolve_workers(self) -> int:
        """The worker count to use *right now* (lazy env consultation)."""
        if self.workers is not None:
            return self.workers
        return default_workers()

    # -- deterministic chunk layout ------------------------------------------

    def _chunk_count(self, n: int, grain: int) -> int:
        if n <= 0:
            return 1
        return max(1, min(self.max_chunks, math.ceil(n / grain)))

    def resolve_chunk_items(self) -> int:
        """The item-chunk grain: ``chunk_items`` or the default."""
        if self.chunk_items is not None:
            return self.chunk_items
        return DEFAULT_CHUNK_ITEMS

    def item_chunks(self, n: int) -> list[tuple[int, int]]:
        """Chunk ``range(n)`` work items; layout depends only on ``n``
        and the chunk policy."""
        return chunk_ranges(n, self._chunk_count(n,
                                                 self.resolve_chunk_items()))

    def column_chunks(self, k: int) -> list[tuple[int, int]]:
        """Chunk ``k`` RHS columns; layout depends only on ``k``."""
        return chunk_ranges(k, self._chunk_count(k, self.chunk_columns))

    # -- dispatch ------------------------------------------------------------

    def run_chunks(self,
                   fn: Callable[..., R],
                   pieces: Sequence[tuple[int, int]],
                   rng: np.random.Generator | None = None) -> list[R]:
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
        """
        from repro.pram.ledger import current_ledger, use_ledger

        streams: Sequence[np.random.Generator | None]
        if rng is not None:
            streams = rng.spawn(len(pieces))
        else:
            streams = [None] * len(pieces)

        parent = current_ledger()

        def one(i: int):
            lo, hi = pieces[i]
            args = (lo, hi) if streams[i] is None else (lo, hi, streams[i])
            sub = parent.__class__() if parent is not None else None
            try:
                if sub is None:
                    return True, fn(*args), None
                with use_ledger(sub):
                    return True, fn(*args), sub
            except BaseException as exc:  # re-raised after the join
                return False, exc, sub

        triples = parallel_map(one, range(len(pieces)),
                               workers=self.resolve_workers())
        if parent is not None:
            subs = [sub for _, _, sub in triples if sub is not None]
            if subs:
                parent.absorb_parallel(subs)
        for ok, val, _ in triples:
            if not ok:
                raise val
        return [val for _, val, _ in triples]


#: Shared all-defaults context (lazy ``REPRO_WORKERS`` resolution).
ExecutionContext.DEFAULT = ExecutionContext()
