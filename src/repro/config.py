"""Solver configuration.

The paper leaves every constant unspecified (as theory papers do); this
module centralises them so benchmarks can sweep them and so the default
behaviour is documented in one place.

Two presets mirror the paper's two headline theorems:

* :func:`theorem_1_1_options` — naive edge splitting (Lemma 3.2).
* :func:`theorem_1_2_options` — leverage-score-overestimate splitting
  (Lemma 3.3 with ``K = Θ(log³ n)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

__all__ = [
    "SolverOptions",
    "default_options",
    "theorem_1_1_options",
    "theorem_1_2_options",
    "practical_options",
    "reset_env_caches",
]

SplittingStrategy = Literal["naive", "leverage", "none"]


@dataclass(frozen=True)
class SolverOptions:
    """Tunable constants for :class:`repro.core.solver.LaplacianSolver`.

    Attributes
    ----------
    splitting:
        How the input simple graph is turned into an α-bounded
        multigraph.  ``"naive"`` = Lemma 3.2 (split every edge into
        ``ceil(1/alpha)`` copies), ``"leverage"`` = Lemma 3.3
        (leverage-score overestimates), ``"none"`` = assume the caller
        already supplies an α-bounded multigraph.
    alpha_scale:
        The theory takes ``α⁻¹ = Θ(log² n)``.  We use
        ``α⁻¹ = max(1, round(alpha_scale · log₂² n))``.  ``alpha_scale``
        of 1.0 is the literal theory reading; the default 0.25 keeps
        laptop-scale instances fast while concentration still holds
        empirically (benchmark E14 sweeps this knob).
    min_vertices:
        The base case's byte budget, ``min_vertices²`` doubles.
        ``BlockCholesky`` eliminates while a packed Cholesky factor of
        the grounded Schur complement on ``a`` active vertices,
        ``a(a−1)/2`` doubles, exceeds it, then factors that base
        exactly (DESIGN.md §17).  The default 100 (the paper's base
        size) stops at most 141 vertices.
    dd_fraction / dd_candidate_fraction / dd_threshold:
        Constants of ``5DDSubset`` (Algorithm 3): accept when
        ``|F| > n·dd_fraction`` (paper: 1/40), sample candidate sets of
        size ``n·dd_candidate_fraction`` (paper: 1/20), and keep
        vertices whose weighted degree inside the candidate set is at
        most ``dd_threshold`` times their total weighted degree
        (paper: 1/5 — this is what makes the subset 5-DD).
    jacobi_eps:
        ε for the Jacobi operator inside ``ApplyCholesky``; ``None``
        uses the paper's ``1/(2d)`` where ``d`` is the chain depth.
    richardson_delta:
        δ such that the preconditioner satisfies ``B ≈_δ A⁺``
        (Theorem 3.10 gives δ = 1).  Sets the outer loop's budget and
        certificate for both methods (DESIGN.md §15).
    max_walk_steps:
        Safety cap on a single terminal walk.  Lemma 5.4 gives
        ``O(log m)`` whp; the cap is generous and a
        :class:`repro.errors.SamplingError` is raised when exceeded
        (which would indicate the 5-DD property was violated).
    lev_sample_K:
        ``K`` of Lemma 3.3; ``None`` = ``Θ(log³ n)`` per Theorem 1.2.
    keep_graphs:
        Keep every per-level graph of the block Cholesky chain alive
        for diagnostics (default).  ``False`` streams the factorization
        — each level's graph is dropped once its blocks are extracted,
        cutting the chain's retained memory to the blocks themselves
        (solves and edge-count diagnostics are unaffected; see
        :func:`repro.core.block_cholesky.block_cholesky`).
    workers:
        Worker count for the embarrassingly parallel phases (walker
        stepping, column-blocked solves).  ``None`` (default) consults
        the ``REPRO_WORKERS`` env var / CPU count lazily at every
        dispatch.  Results are bit-identical for a fixed seed
        regardless of this value — see
        :class:`repro.pram.ExecutionContext`'s determinism contract.
    backend:
        Scheduler for those phases: ``"serial"`` (the calling thread)
        or ``"thread"`` (a pool of ``workers`` threads; numpy kernels
        release the GIL).  ``None`` (default) consults the
        ``REPRO_BACKEND`` env var lazily (default ``"thread"``); any
        other value raises :class:`repro.errors.InvalidInputError` at
        construction.  Like ``workers``, the backend never changes
        results — fixed seed ⇒ bit-identical graphs, solutions, and
        ledger totals on both.
    sampler:
        Row sampler for walker stepping.  The only one is ``"alias"``
        (CSR-aligned per-row alias planes on the incremental walk
        store — Lemma 2.6's O(1)-per-query realisation); ``None`` and
        ``"alias"`` mean the same thing, and any other value raises
        :class:`repro.errors.InvalidInputError` at construction.
        Determinism contract (DESIGN.md §8): fixed seed ⇒
        bit-identical graphs, solutions, and ledger totals across
        backends and worker counts.
    chunk_items / chunk_columns:
        Chunk-policy overrides for the execution context (``None`` =
        library defaults).  Chunk layout is part of the *result* for a
        fixed seed (it decides the per-chunk RNG streams), so these
        are solver options, not runtime knobs.
    retries:
        Retired with chunk re-dispatch; only ``None`` and ``0`` are
        accepted (anything else raises
        :class:`repro.errors.InvalidInputError`), and nothing reads it.
    ship_solves / degrade:
        Retired with the process backend; only ``None`` and ``False``
        are accepted (anything else raises
        :class:`repro.errors.InvalidInputError`), and nothing reads
        them.
    coalesce_emitted:
        Coalesce each elimination round's emitted parallel edges in
        the incremental walk store: same-``{u, v}`` duplicates merge
        within the batch (weight-sum, multiplicity-sum) and fold into
        previously coalesced live slots, so heavy rows hold one slot
        per neighbour instead of one per walker (DESIGN.md §11).
        ``None`` (default) consults the ``REPRO_COALESCE`` env var
        lazily (default off).  The stored graph's Laplacian is
        preserved exactly and α-boundedness is maintained; walks
        through the coalesced store differ *distributionally* from the
        uncoalesced realisation (fixed seed + fixed coalesce setting ⇒
        bit-identical graphs, solutions, and ledger totals across
        backends and worker counts).  The seed baseline
        (:mod:`repro.baselines.seed_hotpath`) never coalesces.
    seed:
        Default seed threaded to all stochastic routines.
    """

    splitting: SplittingStrategy = "naive"
    alpha_scale: float = 0.25
    min_vertices: int = 100
    dd_fraction: float = 1.0 / 40.0
    dd_candidate_fraction: float = 1.0 / 20.0
    dd_threshold: float = 1.0 / 5.0
    jacobi_eps: float | None = None
    richardson_delta: float = 1.0
    max_walk_steps: int = 10_000
    lev_sample_K: int | None = None
    keep_graphs: bool = True
    workers: int | None = None
    backend: str | None = None
    sampler: str | None = None
    chunk_items: int | None = None
    chunk_columns: int | None = None
    retries: int | None = None
    degrade: bool | None = None
    ship_solves: bool | None = None
    coalesce_emitted: bool | None = None
    seed: int | None = None
    track_costs: bool = True

    def __post_init__(self) -> None:
        from repro.errors import InvalidInputError

        if self.sampler not in (None, "alias"):
            raise InvalidInputError(
                f"sampler must be None or 'alias', got {self.sampler!r}")
        if self.backend not in (None, "serial", "thread"):
            raise InvalidInputError(
                f"backend must be None, 'serial' or 'thread', "
                f"got {self.backend!r}")
        for name in ("ship_solves", "degrade"):
            if getattr(self, name) not in (None, False):
                raise InvalidInputError(
                    f"{name} must be None or False (the process "
                    f"backend it served is gone), got "
                    f"{getattr(self, name)!r}")
        if self.retries not in (None, 0):
            raise InvalidInputError(
                f"retries must be None or 0 (chunks are no longer "
                f"re-dispatched), got {self.retries!r}")

    def alpha_inverse(self, n: int) -> int:
        """α⁻¹ = Θ(log² n) rounded to an integer ≥ 1 (see Theorem 3.9)."""
        if n < 2:
            return 1
        log2n = math.log2(max(n, 2))
        return max(1, int(round(self.alpha_scale * log2n * log2n)))

    def alpha(self, n: int) -> float:
        """The leverage-score bound α used for multi-edge splitting."""
        return 1.0 / self.alpha_inverse(n)

    def K(self, n: int) -> int:
        """``K = Θ(log³ n)`` of Theorem 1.2 unless overridden."""
        if self.lev_sample_K is not None:
            return self.lev_sample_K
        log2n = math.log2(max(n, 2))
        return max(1, int(round(log2n**3 / 8.0)))

    def with_(self, **kwargs) -> "SolverOptions":
        """Functional update (``dataclasses.replace`` wrapper)."""
        return replace(self, **kwargs)

    def resolve_coalesce(self) -> bool:
        """Whether emitted edges coalesce *right now* (lazy env
        lookup)."""
        if self.coalesce_emitted is not None:
            return self.coalesce_emitted
        from repro.pram.executor import default_coalesce

        return default_coalesce()

    def execution(self) -> "ExecutionContext":
        """The :class:`repro.pram.ExecutionContext` these options imply."""
        from repro.pram.executor import ExecutionContext

        kwargs = {}
        if self.chunk_items is not None:
            kwargs["chunk_items"] = self.chunk_items
        if self.chunk_columns is not None:
            kwargs["chunk_columns"] = self.chunk_columns
        if not kwargs and self.workers is None and self.backend is None:
            return ExecutionContext.DEFAULT
        return ExecutionContext(workers=self.workers,
                                backend=self.backend, **kwargs)


def reset_env_caches() -> None:
    """Forget every cached ``REPRO_*`` environment lookup.

    The env-var knobs (``REPRO_WORKERS``, ``REPRO_BACKEND``,
    ``REPRO_COALESCE``, the ``REPRO_SERVE_*`` family) all funnel
    through one module-level cache
    (:func:`repro.pram.executor._env_cached`), keyed on the raw env
    string.  A *changed* value is therefore picked up automatically,
    but a long-lived process wants a hard reset point: stale parse
    results that leaked in from an importing process (or from a test
    poking the cache directly) must not survive into a serving daemon's
    lifetime.  The serve front end calls this on startup
    (:meth:`repro.serve.SolverService.start`) and the test suite calls
    it in teardown (autouse fixture in ``tests/conftest.py``), so no
    test can leak a cached knob into the next.
    """
    from repro.pram.executor import _env_caches

    _env_caches.clear()


def default_options() -> SolverOptions:
    """Practical defaults: naive splitting with a small α-scale."""
    return SolverOptions()


def theorem_1_1_options() -> SolverOptions:
    """Literal Theorem 1.1 configuration (naive Lemma 3.2 splitting)."""
    return SolverOptions(splitting="naive", alpha_scale=1.0)


def theorem_1_2_options() -> SolverOptions:
    """Theorem 1.2 configuration (Lemma 3.3 leverage-score splitting)."""
    return SolverOptions(splitting="leverage", alpha_scale=1.0)


def practical_options(seed: int | None = None) -> SolverOptions:
    """Fast settings for interactive use: minimal splitting.

    With ``alpha_scale`` small the multigraph blow-up is tiny; matrix
    concentration degrades gracefully and the certified outer loop
    (with its Ritz check, escalation and fallback) absorbs the slack
    in a few extra iterations.
    """
    return SolverOptions(splitting="naive", alpha_scale=0.1, seed=seed)
