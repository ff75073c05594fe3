"""Vectorised multi-walker random-walk engine.

``TerminalWalks`` (Algorithm 4) launches **one walker per endpoint of
every logical multi-edge** and steps them synchronously until each
reaches the terminal set ``C``.  This module implements that
synchronous stepping:

* each round, all still-active walkers sample a weight-proportional
  incident edge via the CSR-aligned alias planes of
  :class:`repro.sampling.alias.CSRAliasSampler` (Lemma 2.6: O(1) per
  query) and move across it, accumulating the *per-copy* resistance of
  the edge they crossed;
* walkers standing on a terminal vertex retire immediately (a walker
  that *starts* on a terminal retires after zero steps — that is the
  paper's convention for an endpoint already in ``C``).

Two hot-path properties keep late elimination rounds cheap:

* **Restricted CSR** — walkers only ever sample from rows of
  *non-terminal* vertices (a walker on a terminal has retired), so the
  engine builds adjacency rows for the interior only:
  O(edges incident to V∖C) instead of O(m) per round.
* **Walker compaction** — retired walkers are filtered out of the state
  arrays each round, so a round costs O(active walkers), not O(total
  walkers).  The compacted loop consumes the RNG stream in exactly the
  same order as the naive loop (active walkers in ascending id order),
  so results are bit-identical (``compact=False`` keeps the reference
  loop for tests).

Implicit multiplicities (Lemma 3.2 splits, see DESIGN.md) need no
expansion here: a split graph's transition distribution equals the
unsplit one (``k`` copies of ``w/k`` sum to ``w``), and crossing any of
a group's copies accrues resistance ``mult/w`` — the engine precomputes
that per CSR slot.

Cost accounting mirrors Lemma 5.4: each synchronous round charges
``(active, 1)`` ledger work/depth (an O(1) sampler query per active
walker, all in parallel), so the ledger total is ``Σ_e |W(e)|`` work
and ``max_e |W(e)|`` depth — exactly the quantities the lemma bounds
by ``O(m)`` and ``O(log m)`` when ``V∖C`` is 5-DD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.graphs.multigraph import MultiGraph
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator
from repro.sampling.alias import CSRAliasSampler

__all__ = ["WalkEngine", "WalkResult"]


@dataclass(frozen=True)
class WalkResult:
    """Outcome of a batch of terminal walks.

    Attributes
    ----------
    terminal:
        Vertex of ``C`` where each walker stopped.
    resistance:
        ``Σ_{f ∈ walk} mult(f)/w(f)`` accumulated along each walk (0 for
        walkers that started on a terminal vertex).
    length:
        Number of edges each walker traversed.
    rounds:
        Number of synchronous rounds (== max length).
    """

    terminal: np.ndarray
    resistance: np.ndarray
    length: np.ndarray
    rounds: int


class WalkEngine:
    """Reusable walk engine for one graph + terminal-set combination.

    Parameters
    ----------
    graph:
        The multigraph to walk on (implicit multiplicities supported).
    is_terminal:
        Boolean mask over vertices; walks stop on ``True`` vertices.

    Walkers sample from the rows of non-terminal vertices only (a
    walker on a terminal has retired), so the engine builds just those
    rows and one alias table per row (Lemma 2.6).
    """

    def __init__(self, graph: MultiGraph, is_terminal: np.ndarray) -> None:
        is_terminal = np.asarray(is_terminal, dtype=bool)
        if is_terminal.shape != (graph.n,):
            raise SamplingError("is_terminal must have one flag per vertex")
        if not is_terminal.any():
            raise SamplingError("terminal set must be non-empty")
        self.graph = graph
        self.is_terminal = is_terminal
        self.adj = graph.adjacency_restricted(~is_terminal)
        self.sampler = CSRAliasSampler(self.adj)
        # Resistance of crossing ONE logical copy of each CSR slot's
        # edge group: a copy weighs w/mult, so 1/(w/mult) = mult/w.
        if graph.mult is None:
            self._slot_resistance = 1.0 / self.adj.weight
        else:
            self._slot_resistance = \
                graph.mult[self.adj.edge_id] / self.adj.weight

    @classmethod
    def from_adjacency(cls, adj, slot_mult: np.ndarray | None,
                       is_terminal: np.ndarray,
                       row_sampler=None) -> "WalkEngine":
        """Engine over a prebuilt adjacency view.

        This is how the elimination loops reuse an incrementally
        maintained CSR (:meth:`repro.sampling.inc_csr.IncrementalWalkCSR.
        walk_engine`) instead of rebuilding the adjacency per round.
        ``slot_mult`` gives each slot's logical copy count (``None`` =
        all ones); the view's ``edge_id`` may index any backing store —
        the engine only consumes per-slot quantities.  ``row_sampler``
        is a prebuilt sampler over ``adj`` (anything with a
        ``sample(rows, seed)`` returning slot ids — the store's
        per-round alias planes, or the bisection
        :class:`repro.sampling.rowsample.RowSampler` that test oracles
        and the seed baseline use); ``None`` builds alias planes from
        ``adj``.
        """
        is_terminal = np.asarray(is_terminal, dtype=bool)
        if not is_terminal.any():
            raise SamplingError("terminal set must be non-empty")
        engine = cls.__new__(cls)
        engine.graph = None
        engine.is_terminal = is_terminal
        engine.adj = adj
        engine.sampler = row_sampler if row_sampler is not None \
            else CSRAliasSampler(adj)
        if slot_mult is None:
            engine._slot_resistance = 1.0 / adj.weight
        else:
            engine._slot_resistance = slot_mult / adj.weight
        return engine

    @property
    def state_nbytes_per_walker(self) -> int:
        """Bytes per launched walker (perf accounting): live stepping
        state (position + resistance + length + id) plus the result
        arrays (terminal + resistance + length) held for the full
        batch."""
        return (8 + 8 + 8 + 8) + (8 + 8 + 8)

    def run(self, starts: np.ndarray, seed=None,
            max_steps: int = 10_000, compact: bool = True) -> WalkResult:
        """Walk every ``starts[i]`` until it reaches the terminal set.

        Raises :class:`SamplingError` if any walk exceeds ``max_steps``
        (with a 5-DD complement the odds of even 100 steps are
        ≤ (1/5)^100 — exceeding the cap means the precondition is
        broken, not bad luck).  ``compact=False`` runs the
        O(total walkers)-per-round reference loop; results are
        bit-identical for the same seed.
        """
        starts = np.asarray(starts, dtype=np.int64)
        rng = as_generator(seed)
        if not compact:
            return self._run_reference(starts, rng, max_steps)
        k = starts.size
        terminal = starts.copy()
        resistance = np.zeros(k, dtype=np.float64)
        length = np.zeros(k, dtype=np.int64)
        # Compacted live state: `alive` holds the (ascending) walker ids
        # still in flight; parallel arrays hold only their state.
        alive = np.nonzero(~self.is_terminal[starts])[0]
        pos = starts[alive]
        res = np.zeros(alive.size, dtype=np.float64)
        ln = np.zeros(alive.size, dtype=np.int64)
        track = ledger_active()
        rounds = 0
        while alive.size:
            if rounds >= max_steps:
                raise SamplingError(
                    f"{alive.size} walks exceeded {max_steps} steps; "
                    f"is V∖C really (almost) independent / 5-DD?")
            slots = self.sampler.sample(pos, seed=rng)
            pos = self.adj.neighbor[slots]
            res = res + self._slot_resistance[slots]
            ln = ln + 1
            done = self.is_terminal[pos]
            if track:
                charge(*P.walk_step_cost(alive.size), label="walk_steps")
            rounds += 1
            if done.any():
                ids = alive[done]
                terminal[ids] = pos[done]
                resistance[ids] = res[done]
                length[ids] = ln[done]
                keep = ~done
                alive = alive[keep]
                pos = pos[keep]
                res = res[keep]
                ln = ln[keep]
        return WalkResult(terminal=terminal, resistance=resistance,
                          length=length, rounds=rounds)

    def _run_reference(self, starts: np.ndarray, rng,
                       max_steps: int) -> WalkResult:
        """Uncompacted loop: O(total walkers) bookkeeping per round."""
        k = starts.size
        position = starts.copy()
        resistance = np.zeros(k, dtype=np.float64)
        length = np.zeros(k, dtype=np.int64)
        active = ~self.is_terminal[position]
        track = ledger_active()
        rounds = 0
        while active.any():
            if rounds >= max_steps:
                raise SamplingError(
                    f"{int(active.sum())} walks exceeded {max_steps} steps; "
                    f"is V∖C really (almost) independent / 5-DD?")
            idx = np.nonzero(active)[0]
            slots = self.sampler.sample(position[idx], seed=rng)
            position[idx] = self.adj.neighbor[slots]
            resistance[idx] += self._slot_resistance[slots]
            length[idx] += 1
            active[idx] = ~self.is_terminal[position[idx]]
            if track:
                charge(*P.walk_step_cost(idx.size), label="walk_steps")
            rounds += 1
        return WalkResult(terminal=position, resistance=resistance,
                          length=length, rounds=rounds)

    def run_chunked(self, starts: np.ndarray, seed=None,
                    max_steps: int = 10_000,
                    workers: int | None = None,
                    chunks: int | None = None,
                    ctx=None) -> WalkResult:
        """:meth:`run` split over walker chunks (thread-pool friendly).

        Walkers are independent, so chunking changes nothing
        statistically (each chunk gets an independent child stream) and
        demonstrates the fork/join structure: the ledger records the
        chunks as parallel branches (works add, depths max — the joined
        depth equals the unchunked one, the longest walk).

        With an :class:`repro.pram.ExecutionContext` ``ctx``, the chunk
        layout comes from ``ctx.item_chunks`` — a function of the walker
        count and the chunk policy (``chunk_items``), never of the
        worker count — so for a fixed seed and fixed chunk policy the
        result is
        **bit-identical regardless of the worker count or backend**
        (they only schedule the fixed chunks).  The explicit
        ``chunks``/``workers`` parameters remain for callers that want
        a specific layout.
        """
        from repro.pram.executor import ExecutionContext, chunk_ranges

        starts = np.asarray(starts, dtype=np.int64)
        rng = as_generator(seed)
        if ctx is None:
            if chunks is None:
                chunks = max(1, (workers or 1))
            pieces = chunk_ranges(starts.size, chunks)
            ctx = ExecutionContext(workers=workers)
        else:
            pieces = ctx.item_chunks(starts.size) if chunks is None \
                else chunk_ranges(starts.size, chunks)

        def one(lo: int, hi: int, stream) -> WalkResult:
            return self.run(starts[lo:hi], seed=stream,
                            max_steps=max_steps)

        results = ctx.run_chunks(one, pieces, rng=rng)
        if not results:
            return WalkResult(np.empty(0, np.int64), np.empty(0),
                              np.empty(0, np.int64), 0)
        return WalkResult(
            terminal=np.concatenate([r.terminal for r in results]),
            resistance=np.concatenate([r.resistance for r in results]),
            length=np.concatenate([r.length for r in results]),
            rounds=max(r.rounds for r in results))
