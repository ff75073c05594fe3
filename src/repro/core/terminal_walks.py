"""``TerminalWalks`` — Algorithm 4: sparse Schur complements by walks.

For every logical multi-edge ``e = {u, v}``, launch one random walk
from each endpoint and run it until it hits the terminal set ``C``;
splice ``W(e) = W₁(e) + e + W₂(e)`` and, when the two terminals differ,
emit a multi-edge ``f_e = {c₁, c₂}`` with weight

    ``w(f_e) = 1 / Σ_{f ∈ W(e)} 1/w(f)``

— the series-resistance composition of the walk.  Key guarantees:

* Lemma 5.1 — unbiased: ``E[L_H] = SC(L_G, C)``.
* Lemma 5.2 — each ``f_e`` stays α-bounded w.r.t. the *original* ``L``
  (effective resistance obeys the triangle inequality, Lemma 5.3).
* Lemma 5.4 — ``H`` has at most ``m`` multi-edges; when ``V∖C`` is 5-DD
  the total walk length is ``O(m)`` and the maximum ``O(log m)`` whp,
  so everything runs in ``O(m)`` work / ``O(log m)`` depth.

Hot-path structure (see DESIGN.md): an edge group with *both* endpoints
in ``C`` has a deterministic outcome — both walks are empty, so every
one of its logical copies re-emits itself verbatim.  Such groups pass
through compactly (arrays untouched, multiplicity preserved) and launch
no walkers at all.  Only groups with an endpoint in ``V∖C`` expand, one
walker pair per logical copy; their emitted edges are explicit
(``mult = 1``) because each carries its own sampled resistance.  The
walkers sample from the engine's interior-restricted CSR — the full
``O(m/α)``-sized split graph is never materialised anywhere.

Coalesced inputs (DESIGN.md §11): when the incremental store merges a
round's emitted parallels, a later round sees one group ``(Σw_i,
mult=k)`` where the uncoalesced realisation held ``k`` explicit edges.
Expansion is unchanged — ``k`` walker pairs launch either way, so
Lemma 5.4's logical edge accounting is untouched — but each copy's
base resistance becomes ``k/Σw_i``, the conditional *mean* of the
individual ``1/w_i`` under weight-proportional choice.  Lemma 5.1's
unbiasedness therefore survives coalescing (with strictly smaller
variance per splice term); realised walks differ from the uncoalesced
run distributionally only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError
from repro.graphs.multigraph import MultiGraph
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator
from repro.sampling.walks import WalkEngine

__all__ = ["terminal_walks", "TerminalWalkStats", "MAX_WALK_STEPS"]

#: Safety cap on a single terminal walk.  Lemma 5.4 gives ``O(log m)``
#: steps whp when ``V ∖ C`` is 5-DD, so a walk that reaches the cap
#: raises :class:`SamplingError`: the 5-DD precondition was violated.
MAX_WALK_STEPS = 10_000


@dataclass(frozen=True)
class TerminalWalkStats:
    """Diagnostics matching Lemma 5.4's quantities.

    ``edges_in``/``edges_out`` count *logical* multi-edges.  The
    ``*_nbytes`` fields record the transient memory this invocation
    actually touched (restricted CSR + live walker state) for the
    hot-path benchmarks.
    """

    total_steps: int
    max_walk_length: int
    mean_walk_length: float
    edges_in: int
    edges_out: int
    self_loops_dropped: int
    walkers: int = 0
    csr_nbytes: int = 0
    walker_nbytes: int = 0
    #: Stored edge groups that passed through verbatim (both endpoints
    #: terminal) — the prefix of the output's edge arrays.  Callers
    #: maintaining an incremental CSR use it to locate the emitted
    #: suffix.
    passthrough_stored: int = 0


def terminal_walks(graph: MultiGraph,
                   C: np.ndarray,
                   seed=None,
                   max_steps: int = MAX_WALK_STEPS,
                   return_stats: bool = False,
                   engine: WalkEngine | None = None,
                   ctx=None
                   ) -> MultiGraph | tuple[MultiGraph, TerminalWalkStats]:
    """Sample a sparse approximation to ``SC(L_G, C)``.

    Parameters
    ----------
    graph:
        Connected multigraph (global vertex ids); implicit
        multiplicities are consumed without expansion.
    C:
        Terminal vertex ids (the complement of the set being
        eliminated).  Must be non-trivial: non-empty, and the walks
        must be able to reach it.
    seed, max_steps:
        Randomness and the safety cap of the walk engine
        (:data:`MAX_WALK_STEPS`; exceeding it raises
        :class:`SamplingError`).
    return_stats:
        Also return a :class:`TerminalWalkStats`.
    engine:
        Prebuilt :class:`WalkEngine` over ``graph``'s current edges
        with terminals ``C`` (the elimination loops pass
        :meth:`repro.sampling.IncrementalWalkCSR.walk_engine`).
        ``None`` builds one from scratch.
    ctx:
        Optional :class:`repro.pram.ExecutionContext`.  When given, the
        walkers step in deterministic disjoint chunks (one spawned RNG
        stream per chunk) on the context's thread pool, and results
        are bit-identical for a fixed seed regardless of the worker
        count.  ``None`` keeps the single-stream serial
        stepping.

    Returns
    -------
    ``H`` — a multigraph on the *same global id space* whose edges touch
    only ``C`` vertices, with at most ``graph.m_logical`` logical
    multi-edges; and optionally the stats.
    """
    C = np.asarray(C, dtype=np.int64)
    if C.size == 0:
        raise SamplingError("terminal set C must be non-empty")
    is_terminal = np.zeros(graph.n, dtype=bool)
    is_terminal[C] = True

    if graph.m == 0:
        empty = MultiGraph(graph.n, np.empty(0, np.int64),
                           np.empty(0, np.int64), np.empty(0, np.float64),
                           validate=False)
        stats = TerminalWalkStats(0, 0, 0.0, 0, 0, 0)
        return (empty, stats) if return_stats else empty

    rng = as_generator(seed)

    # Groups entirely inside C pass through verbatim: both walks are
    # empty, so each logical copy deterministically re-emits itself.
    passthrough = is_terminal[graph.u] & is_terminal[graph.v]
    widx = np.nonzero(~passthrough)[0]
    mult = graph.multiplicities()
    m_logical = graph.m_logical
    if ledger_active():
        charge(*P.map_cost(graph.m), label="terminal_walks_classify")

    pu = graph.u[passthrough]
    pv = graph.v[passthrough]
    pw = graph.w[passthrough]
    pm = None if graph.mult is None else graph.mult[passthrough]

    if widx.size == 0:
        H = MultiGraph(graph.n, pu, pv, pw, mult=pm, validate=False)
        if return_stats:
            stats = TerminalWalkStats(
                total_steps=0, max_walk_length=0, mean_walk_length=0.0,
                edges_in=m_logical, edges_out=m_logical,
                self_loops_dropped=0, passthrough_stored=pu.size)
            return H, stats
        return H

    # Expand walk groups per logical copy: walkers [0..mw) start at u,
    # [mw..2mw) at v, copy j of group i adjacent in both halves.  Only
    # `starts` and the per-copy base resistances survive into the
    # stepping loop — the u/v expansions are not kept alive.
    k = mult[widx]
    base_res = np.repeat(k / graph.w[widx], k)  # 1/w_copy = mult/w
    mw = base_res.size
    starts = np.concatenate([np.repeat(graph.u[widx], k),
                             np.repeat(graph.v[widx], k)])
    if engine is None:
        engine = WalkEngine(graph, is_terminal)
    if ctx is not None:
        result = engine.run_chunked(starts, ctx, seed=rng,
                                    max_steps=max_steps)
    else:
        result = engine.run(starts, seed=rng, max_steps=max_steps)

    c1 = result.terminal[:mw]
    c2 = result.terminal[mw:]
    # Series resistance of W(e) = W1 + e + W2.
    resistance = base_res + result.resistance[:mw] + result.resistance[mw:]
    keep = c1 != c2
    H = MultiGraph(graph.n,
                   np.concatenate([pu, c1[keep]]),
                   np.concatenate([pv, c2[keep]]),
                   np.concatenate([pw, 1.0 / resistance[keep]]),
                   mult=None if pm is None
                   else np.concatenate([pm, np.ones(int(keep.sum()),
                                                    dtype=np.int32)]),
                   validate=False)
    if ledger_active():
        charge(*P.map_cost(mw), label="terminal_walks_combine")

    if return_stats:
        lengths = result.length[:mw] + result.length[mw:]
        kept = int(keep.sum())
        pass_logical = m_logical - mw
        stats = TerminalWalkStats(
            total_steps=int(result.length.sum()),
            max_walk_length=int(lengths.max(initial=0)),
            mean_walk_length=float(lengths.sum()) / m_logical,
            edges_in=m_logical,
            edges_out=pass_logical + kept,
            self_loops_dropped=mw - kept,
            walkers=2 * mw,
            csr_nbytes=engine.adj.nbytes,
            walker_nbytes=2 * mw * engine.state_nbytes_per_walker,
            passthrough_stored=pu.size)
        return H, stats
    return H

