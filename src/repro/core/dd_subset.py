"""``5DDSubset`` — Algorithm 3 ([LPS15], Lemma 3.4).

Finds a subset ``F`` of the active vertices, of size ``> n/40``, such
that ``L_FF`` is 5-diagonally dominant (Definition 3.1): every F vertex
carries at most ``1/5`` of its weighted degree inside ``F``.  Such an
"almost independent" ``F`` is what makes ``L_FF`` trivially invertible
by a few Jacobi iterations (Lemma 3.5) and terminal walks short
(Lemma 5.4: each step escapes to ``C`` with probability ≥ 4/5).

The procedure: repeatedly sample a uniform candidate set ``F'`` of size
``n/20`` and keep the candidates whose within-``F'`` weighted degree is
at most ``1/5`` of their total weighted degree.  Lemma 3.4 shows each
round succeeds with probability ≥ 1/2, so the expected number of rounds
is O(1), giving O(m) expected work and O(log m) expected depth.

:func:`extend_independent` then fattens ``F`` with a maximal
independent set of the vertices that have no edge to ``F``: each such
vertex has zero weight inside the extended set, so ``L_FF`` stays 5-DD
and the Jacobi/walk guarantees are unchanged (DESIGN.md §16).
"""

from __future__ import annotations

import numpy as np

from repro.config import SolverOptions, default_options
from repro.errors import FactorizationError
from repro.graphs.multigraph import MultiGraph, scatter_add_pair
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator

__all__ = ["five_dd_subset", "extend_independent", "verify_five_dd",
           "DDSubsetStats"]


class DDSubsetStats:
    """Diagnostics: rounds taken and the acceptance ratio per round."""

    def __init__(self) -> None:
        self.rounds: int = 0
        self.accepted: list[int] = []

    def record(self, kept: int) -> None:
        """Log one sampling round that accepted ``kept`` vertices."""
        self.rounds += 1
        self.accepted.append(kept)


def _within_subset_degrees(graph, member: np.ndarray) -> np.ndarray:
    """Weighted degree of each vertex counting only edges with *both*
    endpoints flagged in the boolean ``member`` mask.

    ``graph`` may be a :class:`MultiGraph` or any degree oracle
    exposing ``within_subset_degrees`` (e.g.
    :class:`repro.sampling.inc_csr.InteriorDegreeOracle`, which serves
    the scan straight from the incremental edge store).
    """
    if hasattr(graph, "within_subset_degrees"):
        return graph.within_subset_degrees(member)
    both = member[graph.u] & member[graph.v]
    if not both.any():
        return np.zeros(graph.n, dtype=np.float64)
    return scatter_add_pair(graph.u[both], graph.w[both],
                            graph.v[both], graph.w[both], graph.n)


def five_dd_subset(graph,
                   active: np.ndarray | None = None,
                   seed=None,
                   options: SolverOptions | None = None,
                   stats: DDSubsetStats | None = None,
                   max_rounds: int = 1000) -> np.ndarray:
    """Return a 5-DD subset ``F`` of the ``active`` vertices.

    Parameters
    ----------
    graph:
        Multigraph whose edges all live inside ``active`` — or a
        degree oracle with the same ``n`` / ``m`` /
        ``weighted_degrees()`` / ``within_subset_degrees(member)``
        surface (:class:`repro.sampling.inc_csr.InteriorDegreeOracle`),
        which lets the elimination loop run the scan without
        materialising the induced interior subgraph.  Oracle degrees
        are bit-identical to the rebuild's, so the sampled ``F`` (and
        every downstream result) is unchanged.
    active:
        Vertex ids to draw from; defaults to all of ``0..n-1``.
        Vertices with zero weighted degree are never selected (they
        would make ``X`` singular in the Jacobi operator).
    options:
        ``dd_fraction`` (accept when ``|F| > n·dd_fraction``),
        ``dd_candidate_fraction`` (candidate-set size) and
        ``dd_threshold`` (the 1/5).
    stats:
        Optional diagnostics collector.
    max_rounds:
        Hard cap — Lemma 3.4 gives success probability ≥ 1/2 per round,
        so hitting the cap indicates a bug, not bad luck.
    """
    opts = options or default_options()
    rng = as_generator(seed)
    if active is None:
        active = np.arange(graph.n, dtype=np.int64)
    else:
        active = np.asarray(active, dtype=np.int64)
    wdeg = graph.weighted_degrees()
    eligible = active[wdeg[active] > 0]
    n_act = active.size
    if eligible.size == 0:
        raise FactorizationError("no active vertex carries an edge")
    if eligible.size == 1:
        # A singleton is always 5-DD (no off-diagonal inside F).
        if stats is not None:
            stats.record(1)
        return eligible.copy()

    target = n_act * opts.dd_fraction
    cand_size = max(1, int(np.ceil(n_act * opts.dd_candidate_fraction)))
    cand_size = min(cand_size, eligible.size)

    best: np.ndarray | None = None
    for _ in range(max_rounds):
        cand = rng.choice(eligible, size=cand_size, replace=False)
        member = np.zeros(graph.n, dtype=bool)
        member[cand] = True
        deg_in = _within_subset_degrees(graph, member)
        keep = deg_in[cand] <= opts.dd_threshold * wdeg[cand]
        F = cand[keep]
        if ledger_active():
            charge(*P.map_cost(graph.m), label="dd_subset_round")
        if stats is not None:
            stats.record(int(F.size))
        if F.size > target or F.size == eligible.size:
            return np.sort(F)
        if F.size and (best is None or F.size > best.size):
            best = F
    # Lemma 3.4 gives success probability >= 1/2 per round, so reaching
    # here means the active set is degenerate (e.g. almost all isolated).
    # Any non-empty 5-DD subset still makes progress; a singleton is
    # always 5-DD, so we can always fall back to one vertex.
    if best is not None:
        return np.sort(best)
    return eligible[:1].copy()


def extend_independent(graph: MultiGraph, active: np.ndarray,
                       F: np.ndarray, seed=None,
                       stats: DDSubsetStats | None = None) -> np.ndarray:
    """Return ``sorted(F ∪ S)``, ``S`` a maximal independent set of the
    vertices free of ``F``.

    A vertex is *free* if it is in ``active``, has positive weighted
    degree, is not in ``F`` and has no edge to ``F``.  Luby rounds pick
    ``S``: each round draws ``rng.random(graph.n)`` priorities, bars the
    larger-priority endpoint of every edge between two free vertices
    (the ``u`` endpoint on a tie), and moves the unbarred free vertices
    into ``S``; they and their neighbours stop being free.  Every ``S``
    vertex therefore has zero weight inside ``F ∪ S``: ``L_FF`` stays
    5-DD, ``Y = L_FF``'s off-diagonal part is unchanged, and terminal
    walks from ``S`` take one step into ``C``.  ``C`` keeps every
    neighbour of ``S`` and the ≥ 4/5 of each ``F`` vertex's weight that
    leaves ``F``, so it is never emptied while ``0 < |F|``.

    Rounds touch only edges whose endpoints are both still free, with
    boolean gathers and scatters; each is charged one map over
    ``graph.m`` (label ``dd_extend_round``).  ``stats`` records the
    vertices each round adds.
    """
    rng = as_generator(seed)
    n = graph.n
    u, v = graph.u, graph.v
    chosen = np.zeros(n, dtype=bool)
    chosen[F] = True
    free = np.zeros(n, dtype=bool)
    free[active] = True
    free &= (graph.weighted_degrees() > 0) & ~chosen
    touch = chosen[u] | chosen[v]
    free[u[touch]] = False
    free[v[touch]] = False
    while free.any():
        pri = rng.random(n)
        both = free[u] & free[v]
        u, v = u[both], v[both]
        bar_u = pri[u] >= pri[v]
        barred = np.zeros(n, dtype=bool)
        barred[u[bar_u]] = True
        barred[v[~bar_u]] = True
        join = free & ~barred
        chosen |= join
        free &= ~join
        hit = join[u] | join[v]
        free[u[hit]] = False
        free[v[hit]] = False
        if ledger_active():
            charge(*P.map_cost(graph.m), label="dd_extend_round")
        if stats is not None:
            stats.record(int(np.count_nonzero(join)))
    return np.flatnonzero(chosen)


def verify_five_dd(graph: MultiGraph, F: np.ndarray,
                   threshold: float = 1.0 / 5.0,
                   rtol: float = 1e-9) -> bool:
    """Is ``L_FF`` 5-DD?  Equivalent vertex-wise form: each ``i ∈ F``
    has within-``F`` weighted degree ≤ ``threshold``× its total."""
    F = np.asarray(F, dtype=np.int64)
    member = np.zeros(graph.n, dtype=bool)
    member[F] = True
    deg_in = _within_subset_degrees(graph, member)
    wdeg = graph.weighted_degrees()
    lhs = deg_in[F]
    rhs = threshold * wdeg[F]
    return bool(np.all(lhs <= rhs * (1.0 + rtol) + 1e-12))
