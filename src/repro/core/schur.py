"""``ApproxSchur`` — Algorithm 6 (Theorem 7.1).

Computes a sparse ε-approximation to the Schur complement
``SC(L_G, C)``: repeatedly pick a 5-DD subset ``F_k`` *of the induced
subgraph on the not-yet-eliminated interior* ``U_{k-1}``, and replace
the graph by terminal walks onto everything except ``F_k``.  After
``d = O(log |V∖C|)`` rounds the interior is gone and the surviving
graph ``G_S`` satisfies, whp,

    ``L_{G_S} ≈_ε SC(L_G, C)``,    ``m(G_S) ≤ m``,

provided the input multi-edges are α-bounded for
``α⁻¹ = Θ(ε⁻² log² n)``.  Note the sharper α compared to the solver:
here the approximation must hold to ε, not just a constant.

The α-split is *implicit* (Lemma 3.2 via multiplicities, DESIGN.md):
the working graph stays O(m)-sized groups instead of O(m/α) rows, and
each round's work — interior degrees, the walk engine's restricted
CSR and alias planes, all served by one incremental edge store — is
linear in the stored groups, not the logical edge count.  The seed hot
path (materialised split, full CSR per round, uncompacted walkers)
lives in :mod:`repro.baselines.seed_hotpath` for benchmarking.

Paper-notation note (documented in DESIGN.md): Algorithm 6's line 5
writes ``C_k ← C_{k-1} ∖ F_k``; the consistent reading — used in the
Theorem 7.1 proof — is that round ``k``'s walks terminate on all
*current* vertices except ``F_k``.  A 5-DD subset of the induced
subgraph ``G[U]`` is 5-DD in the whole graph (its internal degree is
unchanged while its total degree only grows), so Lemma 5.4's short-walk
guarantee still applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import SolverOptions, default_options
from repro.core.boundedness import naive_split
from repro.core.dd_subset import five_dd_subset
from repro.core.terminal_walks import terminal_walks
from repro.errors import FactorizationError, SamplingError
from repro.graphs.multigraph import MultiGraph
from repro.rng import as_generator
from repro.sampling.inc_csr import IncrementalWalkCSR

__all__ = ["approx_schur", "schur_alpha_inverse", "ApproxSchurReport"]


def schur_alpha_inverse(n: int, eps: float, scale: float = 0.25) -> int:
    """``α⁻¹ = Θ(ε⁻² log² n)`` (Theorem 7.1)."""
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    log2n = math.log2(max(n, 2))
    return max(1, int(round(scale * log2n * log2n / (eps * eps))))


@dataclass
class ApproxSchurReport:
    """Diagnostics for one ``ApproxSchur`` run.

    ``edges_per_round`` counts *logical* multi-edges (the paper's
    ``m``); ``stored_edges_per_round`` counts the compact groups
    actually held.  ``peak_edge_bytes`` is the largest per-round
    edge-array footprint: working graph + its successor + the walk
    engine's CSR and walker state.
    """

    graph: MultiGraph
    rounds: int
    edges_per_round: list[int]
    interior_per_round: list[int]
    stored_edges_per_round: list[int] = field(default_factory=list)
    peak_edge_bytes: int = 0
    total_walkers: int = 0
    #: Whether emitted edges were coalesced in the incremental store
    #: (``SolverOptions.coalesce_emitted`` / ``REPRO_COALESCE``).
    coalesced: bool = False
    #: Emitted slots merged away by coalescing (batch duplicates +
    #: live-slot folds); 0 when not coalescing.
    emitted_slots_saved: int = 0
    #: Alias-table slots built over all rounds (each round's
    #: restricted view; coalescing shrinks it).
    alias_built_slots: int = 0


def approx_schur(graph: MultiGraph,
                 C: np.ndarray,
                 eps: float = 0.5,
                 seed=None,
                 options: SolverOptions | None = None,
                 split: bool = True,
                 alpha_scale: float = 0.25,
                 return_report: bool = False
                 ) -> MultiGraph | ApproxSchurReport:
    """Sparse ε-approximation of ``SC(L_G, C)``.

    Parameters
    ----------
    graph:
        Connected multigraph.
    C:
        Terminal vertex ids (non-trivial: ``0 < |C| < n``).
    eps:
        Target Loewner accuracy ``L_{G_S} ≈_ε SC(L_G, C)``.
    split:
        Apply Lemma 3.2 splitting for ``α⁻¹ = Θ(ε⁻² log² n)`` first.
        Pass ``False`` when the input is already suitably α-bounded.
    alpha_scale:
        Constant in front of ``ε⁻² log² n`` (benchmark E11 sweeps it).

    Each round's walks run through one incrementally maintained edge
    store (:class:`repro.sampling.IncrementalWalkCSR`): delete the
    eliminated ``F`` rows, insert the emitted edges.  With
    ``options.coalesce_emitted`` / ``REPRO_COALESCE`` the store also
    merges each round's emitted parallel edges per ``{u, v}`` pair
    (Laplacian preserved exactly, walks change distributionally —
    DESIGN.md §11).

    The walker batches step through ``options``' execution context in
    deterministic disjoint chunks, so for a fixed seed the output is
    bit-identical no matter which worker count runs them.

    Returns
    -------
    The approximating multigraph (edges only among ``C``), on the same
    global id space; or an :class:`ApproxSchurReport` when requested.
    """
    opts = options or default_options()
    rng = as_generator(seed if seed is not None else opts.seed)
    ctx = opts.execution()
    C = np.unique(np.asarray(C, dtype=np.int64))
    if C.size == 0 or C.size >= graph.n:
        raise SamplingError("C must be a non-trivial vertex subset")
    if C.min() < 0 or C.max() >= graph.n:
        raise SamplingError("C contains out-of-range vertex ids")

    work = naive_split(graph, 1.0 / schur_alpha_inverse(
        graph.n, eps, alpha_scale)) if split else graph
    inc = IncrementalWalkCSR(work)
    coalesce = opts.resolve_coalesce()

    in_C = np.zeros(graph.n, dtype=bool)
    in_C[C] = True
    U = np.nonzero(~in_C)[0]
    active = np.arange(graph.n, dtype=np.int64)

    edges_per_round = [work.m_logical]
    stored_per_round = [work.m]
    interior_per_round = [U.size]
    peak_bytes = work.edge_nbytes
    total_walkers = 0
    rounds = 0
    max_rounds = int(np.ceil(np.log(max(U.size, 2))
                             / np.log(40.0 / 39.0))) + 10
    while U.size > 0:
        if rounds >= max_rounds:
            raise FactorizationError(
                "ApproxSchur exceeded its round budget (Lemma 3.4 "
                "guarantees a constant-fraction shrink per round)")
        # 5DDSubset measures degrees within the induced interior
        # subgraph (Algorithm 6 line 5).  That subgraph is never
        # rebuilt: a degree oracle gathers only the interior rows from
        # the store's epoch index — O(deg U + churn) instead of
        # O(stored edges) (InteriorDegreeOracle docstring).
        scan = inc.interior_degrees(U)
        deg_U = scan.weighted_degrees()
        trivially_dd = U[deg_U[U] == 0]  # no interior edges: always 5-DD
        if trivially_dd.size == U.size:
            F = U
        else:
            F_sampled = five_dd_subset(scan, active=U[deg_U[U] > 0],
                                       seed=rng, options=opts)
            F = np.union1d(F_sampled, trivially_dd)
        terminals = np.setdiff1d(active, F)
        # The scan structure only exists to pick F: release it before
        # the walk phase so the two big per-round footprints (5DD scan
        # vs walk emission) never coexist.
        dd_bytes = work.edge_nbytes + scan.nbytes
        scan = None
        nxt, stats = terminal_walks(work, terminals, seed=rng,
                                    max_steps=opts.max_walk_steps,
                                    return_stats=True,
                                    engine=inc.walk_engine(F, terminals),
                                    ctx=ctx)
        nxt = inc.accept_round(F, nxt, stats.passthrough_stored, coalesce)
        inc_bytes = inc.nbytes
        walk_bytes = (work.edge_nbytes + stats.csr_nbytes
                      + stats.walker_nbytes + nxt.edge_nbytes + inc_bytes)
        peak_bytes = max(peak_bytes, dd_bytes + inc_bytes, walk_bytes)
        total_walkers += stats.walkers
        work = nxt
        active = terminals
        U = np.setdiff1d(U, F)
        rounds += 1
        edges_per_round.append(work.m_logical)
        stored_per_round.append(work.m)
        interior_per_round.append(U.size)

    if return_report:
        return ApproxSchurReport(
            graph=work, rounds=rounds,
            edges_per_round=edges_per_round,
            interior_per_round=interior_per_round,
            stored_edges_per_round=stored_per_round,
            peak_edge_bytes=peak_bytes,
            total_walkers=total_walkers,
            coalesced=coalesce,
            emitted_slots_saved=inc.emitted_slots_saved,
            alias_built_slots=inc.alias_built_slots)
    return work
