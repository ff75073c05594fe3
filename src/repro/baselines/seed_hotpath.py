"""The seed's ``ApproxSchur`` hot path, kept as a benchmark baseline.

The solver walks through one path: implicit α-split multiplicities,
an incrementally maintained interior-restricted CSR, compacted walker
stepping and per-row alias planes (:func:`repro.core.schur.approx_schur`).
This module re-runs what the seed did instead, so the hot-path
benchmark (``benchmarks/bench_p01_hotpath.py``) and the equivalence
tests have something to measure against:

* **materialised split** — Lemma 3.2's ``⌈1/α⌉`` copies become
  explicit edge rows (O(m/α) memory);
* **full CSR each round** — the 5-DD scan rebuilds the induced
  interior subgraph and the walk engine builds the unrestricted
  adjacency of every stored edge;
* **uncompacted stepping** — one walker per endpoint of every stored
  edge, retired walkers stay in the state arrays;
* **bisection sampling** — :class:`repro.sampling.RowSampler`, O(log m)
  per query.

Outputs agree with the solver's path in distribution, not bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.config import SolverOptions, default_options
from repro.core.boundedness import naive_split
from repro.core.dd_subset import five_dd_subset
from repro.core.schur import ApproxSchurReport, schur_alpha_inverse
from repro.core.terminal_walks import MAX_WALK_STEPS, TerminalWalkStats
from repro.errors import FactorizationError, SamplingError
from repro.graphs.multigraph import MultiGraph
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator
from repro.sampling.rowsample import RowSampler
from repro.sampling.walks import WalkEngine

__all__ = ["seed_terminal_walks", "seed_approx_schur"]


def seed_terminal_walks(graph: MultiGraph, C: np.ndarray, seed=None,
                        max_steps: int = MAX_WALK_STEPS,
                        return_stats: bool = False
                        ) -> MultiGraph | tuple[MultiGraph,
                                                TerminalWalkStats]:
    """The seed ``TerminalWalks``: every stored edge launches two
    walkers over the full CSR, stepped uncompacted with bisection.

    Requires an explicit graph (``mult is None``) — the seed had no
    implicit multiplicities.
    """
    C = np.asarray(C, dtype=np.int64)
    if C.size == 0:
        raise SamplingError("terminal set C must be non-empty")
    if graph.mult is not None:
        raise SamplingError(
            "the seed terminal walks require an explicit (materialised) "
            "graph")
    is_terminal = np.zeros(graph.n, dtype=bool)
    is_terminal[C] = True
    m = graph.m
    if m == 0:
        empty = MultiGraph(graph.n, np.empty(0, np.int64),
                           np.empty(0, np.int64), np.empty(0, np.float64),
                           validate=False)
        stats = TerminalWalkStats(0, 0, 0.0, 0, 0, 0)
        return (empty, stats) if return_stats else empty

    adj = graph.adjacency()
    engine = WalkEngine.from_adjacency(adj, None, is_terminal,
                                       row_sampler=RowSampler(adj))
    starts = np.concatenate([graph.u, graph.v])
    result = engine.run(starts, seed=as_generator(seed),
                        max_steps=max_steps, compact=False)

    c1 = result.terminal[:m]
    c2 = result.terminal[m:]
    resistance = 1.0 / graph.w + result.resistance[:m] + result.resistance[m:]
    keep = c1 != c2
    H = MultiGraph(graph.n, c1[keep], c2[keep], 1.0 / resistance[keep],
                   validate=False)
    if ledger_active():
        charge(*P.map_cost(m), label="terminal_walks_combine")

    if return_stats:
        lengths = result.length[:m] + result.length[m:]
        stats = TerminalWalkStats(
            total_steps=int(result.length.sum()),
            max_walk_length=int(lengths.max(initial=0)),
            mean_walk_length=float(lengths.mean()),
            edges_in=m,
            edges_out=int(keep.sum()),
            self_loops_dropped=int(m - keep.sum()),
            walkers=2 * m,
            csr_nbytes=adj.nbytes + engine.sampler.nbytes,
            walker_nbytes=2 * m * engine.state_nbytes_per_walker)
        return H, stats
    return H


def seed_approx_schur(graph: MultiGraph, C: np.ndarray,
                      eps: float = 0.5, seed=None,
                      options: SolverOptions | None = None,
                      split: bool = True,
                      alpha_scale: float = 0.25,
                      return_report: bool = False
                      ) -> MultiGraph | ApproxSchurReport:
    """The seed ``ApproxSchur`` loop; same parameters and report as
    :func:`repro.core.schur.approx_schur`."""
    opts = options or default_options()
    rng = as_generator(seed if seed is not None else opts.seed)
    C = np.unique(np.asarray(C, dtype=np.int64))
    if C.size == 0 or C.size >= graph.n:
        raise SamplingError("C must be a non-trivial vertex subset")
    if C.min() < 0 or C.max() >= graph.n:
        raise SamplingError("C contains out-of-range vertex ids")

    work = graph
    if split:
        work = naive_split(graph, 1.0 / schur_alpha_inverse(
            graph.n, eps, alpha_scale))
    work = work.materialized()

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
        member = np.zeros(graph.n, dtype=bool)
        member[U] = True
        scan = work.edge_subset(member[work.u] & member[work.v])
        deg_U = scan.weighted_degrees()
        trivially_dd = U[deg_U[U] == 0]  # no interior edges: always 5-DD
        if trivially_dd.size == U.size:
            F = U
        else:
            F_sampled = five_dd_subset(scan, active=U[deg_U[U] > 0],
                                       seed=rng, options=opts)
            F = np.union1d(F_sampled, trivially_dd)
        terminals = np.setdiff1d(active, F)
        dd_bytes = work.edge_nbytes + scan.edge_nbytes
        scan = None
        nxt, stats = seed_terminal_walks(work, terminals, seed=rng,
                                         return_stats=True)
        walk_bytes = (work.edge_nbytes + stats.csr_nbytes
                      + stats.walker_nbytes + nxt.edge_nbytes)
        peak_bytes = max(peak_bytes, dd_bytes, walk_bytes)
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
            total_walkers=total_walkers)
    return work
