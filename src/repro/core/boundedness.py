"""α-boundedness for multi-edges (Section 3.2, Lemma 3.2).

A multi-edge ``e`` is α-bounded w.r.t. a Laplacian ``L`` when its
leverage score ``τ(e) = w(e)·b_eᵀ L⁺ b_e ≤ α``.  ``BlockCholesky``
requires every input multi-edge to be α-bounded for
``α⁻¹ = Θ(log² n)`` — this is what powers the matrix-Freedman
concentration argument (Theorem 5.5: the norm bound ``R = α``).

Since ``τ(e) ≤ 1`` always holds (a leverage score is the fraction of
``e``'s weight "used" by the graph), splitting every edge into
``⌈1/α⌉`` parallel copies of ``1/⌈1/α⌉`` times the weight makes every
copy α-bounded while preserving the Laplacian exactly — that is
Lemma 3.2, implemented by :func:`naive_split`.

The split is *implicit* by default: rather than materialising
``m·⌈1/α⌉`` edge rows, the result carries a ``mult`` array marking each
stored group as ``⌈1/α⌉`` logical copies — O(m) memory, and the
Laplacian is not merely close but bit-identical to the input's (the
stored totals are untouched).  See DESIGN.md §"Implicit α-split
multigraphs".
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError
from repro.graphs.multigraph import MultiGraph
from repro.linalg.pinv import exact_effective_resistances
from repro.pram import charge, ledger_active
from repro.pram import primitives as P

__all__ = [
    "leverage_scores",
    "naive_split",
    "split_counts_for_alpha",
    "is_alpha_bounded",
]


def leverage_scores(graph: MultiGraph,
                    reference: MultiGraph | None = None) -> np.ndarray:
    """Exact per-*copy* leverage scores ``τ(e) = w_copy(e) R_eff(e)``.

    For a graph with implicit multiplicities the returned array has one
    entry per stored group — the score of each of the group's
    ``mult`` identical logical copies, i.e. ``(w/mult)·R_eff``.  For
    plain graphs this is the usual ``w·R_eff``.

    ``reference`` lets you measure the edges of ``graph`` against a
    *different* Laplacian (Lemma 5.2 speaks of boundedness w.r.t. the
    original ``L``, not the current level's graph).  Dense oracle —
    O(n³); for estimation at scale use
    :func:`repro.core.lev_est.leverage_overestimates`.
    """
    ref = reference if reference is not None else graph
    if ref.n != graph.n:
        raise GraphStructureError("reference graph must share vertex set")
    pairs = np.stack([graph.u, graph.v], axis=1)
    reff = exact_effective_resistances(ref, pairs)
    w_copy = graph.w if graph.mult is None else graph.w / graph.mult
    return w_copy * reff


def is_alpha_bounded(graph: MultiGraph, alpha: float,
                     reference: MultiGraph | None = None,
                     rtol: float = 1e-9) -> bool:
    """Check every logical multi-edge of ``graph`` is α-bounded (dense
    oracle; implicit copies are checked via their per-copy weight)."""
    tau = leverage_scores(graph, reference)
    return bool(np.all(tau <= alpha * (1.0 + rtol) + 1e-12))


def split_counts_for_alpha(alpha: float) -> int:
    """``⌈1/α⌉`` — copies per edge under naive splitting."""
    if not 0 < alpha:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha >= 1.0:
        return 1
    return int(np.ceil(1.0 / alpha))


def naive_split(graph: MultiGraph, alpha: float) -> MultiGraph:
    """Lemma 3.2: split every edge into ``⌈1/α⌉`` α-bounded copies.

    Returns a multigraph ``H`` with ``m·⌈1/α⌉`` *logical* multi-edges
    and ``L_H = L_G`` exactly.  By default the copies are implicit
    (``H.m == graph.m`` stored groups carrying ``mult = ⌈1/α⌉``), so
    the split costs O(m) work and memory rather than O(m/α).
    :meth:`MultiGraph.materialized` expands the copies into explicit
    rows — the seed representation, kept for benchmark baselines and
    equivalence tests.
    """
    k = split_counts_for_alpha(alpha)
    if k == 1:
        return graph.copy()
    if ledger_active():
        charge(*P.map_cost(graph.m), label="naive_split")
    return graph.split_copies(k)
