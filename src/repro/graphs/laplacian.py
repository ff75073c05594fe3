"""Laplacian assembly and block extraction.

``L = D - A`` with ``D`` the weighted degrees and ``A`` the (coalesced)
adjacency (Section 2 of the paper).  Different multigraphs can share a
Laplacian; these helpers always coalesce parallel edges during assembly
so the sparse matrices stay small.  Every matrix here is assembled
straight into canonical CSR by one ``O(nnz)`` pass of two stable
counting sorts (:func:`repro.graphs.multigraph._canonical_csr`), with
parallel edges summed in edge order (DESIGN.md §18).

:func:`laplacian_blocks` extracts exactly the pieces ``ApplyCholesky``
needs at each level: the diagonal ``X`` and induced-subgraph Laplacian
``Y`` with ``L_FF = X + Y`` (Lemma 3.5's decomposition), plus the
off-diagonal coupling block ``L_FC = -W_FC``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import DimensionMismatchError
from repro.graphs.multigraph import (
    MultiGraph,
    _canonical_csr,
    scatter_add_pair,
    scatter_add_pair_cols,
)
from repro.pram import charge, ledger_active
from repro.pram import primitives as P

__all__ = [
    "laplacian",
    "adjacency_matrix",
    "apply_laplacian",
    "laplacian_blocks",
    "LaplacianBlocks",
]


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[a0, b0, a1, b1, …]``: both half-edges of each edge, in edge
    order."""
    return np.column_stack((a, b)).ravel()


def adjacency_matrix(graph: MultiGraph) -> sp.csr_matrix:
    """Symmetric weighted adjacency matrix (parallel edges coalesced).

    Parallel edges sum in edge order; both half-edges of an edge sit at
    the same place in that order, so the matrix is exactly symmetric.
    """
    if graph.m == 0:
        return sp.csr_matrix((graph.n, graph.n))
    A = _canonical_csr(_interleave(graph.u, graph.v),
                       _interleave(graph.v, graph.u),
                       np.repeat(graph.w, 2), (graph.n, graph.n))
    charge(*P.convert_cost(2 * graph.m), label="adjacency_matrix")
    return A


def laplacian(graph: MultiGraph) -> sp.csr_matrix:
    """Graph Laplacian ``L = D - A`` as CSR.

    ``D`` holds ``A``'s row sums as scipy's ``A.sum(axis=1)`` forms
    them, so on a graph without parallel edges every entry is the one
    ``diags(deg) - A`` gave; a zero degree (isolated vertex) is not
    stored.
    """
    A = adjacency_matrix(graph)
    deg = np.asarray(A.sum(axis=1)).ravel()
    diag = np.arange(graph.n)
    rows = np.repeat(diag, np.diff(A.indptr))
    return _canonical_csr(np.concatenate((rows, diag)),
                          np.concatenate((A.indices, diag)),
                          np.concatenate((-A.data, deg)), A.shape)


def apply_laplacian(graph: MultiGraph, x: np.ndarray) -> np.ndarray:
    """``L_G x`` straight from the edge arrays (no matrix assembly).

    This is the ``O(m)`` work / ``O(log m)`` depth primitive the proof of
    Theorem 3.10 describes: per-edge products in parallel, per-vertex
    balanced-tree sums.  ``x`` may be a vector ``(n,)`` or a block of
    ``k`` columns ``(n, k)``; the block path flattens the per-column
    scatter into one ``O(mk)`` bincount.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != graph.n:
        raise DimensionMismatchError(
            f"vector has leading dimension {x.shape[0] if x.ndim else 0} "
            f"for a {graph.n}-vertex graph")
    diff = x[graph.u] - x[graph.v]
    if x.ndim == 1:
        contrib = graph.w * diff
        out = scatter_add_pair(graph.u, contrib, graph.v, contrib,
                               graph.n, subtract=True)
    else:
        contrib = graph.w[:, None] * diff
        out = scatter_add_pair_cols(graph.u, contrib, graph.v, contrib,
                                    graph.n, subtract=True)
    if ledger_active():
        charge(*P.matvec_cost(graph.m * (1 if x.ndim == 1 else x.shape[1])),
               label="apply_laplacian")
    return out


@dataclass(frozen=True)
class LaplacianBlocks:
    """The per-level matrices ``ApplyCholesky`` consumes.

    With the bipartition ``F ⊔ C`` of the level's vertices (positional
    indices into the level's vertex array):

    * ``X`` — diagonal of ``L_FF`` minus the induced-subgraph degrees:
      each ``F`` vertex's weighted degree towards ``C`` (strictly
      positive whenever ``F`` is 5-DD).
    * ``Y`` — Laplacian of the induced subgraph ``G[F]``.
    * ``L_FC`` — coupling block (``-`` weights between F and C), CSR of
      shape ``(|F|, |C|)``; ``L_CF`` is its transpose by symmetry.
    """

    X: np.ndarray
    Y: sp.csr_matrix
    L_FC: sp.csr_matrix

    @property
    def nf(self) -> int:
        """Eliminated-block dimension ``|F|``."""
        return self.X.shape[0]

    @property
    def nc(self) -> int:
        """Surviving-block dimension ``|C|``."""
        return self.L_FC.shape[1]


def laplacian_blocks(graph: MultiGraph, F: np.ndarray,
                     C: np.ndarray) -> LaplacianBlocks:
    """Extract ``X``, ``Y``, ``L_FC`` for the bipartition ``F ⊔ C``.

    ``F`` and ``C`` are disjoint vertex-id arrays covering every vertex
    that carries an edge.  Positional indexing: row ``i`` of the blocks
    refers to vertex ``F[i]`` (resp. column ``j`` ↦ ``C[j]``).
    """
    F = np.asarray(F, dtype=np.int64)
    C = np.asarray(C, dtype=np.int64)
    nf, nc = F.size, C.size
    side = np.full(graph.n, -1, dtype=np.int8)  # 0 = F, 1 = C
    pos = np.full(graph.n, -1, dtype=np.int64)
    side[F] = 0
    pos[F] = np.arange(nf)
    side[C] = 1
    pos[C] = np.arange(nc)

    su, sv = side[graph.u], side[graph.v]
    if np.any(su < 0) or np.any(sv < 0):
        raise DimensionMismatchError(
            "edge endpoint outside F ∪ C; pass the level's full vertex set")

    # Only the F-incident edges reach a block; keep them in edge order.
    inc = np.flatnonzero((su == 0) | (sv == 0))
    uF, vF = su[inc] == 0, sv[inc] == 0
    pu, pv, w = pos[graph.u[inc]], pos[graph.v[inc]], graph.w[inc]

    # Total weighted degree of each F vertex (all incident edges).
    deg_F = scatter_add_pair(pu[uF], w[uF], pv[vF], w[vF], nf)

    # Induced subgraph G[F] Laplacian Y: its degrees on the diagonal,
    # −w at both half-edges of every F–F edge.
    ff = uF & vF
    uf, vf, wf = pu[ff], pv[ff], w[ff]
    deg_in_F = scatter_add_pair(uf, wf, vf, wf, nf)
    diag = np.arange(nf)
    Y = _canonical_csr(np.concatenate((diag, _interleave(uf, vf))),
                       np.concatenate((diag, _interleave(vf, uf))),
                       np.concatenate((deg_in_F, np.repeat(-wf, 2))),
                       (nf, nf))

    # X = degree towards C (diagonal of L_FF minus Y's diagonal).
    X = deg_F - deg_in_F

    # Coupling block L_FC = -W_FC over the edges with one end in F.
    fc = uF != vF
    L_FC = _canonical_csr(np.where(uF, pu, pv)[fc],
                          np.where(uF, pv, pu)[fc], -w[fc], (nf, nc))

    charge(*P.convert_cost(graph.m), label="laplacian_blocks")
    return LaplacianBlocks(X=X, Y=Y, L_FC=L_FC)
