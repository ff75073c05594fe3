"""Dense pseudoinverse oracles.

These are the *test oracles* for everything stochastic in the library:
exact ``L⁺``, exact Schur complements, exact effective resistances.
They cost ``O(n³)`` and are only used on small instances (tests and
benches' ground truth); ``BlockCholesky``'s base is factored by a
packed Cholesky instead (DESIGN.md §17).

For a connected graph the kernel is ``span(1)`` (Fact 2.3), so
``L⁺ = (L + J/n)⁻¹ − J/n`` with ``J`` the all-ones matrix — a standard
identity that avoids an SVD.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.errors import DimensionMismatchError
from repro.graphs.laplacian import laplacian
from repro.graphs.multigraph import MultiGraph

__all__ = [
    "pinv_psd",
    "dense_laplacian_pinv",
    "solve_dense_pseudo",
    "exact_solution",
    "exact_schur_complement",
    "exact_effective_resistances",
    "exact_leverage_scores",
]


def pinv_psd(M: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Pseudoinverse of a symmetric PSD matrix with a *relative* kernel
    cutoff.

    ``numpy.linalg.pinv``'s default ``rcond`` (~1e-15) is far below the
    rounding noise of an assembled Laplacian's kernel eigenvalue, so it
    can "invert" the kernel and return garbage of magnitude 1e15.  This
    helper cuts at ``rtol · λ_max`` instead.
    """
    M = np.asarray(M, dtype=np.float64)
    vals, vecs = scipy.linalg.eigh(M)
    cutoff = rtol * max(float(vals.max(initial=0.0)), 1.0)
    keep = vals > cutoff
    if not keep.any():
        return np.zeros_like(M)
    return (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T


def _as_dense(L) -> np.ndarray:
    if isinstance(L, MultiGraph):
        L = laplacian(L)
    if sp.issparse(L):
        L = L.toarray()
    return np.asarray(L, dtype=np.float64)


def dense_laplacian_pinv(L) -> np.ndarray:
    """``L⁺`` for the Laplacian of a *connected* graph.

    Uses ``(L + J/n)⁻¹ − J/n``; falls back to ``numpy.linalg.pinv`` if
    the shifted matrix is singular (disconnected input), so the result
    is always a valid pseudoinverse.
    """
    Ld = _as_dense(L)
    n = Ld.shape[0]
    if Ld.shape != (n, n):
        raise DimensionMismatchError("Laplacian must be square")
    J = np.full((n, n), 1.0 / n)
    try:
        inv = scipy.linalg.inv(Ld + J)
        return inv - J
    except scipy.linalg.LinAlgError:
        return np.linalg.pinv(Ld, hermitian=True)


def solve_dense_pseudo(L, b: np.ndarray) -> np.ndarray:
    """``L⁺ b`` via a dense solve (not a full inverse).

    Solves ``(L + J/n) y = b_proj`` and re-centres; equivalent to
    ``dense_laplacian_pinv(L) @ b`` but one factorisation instead of an
    inversion.  ``b`` may be one vector ``(n,)`` or a block ``(n, k)``
    — one LAPACK factorisation serves all ``k`` columns.
    """
    Ld = _as_dense(L)
    n = Ld.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatchError("b has wrong length")
    b0 = b - b.mean(axis=0)
    J = np.full((n, n), 1.0 / n)
    y = scipy.linalg.solve(Ld + J, b0, assume_a="sym")
    return y - y.mean(axis=0)


def exact_solution(graph: MultiGraph, b: np.ndarray) -> np.ndarray:
    """Ground-truth ``x* = L_G⁺ b`` for a graph instance (``b`` may be
    a single vector or an ``(n, k)`` block)."""
    return solve_dense_pseudo(laplacian(graph), b)


def exact_schur_complement(L, C: np.ndarray) -> np.ndarray:
    """Dense ``SC(L, C) = L_CC − L_CF L_FF⁻¹ L_FC`` (ground truth)."""
    Ld = _as_dense(L)
    n = Ld.shape[0]
    C = np.asarray(C, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[C] = True
    F = np.nonzero(~mask)[0]
    LCC = Ld[np.ix_(C, C)]
    if F.size == 0:
        return LCC
    LFF = Ld[np.ix_(F, F)]
    LFC = Ld[np.ix_(F, C)]
    return LCC - LFC.T @ scipy.linalg.solve(LFF, LFC, assume_a="sym")


def exact_effective_resistances(graph: MultiGraph,
                                pairs: np.ndarray | None = None
                                ) -> np.ndarray:
    """``R_eff(u, v) = b_uvᵀ L⁺ b_uv`` for each requested pair.

    ``pairs`` defaults to the graph's own edge list.
    """
    pinv = dense_laplacian_pinv(laplacian(graph))
    if pairs is None:
        us, vs = graph.u, graph.v
    else:
        pairs = np.asarray(pairs, dtype=np.int64)
        us, vs = pairs[:, 0], pairs[:, 1]
    d = pinv[us, us] + pinv[vs, vs] - 2.0 * pinv[us, vs]
    return np.maximum(d, 0.0)


def exact_leverage_scores(graph: MultiGraph) -> np.ndarray:
    """``τ(e) = w(e) · R_eff(e)`` per multi-edge (Section 3.2)."""
    return graph.w * exact_effective_resistances(graph)
