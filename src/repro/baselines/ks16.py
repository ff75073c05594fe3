"""Sequential approximate Cholesky for Laplacians — Kyng–Sachdeva 2016.

The baseline the paper extends: eliminate vertices in uniformly random
order; when eliminating ``v``, instead of adding the full clique on its
neighbours (Gaussian elimination), *sample* the clique — for each
multi-edge ``e = (v, u)`` incident to ``v``, draw another incident
multi-edge ``f = (v, z)`` with probability ``w(f)/w(v)`` and add the
multi-edge ``(u, z)`` with weight ``w(e)·w(f) / (w(e) + w(f))``.

Unbiasedness check (pair ``e, f``): iteration ``e`` picks ``f`` w.p.
``w(f)/w(v)`` and iteration ``f`` picks ``e`` w.p. ``w(e)/w(v)``; both
add weight ``w(e)w(f)/(w(e)+w(f))``, totalling ``w(e)w(f)/w(v)`` in
expectation — the clique weight of Gaussian elimination.

The elimination produces a lower-triangular approximate factorization
``L ≈ 𝓛𝓛ᵀ`` used as a PCG preconditioner.  Like the original, the
input should be split into α-bounded multi-edges (``α⁻¹ = Θ(log² n)``)
for the concentration argument; smaller split factors work in practice
and are exposed for benchmarking.

This implementation is intentionally *sequential* — that is the whole
point of the comparison: the paper's contribution is making this
sampling paradigm parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.laplacian import laplacian
from repro.graphs.multigraph import MultiGraph
from repro.graphs.validation import require_connected
from repro.linalg.cg import CGResult, conjugate_gradient
from repro.linalg.ops import project_out_ones
from repro.rng import as_generator

__all__ = ["approximate_cholesky", "ApproxCholeskyFactor", "KS16Solver"]


@dataclass
class ApproxCholeskyFactor:
    """``L ≈ 𝓛 𝓛ᵀ`` with ``𝓛`` lower triangular in elimination order.

    ``perm[i]`` is the vertex eliminated at step ``i``; the last column
    is the all-zero kernel column (the final vertex).  ``solve``
    applies ``(𝓛𝓛ᵀ)⁺`` by two triangular substitutions.
    """

    Lfactor: sp.csc_matrix
    perm: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply ``(𝓛 𝓛ᵀ)⁺ b`` — forward/backward substitution.

        ``b`` may be a vector ``(n,)`` or a block of columns ``(n, k)``.
        """
        from scipy.sparse.linalg import spsolve_triangular

        bp = project_out_ones(np.asarray(b, dtype=np.float64))[self.perm]
        n = bp.shape[0]
        # The genuine kernel makes the last diagonal entry 0; solve the
        # leading (n-1)×(n-1) triangle and put 0 in the kernel slot.
        Lt = self.Lfactor[: n - 1, : n - 1].tocsr()
        y = np.zeros(bp.shape)
        y[: n - 1] = spsolve_triangular(Lt, bp[: n - 1], lower=True)
        z = np.zeros(bp.shape)
        z[: n - 1] = spsolve_triangular(Lt.T.tocsr(), y[: n - 1],
                                        lower=False)
        out = np.empty(bp.shape)
        out[self.perm] = z
        return project_out_ones(out)


def approximate_cholesky(graph: MultiGraph, seed=None,
                         split_factor: float = 1.0) -> ApproxCholeskyFactor:
    """Run KS16 randomised elimination and return the factor.

    ``split_factor`` scales the α-bounded splitting: each edge is
    duplicated ``⌈split_factor · log₂² n⌉`` times (KS16 Theorem 1.1 uses
    Θ(log² n); smaller values trade approximation quality for speed).
    """
    require_connected(graph)
    rng = as_generator(seed)
    n = graph.n
    log2n = math.log2(max(n, 2))
    copies = max(1, int(round(split_factor * log2n * log2n)))

    # Adjacency as per-vertex python dict-of-lists of (nbr, weight):
    # elimination mutates neighbourhoods, so a dynamic structure is the
    # honest sequential implementation.
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, w in zip(graph.u.tolist(), graph.v.tolist(),
                       graph.w.tolist()):
        wc = w / copies
        for _ in range(copies):
            nbrs[a].append((b, wc))
            nbrs[b].append((a, wc))

    perm = rng.permutation(n).astype(np.int64)
    order = np.empty(n, dtype=np.int64)
    order[perm] = np.arange(n)  # order[v] = elimination step of v

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    eliminated = np.zeros(n, dtype=bool)

    for step in range(n - 1):
        v = int(perm[step])
        # Compact v's current neighbourhood (drop eliminated targets).
        live = [(z, w) for (z, w) in nbrs[v] if not eliminated[z]]
        nbrs[v] = []
        eliminated[v] = True
        if not live:
            # Isolated by sampling noise: give the column a unit diagonal
            # so the triangular factor stays non-singular (the
            # preconditioner acts as the identity on this coordinate).
            rows.append(step)
            cols.append(step)
            vals.append(1.0)
            continue
        targets = np.fromiter((z for z, _ in live), dtype=np.int64,
                              count=len(live))
        weights = np.fromiter((w for _, w in live), dtype=np.float64,
                              count=len(live))
        wv = float(weights.sum())

        # Column of the factor: (1/sqrt(w_v)) * L[:, v] restricted.
        rows.append(step)
        cols.append(step)
        vals.append(math.sqrt(wv))
        # Aggregate parallel edges per neighbour for the column entries.
        agg: dict[int, float] = {}
        for z, w in live:
            agg[z] = agg.get(z, 0.0) + w
        inv_sqrt = 1.0 / math.sqrt(wv)
        for z, w in agg.items():
            rows.append(int(order[z]))
            cols.append(step)
            vals.append(-w * inv_sqrt)

        # CliqueSample: for each incident multi-edge e=(v,u), sample
        # f=(v,z) ∝ w(f); add (u, z) with weight w_e w_f/(w_e + w_f).
        picks = rng.choice(len(live), size=len(live),
                           p=weights / wv)
        for i, (u, we) in enumerate(live):
            z, wf = live[int(picks[i])]
            if z == u:
                continue
            wnew = we * wf / (we + wf)
            nbrs[u].append((z, wnew))
            nbrs[z].append((u, wnew))

    # Kernel column for the last vertex.
    rows.append(n - 1)
    cols.append(n - 1)
    vals.append(0.0)
    Lfactor = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    return ApproxCholeskyFactor(Lfactor=Lfactor, perm=perm)


class KS16Solver:
    """PCG with the KS16 approximate Cholesky preconditioner."""

    def __init__(self, graph: MultiGraph, seed=None,
                 split_factor: float = 1.0) -> None:
        self.graph = graph
        self.factor = approximate_cholesky(graph, seed=seed,
                                           split_factor=split_factor)
        self._L = laplacian(graph)

    def solve(self, b: np.ndarray, eps: float = 1e-8,
              max_iter: int | None = None) -> np.ndarray:
        """PCG solve of ``L x = b`` with the KS16 preconditioner."""
        return self.solve_report(b, eps=eps, max_iter=max_iter).x

    def solve_report(self, b: np.ndarray, eps: float = 1e-8,
                     max_iter: int | None = None) -> CGResult:
        """Like :meth:`solve` but returning the full :class:`CGResult`."""
        return conjugate_gradient(self._L, b, tol=eps,
                                  preconditioner=self.factor.solve,
                                  max_iter=max_iter,
                                  matvec_edges=self.graph.m)
