"""Conjugate-gradient baselines.

* :func:`cg_solve` — unpreconditioned CG; iteration count scales with
  ``sqrt(κ(L))``, so it degrades badly on bottlenecked graphs
  (barbells) — the behaviour benchmark E12 exposes.
* :func:`jacobi_pcg_solve` — diagonal (Jacobi) preconditioning; the
  cheapest standard preconditioner, included as the intermediate
  baseline between plain CG and structured preconditioners.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.laplacian import laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.cg import CGResult, conjugate_gradient

__all__ = ["cg_solve", "jacobi_pcg_solve"]


def cg_solve(graph: MultiGraph, b: np.ndarray, eps: float = 1e-8,
             max_iter: int | None = None) -> CGResult:
    """Unpreconditioned CG on ``L_G x = b``."""
    return conjugate_gradient(laplacian(graph), b, tol=eps,
                              max_iter=max_iter, matvec_edges=graph.m)


def jacobi_pcg_solve(graph: MultiGraph, b: np.ndarray, eps: float = 1e-8,
                     max_iter: int | None = None) -> CGResult:
    """PCG with the diagonal preconditioner ``D⁻¹``."""
    L = laplacian(graph)
    d = L.diagonal()
    inv = np.where(d > 0, 1.0 / np.maximum(d, 1e-300), 0.0)
    return conjugate_gradient(L, b, tol=eps,
                              preconditioner=lambda R: inv[:, None] * R,
                              max_iter=max_iter, matvec_edges=graph.m)
