"""Empirical verification of the matrix-martingale argument (Section 5).

Theorem 3.9-(5)'s proof tracks the normalised deviation
``‖ L^{+/2} (L^(k) − L) L^{+/2} ‖`` of the partial factorization from
the true Laplacian and shows it stays ≤ 0.3 whp via matrix Freedman
(Theorem 5.5).  These utilities measure that deviation level-by-level
on real runs (dense, small-n) so benchmark E8/E9 can report the
martingale's actual excursion against the theoretical envelope.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from repro.core.chain import CholeskyChain
from repro.graphs.laplacian import laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.loewner import approximation_factor

__all__ = ["martingale_deviation_trace", "empirical_success_rate",
           "freedman_bound"]


def _normalizer(L: np.ndarray) -> np.ndarray:
    """``L^{+/2}`` (dense)."""
    vals, vecs = scipy.linalg.eigh(L)
    tol = 1e-9 * max(abs(vals).max(), 1.0)
    keep = vals > tol
    return vecs[:, keep] * (1.0 / np.sqrt(vals[keep])) @ vecs[:, keep].T


def martingale_deviation_trace(graph: MultiGraph, chain: CholeskyChain
                               ) -> list[float]:
    """``‖ \\overline{L^(k) − L} ‖`` after each elimination round.

    ``L^(k) = (U^(k))ᵀ D^(k) U^(k)`` is reconstructed by truncating the
    chain at level ``k``.  The proof of Theorem 3.9 keeps this below
    0.3 for every ``k`` whp.
    """
    L = laplacian(graph).toarray()
    half = _normalizer(L)
    devs: list[float] = []
    graphs = chain._require_graphs()  # informative error on streamed chains
    for k in range(1, chain.d + 1):
        truncated = CholeskyChain(
            n=chain.n,
            graphs=graphs[: k + 1],
            levels=chain.levels[:k],
            final_active=chain.levels[k - 1].C,
            base=None,
            jacobi_eps=chain.jacobi_eps)
        Lk = truncated.dense_factorization()
        devs.append(float(np.linalg.norm(half @ (Lk - L) @ half, 2)))
    return devs


def empirical_success_rate(graph: MultiGraph, trials: int,
                           target_eps: float = 0.5,
                           seed: int = 0,
                           options=None) -> float:
    """Fraction of independent ``BlockCholesky`` runs achieving
    ``(U^(d))ᵀ D^(d) U^(d) ≈_{target_eps} L`` (Theorem 3.9-(5))."""
    from repro.core.block_cholesky import block_cholesky
    from repro.rng import as_generator

    rng = as_generator(seed)
    L = laplacian(graph).toarray()
    wins = 0
    for _ in range(trials):
        chain = block_cholesky(graph, options, seed=rng)
        eps = approximation_factor(chain.dense_factorization(), L)
        wins += int(eps <= target_eps)
    return wins / trials


def freedman_bound(t: float, sigma2: float, R: float, n: int) -> float:
    """Theorem 5.5 failure-probability envelope
    ``n · exp(−t²/2 / (σ² + Rt/3))``."""
    if t <= 0:
        return float(n)
    return float(n) * math.exp(-(t * t / 2.0) / (sigma2 + R * t / 3.0))
