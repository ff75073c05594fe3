"""Leverage-score overestimates and splitting (Lemma 3.3 / Section 6).

Theorem 1.2's improvement over naive splitting: instead of splitting
*every* edge into ``⌈1/α⌉`` copies, estimate each edge's leverage score
and split edge ``e`` into only ``⌈τ̂(e)/α⌉`` copies.  Since
``Σ_e τ̂(e) = O(nK)``, the multigraph has ``O(m + nKα⁻¹)`` multi-edges
instead of ``O(m/α)``.

The estimation pipeline (Section 6, following [CLMMPS15; SS11; KLP15]):

1. **Uniform sparsification**: keep ``≈ m/K`` uniformly chosen edges at
   their *original* weights, plus a spanning forest of ``G`` (so ``G'``
   stays connected).  Since ``G'`` is a subgraph of ``G`` at equal
   weights, ``L_{G'} ≼ L_G``, and by Rayleigh monotonicity

       ``τ̂(e) = w(e) · R_{G'}(e) ≥ w(e) · R_G(e) = τ(e)``

   — the estimates are *deterministic* overestimates up to the JL and
   inner-solver error (absorbed by an inflation factor).  [CLMMPS15]
   bounds ``Σ_e min(1, τ̂(e)) = O(nK)`` whp — intuitively each sampled
   edge "pays" O(1) and each unsampled edge pays its leverage against a
   1/K-rate sample, K× its own leverage on average.
2. **Johnson–Lindenstrauss sketch**: ``R_{G'}(u,v) ≈ ‖Z b_uv‖²`` with
   ``Z = Q W'^{1/2} B' L_{G'}⁺`` for a random ±1 matrix ``Q`` with
   ``O(log n)`` rows; each row costs one Laplacian solve in ``G'``,
   performed by *our own* Theorem 1.1 solver (the paper's step (b)).
3. **Split** edge ``e`` into ``⌈τ̂(e)/α⌉`` copies of equal weight; each
   copy's true leverage is ``τ(e)/⌈τ̂(e)/α⌉ ≤ α`` because ``τ ≤ τ̂``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import SolverOptions, default_options
from repro.errors import SamplingError
from repro.graphs.multigraph import MultiGraph, scatter_add_pair_cols
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator

__all__ = ["uniform_edge_sample", "leverage_overestimates",
           "leverage_split"]


def _spanning_edges(graph: MultiGraph) -> np.ndarray:
    """Indices of a spanning sub-forest of the graph's edges (the
    connectivity patch for ``G'``).

    Vectorised via ``scipy.sparse.csgraph``: parallel edges are
    deduplicated to their first occurrence, each surviving edge carries
    its original index (+1, to dodge the sparse zero) as its "weight",
    and a minimum spanning forest extraction returns one edge per
    merged pair — all C-side, no Python union-find loop over ``m``
    edges (this sits on the leverage-split hot path).
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import minimum_spanning_tree

    m = graph.m
    if m == 0:
        return np.empty(0, dtype=np.int64)
    lo = np.minimum(graph.u, graph.v)
    hi = np.maximum(graph.u, graph.v)
    # One representative (the first occurrence) per distinct vertex pair
    # so the sparse constructor cannot sum parallel edges' index-keys.
    # Same overflow guard as MultiGraph.coalesced: the packed key is
    # only valid while n² fits in int64.
    if graph.n <= 3_037_000_499:
        _, first = np.unique(lo.astype(np.int64) * graph.n + hi,
                             return_index=True)
    else:  # pragma: no cover - needs > 3e9 vertices
        _, first = np.unique(np.stack([lo, hi], axis=1), axis=0,
                             return_index=True)
    A = sp.csr_matrix(
        ((first + 1).astype(np.float64), (lo[first], hi[first])),
        shape=(graph.n, graph.n))
    forest = minimum_spanning_tree(A)
    keep = np.sort(forest.data.astype(np.int64) - 1)
    if ledger_active():
        charge(*P.sort_cost(m), label="spanning_forest")
    return keep


def uniform_edge_sample(graph: MultiGraph, K: float, seed=None
                        ) -> MultiGraph:
    """Step (1): ``G' =`` (uniform ``1/K`` edge sample) ``∪`` spanning
    forest, at original weights.  ``G'`` is a subgraph of ``G`` so
    ``L_{G'} ≼ L_G``, and it is connected whenever the input is."""
    if K < 1:
        raise SamplingError(f"need K >= 1, got {K}")
    rng = as_generator(seed)
    m = graph.m
    take = max(1, int(math.ceil(m / K)))
    chosen = rng.choice(m, size=min(take, m), replace=False)
    tree = _spanning_edges(graph)
    keep = np.union1d(chosen, tree)
    if ledger_active():
        charge(*P.map_cost(m), label="uniform_edge_sample")
    return MultiGraph(graph.n, graph.u[keep], graph.v[keep], graph.w[keep],
                      validate=False)


def leverage_overestimates(graph: MultiGraph,
                           K: float,
                           seed=None,
                           options: SolverOptions | None = None,
                           jl_rows: int | None = None,
                           solver_eps: float = 0.25,
                           inflation: float = 2.0,
                           blocked: bool = True) -> np.ndarray:
    """Per-edge ``τ̂(e) ∈ (0, 1]`` with ``τ̂ ≥ τ`` whp (Section 6).

    Parameters
    ----------
    K:
        Sparsification factor; Theorem 1.2 uses ``K = Θ(log³ n)``.
    jl_rows:
        Rows of the JL sketch (default ``⌈8 ln n⌉ + 4``).
    solver_eps:
        Accuracy of the inner solves on ``G'`` — constant accuracy
        suffices (Section 6 step (b)).
    inflation:
        Multiplicative safety factor absorbing JL + solver error.
    blocked:
        Issue all ``q`` JL solves as **one** blocked multi-RHS solve
        against the shared inner factorization (default; the sign
        matrix is drawn row-by-row either way, so the randomness stream
        matches the looped baseline).  ``False`` re-runs the sequential
        one-solve-per-row baseline for comparison benchmarks.
    """
    opts = options or default_options()
    rng = as_generator(seed if seed is not None else opts.seed)
    gprime = uniform_edge_sample(graph, K, seed=rng)

    # Inner solver: Theorem 1.1 configuration on G' (naive splitting) —
    # this is the recursion the paper describes; depth is 1 because the
    # inner solver never calls leverage splitting again.
    from repro.core.solver import LaplacianSolver

    inner = LaplacianSolver(gprime.coalesced(),
                            options=opts.with_(splitting="naive"), seed=rng)

    n = graph.n
    q = jl_rows if jl_rows is not None \
        else int(math.ceil(8.0 * math.log(max(n, 3)))) + 4

    # The q sketch rows of Q W'^{1/2} B', assembled edge-wise as one
    # (n, q) right-hand-side block.  Signs are drawn row-by-row so the
    # stream is identical in blocked and looped mode.
    mq = gprime.m
    sqrt_w = np.sqrt(gprime.w)
    S = np.empty((mq, q), dtype=np.float64)
    for i in range(q):
        S[:, i] = rng.choice([-1.0, 1.0], size=mq)
    S /= math.sqrt(q)
    contrib = sqrt_w[:, None] * S
    rows = scatter_add_pair_cols(gprime.u, contrib, gprime.v, contrib,
                                 n, subtract=True)
    if ledger_active():
        charge(*P.map_cost(mq * q), label="jl_row")

    if blocked:
        # One factorization, q right-hand sides: a single blocked solve
        # where every inner operator apply is a BLAS-3-style kernel.
        Z = inner.solve_many(rows, eps=solver_eps).T
    else:
        Z = np.empty((q, n), dtype=np.float64)
        for i in range(q):
            Z[i] = inner.solve(rows[:, i], eps=solver_eps)

    # R̂(u, v) = ‖Z[:, u] − Z[:, v]‖².
    diff = Z[:, graph.u] - Z[:, graph.v]
    r_hat = np.einsum("ij,ij->j", diff, diff)
    tau_hat = graph.w * r_hat * inflation
    if ledger_active():
        charge(*P.map_cost(graph.m * q), label="jl_distances")
    # True leverage scores never exceed 1, so clipping keeps the
    # overestimate property; the floor keeps ceil(τ̂/α) ≥ 1.
    return np.clip(tau_hat, 1e-12, 1.0)


def leverage_split(graph: MultiGraph, alpha: float,
                   K: float | None = None,
                   seed=None,
                   options: SolverOptions | None = None,
                   tau_hat: np.ndarray | None = None) -> MultiGraph:
    """Lemma 3.3: split edge ``e`` into ``⌈τ̂(e)/α⌉`` α-bounded copies.

    The output has ``O(m + nKα⁻¹)`` *logical* multi-edges and the same
    Laplacian.  By default the copies are implicit multiplicities
    (O(m) stored groups); ``.materialized()`` gives explicit rows.
    Pass ``tau_hat`` to reuse precomputed overestimates.
    """
    opts = options or default_options()
    rng = as_generator(seed if seed is not None else opts.seed)
    if tau_hat is None:
        K = K if K is not None else opts.K(graph.n)
        tau_hat = leverage_overestimates(graph, K, seed=rng, options=opts)
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    if tau_hat.shape != (graph.m,):
        raise SamplingError("tau_hat must have one entry per edge")
    # tau_hat estimates the *group-total* leverage w·R; when the input
    # already carries multiplicities, each existing copy's leverage is
    # tau_hat/mult, so the per-copy split factor composes from that —
    # otherwise pre-split inputs would be over-split by mult×.
    tau_copy = tau_hat / graph.multiplicities()
    copies = np.maximum(1, np.ceil(tau_copy / alpha)).astype(np.int64)
    if ledger_active():
        charge(*P.map_cost(graph.m), label="leverage_split")
    if graph.mult is None and np.all(copies == 1):
        return graph.copy()
    return graph.split_copies(copies)
