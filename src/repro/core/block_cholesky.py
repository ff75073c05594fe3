"""``BlockCholesky`` — Algorithm 1 (Theorem 3.9).

Repeatedly: find a 5-DD subset ``F_k`` of the current vertices
(Algorithm 3, extended by a maximal independent set of the vertices
with no edge to it — DESIGN.md §16), eliminate it by replacing the
graph with the sampled C-terminal-walk approximation of the Schur
complement onto ``C_k = C_{k-1} ∖ F_k`` (Algorithm 4), until a packed
Cholesky factor of the grounded active Laplacian fits in
``min_vertices²`` doubles (``a(a−1)/2 ≤ min_vertices²`` for ``a``
active vertices; at most 141 vertices at the default 100), and then
factors that base exactly (DESIGN.md §17).  The output chain
satisfies, whp (Theorem 3.9):

1. every ``G^(k)`` has at most ``m`` multi-edges,
2. every ``F_k`` is 5-DD in ``L_{G^(k-1)}``,
3. the base case has O(1) size (``≤ √2·min_vertices + 1`` vertices),
4. ``d ≤ log_{40/39} n = O(log n)`` rounds,
5. ``(U^(d))ᵀ D^(d) U^(d) ≈_{0.5} L_G``,

in ``O(m log n)`` work and ``O(log m log n)`` depth.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import SolverOptions, default_options
from repro.core.chain import BaseFactor, CholeskyChain, Level
from repro.core.dd_subset import extend_independent, five_dd_subset
from repro.core.terminal_walks import TerminalWalkStats, terminal_walks
from repro.errors import FactorizationError
from repro.graphs.laplacian import laplacian_blocks
from repro.graphs.multigraph import MultiGraph, weighted_bincount
from repro.pram import charge
from repro.pram import primitives as P
from repro.rng import as_generator
from repro.sampling.inc_csr import IncrementalWalkCSR

__all__ = ["block_cholesky"]


def _sample_schur_connected(current: MultiGraph, C: np.ndarray,
                            rng, baseline: int,
                            max_retries: int = 25,
                            engine=None, ctx=None
                            ) -> "tuple[MultiGraph, TerminalWalkStats, " \
                                 "int, np.ndarray]":
    """``TerminalWalks`` with a connectivity certificate.

    Fact 2.4: the *exact* Schur complement of a connected graph is
    connected.  A disconnected sample therefore certifies that the
    matrix-martingale deviation already exceeded 1 (the approximation
    can no longer hold), so we discard it and resample — a cheap O(m)
    check per level that converts Theorem 3.9's "with high probability"
    into a practically deterministic guarantee.  At theory-faithful
    ``α⁻¹ = Θ(log² n)`` a retry essentially never fires; the counter
    exists for aggressively small splitting factors on graphs with
    cut edges (e.g. barbells), where a level has a constant chance of
    dropping every copy of a bridge.

    ``engine``/``ctx`` thread a prebuilt walk engine (shared across
    retries — the CSR, and hence the alias planes, do not change
    between resamples) and the execution context through to
    :func:`terminal_walks`.

    ``baseline`` is the component count of ``current`` on its vertex
    set — the previous level's accepted count, carried forward: a sound
    sample must not create *new* components (1 for connected inputs;
    pathological already-disconnected inputs keep their count).
    Returns the accepted sample, its :class:`TerminalWalkStats` (the
    incremental store consumes ``passthrough_stored``), its component
    count on ``C`` (the next level's baseline) and its component
    labels (the base case grounds one vertex per component).
    """
    last = None
    for _ in range(max(max_retries, 1)):
        nxt, stats = terminal_walks(current, C, seed=rng,
                                    return_stats=True,
                                    engine=engine, ctx=ctx)
        count, labels = _components_on(nxt, C.size)
        if count <= baseline:
            return nxt, stats, count, labels
        last = nxt, stats, count, labels
    # Give up and return the last sample: the exact base case and the
    # outer Richardson/PCG loop still behave (slowly) with a weak
    # preconditioner, and pathological inputs shouldn't hard-fail.
    return last


def _components_on(graph: MultiGraph, size: int
                   ) -> tuple[int, np.ndarray]:
    """Component count of ``graph`` on the ``size`` vertices its edges
    may touch, and the component label of every vertex.

    Every other vertex is an isolated singleton of its own component,
    so no induced subgraph is needed.  ``connected_components`` is
    imported at call time so instrumentation that wraps the module
    attribute sees the call.
    """
    from repro.graphs.validation import connected_components

    labels = connected_components(graph)
    return int(labels.max(initial=-1)) + 1 - (graph.n - size), labels


def block_cholesky(graph: MultiGraph,
                   options: SolverOptions | None = None,
                   seed=None,
                   keep_graphs: bool = True) -> CholeskyChain:
    """Build the approximate block Cholesky chain for ``graph``.

    ``graph`` should be a connected multigraph whose multi-edges are
    α-bounded for ``α⁻¹ = Θ(log² n)`` (Theorem 3.9's hypothesis; use
    :func:`repro.core.boundedness.naive_split` or
    :func:`repro.core.lev_est.leverage_split` to establish it — the
    top-level :class:`repro.core.solver.LaplacianSolver` does this
    automatically).

    Walker batches inside each level step through ``options``'
    execution context; for a fixed seed the chain is bit-identical
    across worker counts (DESIGN.md §6–§7).  Every level walks
    through one incremental edge store
    (:class:`repro.sampling.IncrementalWalkCSR`).  With
    ``options.coalesce_emitted`` (or ``REPRO_COALESCE``) each level's
    emitted parallel edges are merged per ``{u, v}`` pair in the
    incremental store — same Laplacian, smaller levels; the chain for
    a fixed (seed, coalesce) pair stays bit-identical across worker
    counts (DESIGN.md §11).

    :class:`repro.core.solver.LaplacianSolver` always streams
    (``keep_graphs=False``); ``keep_graphs=True`` is the entry point for
    per-level diagnostics.  When streaming, each per-level graph is
    dropped as soon as its blocks are extracted and the next level is
    sampled, so only one working graph is alive at a time, and the
    levels themselves are dropped (``chain.levels is None``) once
    :meth:`CholeskyChain.flatten` has assembled the chain's flat form
    from their blocks.  Solving is unaffected — ``ApplyCholesky``
    consumes only the flat form and the base factor; edge-count and
    active-set diagnostics stay available through the chain's cached
    count lists and level shapes, but graph- and block-level
    introspection (``dense_factorization``, per-level subgraphs,
    ``Level.jacobi``) needs ``keep_graphs=True``.
    """
    opts = options or default_options()
    rng = as_generator(seed if seed is not None else opts.seed)
    ctx = opts.execution()
    inc = IncrementalWalkCSR(graph)
    coalesce = opts.resolve_coalesce()

    active = np.arange(graph.n, dtype=np.int64)
    current = graph
    graphs: list[MultiGraph] = [graph]
    logical_edges: list[int] = [graph.m_logical]
    stored_edges: list[int] = [graph.m]
    levels: list[Level] = []
    components, labels = _components_on(graph, graph.n)
    # A packed factor of the grounded a×a base holds a(a−1)/2 doubles:
    # stop once that fits in the min_vertices² a dense base once took.
    budget = opts.min_vertices ** 2
    max_levels = int(np.ceil(np.log(max(graph.n, 2))
                             / np.log(40.0 / 39.0))) + 10

    while active.size * (active.size - 1) // 2 > budget:
        if len(levels) >= max_levels:
            raise FactorizationError(
                f"exceeded {max_levels} elimination rounds; Lemma 3.4 "
                f"guarantees a 1/40 shrink per round, so this is a bug")
        F = five_dd_subset(current, active=active, seed=rng, options=opts)
        if F.size == 0 or F.size >= active.size:
            # Nothing (or everything) would be eliminated; the remaining
            # matrix is already 5-DD-trivial — stop and factor it.
            break
        F = extend_independent(current, active, F, seed=rng)
        C = np.setdiff1d(active, F)
        idxF = np.searchsorted(active, F)
        idxC = np.searchsorted(active, C)
        blocks = laplacian_blocks(current, F, C)
        nxt, walk_stats, components, labels = _sample_schur_connected(
            current, C, rng, components,
            engine=inc.walk_engine(F, C), ctx=ctx)
        nxt = inc.accept_round(F, nxt, walk_stats.passthrough_stored,
                               coalesce)
        levels.append(Level(F=F, C=C, idxF=idxF, idxC=idxC,
                            blocks=blocks, parent_edges=current.m_logical))
        if keep_graphs:
            graphs.append(nxt)
        else:
            # Streaming mode: the parent graph's blocks are extracted
            # and its Schur sample drawn — drop the reference so its
            # edge arrays can be reclaimed before the next round.
            graphs.clear()
        logical_edges.append(nxt.m_logical)
        stored_edges.append(nxt.m)
        current = nxt
        active = C
        charge(*P.map_cost(current.m), label="block_cholesky_bookkeeping")

    d = max(len(levels), 1)
    jacobi_eps = opts.jacobi_eps if opts.jacobi_eps is not None \
        else 1.0 / (2.0 * d)
    for level in levels:
        level.jacobi_eps = jacobi_eps

    chain = CholeskyChain(n=graph.n,
                          graphs=graphs if keep_graphs else None,
                          levels=levels,
                          final_active=active,
                          base=_base_factor(current, active, components,
                                            labels),
                          jacobi_eps=jacobi_eps,
                          logical_edges=logical_edges,
                          stored_edges=stored_edges)
    chain.flatten()
    if not keep_graphs:
        # The payload now holds everything an apply reads; the levels'
        # blocks and index arrays would only outweigh it.
        chain.levels = None
    return chain


def _base_factor(graph: MultiGraph, active: np.ndarray, components: int,
                 labels: np.ndarray) -> BaseFactor:
    """Factor ``L_graph`` on ``active`` exactly (DESIGN.md §17).

    ``components``/``labels`` are the last connectivity certificate's.
    A connected base (the usual case) keeps ``active``'s order and is
    grounded at its last vertex.  Otherwise the base is reordered into
    each component's other vertices, component by component, followed
    by each component's last vertex, which is grounded.  Charged as the
    PRAM model builds the base: a dense Cholesky (``n_B³/3`` work,
    ``n_B·⌈log₂ n_B⌉`` depth for ``n_B`` dependent pivot steps), then
    the inverse of its triangular factor (``n_B³/3`` work,
    ``⌈log₂ n_B⌉²`` depth by recursive halving), which keeps every
    apply's base step at logarithmic depth (DESIGN.md §17).
    """
    a = active.size
    # The base graph's edges all join active vertices: one bincount
    # scatters each edge's four entries, in edge order, onto a×a (an
    # edge to any other vertex gets a negative index, which bincount
    # rejects).
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[active] = np.arange(a)
    pu, pv = pos[graph.u], pos[graph.v]
    w = graph.w
    L = weighted_bincount(
        np.column_stack((pu * (a + 1), pv * (a + 1), pu * a + pv,
                         pv * a + pu)).ravel(),
        np.column_stack((w, w, -w, -w)).ravel(), a * a).reshape(a, a)
    if graph.m:
        charge(*P.convert_cost(2 * graph.m), label="base_case_assemble")
    order = None
    bounds = np.array([0, max(a - 1, 0)], dtype=np.int64)
    if components > 1:
        comp = np.unique(labels[active], return_inverse=True)[1]
        by_comp = np.argsort(comp, kind="stable")
        last = np.cumsum(np.bincount(comp)) - 1
        order = np.concatenate((np.delete(by_comp, last), by_comp[last]))
        L = L[np.ix_(order, order)]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(comp) - 1)))
    base = BaseFactor.factor(L, bounds, order)
    log_a = math.ceil(P.log2p(a))
    charge(a ** 3 / 3.0, a * log_a, label="base_case_factor")
    charge(a ** 3 / 3.0, log_a ** 2, label="base_case_inverse")
    return base
