"""Canonical cache keys for resident solver chains (DESIGN.md §12).

The serving cache maps a *problem identity* to one resident
factorization.  Identity has two halves:

* the **canonical multigraph** — the stored edge-group multiset with
  endpoints normalised to ``(min, max)``, dtypes widened to
  ``int64``/``float64``, implicit unit multiplicities made explicit,
  and rows lexicographically sorted.  Edge-array *order* and dtype
  variants of the same graph therefore hash identically; relabelled
  vertices, changed weights, and regrouped parallel edges (two unit
  groups vs one ``mult=2`` group — different stored layouts, hence
  different walk realisations) hash distinctly.
* the **chain-affecting options + seed** — exactly the
  :class:`repro.config.SolverOptions` fields that change the built
  chain's bits.  Runtime knobs that the determinism contract
  (DESIGN.md §6) proves result-neutral (``workers``, ``backend``,
  ``keep_graphs``, and the single-valued ``sampler``, ``retries``,
  ``degrade`` and ``ship_solves``) are deliberately excluded, so a
  serial-backend client and a thread-backend client share one
  resident chain.  Defaulted fields that *do* affect bits are
  resolved at key time: ``coalesce_emitted`` against the environment,
  ``chunk_items`` to the library default.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.config import SolverOptions, default_options
from repro.graphs.multigraph import MultiGraph
from repro.pram.executor import DEFAULT_CHUNK_ITEMS

__all__ = ["canonical_edge_arrays", "graph_fingerprint",
           "options_token", "solver_cache_key"]

#: SolverOptions fields whose value changes the built chain's bits
#: (splitting layout, elimination randomness, preconditioner shape).
_CHAIN_FIELDS = (
    "splitting", "alpha_scale", "min_vertices", "dd_fraction",
    "dd_candidate_fraction", "dd_threshold", "jacobi_eps",
    "richardson_delta", "max_walk_steps", "lev_sample_K",
    "chunk_columns",
)


def canonical_edge_arrays(graph: MultiGraph
                          ) -> tuple[np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
    """``(u, v, w, mult)`` in canonical form: undirected endpoints
    ``(min, max)``, widened dtypes, explicit multiplicities, rows
    lexicographically sorted."""
    u = np.minimum(graph.u, graph.v).astype(np.int64, copy=False)
    v = np.maximum(graph.u, graph.v).astype(np.int64, copy=False)
    w = graph.w.astype(np.float64, copy=False)
    if graph.mult is None:
        mult = np.ones(graph.m, dtype=np.int64)
    else:
        mult = graph.mult.astype(np.int64, copy=False)
    # np.lexsort keys run least- to most-significant.
    order = np.lexsort((mult, w, v, u))
    return u[order], v[order], w[order], mult[order]


def graph_fingerprint(graph: MultiGraph) -> str:
    """sha256 over the canonical multigraph (hex digest)."""
    h = hashlib.sha256()
    h.update(b"repro-graph-v1")
    h.update(int(graph.n).to_bytes(8, "little", signed=False))
    for arr in canonical_edge_arrays(graph):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def options_token(options: SolverOptions) -> str:
    """Stable string of the chain-affecting option fields.

    Defaulted fields are resolved *now* — two processes with
    different ``REPRO_COALESCE`` environments must not share a chain.
    """
    parts = [f"{name}={getattr(options, name)!r}"
             for name in _CHAIN_FIELDS]
    parts.append(f"coalesce={options.resolve_coalesce()}")
    chunk_items = options.chunk_items if options.chunk_items is not None \
        else DEFAULT_CHUNK_ITEMS
    parts.append(f"chunk_items={chunk_items}")
    return ";".join(parts)


def solver_cache_key(graph: MultiGraph,
                     options: SolverOptions | None = None,
                     seed=None) -> str:
    """The serving-cache key for ``(graph, options, seed)``.

    ``seed=None`` falls back to ``options.seed``; the effective seed
    must be an int or ``None`` (a live ``numpy`` Generator is not
    replayable, so it cannot name a cacheable build).
    """
    options = options or default_options()
    if seed is None:
        seed = options.seed
    if seed is not None and not isinstance(seed, (int, np.integer)):
        raise TypeError(
            f"cache keys need a replayable seed (int or None), "
            f"got {type(seed).__name__}")
    h = hashlib.sha256()
    h.update(graph_fingerprint(graph).encode())
    h.update(b"|")
    h.update(options_token(options).encode())
    h.update(b"|")
    h.update(f"seed={None if seed is None else int(seed)}".encode())
    return h.hexdigest()[:32]
