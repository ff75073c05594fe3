"""Structural validation: connectivity and sanity checks.

Fact 2.3 of the paper: for connected ``G``, ``ker(L_G) = span(1)``.
The solver therefore requires a connected input; these helpers verify
it.  Components are labelled by
:func:`scipy.sparse.csgraph.connected_components` over the edge arrays
(linear work).  The ledger charges the PRAM reduce cost over the
``m + n`` edges and vertices — the work/depth of a parallel labelling —
not the cost of the sequential library call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.errors import GraphStructureError, NotConnectedError
from repro.graphs.multigraph import MultiGraph
from repro.pram import charge
from repro.pram import primitives as P

__all__ = ["connected_components", "is_connected", "validate_graph",
           "require_connected"]


def connected_components(graph: MultiGraph) -> np.ndarray:
    """Component label (0-based, order of first appearance) per vertex."""
    adj = sp.coo_matrix((np.ones(graph.m), (graph.u, graph.v)),
                        shape=(graph.n, graph.n))
    _, labels = csgraph.connected_components(adj, directed=False)
    charge(*P.reduce_cost(graph.m + graph.n), label="connected_components")
    return labels.astype(np.int64)


def is_connected(graph: MultiGraph) -> bool:
    """True iff the graph has exactly one connected component."""
    return int(connected_components(graph).max()) == 0


def require_connected(graph: MultiGraph, what: str = "input graph") -> None:
    """Raise :class:`NotConnectedError` unless the graph is connected."""
    if not is_connected(graph):
        raise NotConnectedError(
            f"{what} must be connected (Fact 2.3: the solver needs "
            f"ker(L) = span(1))")


def validate_graph(graph: MultiGraph, connected: bool = True) -> None:
    """Full structural validation with specific error messages.

    Checks index ranges, self-loops, weight positivity/finiteness (these
    re-run even if the constructor validated, so corrupted-in-place
    arrays are caught), and optionally connectivity.
    """
    if graph.m:
        if graph.u.min() < 0 or graph.v.min() < 0 \
                or graph.u.max() >= graph.n or graph.v.max() >= graph.n:
            raise GraphStructureError("edge endpoint out of range")
        if np.any(graph.u == graph.v):
            raise GraphStructureError("self-loop present")
        if not np.all(np.isfinite(graph.w)):
            raise GraphStructureError("non-finite edge weight")
        if np.any(graph.w <= 0):
            raise GraphStructureError("non-positive edge weight")
    if connected:
        require_connected(graph)
