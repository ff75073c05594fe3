"""Batched per-row weighted sampling over a CSR structure.

The walk engine samples through the alias planes of
:class:`repro.sampling.alias.CSRAliasSampler`.  This module keeps the
independent bisection realisation of the same per-row distributions:
the test oracle the alias sampler is checked against (chi-square and
hitting distributions), the sampler of the seed baseline
(:mod:`repro.baselines.seed_hotpath`), and Wilson's spanning-tree walk.
It stores a single globally increasing cumulative-weight array over
all CSR rows; a walker at vertex ``x`` draws a uniform value inside row
``x``'s value interval and one vectorised ``searchsorted`` over the
global array resolves every walker's choice simultaneously.

Per query this costs ``O(log deg)`` sequential bisection — a standard
CREW PRAM primitive with depth ``O(log m)`` for the whole batch, which
is within the ``O(log m)`` per-step depth budget of Lemma 5.4.  The
ledger charge uses the [HS19] ``O(1)``-per-query accounting so ledger
totals match the paper's stated bounds (the bisection is an artefact of
the numpy realisation, not of the algorithm).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.multigraph import AdjacencyView
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator

__all__ = ["RowSampler"]


class RowSampler:
    """Samples CSR-adjacency entries weight-proportionally, per row."""

    __slots__ = ("adj", "_cum", "_base", "_top")

    def __init__(self, adj: AdjacencyView) -> None:
        self.adj = adj
        indptr = adj.indptr
        # Globally shifted inclusive prefix sums: row x spans the value
        # interval (base[x], top[x]].
        cum = np.cumsum(adj.weight)
        self._cum = cum
        n = indptr.size - 1
        # base[x] = cumulative weight before row x; top[x] = after row x.
        base = np.zeros(n, dtype=np.float64)
        nonfirst = indptr[:-1] > 0
        base[nonfirst] = cum[indptr[:-1][nonfirst] - 1]
        top = np.zeros(n, dtype=np.float64)
        nonempty = indptr[1:] > 0
        top[nonempty] = cum[indptr[1:][nonempty] - 1]
        self._base = base
        self._top = top
        if ledger_active():
            charge(*P.sampler_build_cost(n), label="rowsampler_build")

    @property
    def nbytes(self) -> int:
        """Bytes held by the prefix sums and row bounds."""
        return self._cum.nbytes + self._base.nbytes + self._top.nbytes

    def row_totals(self) -> np.ndarray:
        """Total weight per row (the weighted degrees)."""
        return self._top - self._base

    def sample(self, rows: np.ndarray, seed=None) -> np.ndarray:
        """For each entry of ``rows``, one weight-proportional slot index.

        Returns global CSR slot positions; use ``adj.neighbor[slot]``,
        ``adj.weight[slot]``, ``adj.edge_id[slot]`` to decode.  Rows with
        zero total weight (isolated vertices) raise — a walker can never
        stand on an isolated vertex in a connected graph.
        """
        rows = np.asarray(rows, dtype=np.int64)
        base = self._base[rows]
        span = self._top[rows] - base
        if np.any(span <= 0):
            raise SamplingError("cannot sample a neighbour of an isolated "
                                "vertex")
        rng = as_generator(seed)
        # Right-open draw keeps us strictly inside the row interval.
        x = base + rng.random(rows.size) * span
        slot = np.searchsorted(self._cum, x, side="right")
        # Guard against floating-point landing one slot out of the row.
        lo = self.adj.indptr[rows]
        hi = self.adj.indptr[rows + 1] - 1
        if np.any(lo > hi):
            # An empty interior row can only reach this point when the
            # derived base/top bounds disagree with the CSR;
            # clipping would silently
            # return a slot from a *different* row.
            raise SamplingError("cannot sample from an empty adjacency "
                                "row (CSR and cumulative bounds disagree)")
        slot = np.clip(slot, lo, hi)
        if ledger_active():
            charge(*P.sampler_query_cost(rows.size), label="rowsampler_query")
        return slot
