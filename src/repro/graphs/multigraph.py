"""Edge-array weighted undirected multigraph with implicit multiplicities.

A :class:`MultiGraph` stores ``m`` edge *groups* as parallel arrays
``(u, v, w)`` plus an optional multiplicity array ``mult``: group ``i``
represents ``mult[i]`` logical parallel copies of the edge
``{u[i], v[i]}``, each of weight ``w[i] / mult[i]`` (``w`` is always the
*total* weight of the group).  Parallel edges are first-class citizens —
the solver's α-bounded splitting (Lemma 3.2) deliberately creates many
copies of each edge, and with ``mult`` it can do so in ``O(m)`` memory
instead of ``O(m/α)``.  A graph with ``mult is None`` is the plain case:
every group is a single logical edge.  Self-loops are disallowed: a
self-loop contributes ``0`` to a Laplacian, and ``TerminalWalks``
explicitly drops walks with ``c1 = c2``.

Because ``w`` stores group totals, every Laplacian-level quantity
(degrees, ``L = D - A``, block extractions) is computed from the compact
arrays unchanged — ``L`` of the implicit split equals ``L`` of the
original graph *exactly*.  Only the random-walk layer needs ``mult``:
the transition distribution of a split graph is identical to the
unsplit one, while the resistance of one traversed logical copy is
``mult/w`` (see DESIGN.md §"Implicit α-split multigraphs").

The adjacency view (CSR over the 2m directed half-edges) is built
lazily and cached; it is the representation random walks consume.  The
build uses a stable counting sort (scipy's C ``coo→csr`` scatter
kernel, :func:`_stable_csr`), i.e. ``O(m + n)`` — the parallel
edge-list → adjacency-list conversion of Lemma 2.7, charged
``(O(m), O(log m))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.errors import (
    DimensionMismatchError,
    EmptyGraphError,
    GraphStructureError,
)
from repro.pram import charge, ledger_active
from repro.pram import primitives as P

__all__ = ["MultiGraph", "AdjacencyView", "weighted_bincount",
           "scatter_add_pair", "scatter_add_pair_cols"]


def weighted_bincount(idx: np.ndarray, weights: np.ndarray,
                      minlength: int) -> np.ndarray:
    """``np.bincount(idx, weights, minlength)`` with float64 output.

    ``np.bincount`` returns *int64 zeros* when ``idx`` is empty, which
    breaks in-place float accumulation; every weighted scatter-add in
    the hot path goes through this wrapper instead of re-deriving that
    trap.
    """
    return np.bincount(idx, weights=weights, minlength=minlength) \
        .astype(np.float64, copy=False)


def scatter_add_pair(idx_a: np.ndarray, w_a: np.ndarray,
                     idx_b: np.ndarray, w_b: np.ndarray,
                     minlength: int, subtract: bool = False) -> np.ndarray:
    """Two-leg weighted scatter-add: ``Σ w_a → idx_a  ±  Σ w_b → idx_b``.

    The canonical per-vertex accumulation over both edge endpoints
    (degrees, Laplacian applies, block extractions) — every such site
    goes through here so the empty-input dtype trap of
    :func:`weighted_bincount` is handled exactly once.
    """
    out = weighted_bincount(idx_a, w_a, minlength)
    second = weighted_bincount(idx_b, w_b, minlength)
    if subtract:
        out -= second
    else:
        out += second
    return out


def scatter_add_pair_cols(idx_a: np.ndarray, w_a: np.ndarray,
                          idx_b: np.ndarray, w_b: np.ndarray,
                          minlength: int, subtract: bool = False
                          ) -> np.ndarray:
    """Column-blocked :func:`scatter_add_pair`: ``w_a``/``w_b`` are
    ``(m, k)`` weight blocks and column ``j`` scatters to column ``j``
    of the ``(minlength, k)`` output.

    The per-column scatters are flattened into one bincount by
    interleaving (row-major) indices — the blocked-RHS assembly and
    blocked Laplacian-apply kernels all share this trick through here.
    """
    k = w_a.shape[1]
    cols = np.arange(k, dtype=np.int64)
    flat_a = (idx_a[:, None] * k + cols).ravel()
    flat_b = (idx_b[:, None] * k + cols).ravel()
    return scatter_add_pair(flat_a, w_a.ravel(), flat_b, w_b.ravel(),
                            minlength * k, subtract=subtract
                            ).reshape(minlength, k)


_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_dtype(*sizes: int) -> type:
    """``int32`` when every size fits, else ``int64`` — scipy's choice
    for CSR index arrays."""
    return np.int32 if max(sizes, default=0) <= _INT32_MAX else np.int64


def _check_range(ids: np.ndarray, n: int) -> None:
    """Raise unless every id lies in ``[0, n)``.

    scipy's C kernels index their output arrays with the ids unchecked,
    so an id out of range (a graph built with ``validate=False``, or
    arrays corrupted in place) would write outside them.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise GraphStructureError(f"index out of range [0, {n})")


def _stable_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                n_rows: int, index_dtype: type = np.int64,
                n_cols: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable counting sort of ``(row, col, val)`` triplets by row.

    Returns CSR ``(indptr, indices, data)``: row ``r``'s entries in
    input order, duplicates kept, columns unsorted — ``O(nnz +
    n_rows)``, the parallel edge-list → adjacency-list conversion of
    Lemma 2.7.  One call of scipy's C ``coo→csr`` scatter kernel,
    which places each triplet at its row's next free slot.  Rows must
    lie in ``[0, n_rows)``, and columns in ``[0, n_cols)`` when
    ``n_cols`` is given; otherwise :class:`GraphStructureError`.
    """
    _check_range(rows, n_rows)
    if n_cols is not None:
        _check_range(cols, n_cols)
    idx = index_dtype
    rows = np.asarray(rows, dtype=idx)
    cols = np.asarray(cols, dtype=idx)
    vals = np.asarray(vals)
    indptr = np.empty(n_rows + 1, dtype=idx)
    indices = np.empty(rows.size, dtype=idx)
    data = np.empty(rows.size, dtype=vals.dtype)
    _sparsetools.coo_tocsr(n_rows, 1, rows.size, rows, cols, vals,
                           indptr, indices, data)
    return indptr, indices, data


def _counting_sort_halfedges(ends: np.ndarray, n: int
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Stable counting sort of half-edges by endpoint in ``O(len + n)``.

    Returns ``(indptr, order)`` where ``order`` permutes the half-edge
    arrays into CSR layout (grouped by endpoint, original order
    preserved within each group): :func:`_stable_csr` with the
    half-edge ids as column ids, so the sorted ``indices`` *are* the
    permutation — no ``O(m log m)`` comparison sort.
    """
    k = ends.size
    indptr, order, _ = _stable_csr(ends, np.arange(k, dtype=np.int64),
                                   np.zeros(k, dtype=np.int8), n)
    return indptr, order


def _canonical_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   shape: tuple[int, int]) -> sp.csr_matrix:
    """Canonical CSR of ``(row, col, val)`` triplets: sorted column
    indices, duplicates summed in input order, exact zeros dropped.

    Two stable counting sorts — by column (:func:`_stable_csr` on the
    transpose), then by row (scipy's ``csr→csc`` kernel) — leave each
    ``(row, col)`` run in input order, so duplicates sum left to right
    in the order the caller lists them, independent of any comparison
    sort's tie-breaking.  Zeros are dropped the way scipy's ``D − A``
    subtraction drops them (an isolated vertex's zero degree), so the
    result has the nnz scipy's ``coo→csr`` plus subtraction gave.
    ``O(nnz + n_rows + n_cols)`` work; an index outside ``shape``
    raises :class:`GraphStructureError`.
    """
    n_rows, n_cols = shape
    vals = np.asarray(vals, dtype=np.float64)
    idx = _index_dtype(vals.size, n_rows, n_cols)
    t_ptr, t_rows, t_vals = _stable_csr(cols, rows, vals, n_cols, idx,
                                        n_cols=n_rows)
    indptr = np.empty(n_rows + 1, dtype=idx)
    indices = np.empty(vals.size, dtype=idx)
    data = np.empty(vals.size)
    _sparsetools.csr_tocsc(n_cols, n_rows, t_ptr, t_rows, t_vals,
                           indptr, indices, data)
    _sparsetools.csr_sum_duplicates(n_rows, n_cols, indptr, indices, data)
    _sparsetools.csr_eliminate_zeros(n_rows, n_cols, indptr, indices, data)
    nnz = int(indptr[-1])
    if nnz < data.size:
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    out = sp.csr_matrix((data, indices, indptr), shape=shape)
    out.has_canonical_format = True
    return out


@dataclass(frozen=True)
class AdjacencyView:
    """CSR adjacency over half-edges.

    For vertex ``x``, its incident half-edges occupy the slice
    ``indptr[x]:indptr[x+1]`` of the arrays:

    * ``neighbor`` — the other endpoint of each incident edge group,
    * ``weight`` — the group's *total* weight (all logical copies),
    * ``edge_id`` — index into the parent graph's edge arrays.

    A view may be *restricted* (see
    :meth:`MultiGraph.adjacency_restricted`): rows outside the requested
    source set are empty, which keeps per-round CSR rebuilds O(edges
    incident to the interior) in the elimination loop.
    """

    indptr: np.ndarray
    neighbor: np.ndarray
    weight: np.ndarray
    edge_id: np.ndarray

    def row(self, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(neighbors, weights, edge ids) of vertex ``x``."""
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return self.neighbor[lo:hi], self.weight[lo:hi], self.edge_id[lo:hi]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the CSR arrays (perf accounting)."""
        return (self.indptr.nbytes + self.neighbor.nbytes
                + self.weight.nbytes + self.edge_id.nbytes)


class MultiGraph:
    """Weighted undirected multigraph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    u, v:
        Endpoint arrays of the ``m`` edge groups (any integer dtype).
    w:
        Strictly positive *total* group weights.
    mult:
        Optional per-group multiplicities (positive integers): group
        ``i`` stands for ``mult[i]`` logical parallel copies of weight
        ``w[i] / mult[i]`` each.  ``None`` (default) means every group
        is one logical edge.
    validate:
        When true (default), check index ranges, weight positivity,
        multiplicity positivity, and reject self-loops.
    """

    __slots__ = ("n", "u", "v", "w", "mult", "_adj", "_wdeg")

    def __init__(self, n: int,
                 u: Iterable[int] | np.ndarray,
                 v: Iterable[int] | np.ndarray,
                 w: Iterable[float] | np.ndarray,
                 mult: Iterable[int] | np.ndarray | None = None,
                 validate: bool = True) -> None:
        if n <= 0:
            raise EmptyGraphError("graph must have at least one vertex")
        self.n = int(n)
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        self.v = np.ascontiguousarray(v, dtype=np.int64)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        # int32: multiplicities are copy counts (⌈1/α⌉-scale); walker
        # expansion would exhaust memory long before 2^31 copies.  The
        # range check is unconditional — a silently wrapped cast would
        # corrupt m_logical and per-copy resistances downstream.
        if mult is None:
            self.mult = None
        else:
            marr = np.ascontiguousarray(mult)
            if marr.dtype != np.int32:
                if not np.issubdtype(marr.dtype, np.integer):
                    raise GraphStructureError(
                        f"edge multiplicities must be integers, got "
                        f"dtype {marr.dtype}")
                if marr.size and (marr.max() > np.iinfo(np.int32).max
                                  or marr.min() < np.iinfo(np.int32).min):
                    raise GraphStructureError(
                        "edge multiplicity exceeds the int32 range; "
                        "split factors this large cannot be walked anyway")
                marr = marr.astype(np.int32)
            self.mult = marr
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise DimensionMismatchError(
                f"edge arrays disagree: u{self.u.shape} v{self.v.shape} "
                f"w{self.w.shape}")
        if self.u.ndim != 1:
            raise DimensionMismatchError("edge arrays must be 1-D")
        if self.mult is not None and self.mult.shape != self.u.shape:
            raise DimensionMismatchError(
                f"mult{self.mult.shape} disagrees with u{self.u.shape}")
        if validate and self.m:
            if self.u.min(initial=0) < 0 or self.v.min(initial=0) < 0 \
                    or self.u.max(initial=0) >= n or self.v.max(initial=0) >= n:
                raise GraphStructureError("edge endpoint out of range")
            if np.any(self.u == self.v):
                raise GraphStructureError(
                    "self-loops are not allowed (they contribute nothing "
                    "to a Laplacian)")
            if not np.all(np.isfinite(self.w)) or np.any(self.w <= 0):
                raise GraphStructureError(
                    "edge weights must be finite and strictly positive")
            if self.mult is not None and np.any(self.mult < 1):
                raise GraphStructureError(
                    "edge multiplicities must be >= 1")
        self._adj: AdjacencyView | None = None
        self._wdeg: np.ndarray | None = None

    # -- basic properties ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of stored edge groups (rows of the edge arrays)."""
        return self.u.shape[0]

    @property
    def m_logical(self) -> int:
        """Number of logical multi-edges, ``Σ_i mult[i]``.

        This is the ``m`` the paper's lemmas speak about (Theorem
        3.9-(1), Lemma 5.4, ...); ``m`` itself counts the compact
        groups actually held in memory.
        """
        if self.mult is None:
            return self.m
        return int(self.mult.sum(dtype=np.int64))

    def multiplicities(self) -> np.ndarray:
        """Per-group multiplicity array (all-ones when ``mult is None``)."""
        if self.mult is None:
            return np.ones(self.m, dtype=np.int32)
        return self.mult

    def weighted_degrees(self) -> np.ndarray:
        """``w(x) = Σ_{e ∋ x} w(e)`` for every vertex (cached).

        Multiplicities are transparent here: group totals already sum
        the copies.
        """
        if self._wdeg is None:
            deg = scatter_add_pair(self.u, self.w, self.v, self.w, self.n)
            if ledger_active():
                charge(*P.reduce_cost(2 * self.m), label="weighted_degrees")
            self._wdeg = deg
        return self._wdeg

    def multi_degrees(self) -> np.ndarray:
        """Number of incident *logical* multi-edges per vertex."""
        mult = self.multiplicities().astype(np.float64)
        deg = scatter_add_pair(self.u, mult, self.v, mult, self.n)
        return deg.astype(np.int64)

    def total_weight(self) -> float:
        """Sum of all multi-edge weights."""
        return float(self.w.sum())

    @property
    def edge_nbytes(self) -> int:
        """Bytes held by the edge arrays (perf accounting)."""
        total = self.u.nbytes + self.v.nbytes + self.w.nbytes
        if self.mult is not None:
            total += self.mult.nbytes
        return total

    @property
    def adjacency_nbytes(self) -> int:
        """Bytes held by the cached adjacency view (0 when not built)."""
        return self._adj.nbytes if self._adj is not None else 0

    # -- adjacency ----------------------------------------------------------

    def adjacency(self) -> AdjacencyView:
        """CSR adjacency over the ``2m`` half-edges (cached).

        Built with a counting sort on endpoints — the parallel edge-list
        → adjacency-list conversion of Lemma 2.7, charged ``(m, log m)``.
        """
        if self._adj is None:
            self._adj = self._build_adjacency()
        return self._adj

    @staticmethod
    def _assemble_csr(ends: np.ndarray, others: np.ndarray,
                      ws: np.ndarray, eid: np.ndarray,
                      n: int) -> AdjacencyView:
        """Shared CSR assembly tail: counting sort by source vertex."""
        indptr, order = _counting_sort_halfedges(ends, n)
        if ledger_active():
            charge(*P.convert_cost(ends.size), label="adjacency_build")
        return AdjacencyView(indptr=indptr,
                             neighbor=others[order],
                             weight=ws[order],
                             edge_id=eid[order])

    def _build_adjacency(self) -> AdjacencyView:
        m = self.m
        ends = np.concatenate([self.u, self.v])
        others = np.concatenate([self.v, self.u])
        ws = np.concatenate([self.w, self.w])
        eid = np.concatenate([np.arange(m, dtype=np.int64),
                              np.arange(m, dtype=np.int64)])
        return self._assemble_csr(ends, others, ws, eid, self.n)

    def adjacency_restricted(self, source_mask: np.ndarray) -> AdjacencyView:
        """CSR over the half-edges whose *source* vertex is flagged.

        Rows of unflagged vertices are empty; flagged rows contain all
        their incident edge groups, in the same within-row order as the
        full :meth:`adjacency` (so walk sampling is bit-identical).
        ``WalkEngine`` uses this to build only the interior rows it can
        ever sample from — O(edges incident to the interior) per
        elimination round instead of O(m).  Not cached.
        """
        source_mask = np.asarray(source_mask, dtype=bool)
        if source_mask.shape != (self.n,):
            raise DimensionMismatchError(
                "source_mask must have one flag per vertex")
        keep_u = source_mask[self.u]
        keep_v = source_mask[self.v]
        ids = np.arange(self.m, dtype=np.int64)
        ends = np.concatenate([self.u[keep_u], self.v[keep_v]])
        others = np.concatenate([self.v[keep_u], self.u[keep_v]])
        ws = np.concatenate([self.w[keep_u], self.w[keep_v]])
        eid = np.concatenate([ids[keep_u], ids[keep_v]])
        return self._assemble_csr(ends, others, ws, eid, self.n)

    def neighbors(self, x: int) -> np.ndarray:
        """Distinct sorted neighbours of vertex ``x``."""
        nbr, _, _ = self.adjacency().row(x)
        return np.unique(nbr)

    # -- derived graphs ------------------------------------------------------

    def copy(self) -> "MultiGraph":
        """Deep copy of the edge arrays (caches are not carried)."""
        return MultiGraph(self.n, self.u.copy(), self.v.copy(),
                          self.w.copy(),
                          mult=None if self.mult is None else self.mult.copy(),
                          validate=False)

    def with_edges(self, u: np.ndarray, v: np.ndarray,
                   w: np.ndarray) -> "MultiGraph":
        """Same vertex set, new edge arrays (validated)."""
        return MultiGraph(self.n, u, v, w)

    def edge_subset(self, mask: np.ndarray) -> "MultiGraph":
        """Keep only the edge groups selected by boolean ``mask``."""
        if mask.shape != (self.m,):
            raise DimensionMismatchError("mask must have one entry per edge")
        return MultiGraph(self.n, self.u[mask], self.v[mask], self.w[mask],
                          mult=None if self.mult is None else self.mult[mask],
                          validate=False)

    def induced_subgraph(self, vertices: np.ndarray
                         ) -> tuple["MultiGraph", np.ndarray]:
        """Induced subgraph on ``vertices`` with relabelled ids.

        Returns ``(H, vertices)`` where ``H`` has ``len(vertices)``
        vertices labelled by position in ``vertices`` (which is the
        mapping back to the parent's ids).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            raise EmptyGraphError("induced subgraph needs >= 1 vertex")
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[vertices] = np.arange(vertices.size)
        keep = (pos[self.u] >= 0) & (pos[self.v] >= 0)
        if ledger_active():
            charge(*P.map_cost(self.m), label="induced_subgraph")
        return (MultiGraph(vertices.size, pos[self.u[keep]],
                           pos[self.v[keep]], self.w[keep],
                           mult=None if self.mult is None
                           else self.mult[keep],
                           validate=False),
                vertices)

    def coalesced(self) -> "MultiGraph":
        """Merge parallel multi-edges into single edges (weights add).

        The resulting graph is simple (``mult is None`` — logical copies
        merge like any other parallel edges) and has the same Laplacian.
        The packed ``lo * n + hi`` key is used only while ``n²`` fits in
        int64; beyond that the stacked ``(lo, hi)`` pair takes over, so
        arbitrarily large vertex counts cannot overflow.
        """
        if self.m == 0:
            return MultiGraph(self.n, self.u.copy(), self.v.copy(),
                              self.w.copy(), validate=False)
        lo = np.minimum(self.u, self.v)
        hi = np.maximum(self.u, self.v)
        if self.n <= 3_037_000_499:  # n² - 1 fits in int64
            key = lo * self.n + hi
            uniq, inverse = np.unique(key, return_inverse=True)
            out_u, out_v = uniq // self.n, uniq % self.n
            n_uniq = uniq.size
        else:
            key = np.stack([lo, hi], axis=1)
            uniq, inverse = np.unique(key, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)  # numpy >= 2.0: may be (m, 1)
            out_u, out_v = uniq[:, 0], uniq[:, 1]
            n_uniq = uniq.shape[0]
        w = weighted_bincount(inverse, self.w, n_uniq)
        if ledger_active():
            charge(*P.sort_cost(self.m), label="coalesce")
        return MultiGraph(self.n, out_u, out_v, w, validate=False)

    def split_copies(self, copies: int | np.ndarray) -> "MultiGraph":
        """Split each group into ``copies`` (scalar or per-group array)
        times its current number of logical copies, totals preserved.

        This is the shared tail of Lemma 3.2/3.3 splitting: compose the
        new copy counts with any existing multiplicities in int64 (the
        constructor rejects products beyond int32 rather than letting
        them wrap).  :meth:`materialized` expands the result into
        explicit rows.
        """
        copies = np.asarray(copies)
        if np.any(copies < 1):
            raise GraphStructureError(
                "split factors must be >= 1 (0 would silently drop "
                "edges from walks while keeping their Laplacian weight)")
        mult = self.multiplicities().astype(np.int64) * copies
        return MultiGraph(self.n, self.u.copy(), self.v.copy(),
                          self.w.copy(), mult=mult, validate=False)

    def materialized(self) -> "MultiGraph":
        """Expand implicit multiplicities into explicit parallel edges.

        Group ``i`` becomes ``mult[i]`` rows of weight ``w[i]/mult[i]``
        each; the result has ``mult is None`` and ``m == m_logical``.
        O(m_logical) memory — benchmark baselines and equivalence tests
        only; the solver stack never needs it.
        """
        if self.mult is None:
            return self.copy()
        k = self.mult
        u = np.repeat(self.u, k)
        v = np.repeat(self.v, k)
        w = np.repeat(self.w / k, k)
        if ledger_active():
            charge(*P.map_cost(self.m_logical), label="materialize")
        return MultiGraph(self.n, u, v, w, validate=False)

    def relabeled(self, new_ids: np.ndarray, n_new: int) -> "MultiGraph":
        """Map vertex ``x`` to ``new_ids[x]`` (must be injective on the
        support of the edge arrays)."""
        return MultiGraph(n_new, new_ids[self.u], new_ids[self.v],
                          self.w.copy(),
                          mult=None if self.mult is None
                          else self.mult.copy())

    # -- dunder -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.mult is None:
            return f"MultiGraph(n={self.n}, m={self.m})"
        return (f"MultiGraph(n={self.n}, m={self.m}, "
                f"m_logical={self.m_logical})")

    def __eq__(self, other: object) -> bool:
        """Structural equality of the edge arrays (order-sensitive);
        multiplicities compare logically (``None`` ≡ all-ones)."""
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v)
                and np.array_equal(self.w, other.w)
                and np.array_equal(self.multiplicities(),
                                   other.multiplicities()))

    def __hash__(self) -> int:  # pragma: no cover - not hashable
        raise TypeError("MultiGraph is mutable-array backed; not hashable")

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int, float]]
                   ) -> "MultiGraph":
        """Convenience constructor from ``(u, v, w)`` triples."""
        if len(edges) == 0:
            return MultiGraph(n, np.empty(0, np.int64),
                              np.empty(0, np.int64),
                              np.empty(0, np.float64))
        arr = np.asarray(edges, dtype=np.float64)
        return MultiGraph(n, arr[:, 0].astype(np.int64),
                          arr[:, 1].astype(np.int64), arr[:, 2])
