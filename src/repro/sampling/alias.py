"""Alias-method weighted sampling (Lemma 2.6 / [HS19]).

Two samplers realise the paper's O(1)-per-query bound:

* :class:`AliasTable` — one fixed distribution (the seed's primitive).
* :class:`CSRAliasSampler` — one alias table **per CSR row**, stored as
  flat ``prob``/``alias`` planes aligned with the adjacency's slot
  layout.  This is the walk engine's hot-path sampler: a batch of
  walkers standing on arbitrary rows resolves every step with one
  uniform draw, a fan-out multiply into the row, two gathers, and one
  comparison — no bisection, no per-row Python.

The batched sampler builds through :func:`build_alias_tables`, a
vectorised Vose construction: every row that needs pairing takes the
prefix-sum sweep (:func:`_vose_row_sweep`), and rows are padded into
one 2-D block per degree bucket (degrees of equal bit length), so the
only Python-level loop runs over at most ``⌈log₂ max deg⌉ + 1``
buckets while the total work stays linear in the slot count (up to the
per-bucket sorts).  Each row's planes equal :func:`_vose_row_sweep` on
that row alone, bit for bit, so the planes are a pure function of the
per-row weight sequences, whichever rows share the build.
:class:`AliasTable` keeps its historical single-distribution loop (see
its constructor for why).

The construction is exact up to floating-point rounding; a final clamp
makes every probability valid.  Ledger charges follow the [HS19]
accounting the paper cites: ``(O(m), O(log m))`` per build, ``O(1)``
per query.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.rng import as_generator

__all__ = ["AliasTable", "CSRAliasSampler", "build_alias_tables"]


def _vose_row_sweep(prob, alias, smalls, larges, scaled) -> None:
    """Vectorised alias construction for one row — the reference the
    bucketed build (:func:`_vose_rows_sweep_padded`) reproduces bit
    for bit.

    Equivalent to sequential Vose pairing in exact arithmetic, O(deg)
    with a handful of numpy passes instead of one Python step per
    cell: with per-small deficits ``d_i = 1 − scaled(s_i)`` and
    per-large surpluses ``e_j = scaled(l_j) − 1``, the sequential
    pairing assigns small ``i`` to the large current at its
    consumption — the first ``j`` with ``E_j ≥ D_{i−1}`` (``D``/``E``
    the prefix sums) — and demotes large ``j`` with leftover
    ``ρ_j = 1 + E_j − D_{i*}`` at the first ``i*`` with
    ``D_{i*} > E_j``, aliased to ``l_{j+1}``.  Mass at ``l_j``
    telescopes to ``1 + e_j = scaled(l_j)`` exactly; float rounding
    enters only through the prefix sums (clamped globally).
    """
    s_sc = scaled[smalls]
    l_sc = scaled[larges]
    nl = larges.size
    D = np.cumsum(1.0 - s_sc)
    E = np.cumsum(l_sc - 1.0)
    prob[smalls] = s_sc
    d_prev = np.concatenate(([0.0], D[:-1]))
    j_idx = np.searchsorted(E, d_prev, side="left")
    np.minimum(j_idx, nl - 1, out=j_idx)  # rounding clamp (leftovers)
    alias[smalls] = larges[j_idx]
    # first strictly-greater cumulative deficit per large; == D.size
    # means never demoted (prob stays 1); the last large never demotes.
    i_star = np.searchsorted(D, E, side="right")
    dem = i_star < D.size
    dem[-1] = False
    if dem.any():
        k = np.flatnonzero(dem)
        prob[larges[k]] = 1.0 + (E[k] - D[i_star[k]])
        alias[larges[k]] = larges[k + 1]


def _rowwise_merge_ranks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row rank of every cell of ``[a | b]`` under a stable sort.

    Both inputs are ``(g, ·)`` blocks of non-decreasing rows; the
    return aligns with their concatenation along axis 1.  Comparison
    only — no float arithmetic — so the ranks reproduce per-row
    ``searchsorted`` answers exactly (see the callers for which side
    of the tie each use needs).
    """
    merged = np.concatenate((a, b), axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order,
        np.broadcast_to(np.arange(merged.shape[1]), merged.shape),
        axis=1)
    return ranks


def _vose_rows_sweep_padded(prob, alias, perm, scaled, lo, ns,
                            nl) -> None:
    """:func:`_vose_row_sweep` for a bucket of rows in one 2-D pass.

    Row ``t`` owns the cells ``perm[lo[t]:lo[t] + ns[t]]`` (its smalls)
    followed by ``nl[t]`` larges.  Both lists are padded to the
    bucket's widest row with cells whose scaled value is exactly 1, so
    a pad adds exactly 0 to the cumulative deficits ``D`` and surpluses
    ``E``: past a row's real cells they stay constant.  Every per-row
    statement of the 1-D sweep then lifts to an axis-1 twin with the
    same IEEE results on the real cells: ``cumsum`` along axis 1 is the
    same running sum, the leftover arithmetic is elementwise, and the
    two ``searchsorted`` calls become stable merge-rank subtractions
    (comparison only):

    * ``j_idx = searchsorted(E, d_prev, "left")`` — rank ``d_prev[i]``
      in the merge with queries first (ties ahead of equal ``E``), less
      the ``i`` earlier queries.  A pad ``E`` equals the row's last real
      one, so it counts only when every real one does, and the clamp to
      ``nl − 1`` maps both answers to the same large;
    * ``i_star = searchsorted(D, E, "right")`` — rank ``E[j]`` in the
      merge with ``D`` first (ties behind equal ``D``), less ``j``.  A
      pad ``D`` counts only when all ``ns`` real ones do, and any
      answer ``≥ ns`` means "never demoted" in both.
    """
    g = lo.size
    ws, wl = int(ns.max()), int(nl.max())
    cs, cl = np.arange(ws), np.arange(wl)
    s_real = cs < ns[:, None]
    l_real = cl < nl[:, None]
    smalls = perm[lo[:, None] + np.minimum(cs, ns[:, None] - 1)]
    larges = perm[(lo + ns)[:, None] + np.minimum(cl, nl[:, None] - 1)]
    s_sc = np.where(s_real, scaled[smalls], 1.0)
    l_sc = np.where(l_real, scaled[larges], 1.0)
    D = np.cumsum(1.0 - s_sc, axis=1)
    E = np.cumsum(l_sc - 1.0, axis=1)
    real = smalls[s_real]
    prob[real] = s_sc[s_real]
    d_prev = np.concatenate((np.zeros((g, 1)), D[:, :-1]), axis=1)
    j_idx = _rowwise_merge_ranks(d_prev, E)[:, :ws] - cs
    np.minimum(j_idx, nl[:, None] - 1, out=j_idx)  # rounding clamp
    alias[real] = np.take_along_axis(larges, j_idx, axis=1)[s_real]
    i_star = _rowwise_merge_ranks(D, E)[:, ws:] - cl
    dem = (i_star < ns[:, None]) & (cl < nl[:, None] - 1)
    if dem.any():
        rows, k = np.nonzero(dem)
        tgt = larges[rows, k]
        prob[tgt] = 1.0 + (E[dem] - D[rows, i_star[dem]])
        alias[tgt] = larges[rows, k + 1]


def build_alias_tables(indptr: np.ndarray, weight: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched per-row Vose construction over a CSR slot layout.

    Parameters
    ----------
    indptr:
        Row pointers: row ``r`` owns slots ``indptr[r]:indptr[r+1]``.
    weight:
        Non-negative slot weights (flat, aligned with the rows).

    Returns
    -------
    ``(prob, alias, total)`` — flat planes aligned with the slots
    (``alias`` holds **global** slot ids, always within the same row)
    plus the per-row weight totals.  Sampling row ``r``: draw a uniform
    cell among its ``deg`` slots and accept it with probability
    ``prob[cell]``, else take ``alias[cell]``; the resulting slot
    distribution is exactly ``weight / total[r]`` up to rounding.

    Rows with zero total weight (including empty rows) are left at the
    ``prob = 1`` / self-alias default — they cannot be sampled from and
    the samplers raise before ever reading their cells.

    Every row with both small and large cells takes the prefix-sum
    sweep (:func:`_vose_row_sweep`); rows are padded into one 2-D block
    per degree bucket (equal bit length, so every row's degree is more
    than half the bucket's largest), and the only Python loop runs over
    those ``⌈log₂ max deg⌉ + 1`` buckets.  A row's planes equal the
    1-D sweep on that row alone, bit for bit.  Total work is
    ``O(slots)`` up to the partition's lexsort and the per-bucket merge
    sorts; a counting sort realises the theoretical ``O(m)`` bound,
    which is what the ledger charges — same convention as the bisect
    sampler's accounting.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    n = indptr.size - 1
    nnz = weight.size
    prob = np.ones(nnz, dtype=np.float64)
    alias = np.arange(nnz, dtype=np.int64)
    deg = np.diff(indptr)
    row_of = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Sequential per-bin accumulation: the per-row total is a pure
    # function of the row's weight *sequence*, whichever rows share
    # the build.
    total = np.bincount(row_of, weights=weight, minlength=n) if nnz \
        else np.zeros(n, dtype=np.float64)
    if nnz == 0:
        return prob, alias, total

    ok = total > 0.0
    # Normalise before scaling: w <= total entrywise, so w/total never
    # overflows even for subnormal totals (deg/total would).  Rows
    # with non-positive totals get junk scaled values but are excluded
    # from pairing below and keep the default planes.
    denom = np.where(ok, total, 1.0)
    scaled = (weight / denom[row_of]) * deg[row_of]

    # Stable within-row partition: smalls (scaled < 1) first, each
    # class in ascending slot order.  row_of is already sorted, so the
    # lexsort only reorders within rows and row r occupies
    # perm[indptr[r]:indptr[r+1]].
    is_large = scaled >= 1.0
    perm = np.lexsort((is_large, row_of))
    ns = np.bincount(row_of[~is_large], minlength=n)

    # Rows needing pairing work: at least one small and one large.
    # All-large rows are uniform (every cell exactly 1); all-small rows
    # only arise from rounding and fall to the leftover prob = 1 rule —
    # both are already the default plane values.
    pairing = ok & (ns > 0) & (ns < deg)
    rows = np.flatnonzero(pairing)
    if rows.size:
        bucket = np.frexp(deg[rows].astype(np.float64))[1]
        rows = rows[np.argsort(bucket, kind="stable")]
        cuts = np.flatnonzero(np.diff(np.sort(bucket))) + 1
        for grp in np.split(rows, cuts):
            _vose_rows_sweep_padded(prob, alias, perm, scaled,
                                    indptr[grp], ns[grp],
                                    deg[grp] - ns[grp])
    np.clip(prob, 0.0, 1.0, out=prob)
    return prob, alias, total


class CSRAliasSampler:
    """O(1)-per-query per-row sampler over a CSR adjacency.

    The walk engine's sampler, with the same ``sample`` contract as
    the bisection oracle :class:`repro.sampling.rowsample.RowSampler`
    (global slot ids, weight-proportional within each queried row).
    It realises Lemma 2.6's accounting literally: linear preprocessing builds one alias table per row,
    after which a step is one uniform draw, a fan-out multiply, two
    gathers, and a comparison — constant work per walker regardless of
    the adjacency size, where the bisect sampler pays ``O(log m)``.

    Parameters
    ----------
    adj:
        The :class:`repro.graphs.multigraph.AdjacencyView` to sample
        from.
    planes:
        Optional prebuilt ``(prob, alias, row_total)`` planes aligned
        with ``adj``'s slots (e.g. built and charged by
        :meth:`repro.sampling.inc_csr.IncrementalWalkCSR.alias_planes`).
        When given, construction is pure view-wiring and charges
        nothing.
    """

    __slots__ = ("adj", "prob", "alias", "row_total", "_deg")

    def __init__(self, adj, planes=None) -> None:
        self.adj = adj
        if planes is None:
            self.prob, self.alias, self.row_total = build_alias_tables(
                adj.indptr, adj.weight)
            if ledger_active():
                charge(*P.sampler_build_cost(adj.weight.size),
                       label="alias_build")
        else:
            self.prob, self.alias, self.row_total = planes
        # Per-row degree, with unsampleable rows (zero total weight,
        # including empty rows) flagged as -1: the hot sample() path
        # then needs one gather that doubles as the isolated-vertex
        # guard.
        deg = np.diff(adj.indptr)
        self._deg = np.where(self.row_total > 0.0, deg, -1)

    @classmethod
    def from_planes(cls, adj, prob: np.ndarray, alias: np.ndarray,
                    row_total: np.ndarray) -> "CSRAliasSampler":
        """Wire a sampler around prebuilt planes (no build, no charge)."""
        return cls(adj, planes=(prob, alias, row_total))

    @property
    def plane_nbytes(self) -> int:
        """Bytes held by the alias planes (perf accounting).

        One ``(prob, alias)`` slot pair per CSR slot plus the per-row
        totals — exactly the footprint emitted-edge coalescing shrinks
        when it collapses heavy rows (DESIGN.md §11), which is what the
        coalesce benchmark reports.
        """
        return (self.prob.nbytes + self.alias.nbytes
                + self.row_total.nbytes)

    def row_totals(self) -> np.ndarray:
        """Total weight per row (the weighted degrees)."""
        return self.row_total

    def sample(self, rows: np.ndarray, seed=None) -> np.ndarray:
        """For each entry of ``rows``, one weight-proportional slot index.

        Returns global CSR slot positions, like
        :meth:`repro.sampling.rowsample.RowSampler.sample`.  Rows with
        zero total weight (isolated vertices, empty restricted rows)
        raise :class:`repro.errors.SamplingError`.

        One uniform per query: the integer part of ``u · deg`` picks
        the cell, the fractional part is the accept coin — the
        classic single-draw alias query, so the RNG stream advances by
        exactly ``rows.size`` doubles (the bisect sampler draws the
        same count; the *mapping* from draws to slots differs, which
        is why cross-sampler agreement is distributional, not bitwise).
        """
        rows = np.asarray(rows, dtype=np.int64)
        deg = self._deg[rows]
        if np.any(deg < 1):
            raise SamplingError("cannot sample a neighbour of an isolated "
                                "vertex")
        rng = as_generator(seed)
        scaled = rng.random(rows.size) * deg
        cell = scaled.astype(np.int64)
        # u < 1 keeps u·deg < deg mathematically; the minimum guards
        # the half-ulp case where the product rounds up to deg.
        np.minimum(cell, deg - 1, out=cell)
        slot = self.adj.indptr[rows] + cell
        accept = (scaled - cell) < self.prob[slot]
        out = np.where(accept, slot, self.alias[slot])
        if ledger_active():
            charge(*P.sampler_query_cost(rows.size), label="alias_query")
        return out

    def pmf(self) -> np.ndarray:
        """Per-slot probability each row's table encodes (testing).

        For every non-empty sampleable row the returned slice should
        match ``weight_row / total_row`` up to rounding.
        """
        deg = np.diff(self.adj.indptr)
        n = deg.size
        row_of = np.repeat(np.arange(n, dtype=np.int64), deg)
        denom = np.maximum(deg[row_of], 1).astype(np.float64)
        out = self.prob / denom
        np.add.at(out, self.alias, (1.0 - self.prob) / denom)
        return out


class AliasTable:
    """O(1)-per-query sampler for a fixed discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative weights, at least one strictly positive.  They
        need not be normalised.
    """

    __slots__ = ("n", "prob", "alias", "total")

    def __init__(self, weights: np.ndarray) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise SamplingError("weights must be a non-empty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise SamplingError("weights must be finite and non-negative")
        total = float(w.sum())
        if total <= 0:
            raise SamplingError("total weight must be positive")
        self.n = w.size
        self.total = total

        # Deliberately NOT delegated to build_alias_tables: the batched
        # construction pairs cells in a different (equally exact) order,
        # and changing this table's prob/alias planes would silently
        # change every fixed-seed consumer outside the walk stack
        # (e.g. spectral_sparsify's seeded picks).  The historical LIFO
        # Vose loop is kept bit-for-bit.
        #
        # Normalise before scaling: w <= total entrywise, so w/total
        # never overflows even for subnormal totals.
        scaled = (w / total) * self.n
        prob = np.ones(self.n, dtype=np.float64)
        alias = np.arange(self.n, dtype=np.int64)

        small = [i for i in range(self.n) if scaled[i] < 1.0]
        large = [i for i in range(self.n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        # leftovers are 1 up to rounding
        for i in small + large:
            prob[i] = 1.0
        self.prob = np.clip(prob, 0.0, 1.0)
        self.alias = alias
        charge(*P.sampler_build_cost(self.n), label="alias_build")

    def sample(self, size: int, seed=None) -> np.ndarray:
        """Draw ``size`` i.i.d. indices distributed ∝ the weights."""
        if size < 0:
            raise SamplingError("size must be non-negative")
        rng = as_generator(seed)
        cells = rng.integers(0, self.n, size=size)
        accept = rng.random(size) < self.prob[cells]
        out = np.where(accept, cells, self.alias[cells])
        charge(*P.sampler_query_cost(size), label="alias_sample")
        return out

    def pmf(self) -> np.ndarray:
        """Exact probability mass function the table encodes.

        Useful for testing: reconstructs ``P[i]`` from (prob, alias),
        which should match ``weights / weights.sum()`` up to rounding.
        """
        p = self.prob / self.n
        out = p.copy()
        np.add.at(out, self.alias, (1.0 - self.prob) / self.n)
        return out
