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
*batched* Vose construction: all rows advance in lockstep (one
finalised table cell per active row per vectorised iteration), so the
Python-level loop count is the maximum row degree while the total work
stays linear in the slot count.  The per-row pairing order is
deterministic (smalls in ascending slot order against the current
large, demoted larges processed immediately), which makes the planes a
pure function of the per-row weight sequences — the property the
incremental maintenance in
:class:`repro.sampling.inc_csr.IncrementalWalkCSR` relies on for
bit-identical cached rows.  :class:`AliasTable` keeps its historical
single-distribution loop (see its constructor for why).

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

#: Active-row count below which the lockstep build finishes each row
#: with the scalar loop instead.  Pure scheduling policy: both engines
#: execute the identical per-row operation sequence (same IEEE-754
#: ops, same order), so the planes are bit-identical wherever the
#: crossover lands — the cutoff only avoids paying numpy's per-call
#: overhead on near-empty iterations when a few high-degree rows
#: outlive the rest of the batch.
_SCALAR_ROWS = 64

#: Degree at or above which a row is built by the vectorised
#: prefix-sum sweep instead of the sequential Vose pairing.  Unlike
#: :data:`_SCALAR_ROWS` this threshold selects a *different* (equally
#: exact) construction whose float output differs in the last bits, so
#: it must be — and is — a pure function of the row alone (its degree):
#: a row is built by the same algorithm whether it arrives in a full-
#: view batch or an incremental rebuild of dirty rows, keeping the
#: cached-vs-scratch planes bit-identical.
_SWEEP_DEG = 128


def _vose_row_sweep(prob, alias, smalls, larges, scaled) -> None:
    """Vectorised alias construction for one high-degree row.

    Equivalent to the sequential sweep in exact arithmetic, O(deg)
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


def _vose_rows_sweep_batch(prob, alias, smalls2d, larges2d,
                           scaled) -> None:
    """One 2-D pass over same-shape high-degree rows.

    ``smalls2d``/``larges2d`` are ``(g, ns)``/``(g, nl)`` global slot
    blocks for ``g`` rows sharing one ``(deg, ns)`` signature, so every
    per-row statement of :func:`_vose_row_sweep` lifts to an axis-1
    twin: the cumulative sums accumulate sequentially within each row
    (numpy's ``cumsum`` is a plain running sum — per-row bitwise equal
    to the 1-D call), the elementwise leftover arithmetic is identical,
    and the two ``searchsorted`` calls become stable merge-rank
    subtractions (comparison-only, integer-exact):

    * ``j_idx = searchsorted(E, d_prev, "left")`` — rank ``d_prev[i]``
      in the merge with queries *first* (ties ahead of equal ``E``),
      then subtract the ``i`` earlier queries (``d_prev`` is
      non-decreasing, so exactly ``i`` of them precede it).
    * ``i_star = searchsorted(D, E, "right")`` — rank ``E[j]`` in the
      merge with ``D`` first (ties behind equal ``D``), minus ``j``.

    Output planes are therefore bit-identical to calling
    :func:`_vose_row_sweep` once per row — the batch is pure
    scheduling, collapsing the heavy-row Python loop to one numpy
    pass per ``(deg, ns)`` group.
    """
    s_sc = scaled[smalls2d]
    l_sc = scaled[larges2d]
    g, ns = s_sc.shape
    nl = l_sc.shape[1]
    D = np.cumsum(1.0 - s_sc, axis=1)
    E = np.cumsum(l_sc - 1.0, axis=1)
    prob[smalls2d] = s_sc
    d_prev = np.concatenate((np.zeros((g, 1)), D[:, :-1]), axis=1)
    j_idx = _rowwise_merge_ranks(d_prev, E)[:, :ns] - np.arange(ns)
    np.minimum(j_idx, nl - 1, out=j_idx)  # rounding clamp (leftovers)
    alias[smalls2d] = np.take_along_axis(larges2d, j_idx, axis=1)
    i_star = _rowwise_merge_ranks(D, E)[:, ns:] - np.arange(nl)
    dem = i_star < ns
    dem[:, -1] = False
    if dem.any():
        rows, k = np.nonzero(dem)
        tgt = larges2d[rows, k]
        prob[tgt] = 1.0 + (E[dem] - D[rows, i_star[dem]])
        alias[tgt] = larges2d[rows, k + 1]


def _vose_row_scalar(prob, alias, perm, scaled,
                     i: int, i_end: int, j: int, j_end: int,
                     resid: float) -> None:
    """Finish one row's pairing sequentially (see :data:`_SCALAR_ROWS`).

    Must mirror the vectorised loop's arithmetic exactly — every
    update below is the elementwise twin of a batched statement
    (Python floats are the same IEEE-754 doubles, so interleaving the
    two engines cannot change a bit).  The row's remaining cells are
    pulled into plain lists up front and the finalised cells written
    back in one shot, keeping the per-step cost at list-indexing
    rather than numpy-scalar-indexing level.
    """
    smalls = perm[i:i_end].tolist()
    larges = perm[j:j_end].tolist()
    s_sc = scaled[perm[i:i_end]].tolist()
    l_sc = scaled[perm[j:j_end]].tolist()
    p, q, n_s, n_l = 0, 0, len(smalls), len(larges)
    cur = larges[q]
    idxs: list = []
    probs: list = []
    avals: list = []
    while True:
        if resid >= 1.0:
            if p < n_s:
                idxs.append(smalls[p])
                probs.append(s_sc[p])
                avals.append(cur)
                resid = resid + (s_sc[p] - 1.0)
                p += 1
            else:
                idxs.append(cur)
                probs.append(1.0)
                avals.append(cur)
                break
        elif q + 1 < n_l:
            nxt = larges[q + 1]
            idxs.append(cur)
            probs.append(resid)
            avals.append(nxt)
            resid = l_sc[q + 1] + (resid - 1.0)
            q += 1
            cur = nxt
        else:
            idxs.append(cur)
            probs.append(1.0)
            avals.append(cur)
            break
    ii = np.array(idxs, dtype=np.int64)
    prob[ii] = probs
    alias[ii] = avals


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

    The pairing per row is Vose's method with a fixed deterministic
    order (see the module docstring), processed for all rows in
    lockstep: each vectorised iteration finalises one cell per still-
    active row, so the loop runs ``max_row_degree`` times while total
    work stays ``O(slots)`` (the partition uses a lexsort here; a
    counting sort realises the theoretical ``O(m)`` bound, which is
    what the ledger charges — same convention as the bisect sampler's
    accounting).
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
    # function of the row's weight *sequence*, so a row rebuilt from a
    # sliced-out mini-CSR reproduces it bit-for-bit (the incremental
    # cache equality in inc_csr.py depends on this).
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
    # High-degree rows take the vectorised prefix-sum sweep (see
    # _SWEEP_DEG for why the split is keyed on the row alone).  Rows
    # sharing one (deg, ns) signature batch into a single 2-D pass
    # that is bit-identical to the per-row sweep (pure scheduling —
    # see _vose_rows_sweep_batch); singletons keep the 1-D call.
    heavy = np.flatnonzero(pairing & (deg >= _SWEEP_DEG))
    if heavy.size:
        heavy = heavy[np.lexsort((ns[heavy], deg[heavy]))]
        d_h, ns_h = deg[heavy], ns[heavy]
        cut = np.ones(heavy.size, dtype=bool)
        cut[1:] = (d_h[1:] != d_h[:-1]) | (ns_h[1:] != ns_h[:-1])
        starts = np.flatnonzero(cut)
        for a, b in zip(starts.tolist(),
                        np.append(starts[1:], heavy.size).tolist()):
            if b - a == 1:
                r = int(heavy[a])
                lo, split, hi = indptr[r], indptr[r] + ns[r], \
                    indptr[r + 1]
                _vose_row_sweep(prob, alias, perm[lo:split],
                                perm[split:hi], scaled)
            else:
                nsg, dg = int(ns_h[a]), int(d_h[a])
                base = indptr[heavy[a:b]][:, None]
                _vose_rows_sweep_batch(
                    prob, alias,
                    perm[base + np.arange(nsg)],
                    perm[base + np.arange(nsg, dg)],
                    scaled)
    act = np.flatnonzero(pairing & (deg < _SWEEP_DEG))
    i = indptr[act].copy()             # next small to consume
    i_end = indptr[act] + ns[act]
    j = i_end.copy()                   # current large
    j_end = indptr[act + 1].copy()
    resid = scaled[perm[j]].copy()     # running scaled mass of large j
    while i.size:
        if i.size <= _SCALAR_ROWS:
            for t in range(i.size):
                _vose_row_scalar(prob, alias, perm, scaled,
                                 int(i[t]), int(i_end[t]),
                                 int(j[t]), int(j_end[t]),
                                 float(resid[t]))
            break
        # All three masks snapshot the iteration-start state; the
        # branch bodies below mutate i/j, so deciding membership first
        # keeps a row from e.g. consuming its last small *and* being
        # finalised in the same pass.
        absorb = resid >= 1.0
        take = absorb & (i < i_end)
        demote = ~absorb
        step = demote & (j + 1 < j_end)
        finish = (absorb & ~take) | (demote & ~step)
        if take.any():
            s = perm[i[take]]
            prob[s] = scaled[s]
            alias[s] = perm[j[take]]
            resid[take] += scaled[s] - 1.0
            i[take] += 1
        if step.any():
            l = perm[j[step]]
            l2 = perm[j[step] + 1]
            prob[l] = resid[step]
            alias[l] = l2
            resid[step] = scaled[l2] + (resid[step] - 1.0)
            j[step] += 1
        if finish.any():
            # Current large lands on (up to rounding) exactly 1; any
            # untouched smalls/larges beyond it keep the default 1.
            prob[perm[j[finish]]] = 1.0
            keep = ~finish
            i, i_end = i[keep], i_end[keep]
            j, j_end = j[keep], j_end[keep]
            resid = resid[keep]
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
        with ``adj``'s slots (e.g. incrementally maintained by
        :class:`repro.sampling.inc_csr.IncrementalWalkCSR`, or
        reconstructed worker-side from shared memory).  When given,
        construction is pure view-wiring and charges nothing.
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
