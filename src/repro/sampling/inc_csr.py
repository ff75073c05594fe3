"""Incrementally maintained restricted CSR for the elimination loop.

Every round of ``ApproxSchur`` / ``BlockCholesky`` needs a CSR over the
half-edges whose source vertex is about to be eliminated (the rows the
walk engine can sample from).  Rebuilding that CSR from scratch costs a
counting sort over *all* stored edges per round;
:class:`IncrementalWalkCSR` instead maintains the edge store across
rounds — **delete** the edges consumed by a round's walks (everything
incident to the eliminated set ``F``), **insert** the edges the walks
emitted — and extracts each round's restricted view by gathering only
the rows it needs: ``O(deg F + inserts-since-epoch)`` instead of
``O(m)``.

Invariants (asserted by the equality tests, documented in DESIGN.md §6):

* **Order.**  The live edges, in store order, are exactly the working
  graph's edge arrays: survivors keep their relative order, inserted
  edges append.  This matches ``terminal_walks``'s output layout
  (pass-through groups first, emitted edges after).
* **View equality.**  :meth:`restricted_view` returns an
  ``AdjacencyView`` whose ``indptr``/``neighbor``/``weight`` (and
  per-slot multiplicities) are *bit-identical* to
  ``MultiGraph.adjacency_restricted`` on the equivalent compacted
  graph — same per-row slot order (all ``u``-side half-edges by edge
  index, then all ``v``-side), same float summation order — so walk
  sampling cannot tell the two builds apart.  Only ``edge_id`` differs:
  an incremental view's ids index this store, not the compacted arrays.
* **Epochs.**  A full per-vertex index (two stable counting sorts, one
  per edge side) is built over the store at construction and rebuilt —
  with dead-edge compaction — only when the appended tail outgrows
  ``rebuild_factor`` × the live edge count, keeping the amortised
  per-round index cost linear in the *churn*, not the graph.

Each round's **alias planes** (:meth:`IncrementalWalkCSR.alias_planes`,
DESIGN.md §8) are built from that round's restricted view in one
vectorised pass.  Nothing is cached across rounds: a row is sampled
only in the round that eliminates it, so every row's table is built
exactly once either way.

**Coalesced inserts** (DESIGN.md §11): ``insert(..., coalesce=True)``
merges same-``{u, v}`` duplicates *within the batch* (sort/``unique``
on a packed ``lo·n + hi`` key, weight-sum, multiplicity-sum — the
``MultiGraph.coalesced`` idiom) and then folds each surviving group
into the row's live *previously coalesced* slot when one exists (a
``(u, v) → slot`` lookup maintained across rounds and remapped at
epoch compaction), so heavy rows accumulate one slot per neighbour
instead of one per walker.  A coalesced group of ``k`` emitted
parallels with weights ``w_1..w_k`` stores ``(Σw_i, mult=k)``: the
Laplacian is unchanged (weights add) and the per-copy resistance
``k/Σw_i`` is exactly the conditional mean of the individual ``1/w_i``
under weight-proportional slot choice, so terminal-walk estimates stay
unbiased (and α-boundedness is preserved — the mean of bounded
leverages is bounded).  Walks through a coalesced store differ from
the uncoalesced realisation *distributionally only*; per flag setting
the store remains bit-deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.multigraph import (
    AdjacencyView,
    MultiGraph,
    _counting_sort_halfedges,
    weighted_bincount,
)
from repro.pram import charge, ledger_active
from repro.pram import primitives as P
from repro.sampling.alias import CSRAliasSampler, build_alias_tables
from repro.sampling.walks import WalkEngine

__all__ = ["IncrementalWalkCSR", "InteriorDegreeOracle"]


def _gather_row_slices(indptr: np.ndarray, slots: np.ndarray,
                       rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``slots[indptr[r]:indptr[r+1]]`` for each row.

    Returns ``(values, row_of_value)`` with rows visited in the given
    (ascending) order — O(output) with no Python per-row loop.
    """
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return (np.empty(0, dtype=slots.dtype),
                np.empty(0, dtype=np.int64))
    offsets = np.cumsum(lens) - lens
    pos = np.repeat(starts - offsets, lens) + np.arange(total,
                                                        dtype=np.int64)
    return slots[pos], np.repeat(rows, lens)


class InteriorDegreeOracle:
    """Degrees of the live edges induced on an interior set ``U``.

    Drop-in replacement for the per-round induced-subgraph rebuild in
    the 5DD scan (:func:`repro.core.dd_subset.five_dd_subset`): it
    exposes the same ``n`` / ``m`` / :meth:`weighted_degrees` /
    within-subset-degree surface, but is assembled by *gathering only
    the rows of* ``U`` from the incremental store's epoch index —
    ``O(deg U + appended tail)`` instead of the ``O(stored edges)``
    scan a rebuild pays, which matters in late elimination rounds where
    the store is dominated by accumulated terminal–terminal edges the
    interior scan never needs.

    **Bit-equality invariant** (asserted by the tests): every degree it
    returns is bit-identical to the rebuild path
    (``work.edge_subset(interior_mask).weighted_degrees()`` and the
    candidate-scan's within-subset degrees).  Both reduce per vertex
    with one ``u``-side plus one ``v``-side ``bincount``, and both
    visit each bin's edges in ascending store order — the epoch gather
    is per-row grouped with ascending ids and appended-tail ids exceed
    every epoch id, so filtering preserves exactly the summation order
    of the induced rebuild and the floating-point sums cannot differ.
    """

    def __init__(self, n: int,
                 su: np.ndarray, ou: np.ndarray, wu: np.ndarray,
                 sv: np.ndarray, ov: np.ndarray, wv: np.ndarray) -> None:
        self.n = n
        # One u-side entry per interior edge (its u endpoint's row).
        self._su, self._ou, self._wu = su, ou, wu
        self._sv, self._ov, self._wv = sv, ov, wv
        self._wdeg: np.ndarray | None = None

    @property
    def m(self) -> int:
        """Interior edge-group count (== the induced rebuild's ``m``)."""
        return self._su.size

    @property
    def nbytes(self) -> int:
        """Bytes held by the gathered half-edge arrays."""
        return (self._su.nbytes + self._ou.nbytes + self._wu.nbytes
                + self._sv.nbytes + self._ov.nbytes + self._wv.nbytes)

    def weighted_degrees(self) -> np.ndarray:
        """Interior weighted degree per vertex (cached); bit-identical
        to ``induced.weighted_degrees()`` on the rebuilt subgraph."""
        if self._wdeg is None:
            self._wdeg = (weighted_bincount(self._su, self._wu, self.n)
                          + weighted_bincount(self._sv, self._wv, self.n))
            if ledger_active():
                charge(*P.reduce_cost(2 * self.m),
                       label="weighted_degrees")
        return self._wdeg

    def within_subset_degrees(self, member: np.ndarray) -> np.ndarray:
        """Weighted degree counting only edges with both endpoints
        flagged in ``member`` (the 5DD candidate scan's inner kernel)."""
        both_u = member[self._su] & member[self._ou]
        both_v = member[self._sv] & member[self._ov]
        if not both_u.any():
            return np.zeros(self.n, dtype=np.float64)
        return (weighted_bincount(self._su[both_u], self._wu[both_u],
                                  self.n)
                + weighted_bincount(self._sv[both_v], self._wv[both_v],
                                    self.n))


class IncrementalWalkCSR:
    """Edge store with delete-rows / insert-edges and restricted views.

    Parameters
    ----------
    graph:
        The initial working multigraph (its arrays are copied).
    rebuild_factor:
        Rebuild (and compact) the epoch index once the appended tail
        exceeds this fraction of the live edge count.
    """

    def __init__(self, graph: MultiGraph,
                 rebuild_factor: float = 1.0) -> None:
        if rebuild_factor <= 0:
            raise ValueError("rebuild_factor must be positive")
        self.n = graph.n
        self.rebuild_factor = float(rebuild_factor)
        self._size = graph.m
        self._has_mult = graph.mult is not None
        cap = max(16, graph.m)
        self._bu = np.empty(cap, dtype=np.int64)
        self._bv = np.empty(cap, dtype=np.int64)
        self._bw = np.empty(cap, dtype=np.float64)
        self._bmult = np.empty(cap, dtype=np.int32) if self._has_mult \
            else None
        self._balive = np.empty(cap, dtype=bool)
        self._bu[:graph.m] = graph.u
        self._bv[:graph.m] = graph.v
        self._bw[:graph.m] = graph.w
        if self._has_mult:
            self._bmult[:graph.m] = graph.mult
        self._balive[:graph.m] = True
        self._alive_count = graph.m
        # Coalesced-insert state: packed {u,v} key -> live slot id for
        # slots created by a coalescing insert (remapped at epoch
        # compaction, dropped lazily when the slot dies).
        self._slot_lookup: dict = {}
        # Perf counters for the coalesce/alias benchmarks.
        self.emitted_slots_saved = 0
        self.live_merged_slots = 0
        self.alias_built_slots = 0
        self._build_epoch()

    # -- buffer views --------------------------------------------------------

    @property
    def u(self) -> np.ndarray:
        """Stored ``u`` endpoints (live and dead, in store order)."""
        return self._bu[:self._size]

    @property
    def v(self) -> np.ndarray:
        """Stored ``v`` endpoints (live and dead, in store order)."""
        return self._bv[:self._size]

    @property
    def w(self) -> np.ndarray:
        """Stored edge-group weights, aligned with :attr:`u`/:attr:`v`."""
        return self._bw[:self._size]

    @property
    def mult(self) -> np.ndarray | None:
        """Stored multiplicities (``None`` for an implicit all-ones
        store)."""
        return self._bmult[:self._size] if self._has_mult else None

    @property
    def alive(self) -> np.ndarray:
        """Liveness flag per stored edge (``False`` = deleted)."""
        return self._balive[:self._size]

    @property
    def m(self) -> int:
        """Stored edges (live + dead + appended)."""
        return self._size

    @property
    def nbytes(self) -> int:
        """Bytes held by the store: edge buffers (at capacity) plus the
        two-sided epoch index — the footprint memory accounting must
        charge whenever the store is alive."""
        total = (self._bu.nbytes + self._bv.nbytes + self._bw.nbytes
                 + self._balive.nbytes)
        if self._has_mult:
            total += self._bmult.nbytes
        total += (self._u_indptr.nbytes + self._u_slots.nbytes
                  + self._v_indptr.nbytes + self._v_slots.nbytes)
        # Coalesce lookup: ~one dict entry (key + slot id + table
        # overhead) per coalesced slot.
        total += 64 * len(self._slot_lookup)
        return total

    @property
    def m_alive(self) -> int:
        """Live edges — the working graph's stored edge count."""
        return self._alive_count

    def _reserve(self, extra: int) -> None:
        need = self._size + extra
        cap = self._bu.shape[0]
        if need <= cap:
            return
        cap = max(need, 2 * cap)

        def grow(buf, dtype):
            new = np.empty(cap, dtype=dtype)
            new[:self._size] = buf[:self._size]
            return new

        self._bu = grow(self._bu, np.int64)
        self._bv = grow(self._bv, np.int64)
        self._bw = grow(self._bw, np.float64)
        if self._has_mult:
            self._bmult = grow(self._bmult, np.int32)
        self._balive = grow(self._balive, bool)

    # -- epoch index ---------------------------------------------------------

    def _build_epoch(self) -> None:
        """Compact dead edges away and re-index both edge sides."""
        if self._alive_count != self._size:
            keep = np.flatnonzero(self._balive[:self._size])
            if self._slot_lookup:
                # Compaction renames slot ids: remap the coalesce
                # lookup (and drop entries whose slot died).
                pos = np.full(self._size, -1, dtype=np.int64)
                pos[keep] = np.arange(keep.size, dtype=np.int64)
                self._slot_lookup = {
                    key: int(pos[slot])
                    for key, slot in self._slot_lookup.items()
                    if pos[slot] >= 0}
            m = keep.size
            self._bu[:m] = self._bu[keep]
            self._bv[:m] = self._bv[keep]
            self._bw[:m] = self._bw[keep]
            if self._has_mult:
                self._bmult[:m] = self._bmult[keep]
            self._balive[:m] = True
            self._size = m
        self._epoch_m = self._size
        self._u_indptr, self._u_slots = _counting_sort_halfedges(
            self.u, self.n)
        self._v_indptr, self._v_slots = _counting_sort_halfedges(
            self.v, self.n)
        if ledger_active():
            charge(*P.convert_cost(2 * self._epoch_m),
                   label="inc_csr_epoch_build")

    def _maybe_rebuild(self) -> None:
        appended = self.m - self._epoch_m
        if appended > self.rebuild_factor * max(self._alive_count, 1):
            self._build_epoch()

    # -- mutation ------------------------------------------------------------

    def eliminate(self, F: np.ndarray) -> None:
        """Delete every live edge incident to a vertex of ``F``.

        These are exactly the edges a round's terminal walks consume
        (groups with an endpoint in the eliminated set).  Cost:
        O(epoch-degree of ``F`` + appended tail).
        """
        F = np.asarray(F, dtype=np.int64)
        if F.size == 0:
            return
        hit_u, _ = _gather_row_slices(self._u_indptr, self._u_slots, F)
        hit_v, _ = _gather_row_slices(self._v_indptr, self._v_slots, F)
        # An F–F edge shows up in both side gathers (and may already be
        # dead): dedup through a scratch mask before the alive
        # bookkeeping, not a sort.
        alive = self.alive
        mark = np.zeros(self._size, dtype=bool)
        mark[hit_u] = True
        mark[hit_v] = True
        if self._size > self._epoch_m:
            member = np.zeros(self.n, dtype=bool)
            member[F] = True
            tail_u = self._bu[self._epoch_m:self._size]
            tail_v = self._bv[self._epoch_m:self._size]
            mark[self._epoch_m:] |= member[tail_u] | member[tail_v]
        newly = mark & alive
        self._alive_count -= int(np.count_nonzero(newly))
        alive[newly] = False
        if ledger_active():
            charge(*P.map_cost(hit_u.size + hit_v.size),
                   label="inc_csr_delete")

    def _promote_mult(self) -> None:
        """Lazily grow a multiplicity column (all existing slots = 1).

        Stores built from a multiplicity-less graph historically
        *rejected* ``mult > 1`` inserts; coalesced groups and implicit
        α-split pass-throughs now share one representation, and
        :attr:`nbytes` charges the column's true footprint from the
        moment it exists.
        """
        if self._has_mult:
            return
        self._bmult = np.ones(self._bu.shape[0], dtype=np.int32)
        self._has_mult = True

    def insert(self, u: np.ndarray, v: np.ndarray, w: np.ndarray,
               mult: np.ndarray | None = None,
               coalesce: bool = False) -> None:
        """Append emitted edges (they land after all current edges).

        With ``coalesce=True`` same-``{u, v}`` duplicates are merged
        within the batch (weights sum, multiplicities sum) and groups
        whose pair already owns a live coalesced slot fold into it in
        place instead of appending (module docstring; DESIGN.md §11).
        ``mult > 1`` inserts into a multiplicity-less store promote a
        mult column lazily rather than raising.
        """
        u = np.asarray(u, dtype=np.int64)
        if u.size == 0:
            self._maybe_rebuild()
            return
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if mult is not None and not self._has_mult \
                and np.any(np.asarray(mult) != 1):
            self._promote_mult()
        if coalesce:
            self._insert_coalesced(u, v, w, mult)
            return
        self._append(u, v, w,
                     None if mult is None
                     else np.asarray(mult, dtype=np.int32))
        if ledger_active():
            charge(*P.map_cost(u.size), label="inc_csr_insert")
        self._maybe_rebuild()

    def _append(self, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                mult: np.ndarray | None) -> np.ndarray:
        """Raw append of prepared arrays; returns the new slot ids."""
        lo, hi = self._size, self._size + u.size
        self._reserve(u.size)
        self._bu[lo:hi] = u
        self._bv[lo:hi] = v
        self._bw[lo:hi] = w
        if self._has_mult:
            self._bmult[lo:hi] = 1 if mult is None else mult
        self._balive[lo:hi] = True
        self._size = hi
        self._alive_count += u.size
        return np.arange(lo, hi, dtype=np.int64)

    def _insert_coalesced(self, u: np.ndarray, v: np.ndarray,
                          w: np.ndarray,
                          mult: np.ndarray | None) -> None:
        """Batch-coalesced insert with live-slot folding.

        Deterministic: the batch merge is a sorted ``unique`` over the
        packed pair key with sequential per-key weight sums in batch
        order, and the live-slot lookup is keyed on those same sorted
        unique pairs — no iteration-order dependence anywhere.
        """
        self._promote_mult()
        lo_e = np.minimum(u, v)
        hi_e = np.maximum(u, v)
        m_in = np.ones(u.size, dtype=np.int64) if mult is None \
            else np.asarray(mult, dtype=np.int64)
        if self.n <= 3_037_000_499:  # n² - 1 fits in int64
            key = lo_e * self.n + hi_e
            uniq, inverse = np.unique(key, return_inverse=True)
            cu, cv = uniq // self.n, uniq % self.n
            n_uniq = uniq.size
            keys = uniq.tolist()
        else:
            pair = np.stack([lo_e, hi_e], axis=1)
            uniq, inverse = np.unique(pair, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)  # numpy >= 2.0: may be (m, 1)
            cu, cv = uniq[:, 0], uniq[:, 1]
            n_uniq = uniq.shape[0]
            keys = list(zip(cu.tolist(), cv.tolist()))
        cw = weighted_bincount(inverse, w, n_uniq)
        # Exact for counts far below 2**53 (bincount accumulates in
        # float64); back to int for the stored column.
        cm = np.bincount(inverse, weights=m_in.astype(np.float64),
                         minlength=n_uniq).astype(np.int64)
        if np.any(cm > np.iinfo(np.int32).max):
            raise OverflowError(
                "coalesced multiplicity exceeds int32; split the batch")
        cm = cm.astype(np.int32)
        # Fold groups whose pair already owns a live coalesced slot.
        lookup = self._slot_lookup
        slots = np.full(n_uniq, -1, dtype=np.int64)
        if lookup:
            alive = self._balive
            for i, key_i in enumerate(keys):
                s = lookup.get(key_i, -1)
                if s < 0:
                    continue
                if alive[s]:
                    slots[i] = s
                else:
                    del lookup[key_i]  # died since; epoch would drop it
        merge = slots >= 0
        n_merge = int(np.count_nonzero(merge))
        if n_merge:
            tgt = slots[merge]
            self._bw[tgt] += cw[merge]
            self._bmult[tgt] += cm[merge]
            self.live_merged_slots += n_merge
        app = ~merge
        new_slots = self._append(cu[app], cv[app], cw[app], cm[app])
        for key_i, s in zip([k for k, a in zip(keys, app.tolist()) if a],
                            new_slots.tolist()):
            lookup[key_i] = s
        self.emitted_slots_saved += int(u.size) - int(new_slots.size)
        if ledger_active():
            charge(*P.sort_cost(u.size), label="inc_csr_coalesce")
        self._maybe_rebuild()

    def walk_engine(self, F: np.ndarray,
                    terminals: np.ndarray) -> WalkEngine:
        """The walk engine for one elimination round.

        Extracts the restricted view of ``F``'s rows, builds its alias
        planes, and returns the engine that round's
        :func:`repro.core.terminal_walks.terminal_walks` steps toward
        ``terminals`` — the only walk path both elimination loops run.
        """
        is_terminal = np.zeros(self.n, dtype=bool)
        is_terminal[terminals] = True
        view, slot_mult = self.restricted_view(F)
        planes = self.alias_planes(F, view)
        return WalkEngine.from_adjacency(
            view, slot_mult, is_terminal,
            row_sampler=CSRAliasSampler.from_planes(view, *planes))

    def accept_round(self, F: np.ndarray, sample: MultiGraph,
                     passthrough: int, coalesce: bool) -> MultiGraph:
        """Mirror an accepted round into the store; return the next
        working graph.

        ``sample`` is the round's terminal-walk output: its first
        ``passthrough`` groups are the edges not incident to ``F``
        (order preserved), the rest were emitted.  With ``coalesce``
        the store merged duplicates (and possibly folded groups into
        live slots), so the next working graph is the store's live
        image — same Laplacian, same logical edge count.
        """
        p = passthrough
        self.advance(F, sample.u[p:], sample.v[p:], sample.w[p:],
                     None if sample.mult is None else sample.mult[p:],
                     coalesce=coalesce)
        return self.live_graph() if coalesce else sample

    def advance(self, F: np.ndarray, emitted_u: np.ndarray,
                emitted_v: np.ndarray, emitted_w: np.ndarray,
                emitted_mult: np.ndarray | None = None,
                coalesce: bool = False) -> None:
        """One elimination round: delete ``F``'s edges, insert emissions."""
        self.eliminate(F)
        self.insert(emitted_u, emitted_v, emitted_w, emitted_mult,
                    coalesce=coalesce)

    # -- extraction ----------------------------------------------------------

    def restricted_view(self, rows: np.ndarray
                        ) -> tuple[AdjacencyView, np.ndarray | None]:
        """Restricted adjacency over the live edges, rows = ``rows``.

        Returns ``(view, slot_mult)`` where ``slot_mult`` (``None`` for
        an implicit all-ones store) gives each CSR slot's logical copy
        count — what the walk engine needs for per-copy resistances.
        Bit-identical to a from-scratch
        ``adjacency_restricted`` build on the compacted live graph
        (modulo ``edge_id``, which indexes this store).
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        eid_u, _ = _gather_row_slices(self._u_indptr, self._u_slots, rows)
        eid_u = eid_u[self._balive[eid_u]]
        eid_v, _ = _gather_row_slices(self._v_indptr, self._v_slots, rows)
        eid_v = eid_v[self._balive[eid_v]]
        if self._size > self._epoch_m:
            member = np.zeros(self.n, dtype=bool)
            member[rows] = True
            sl = slice(self._epoch_m, self._size)
            t_alive = self._balive[sl]
            app_u = np.flatnonzero(member[self._bu[sl]] & t_alive) \
                + self._epoch_m
            app_v = np.flatnonzero(member[self._bv[sl]] & t_alive) \
                + self._epoch_m
            eid_u = np.concatenate([eid_u, app_u])
            eid_v = np.concatenate([eid_v, app_v])
        # Canonical slot order (matches adjacency_restricted): group by
        # source row; within a row all u-side half-edges by edge index,
        # then all v-side.  Epoch gathers are row-grouped with ascending
        # ids and appended ids exceed every epoch id, so a stable
        # lexsort on (side, row) restores exactly that order.
        eid = np.concatenate([eid_u, eid_v])
        side = np.zeros(eid.size, dtype=np.int8)
        side[eid_u.size:] = 1
        src = np.where(side == 0, self.u[eid], self.v[eid])
        order = np.lexsort((side, src))
        eid = eid[order]
        src = src[order]
        neighbor = np.where(side[order] == 0, self.v[eid], self.u[eid])
        weight = self.w[eid]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        view = AdjacencyView(indptr=indptr, neighbor=neighbor,
                             weight=weight, edge_id=eid)
        slot_mult = None if self.mult is None else self.mult[eid]
        if ledger_active():
            charge(*P.convert_cost(eid.size), label="inc_csr_extract")
        return view, slot_mult

    def alias_planes(self, rows: np.ndarray, view: AdjacencyView
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Alias sampler planes for ``restricted_view(rows)``'s layout.

        Returns ``(prob, alias, total)`` =
        :func:`repro.sampling.alias.build_alias_tables` over ``view``,
        and charges Lemma 2.6's linear preprocessing for its slots.
        ``view`` must be the :meth:`restricted_view` result for
        ``rows``.  No table outlives its round: a row is sampled only
        in the round that eliminates it.
        """
        nnz = int(view.weight.size)
        planes = build_alias_tables(view.indptr, view.weight)
        self.alias_built_slots += nnz
        if ledger_active():
            charge(*P.sampler_build_cost(nnz), label="alias_build")
        return planes

    def interior_degrees(self, rows: np.ndarray) -> InteriorDegreeOracle:
        """Degree oracle for the live edges induced on ``rows``.

        Serves the 5DD-subset scan without rebuilding the induced
        interior subgraph: gathers the ``rows`` rows from both sides of
        the epoch index (plus the appended tail), keeps the half-edges
        whose *other* endpoint is also in ``rows``, and hands the
        result to an :class:`InteriorDegreeOracle` — degrees are
        bit-identical to the rebuild path (see the oracle docstring for
        the summation-order argument).  Cost: O(epoch-degree of
        ``rows`` + appended tail), not O(stored edges).
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        member = np.zeros(self.n, dtype=bool)
        member[rows] = True
        eid_u, src_u = _gather_row_slices(self._u_indptr, self._u_slots,
                                          rows)
        keep = self._balive[eid_u] & member[self._bv[eid_u]]
        eid_u, src_u = eid_u[keep], src_u[keep]
        eid_v, src_v = _gather_row_slices(self._v_indptr, self._v_slots,
                                          rows)
        keep = self._balive[eid_v] & member[self._bu[eid_v]]
        eid_v, src_v = eid_v[keep], src_v[keep]
        gathered = eid_u.size + eid_v.size
        if self._size > self._epoch_m:
            sl = slice(self._epoch_m, self._size)
            both = (self._balive[sl] & member[self._bu[sl]]
                    & member[self._bv[sl]])
            app = np.flatnonzero(both) + self._epoch_m
            eid_u = np.concatenate([eid_u, app])
            src_u = np.concatenate([src_u, self._bu[app]])
            eid_v = np.concatenate([eid_v, app])
            src_v = np.concatenate([src_v, self._bv[app]])
        if ledger_active():
            charge(*P.map_cost(gathered + (self._size - self._epoch_m)),
                   label="inc_csr_interior_deg")
        return InteriorDegreeOracle(
            self.n,
            src_u, self._bv[eid_u], self._bw[eid_u],
            src_v, self._bu[eid_v], self._bw[eid_v])

    def live_graph(self) -> MultiGraph:
        """The equivalent compacted working graph (testing/diagnostics)."""
        keep = self.alive
        return MultiGraph(self.n, self.u[keep], self.v[keep], self.w[keep],
                          mult=None if self.mult is None
                          else self.mult[keep],
                          validate=False)