"""Data structures for the approximate block Cholesky chain.

``BlockCholesky`` (Algorithm 1) produces ``(G^(0), …, G^(d); F₁, …, F_d)``.
A :class:`Level` stores what iteration ``k`` eliminated — the 5-DD set
``F_k``, the remaining set ``C_k``, and the sub-blocks of
``L_{G^(k-1)}`` that ``ApplyCholesky`` needs (``X_k + Y_k = (L)_{F_kF_k}``
and the coupling block ``L_{F_kC_k}``).  A :class:`CholeskyChain` is the
full output plus the exact base factor (:class:`BaseFactor`, DESIGN.md
§17), and — once :meth:`CholeskyChain.flatten` has run — the chain's
solve-time form: the whole of Algorithm 2 as one unit-lower-triangular
sparse matrix ``A`` (DESIGN.md §14).

:meth:`CholeskyChain.dense_factorization` materialises
``(U^(d))ᵀ D^(d) U^(d)`` (equations (5)/(6) of the paper) for the
Theorem 3.9-(5) approximation tests; it reconstructs the matrix by the
recursion in the proof of Theorem 3.10:

    ``L^{(d,k)} = [[L_FF, L_FC], [L_CF, L^{(d,k+1)}]]``

with the convention that the ``F``/``C`` blocks come from ``G^(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpptrf, dpptrs
from scipy.sparse import _sparsetools

from repro.errors import FactorizationError
from repro.graphs.laplacian import LaplacianBlocks, laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.jacobi import JacobiOperator

__all__ = ["Level", "BaseFactor", "CholeskyChain", "csr_addmul"]


def csr_addmul(M: sp.csr_matrix, X: np.ndarray, Y: np.ndarray) -> None:
    """``Y += M @ X`` for ``(·, k)`` blocks, ``Y`` C-ordered, through the
    compiled kernel behind ``M @ X`` without its dispatch.  Each column
    accumulates in ``M``'s index order, whatever ``k`` is."""
    _sparsetools.csr_matvecs(M.shape[0], M.shape[1], X.shape[1],
                             M.indptr, M.indices, M.data,
                             np.ascontiguousarray(X).reshape(-1),
                             Y.reshape(-1))


@dataclass
class Level:
    """One elimination round ``k`` of ``BlockCholesky``.

    Attributes
    ----------
    F, C:
        Global vertex ids eliminated / kept at this round (both sorted).
    idxF, idxC:
        Positions of ``F`` / ``C`` inside the *parent* level's active
        array — the coordinates ``ApplyCholesky`` works in.
    blocks:
        ``X``, ``Y``, ``L_FC`` of ``L_{G^(k-1)}`` under the ``F ⊔ C``
        bipartition (positional).
    parent_edges:
        Multi-edge count of ``G^(k-1)`` (for cost accounting/diagnostics).
    jacobi_eps:
        The chain's Jacobi accuracy, set on every level once the chain
        length ``d`` is known (the paper sets ε = 1/(2d)).
    """

    F: np.ndarray
    C: np.ndarray
    idxF: np.ndarray
    idxC: np.ndarray
    blocks: LaplacianBlocks
    parent_edges: int
    jacobi_eps: float | None = None
    _jacobi: JacobiOperator | None = field(default=None, repr=False,
                                           compare=False)

    @property
    def jacobi(self) -> JacobiOperator | None:
        """The operator ``Z^(k)`` of Lemma 3.5 at :attr:`jacobi_eps`,
        built on first read (``None`` before the eps is set).  The
        solve path reads the same operator materialised inside the
        chain's flat form; this one serves tests and per-level
        diagnostics, so no build pays for it."""
        if self._jacobi is None and self.jacobi_eps is not None:
            self.attach_jacobi(self.jacobi_eps)
        return self._jacobi

    def attach_jacobi(self, eps: float) -> JacobiOperator:
        """Instantiate ``Z^(k)`` with accuracy ε (Algorithm 2 line 4)."""
        self._jacobi = JacobiOperator(self.blocks.X, self.blocks.Y, eps)
        return self._jacobi

    @property
    def nf(self) -> int:
        """Eliminated-block size ``|F|`` of this level."""
        return self.F.size

    @property
    def nc(self) -> int:
        """Surviving-block size ``|C|`` of this level."""
        return self.C.size


@dataclass
class BaseFactor:
    """The exact base solve: ``x_B = Π G Π b_B`` (DESIGN.md §17).

    The base Laplacian ``L_B`` is held in *base order*: every
    component's kept vertices, component by component, then one
    grounded vertex per component, in component order.  ``G`` is the
    inverse of ``L_B`` on the kept vertices (a prefix of base order),
    zero on the grounded rows and columns, and ``Π`` removes
    per-component means, so ``Π G Π = L_B⁺``.

    Attributes
    ----------
    packed:
        Upper-packed Cholesky factor of the grounded ``L_B`` (LAPACK
        ``dpptrf``): ``n_g(n_g + 1)/2`` doubles for ``n_g`` kept
        vertices.
    bounds:
        Offsets of each component's kept block in base order
        (``#components + 1`` entries, the last is ``n_g``).
    order:
        Positions in ``final_active`` of the base-order vertices, or
        ``None`` when the two orders agree (always, for a connected
        base: its last vertex is the grounded one).  ``flatten`` folds
        it into ``u_slot``; no apply reads it.
    """

    packed: np.ndarray
    bounds: np.ndarray
    order: np.ndarray | None = None

    def __post_init__(self) -> None:
        b = np.asarray(self.bounds, dtype=np.int64)
        c, ng = b.size - 1, int(b[-1])
        comp = np.concatenate((np.repeat(np.arange(c), np.diff(b)),
                               np.arange(c)))
        nb = comp.size
        count = np.bincount(comp, minlength=c).astype(np.float64)
        # w = G·1, per component (G is block diagonal).
        w = np.zeros(nb)
        if ng:
            w[:ng] = dpptrs(ng, self.packed, np.ones((ng, 1)))[0][:, 0]
        gamma = np.bincount(comp, weights=w, minlength=c) / count
        # Π G Π x = G x − a·(1_jᵀx) − e·(w_jᵀx) per component j, with
        # a = (w − γ_j)/n_j and e = 1/n_j (G symmetric, γ_j = 1_jᵀw_j/n_j).
        # Two CSR kernels carry the rank-2c correction: S (2c × n_B)
        # sums 1_jᵀx into row j and w_jᵀx into row c + j, each in base
        # order; R (n_B × 2c) adds −a and −e times those sums.
        pos = np.argsort(comp, kind="stable")
        ptr = np.concatenate(([0], np.cumsum(count).astype(np.int64)))
        self._S = sp.csr_matrix(
            (np.concatenate((np.ones(nb), w[pos])),
             np.concatenate((pos, pos)),
             np.concatenate((ptr, ptr[1:] + nb))), shape=(2 * c, nb))
        n_j = count[comp]
        self._R = sp.csr_matrix(
            (np.column_stack((-(w - gamma[comp]) / n_j,
                              -1.0 / n_j)).reshape(-1),
             np.column_stack((comp, comp + c)).reshape(-1),
             np.arange(0, 2 * nb + 1, 2)), shape=(nb, 2 * c))
        self._ng, self._nb = ng, nb

    @classmethod
    def factor(cls, L: np.ndarray, bounds: np.ndarray,
               order: np.ndarray | None = None) -> "BaseFactor":
        """Factor the dense base-order Laplacian ``L`` on its kept
        prefix with ``dpptrf`` (packed and unblocked, so no BLAS
        thread pool is woken)."""
        ng = int(bounds[-1])
        packed = np.empty(0)
        if ng:
            # Row-major lower triangle == column-major upper (symmetric).
            packed, info = dpptrf(ng, L[:ng, :ng][np.tril_indices(ng)])
            if info != 0:
                raise FactorizationError(
                    f"grounded base Laplacian is not positive definite "
                    f"(dpptrf info={info}); a component label is wrong")
        return cls(packed, np.asarray(bounds, dtype=np.int64), order)

    @property
    def size(self) -> int:
        """Base vertex count ``n_B``."""
        return self._nb

    def solve(self, X: np.ndarray) -> np.ndarray:
        """``Π G Π X`` for an ``(n_B, k)`` block in base order."""
        out = np.zeros((self._nb, X.shape[1]))
        self.solve_into(X, out)
        return out

    def solve_into(self, X: np.ndarray, out: np.ndarray) -> None:
        """Add ``Π G Π X`` to ``out``, a zero-filled C-ordered
        ``(n_B, k)`` block.

        Every step treats columns independently — the sparse kernels
        for the sums and the rank-2c correction, and ``dpptrs``, which
        solves one right-hand side at a time — so a column's result
        does not depend on ``k``.
        """
        sums = np.zeros((self._S.shape[0], X.shape[1]))
        csr_addmul(self._S, X, sums)
        ng = self._ng
        if ng:
            out[:ng] = dpptrs(ng, self.packed, X[:ng])[0]
        csr_addmul(self._R, sums, out)


@dataclass
class CholeskyChain:
    """Output of ``BlockCholesky``: the graphs, levels, and base case.

    ``graphs`` and ``levels`` are ``None`` when the chain was built with
    ``keep_graphs=False`` (streaming mode, which every
    :class:`repro.core.solver.LaplacianSolver` uses — each per-level
    graph is dropped once its blocks are extracted, and the levels'
    blocks once :meth:`flatten` has folded them into the payload), so
    the chain holds only what an apply reads.  Edge-count and active-set
    diagnostics keep working through the cached
    ``logical_edges``/``stored_edges`` lists and :attr:`level_shapes`;
    only :meth:`dense_factorization` (and other consumers of the
    graphs or blocks themselves) require ``keep_graphs=True``.
    """

    n: int
    graphs: list[MultiGraph] | None
    levels: list[Level] | None
    final_active: np.ndarray
    base: BaseFactor | None
    jacobi_eps: float
    logical_edges: list[int] | None = None
    stored_edges: list[int] | None = None
    #: The flat solve-time form (:meth:`flatten`): the unit-lower-
    #: triangular sweep matrix, each vertex's ``u`` slot, and per-level
    #: ``(|F_k|, nnz(Y_k), nnz(L_FC^k))``.
    A: sp.csc_matrix | None = None
    u_slot: np.ndarray | None = None
    level_shapes: np.ndarray | None = None
    _level_nbytes: tuple = field(default=(), init=False, repr=False,
                                 compare=False)

    @property
    def final_pinv(self) -> np.ndarray:
        """Dense ``L_B⁺ = Π G Π`` on :attr:`final_active` (sorted
        order), derived from the base factor on demand — a test and
        :meth:`dense_factorization`-style oracle, ``O(n_B³)``; no apply
        reads it."""
        nb = self.base.size
        P = self.base.solve(np.eye(nb))
        if self.base.order is None:
            return P
        pos = np.empty(nb, dtype=np.int64)
        pos[self.base.order] = np.arange(nb)
        return P[np.ix_(pos, pos)]

    @property
    def d(self) -> int:
        """Number of elimination rounds (paper's ``d = O(log n)``)."""
        if self.level_shapes is not None:
            return len(self.level_shapes)
        return len(self.levels)

    def _require_graphs(self) -> list[MultiGraph]:
        if self.graphs is None:
            raise FactorizationError(
                "chain was built with keep_graphs=False; per-level "
                "graphs were dropped after block extraction — rebuild "
                "with block_cholesky(..., keep_graphs=True) for "
                "graph-level diagnostics")
        return self.graphs

    @property
    def edge_counts(self) -> list[int]:
        """``m(G^(0)), …, m(G^(d))`` — Theorem 3.9-(1) says this never
        exceeds ``m(G^(0))``.  Counts *logical* multi-edges (implicit
        multiplicities expanded)."""
        if self.logical_edges is not None:
            return list(self.logical_edges)
        return [g.m_logical for g in self._require_graphs()]

    @property
    def stored_edge_counts(self) -> list[int]:
        """Edge *groups* physically held per level — the memory story;
        with implicit multiplicities this is far below
        :attr:`edge_counts`."""
        if self.stored_edges is not None:
            return list(self.stored_edges)
        return [g.m for g in self._require_graphs()]

    @property
    def active_counts(self) -> list[int]:
        """|active set| per level; shrinks ≥ 1/40 per round (Lemma 3.4)."""
        f = self.level_shapes[:, 0] if self.level_shapes is not None \
            else [level.nf for level in self.levels]
        return [self.n - int(e) for e in np.cumsum([0, *f])]

    def total_stored_edges(self) -> int:
        """Sum of physically stored edge groups across all levels."""
        return sum(self.stored_edge_counts)

    # -- the flat solve-time form (DESIGN.md §14) ---------------------------

    def flatten(self) -> None:
        """Assemble Algorithm 2 as one unit-lower-triangular matrix ``A``.

        Slots are numbered ``[u_F1, y_1, u_F2, y_2, …, u_Fd, y_d,
        u_base]`` (``N = n + Σ|F_k|``): one ``u`` slot per vertex, in
        elimination order, plus one ``y`` slot per eliminated vertex.
        ``A`` holds ``−Z_k`` at ``(y_k, u_{F_k})``, ``L_CF^k`` at
        ``(u_{C_k}, y_k)`` and ones on the diagonal, so the forward sweep
        ``y_k = Z_k b_F;  b_C −= L_CF y_k`` is ``A⁻¹`` and the backward
        sweep ``x_F = y_k − Z_k L_FC x_C`` is ``A⁻ᵀ``.  Every ``Z_k`` is
        materialised by one stacked run of the Lemma 3.5 recurrence
        (:func:`repro.linalg.jacobi.jacobi_matrix`) at ``jacobi_eps``.

        Sets :attr:`A`, :attr:`u_slot` (vertex → ``u`` slot) and
        :attr:`level_shapes` (per level ``|F_k|``, ``nnz(Y_k)``,
        ``nnz(L_FC^k)`` — what the ledger replay charges).
        """
        from repro.linalg.jacobi import jacobi_matrix

        levels = self.levels
        self.level_shapes = np.array(
            [(level.nf, level.blocks.Y.nnz, level.blocks.L_FC.nnz)
             for level in levels], dtype=np.int64).reshape(-1, 3)
        uF, yF, base0 = self.sweep_slots()
        N = base0 + self.final_active.size
        u_slot = np.empty(self.n, dtype=np.int64)
        base = self.final_active if self.base.order is None \
            else self.final_active[self.base.order]
        u_slot[base] = base0 + np.arange(base.size)
        rows, cols, vals = [np.arange(N)], [np.arange(N)], [np.ones(N)]
        if levels:
            u_slot[np.concatenate([level.F for level in levels])] = uF
            # Concatenating the levels' CSR arrays in level order stacks
            # their F rows in uF order, with no per-level conversion.
            Ys = [level.blocks.Y for level in levels]
            LFCs = [level.blocks.L_FC for level in levels]
            first = np.cumsum(self.level_shapes[:, 0]) \
                - self.level_shapes[:, 0]
            y_rows = np.concatenate([np.diff(M.indptr) for M in Ys])
            Y = sp.csr_matrix(
                (np.concatenate([M.data for M in Ys]),
                 np.concatenate([M.indices + o for M, o in zip(Ys, first)]),
                 np.concatenate(([0], np.cumsum(y_rows)))),
                shape=(uF.size, uF.size))
            Z = jacobi_matrix(
                np.concatenate([level.blocks.X for level in levels]), Y,
                self.jacobi_eps).tocoo()
            rows += [yF[Z.row], u_slot[np.concatenate(
                [level.C[M.indices] for level, M in zip(levels, LFCs)])]]
            cols += [uF[Z.col], yF[np.repeat(
                np.arange(uF.size),
                np.concatenate([np.diff(M.indptr) for M in LFCs]))]]
            vals += [-Z.data, np.concatenate([M.data for M in LFCs])]
        A = self.A = sp.csc_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))
        self.u_slot = u_slot
        starts = 2 * np.concatenate(([0], np.cumsum(self.level_shapes[:, 0])))
        entry = A.data.itemsize + A.indices.itemsize
        self._level_nbytes = tuple(
            int((A.indptr[hi] - A.indptr[lo]) * entry
                + (hi - lo) * A.indptr.itemsize)
            for lo, hi in zip(starts[:-1], starts[1:]))

    def sweep_slots(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(u_F, y, base0)`` of the flat form: the ``u`` and ``y`` slot
        of every eliminated vertex, stacked in level order, and the first
        base slot.  Level ``k`` starts at slot ``2·Σ_{j<k}|F_j|``."""
        f = self.level_shapes[:, 0]
        first = np.concatenate(([0], np.cumsum(f)))
        uF = np.arange(first[-1]) + np.repeat(first[:-1], f)
        return uF, uF + np.repeat(f, f), 2 * int(first[-1])

    # -- flat-array payload (the solve-time state) ------------------------

    @property
    def nbytes(self) -> int:
        """Bytes of the solve-time chain state: ``A``'s CSC triple, the
        slot map, the level shapes and the packed base factor with its
        component bounds — exactly the arrays :meth:`payload_arrays`
        returns, so it is what a resident chain costs to keep (the
        serving cache's byte budget counts it)."""
        return sum(int(a.nbytes) for a in self.payload_arrays()[0].values())

    def level_nbytes(self) -> list[int]:
        """Per-level share of :attr:`nbytes` (``[level 1, …, level d]``):
        the entries and column pointers of ``A``'s ``u_{F_k}`` and
        ``y_k`` columns (counted once, by :meth:`flatten`)."""
        if self.A is None:
            raise FactorizationError(
                "cannot size the chain's levels before flatten()")
        return list(self._level_nbytes)

    def payload_arrays(self) -> tuple[dict, dict]:
        """Flatten the solve-time chain state into named arrays.

        Returns ``(arrays, meta)``: ``arrays`` holds ``A``'s CSC triple
        (``A_data``/``A_indices``/``A_indptr``), ``u_slot``,
        ``level_shapes``, ``base_factor`` and ``base_bounds`` — everything
        :class:`repro.core.apply_cholesky.ApplyCholeskyOperator` reads
        during an apply, nothing else; ``meta`` holds the scalars
        (``n``, ``jacobi_eps``).  :attr:`nbytes` and
        :meth:`payload_fingerprint` are computed over this mapping.
        """
        if self.A is None:
            raise FactorizationError(
                "cannot export a chain payload before flatten()")
        arrays = {"A_data": self.A.data, "A_indices": self.A.indices,
                  "A_indptr": self.A.indptr, "u_slot": self.u_slot,
                  "level_shapes": self.level_shapes,
                  "base_factor": self.base.packed,
                  "base_bounds": self.base.bounds}
        meta = {"n": int(self.n), "jacobi_eps": float(self.jacobi_eps)}
        return arrays, meta

    def payload_fingerprint(self) -> str:
        """Hex digest of the solve-time payload (:meth:`payload_arrays`).

        Two chains with equal fingerprints produce bit-identical
        preconditioner applies, because the payload is *everything* an
        apply reads.  The serving cache uses this as its cheap equality
        witness that a cached chain and a fresh rebuild of the same
        ``(graph, options, seed)`` are interchangeable (DESIGN.md §12).
        """
        import hashlib

        arrays, meta = self.payload_arrays()
        h = hashlib.sha256()
        h.update(repr(sorted(meta.items())).encode())
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    # -- dense reconstruction (test oracle) --------------------------------

    def dense_factorization(self) -> np.ndarray:
        """Materialise ``(U^(d))ᵀ D^(d) U^(d)`` (Theorem 3.9-(5) oracle).

        O(n³)-ish; small-n tests/benches only.
        """
        # Base case: L_{G^(d)} on the final active set, in sorted order.
        base = laplacian(self._require_graphs()[-1]).toarray()
        S = base[np.ix_(self.final_active, self.final_active)]
        # Fold levels back up:
        #   L^{(d,k)} = [I 0; L_CF L_FF⁻¹ I] [L_FF 0; 0 L^{(d,k+1)}]
        #               [I L_FF⁻¹ L_FC; 0 I]
        #             = [L_FF, L_FC; L_CF, L^{(d,k+1)} + L_CF L_FF⁻¹ L_FC].
        import scipy.linalg

        for level in reversed(self.levels):
            LFF = np.diag(level.blocks.X) + level.blocks.Y.toarray()
            LFC = level.blocks.L_FC.toarray()
            nf, nc = level.nf, level.nc
            M = np.zeros((nf + nc, nf + nc))
            M[:nf, :nf] = LFF
            M[:nf, nf:] = LFC
            M[nf:, :nf] = LFC.T
            # L_FF is PD (X > 0 plus a PSD Laplacian), so solve directly.
            M[nf:, nf:] = S + LFC.T @ scipy.linalg.solve(
                LFF, LFC, assume_a="sym")
            # Un-permute [F..., C...] back into parent-active positions.
            parent_size = nf + nc
            order = np.concatenate([level.idxF, level.idxC])
            out = np.zeros((parent_size, parent_size))
            out[np.ix_(order, order)] = M
            S = out
        return S

    def summary(self) -> str:
        """One-line-per-level diagnostics."""
        lines = [f"CholeskyChain: n={self.n} d={self.d} "
                 f"jacobi_eps={self.jacobi_eps:.4g}"]
        actives = self.active_counts
        counts = self.edge_counts
        for k in range(self.d):
            lines.append(
                f"  level {k + 1}: |F|={actives[k] - actives[k + 1]} "
                f"|C|={actives[k + 1]} "
                f"edges(G^{k})={counts[k]} -> "
                f"edges(G^{k + 1})={counts[k + 1]}")
        lines.append(f"  base case: {actives[-1]} vertices, "
                     f"{counts[-1]} multi-edges")
        return "\n".join(lines)
