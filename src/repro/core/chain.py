"""Data structures for the approximate block Cholesky chain.

``BlockCholesky`` (Algorithm 1) produces ``(G^(0), …, G^(d); F₁, …, F_d)``.
A :class:`Level` stores what iteration ``k`` eliminated — the 5-DD set
``F_k``, the remaining set ``C_k``, and the sub-blocks of
``L_{G^(k-1)}`` that ``ApplyCholesky`` needs (``X_k + Y_k = (L)_{F_kF_k}``
and the coupling block ``L_{F_kC_k}``).  A :class:`CholeskyChain` is the
full output plus the dense base-case pseudoinverse, and — once
:meth:`CholeskyChain.flatten` has run — the chain's solve-time form: the
whole of Algorithm 2 as one unit-lower-triangular sparse matrix ``A``
(DESIGN.md §14).

:meth:`CholeskyChain.dense_factorization` materialises
``(U^(d))ᵀ D^(d) U^(d)`` (equations (5)/(6) of the paper) for the
Theorem 3.9-(5) approximation tests; it reconstructs the matrix by the
recursion in the proof of Theorem 3.10:

    ``L^{(d,k)} = [[L_FF, L_FC], [L_CF, L^{(d,k+1)}]]``

with the convention that the ``F``/``C`` blocks come from ``G^(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.laplacian import LaplacianBlocks, laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.jacobi import JacobiOperator

__all__ = ["Level", "CholeskyChain"]


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
    jacobi:
        The operator ``Z^(k)`` of Lemma 3.5 (attached after the chain
        length ``d`` is known, since the paper sets ε = 1/(2d)).  The
        solve path reads the same operator materialised inside the
        chain's flat form; this one serves per-level diagnostics.
    parent_edges:
        Multi-edge count of ``G^(k-1)`` (for cost accounting/diagnostics).
    """

    F: np.ndarray
    C: np.ndarray
    idxF: np.ndarray
    idxC: np.ndarray
    blocks: LaplacianBlocks
    parent_edges: int
    jacobi: JacobiOperator | None = None

    def attach_jacobi(self, eps: float) -> None:
        """Instantiate ``Z^(k)`` with accuracy ε (Algorithm 2 line 4)."""
        self.jacobi = JacobiOperator(self.blocks.X, self.blocks.Y, eps)

    @property
    def nf(self) -> int:
        """Eliminated-block size ``|F|`` of this level."""
        return self.F.size

    @property
    def nc(self) -> int:
        """Surviving-block size ``|C|`` of this level."""
        return self.C.size


@dataclass
class CholeskyChain:
    """Output of ``BlockCholesky``: the graphs, levels, and base case.

    ``graphs`` is ``None`` when the chain was built with
    ``keep_graphs=False`` (streaming mode — each per-level graph is
    dropped once its blocks are extracted).  Edge-count diagnostics
    keep working through the cached ``logical_edges``/``stored_edges``
    lists; only :meth:`dense_factorization` (and other consumers of the
    graphs themselves) require ``keep_graphs=True``.
    """

    n: int
    graphs: list[MultiGraph] | None
    levels: list[Level]
    final_active: np.ndarray
    final_pinv: np.ndarray
    jacobi_eps: float
    logical_edges: list[int] | None = None
    stored_edges: list[int] | None = None
    #: The flat solve-time form (:meth:`flatten`): the unit-lower-
    #: triangular sweep matrix, each vertex's ``u`` slot, and per-level
    #: ``(|F_k|, nnz(Y_k), nnz(L_FC^k))``.
    A: sp.csc_matrix | None = None
    u_slot: np.ndarray | None = None
    level_shapes: np.ndarray | None = None

    @property
    def d(self) -> int:
        """Number of elimination rounds (paper's ``d = O(log n)``)."""
        if self.level_shapes is not None:
            return len(self.level_shapes)
        return len(self.levels)

    def _require_graphs(self) -> list[MultiGraph]:
        if self.graphs is None:
            from repro.errors import FactorizationError
            raise FactorizationError(
                "chain was built with keep_graphs=False; per-level "
                "graphs were dropped after block extraction — rebuild "
                "with keep_graphs=True for graph-level diagnostics")
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
        counts = [self.n]
        for level in self.levels:
            counts.append(level.C.size)
        return counts

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
        u_slot[self.final_active] = base0 + np.arange(
            self.final_active.size)
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
        self.A = sp.csc_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))
        self.u_slot = u_slot

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
        slot map, the level shapes and the dense base-case
        pseudoinverse — exactly the arrays :meth:`payload_arrays`
        returns, so it is what a resident chain costs to keep (the
        serving cache's byte budget counts it)."""
        return sum(int(a.nbytes) for a in self.payload_arrays()[0].values())

    def level_nbytes(self) -> list[int]:
        """Per-level share of :attr:`nbytes` (``[level 1, …, level d]``):
        the entries and column pointers of ``A``'s ``u_{F_k}`` and
        ``y_k`` columns."""
        A = self.A
        starts = 2 * np.concatenate(([0], np.cumsum(self.level_shapes[:, 0])))
        entry = A.data.itemsize + A.indices.itemsize
        return [int((A.indptr[hi] - A.indptr[lo]) * entry
                    + (hi - lo) * A.indptr.itemsize)
                for lo, hi in zip(starts[:-1], starts[1:])]

    def payload_arrays(self) -> tuple[dict, dict]:
        """Flatten the solve-time chain state into named arrays.

        Returns ``(arrays, meta)``: ``arrays`` holds ``A``'s CSC triple
        (``A_data``/``A_indices``/``A_indptr``), ``u_slot``,
        ``level_shapes`` and ``final_pinv`` — everything
        :class:`repro.core.apply_cholesky.ApplyCholeskyOperator` reads
        during an apply, nothing else; ``meta`` holds the scalars
        (``n``, ``jacobi_eps``).  :attr:`nbytes` and
        :meth:`payload_fingerprint` are computed over this mapping.
        """
        if self.A is None:
            from repro.errors import FactorizationError
            raise FactorizationError(
                "cannot export a chain payload before flatten()")
        arrays = {"A_data": self.A.data, "A_indices": self.A.indices,
                  "A_indptr": self.A.indptr, "u_slot": self.u_slot,
                  "level_shapes": self.level_shapes,
                  "final_pinv": self.final_pinv}
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
        for k, level in enumerate(self.levels):
            lines.append(
                f"  level {k + 1}: |F|={level.nf} |C|={level.nc} "
                f"edges(G^{k})={counts[k]} -> "
                f"edges(G^{k + 1})={counts[k + 1]}")
        lines.append(f"  base case: {actives[-1]} vertices, "
                     f"{counts[-1]} multi-edges")
        return "\n".join(lines)
