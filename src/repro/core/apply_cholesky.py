"""``ApplyCholesky`` — Algorithm 2 (Theorem 3.10).

Given the chain from ``BlockCholesky``, applies the linear operator
``W ≈₁ L⁺``: a forward substitution down the chain (each level solving
its ``F`` block with the Jacobi operator ``Z^(k)`` and pushing the
remainder to ``C``), an exact solve at the O(1)-size base (a packed
Cholesky factor, DESIGN.md §17), and a backward substitution up the
chain.

Both sweeps are triangular solves with the chain's flat form ``A``
(:meth:`repro.core.chain.CholeskyChain.flatten`, DESIGN.md §14), so one
application is two compiled sparse kernels plus the base solve.
Narrow blocks run them as SuperLU solves; blocks of at least
:data:`K_WAVE` (4) columns run them over the chain's ``2d + 1``
wavefronts, two sparse products per level and sweep.  Both kernels do
the same multiply-adds in the same order for every column, so a
column's result does not depend on which kernel ran it.  The ledger is
charged the paper's cost, level by level: per application
``O(m log n loglog n)`` work and ``O(log m log n loglog n)`` depth —
each of the ``d = O(log n)`` levels does one Jacobi apply
(``O(m loglog n)`` work for ε = 1/(2d), Lemma 3.5) plus one
coupling-block matvec (``O(m)``).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from repro.core.chain import CholeskyChain, csr_addmul
from repro.errors import DimensionMismatchError, FactorizationError
from repro.linalg.jacobi import jacobi_terms
from repro.pram import charge, ledger_active
from repro.pram import primitives as P

__all__ = ["ApplyCholeskyOperator", "K_WAVE"]

#: Blocks with at least this many columns run the wavefront kernel;
#: narrower ones run SuperLU.  The measured crossover
#: (``BENCH_blocked.json``, ``w_apply``): SuperLU's cost grows linearly
#: in ``k`` while the wavefronts' ``4d`` kernel calls cost a fixed
#: amount, and the wavefronts first win at k = 4 on ``grid2d(32, 32)``
#: and at k = 2 on ``grid2d(100, 100)`` — 4 is the smallest width where
#: they win on both.  Single-column applies (every ``solve()``) stay on
#: SuperLU.
K_WAVE = 4


class ApplyCholeskyOperator:
    """The preconditioner ``W``: ``apply(b) ≈ L⁺ b`` to constant factor.

    The operator is symmetric PSD on ``1⊥`` (it is a congruence chain of
    symmetric blocks, see the proof of Theorem 3.10), which is what
    preconditioned Richardson (and PCG) require.
    """

    def __init__(self, chain: CholeskyChain) -> None:
        if chain.A is None:
            raise FactorizationError(
                "chain has no flat solve form; build chains via "
                "block_cholesky()")
        self.chain = chain
        self.n = chain.n
        A = chain.A
        _check_unit_lower(A)
        # A is unit lower triangular, so with the natural order and
        # diagonal pivots SuperLU's factor is L = A, U = I: its solves
        # are exactly the two sweeps.  relax=1 stops SuperLU from
        # forming relaxed supernodes, which reorder L's rows and so the
        # rounding of its updates (DESIGN.md §14).
        self._lu = spla.splu(A, permc_spec="NATURAL",
                             diag_pivot_thresh=0, relax=1)
        N = A.shape[0]
        L = self._lu.L
        if not (np.array_equal(self._lu.perm_r, np.arange(N))
                and np.array_equal(self._lu.perm_c, np.arange(N))
                and np.array_equal(L.indptr, A.indptr)
                and np.array_equal(L.indices, A.indices)
                and np.array_equal(L.data, A.data)):
            raise FactorizationError("SuperLU's factor of the sweep "
                                     "matrix is not the matrix itself")
        # E = I − A, the wavefronts' operand: A's strictly lower part,
        # negated (the diagonal heads every column).
        off = np.ones(A.nnz, dtype=bool)
        off[A.indptr[:-1]] = False
        self._E = sp.csc_matrix(
            (-A.data[off], A.indices[off], A.indptr - np.arange(N + 1)),
            shape=(N, N))
        # Level k's slots: u_{F_k} = [a, m), y_k = [m, e).
        f = chain.level_shapes[:, 0]
        a = 2 * (np.cumsum(f) - f)
        self._fronts = list(zip(a.tolist(), (a + f).tolist(),
                                (a + 2 * f).tolist()))
        # Between the sweeps y_k moves to u_{F_k} and the y slots
        # clear: one CSR kernel with rows of ones (exact copies), which
        # leaves the base rows zero for the base solve to fill.
        uF, yF, self._base0 = chain.sweep_slots()
        self._move = sp.csr_matrix((np.ones(uF.size), (uF, yF)),
                                   shape=(N, N))
        self._l = jacobi_terms(chain.jacobi_eps)

    # -- the operator -------------------------------------------------------

    def apply(self, b: np.ndarray) -> np.ndarray:
        """``W b`` (Algorithm 2 forward + base solve + backward).

        ``b`` may be one right-hand side ``(n,)`` or a block ``(n, k)``;
        column ``j`` of a block apply equals the 1-D apply of
        ``b[:, j]`` bitwise, whichever kernel the block's width picks.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise DimensionMismatchError(
                f"b must have shape ({self.n},) or ({self.n}, k), "
                f"got {b.shape}")
        if ledger_active():
            self._charge(1 if b.ndim == 1 else b.shape[1])
        u = self.chain.u_slot
        r = np.zeros((self.chain.A.shape[0],) + b.shape[1:])
        r[u] = b
        # Forward sweep (lines 3-5), base case (line 6), backward sweep
        # (lines 7-8).
        if b.ndim == 2 and b.shape[1] >= K_WAVE:
            return self._wavefronts(r)[u]
        return self._superlu(r)[u]

    def _superlu(self, r: np.ndarray) -> np.ndarray:
        """Both sweeps as SuperLU triangular solves, which walk ``A``
        one column and one right-hand side at a time."""
        return self._lu.solve(self._mid(self._lu.solve(r)), trans="T")

    def _mid(self, s: np.ndarray) -> np.ndarray:
        """Between the sweeps: ``y_k`` moves to ``u_{F_k}``, the ``y``
        slots clear and ``u_base`` becomes ``L_B⁺ u_base`` (DESIGN.md
        §17).  Sparse kernels and ``dpptrs``, all treating columns
        independently, so a column's arithmetic does not depend on how
        many columns ride along."""
        N, k = s.shape[0], 1 if s.ndim == 1 else s.shape[1]
        t = np.zeros(s.shape)
        S, T = s.reshape(N, k), t.reshape(N, k)
        csr_addmul(self._move, S, T)
        b0 = self._base0
        self.chain.base.solve_into(S[b0:], T[b0:])
        return t

    def _wavefronts(self, r: np.ndarray) -> np.ndarray:
        """Both sweeps level by level, in place on C-ordered ``(N, k)``
        buffers: ``s = r + E s`` forward, ``x = t + Eᵀ x`` backward.

        Each call is the compiled kernel behind ``E @ dense``, run on a
        range of ``E``'s columns (forward) or of ``Eᵀ``'s rows
        (backward) by slicing only ``indptr``; ``X``/``Y`` are flat
        views of the one buffer.  Per entry it adds ``E[i, j]·x`` where
        SuperLU subtracts ``A[i, j]·x``, in the same column order, so
        the results agree bitwise.
        """
        E, N, k = self._E, r.shape[0], r.shape[1]
        ptr, ind, dat = E.indptr, E.indices, E.data
        flat = r.reshape(-1)
        for a, m, e in self._fronts:
            _sparsetools.csc_matvecs(N, m - a, k, ptr[a:m + 1], ind, dat,
                                     flat[a * k:m * k], flat)
            _sparsetools.csc_matvecs(N, e - m, k, ptr[m:e + 1], ind, dat,
                                     flat[m * k:e * k], flat)
        t = self._mid(r)
        flat = t.reshape(-1)
        for a, m, e in reversed(self._fronts):
            _sparsetools.csr_matvecs(e - m, N, k, ptr[m:e + 1], ind, dat,
                                     flat, flat[m * k:e * k])
            _sparsetools.csr_matvecs(m - a, N, k, ptr[a:m + 1], ind, dat,
                                     flat, flat[a * k:m * k])
        return t

    __call__ = apply

    def _charge(self, k: int) -> None:
        """Charge Algorithm 2's per-level costs in the order of its
        sweeps: per level a Jacobi apply and a coupling matvec, the base
        solve, then the levels again in reverse.  The base is charged as
        the PRAM model runs it: two triangular products with the inverse
        factor formed at build (DESIGN.md §17), ``n_B²`` work per column
        and ``2⌈log₂ n_B⌉`` depth."""
        l = self._l
        shapes = self.chain.level_shapes.tolist()
        for nf, ynnz, cnnz in shapes:
            charge(l * max(ynnz, nf) * k, l * P.log2p(max(ynnz, 2)),
                   label="jacobi_apply")
            charge(*P.matvec_cost(cnnz * k), label="forward_coupling")
        nb = self.chain.base.size
        charge(float(nb * nb * k), 2.0 * math.ceil(P.log2p(nb)),
               label="base_case_solve")
        for nf, ynnz, cnnz in reversed(shapes):
            charge(l * max(ynnz, nf) * k, l * P.log2p(max(ynnz, 2)),
                   label="jacobi_apply")
            charge(*P.matvec_cost(cnnz * k), label="backward_coupling")

    # -- conveniences ---------------------------------------------------------

    def as_linear_operator(self) -> spla.LinearOperator:
        """scipy ``LinearOperator`` view (for use as an external
        preconditioner, e.g. in ``scipy.sparse.linalg.cg``)."""
        return spla.LinearOperator(shape=(self.n, self.n),
                                   matvec=self.apply, rmatvec=self.apply,
                                   matmat=self.apply,
                                   dtype=np.float64)

    def dense_operator(self) -> np.ndarray:
        """Materialise ``W`` via one blocked apply (small-n test oracle)."""
        W = self.apply(np.eye(self.n))
        return 0.5 * (W + W.T)


def _check_unit_lower(A: sp.csc_matrix) -> None:
    """Raise unless ``A`` is a canonical CSC whose every column starts
    with a unit diagonal and continues strictly below it — the structure
    both sweep kernels assume without checking."""
    N = A.shape[0]
    ptr, idx = A.indptr, A.indices
    heads = ptr[:-1]
    ok = (ptr[0] == 0 and ptr[-1] == idx.size
          and bool(np.all(np.diff(ptr) >= 1)))
    if ok:
        # Strictly increasing rows within each column, starting at j.
        inner = np.ones(idx.size - 1, dtype=bool)
        inner[heads[1:] - 1] = False
        ok = (np.array_equal(idx[heads], np.arange(N))
              and bool(np.all(A.data[heads] == 1.0))
              and bool(np.all(np.diff(idx)[inner] > 0))
              and bool(np.all(idx < N)))
    if not ok:
        raise FactorizationError(
            "sweep matrix is not a canonical unit-lower-triangular CSC")
