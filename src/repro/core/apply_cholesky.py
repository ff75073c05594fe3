"""``ApplyCholesky`` — Algorithm 2 (Theorem 3.10).

Given the chain from ``BlockCholesky``, applies the linear operator
``W ≈₁ L⁺``: a forward substitution down the chain (each level solving
its ``F`` block with the Jacobi operator ``Z^(k)`` and pushing the
remainder to ``C``), a dense pseudo-solve at the O(1)-size base, and a
backward substitution up the chain.

Both sweeps are triangular solves with the chain's flat form ``A``
(:meth:`repro.core.chain.CholeskyChain.flatten`, DESIGN.md §14), so one
application is two compiled sparse kernels plus the base product, for
any number of right-hand sides.  The ledger is charged the paper's
cost, level by level: per application ``O(m log n loglog n)`` work and
``O(log m log n loglog n)`` depth — each of the ``d = O(log n)`` levels
does one Jacobi apply (``O(m loglog n)`` work for ε = 1/(2d), Lemma 3.5)
plus one coupling-block matvec (``O(m)``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.chain import CholeskyChain
from repro.errors import DimensionMismatchError, FactorizationError
from repro.linalg.jacobi import jacobi_terms
from repro.pram import charge, ledger_active
from repro.pram import primitives as P

__all__ = ["ApplyCholeskyOperator"]


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
        # A is unit lower triangular, so with the natural order and
        # diagonal pivots SuperLU's factor is L = A, U = I: its solves
        # are exactly the two sweeps.
        self._lu = spla.splu(chain.A, permc_spec="NATURAL",
                             diag_pivot_thresh=0)
        N = chain.A.shape[0]
        if not (np.array_equal(self._lu.perm_r, np.arange(N))
                and np.array_equal(self._lu.perm_c, np.arange(N))):
            raise FactorizationError("sweep matrix was pivoted")
        # Between the sweeps: y_k moves to u_{F_k}, the y slots clear
        # and u_base becomes final_pinv @ u_base.  Both are one sparse
        # product, so each column's arithmetic is independent of how
        # many columns ride along.
        uF, yF, base0 = chain.sweep_slots()
        nb = chain.final_pinv.shape[0]
        base = base0 + np.arange(nb)
        self._mid = sp.csr_matrix(
            (np.concatenate([np.ones(uF.size), chain.final_pinv.ravel()]),
             (np.concatenate([uF, np.repeat(base, nb)]),
              np.concatenate([yF, np.tile(base, nb)]))),
            shape=(N, N))
        self._l = jacobi_terms(chain.jacobi_eps)

    # -- the operator -------------------------------------------------------

    def apply(self, b: np.ndarray) -> np.ndarray:
        """``W b`` (Algorithm 2 forward + base solve + backward).

        ``b`` may be one right-hand side ``(n,)`` or a block ``(n, k)``;
        column ``j`` of a block apply equals the 1-D apply of
        ``b[:, j]`` bitwise.
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
        s = self._lu.solve(r)
        return self._lu.solve(self._mid @ s, trans="T")[u]

    __call__ = apply

    def _charge(self, k: int) -> None:
        """Charge Algorithm 2's per-level costs in the order of its
        sweeps: per level a Jacobi apply and a coupling matvec, the base
        product, then the levels again in reverse."""
        l = self._l
        shapes = self.chain.level_shapes.tolist()
        for nf, ynnz, cnnz in shapes:
            charge(l * max(ynnz, nf) * k, l * P.log2p(max(ynnz, 2)),
                   label="jacobi_apply")
            charge(*P.matvec_cost(cnnz * k), label="forward_coupling")
        charge(*P.matvec_cost(self.chain.final_pinv.size * k),
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
