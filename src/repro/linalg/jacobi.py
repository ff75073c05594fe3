"""The Jacobi operator ``Z`` of Lemma 3.5.

For a 5-DD matrix ``M = X + Y`` (``X`` diagonal, ``Y`` Laplacian) and
``0 < ε < 1``, the truncated Neumann series

    ``Z = Σ_{i=0}^{l} X⁻¹ (−Y X⁻¹)^i``,   l odd, l ≥ log₂(3/ε),

satisfies ``M ≼ Z⁻¹ ≼ M + εY``, and applying ``Z`` costs
``O(m log 1/ε)`` work / ``O(log m log 1/ε)`` depth.  This operator
replaces ``L_FF⁻¹`` in every level of the block Cholesky factorization
(Lemma 3.6) — it is the only "inner solve" the whole algorithm needs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.errors import DimensionMismatchError, FactorizationError
from repro.pram import charge
from repro.pram import primitives as P

__all__ = ["JacobiOperator", "is_k_diagonally_dominant", "jacobi_matrix",
           "jacobi_terms"]


def jacobi_terms(eps: float) -> int:
    """Smallest odd ``l ≥ log₂(3/ε)`` (Algorithm 2, line 12)."""
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    l = max(1, math.ceil(math.log2(3.0 / eps)))
    return l if l % 2 == 1 else l + 1


def is_k_diagonally_dominant(M, k: float = 5.0,
                             rtol: float = 1e-9) -> bool:
    """``M_ii ≥ k · Σ_{j≠i} |M_ij|`` for every row (Definition 3.1)."""
    M = sp.csr_matrix(M)
    diag = M.diagonal()
    offdiag_abs = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
    return bool(np.all(diag + rtol * np.maximum(np.abs(diag), 1.0)
                       >= k * offdiag_abs))


def jacobi_matrix(X: np.ndarray, Y: sp.spmatrix,
                  eps: float) -> sp.csr_matrix:
    """Materialise ``Z`` as a sparse matrix (symmetrised).

    Runs :meth:`JacobiOperator.apply`'s ``l``-term recurrence on the
    identity, one sparse×sparse product per term.  ``X``/``Y`` may stack
    many independent blocks (a block-diagonal ``Y``): ``Z`` is then the
    block-diagonal matrix of the per-block operators, and ``Y``'s
    sparsity bounds the fill by the ``l``-hop neighbourhoods in ``G[F]``.
    """
    xinv = 1.0 / np.asarray(X, dtype=np.float64)
    D = sp.diags(xinv, format="csr")
    DY = sp.csr_matrix(sp.csr_matrix(Y).multiply(xinv[:, None]))
    Z = D
    for _ in range(jacobi_terms(eps)):
        Z = D - DY @ Z
    return sp.csr_matrix(0.5 * (Z + Z.T))


class JacobiOperator:
    """Applies ``Z ≈ (X + Y)⁻¹`` via the truncated Neumann series.

    Parameters
    ----------
    X:
        Positive diagonal, as a 1-D array.
    Y:
        Laplacian of the induced subgraph ``G[F]`` (sparse, ``|F|×|F|``).
    eps:
        Loewner accuracy: ``M ≼ Z⁻¹ ≼ M + εY``.
    validate_dd:
        Check that ``X + Y`` is 5-DD (Lemma 3.5's hypothesis; the bound
        on the Neumann eigenvalues needs ``2Y ≼ X``).
    """

    def __init__(self, X: np.ndarray, Y: sp.spmatrix, eps: float,
                 validate_dd: bool = False) -> None:
        self.X = np.asarray(X, dtype=np.float64)
        self.Y = sp.csr_matrix(Y)
        if self.X.ndim != 1 or self.Y.shape != (self.X.size, self.X.size):
            raise DimensionMismatchError("X must be 1-D with Y |F|×|F|")
        if np.any(self.X <= 0):
            raise FactorizationError(
                "X has a non-positive diagonal entry: some F vertex has no "
                "edge to C, so F is not 5-DD")
        self.eps = float(eps)
        self.l = jacobi_terms(eps)
        self._xinv = 1.0 / self.X
        if validate_dd:
            M = sp.diags(self.X) + self.Y
            if not is_k_diagonally_dominant(M, 5.0):
                raise FactorizationError("X + Y is not 5-DD")

    @property
    def n(self) -> int:
        """Dimension of the operator (``|F|``)."""
        return self.X.size

    @property
    def m_equivalent(self) -> int:
        """Edges in Y (sets the per-application matvec cost)."""
        return self.Y.nnz // 2

    def apply(self, b: np.ndarray) -> np.ndarray:
        """``Z b`` by the recurrence ``x⁽ⁱ⁾ = X⁻¹b − X⁻¹ Y x⁽ⁱ⁻¹⁾``.

        ``b`` may be a vector ``(|F|,)`` or a block ``(|F|, k)``; the
        block path runs the same recurrence with sparse×dense-matrix
        products (``Y @ x`` is one BLAS-3-style kernel per term instead
        of ``k`` matvecs).
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise DimensionMismatchError("b has wrong length for Z")
        xinv = self._xinv if b.ndim == 1 else self._xinv[:, None]
        xinv_b = xinv * b
        x = xinv_b.copy()
        for _ in range(self.l):
            x = xinv_b - xinv * (self.Y @ x)
        k = 1 if b.ndim == 1 else b.shape[1]
        charge(self.l * max(self.Y.nnz, self.n) * k,
               self.l * P.log2p(max(self.Y.nnz, 2)),
               label="jacobi_apply")
        return x

    __call__ = apply

    def dense_Z(self) -> np.ndarray:
        """Materialise ``Z`` (test oracle; O(n²·l))."""
        Z = self.apply(np.eye(self.n))
        return 0.5 * (Z + Z.T)

    def dense_Zinv(self) -> np.ndarray:
        """``Z⁻¹`` (test oracle for the Loewner sandwich of Lemma 3.5)."""
        import scipy.linalg
        return scipy.linalg.inv(self.dense_Z())
