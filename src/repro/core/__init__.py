"""The paper's primary contribution: the parallel Laplacian solver.

Module ↔ paper map:

================  =============================================
Module            Paper object
================  =============================================
boundedness       α-bounded multi-edges, Lemma 3.2 splitting
lev_est           Lemma 3.3 / Section 6 leverage-score splitting
dd_subset         ``5DDSubset`` (Algorithm 3, Lemma 3.4)
terminal_walks    ``TerminalWalks`` (Algorithm 4, Lemmas 5.1-5.4)
chain             the ``(G^(k); F_k)`` chain, ``D^(k)``/``U^(k)``
block_cholesky    ``BlockCholesky`` (Algorithm 1, Theorem 3.9)
apply_cholesky    ``ApplyCholesky`` (Algorithm 2, Theorem 3.10)
richardson        ``PreconRichardson`` (Algorithm 5, Theorem 3.8), certified PCG
solver            Theorems 1.1 / 1.2 end-to-end solver
schur             ``ApproxSchur`` (Algorithm 6, Theorem 7.1)
================  =============================================
"""

from repro.core.boundedness import (
    leverage_scores,
    naive_split,
    is_alpha_bounded,
)
from repro.core.dd_subset import five_dd_subset, verify_five_dd
from repro.core.terminal_walks import terminal_walks
from repro.core.chain import CholeskyChain, Level
from repro.core.block_cholesky import block_cholesky
from repro.core.apply_cholesky import ApplyCholeskyOperator
from repro.core.richardson import preconditioned_richardson, RichardsonResult
from repro.core.solver import LaplacianSolver, solve_laplacian, SolveReport
from repro.core.schur import approx_schur
from repro.core.lev_est import leverage_overestimates, leverage_split
from repro.core.sdd import SDDSolver, solve_sdd, is_sdd, gremban_cover
from repro.core.sparsify import spectral_sparsify

__all__ = [
    "leverage_scores",
    "naive_split",
    "is_alpha_bounded",
    "five_dd_subset",
    "verify_five_dd",
    "terminal_walks",
    "CholeskyChain",
    "Level",
    "block_cholesky",
    "ApplyCholeskyOperator",
    "preconditioned_richardson",
    "RichardsonResult",
    "LaplacianSolver",
    "solve_laplacian",
    "SolveReport",
    "approx_schur",
    "leverage_overestimates",
    "leverage_split",
    "SDDSolver",
    "solve_sdd",
    "is_sdd",
    "gremban_cover",
    "spectral_sparsify",
]
