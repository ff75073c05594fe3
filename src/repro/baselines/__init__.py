"""Baseline solvers the paper positions itself against.

* :mod:`repro.baselines.ks16` — the sequential approximate Cholesky
  solver of Kyng & Sachdeva (FOCS 2016), the "simplest and most
  practical sequential solver" the abstract cites; our paper is its
  parallel extension.
* :mod:`repro.baselines.direct` — dense pseudoinverse / sparse LU.
* :mod:`repro.baselines.cg_baseline` — unpreconditioned and
  Jacobi-preconditioned conjugate gradient.
* :mod:`repro.baselines.seed_hotpath` — the seed's ``ApproxSchur`` /
  ``TerminalWalks`` hot path (materialised split, full CSR per round,
  uncompacted bisection stepping), the hot-path benchmark's reference.
"""

from repro.baselines.ks16 import KS16Solver, approximate_cholesky
from repro.baselines.direct import DirectSolver
from repro.baselines.cg_baseline import (
    cg_solve,
    jacobi_pcg_solve,
)
from repro.baselines.seed_hotpath import seed_approx_schur, \
    seed_terminal_walks

__all__ = [
    "KS16Solver",
    "approximate_cholesky",
    "DirectSolver",
    "cg_solve",
    "jacobi_pcg_solve",
    "seed_approx_schur",
    "seed_terminal_walks",
]
