"""repro — A Simple and Efficient Parallel Laplacian Solver.

Full reproduction of Sachdeva & Zhao, SPAA 2023 (arXiv:2304.14345):
a parallel Laplacian linear-system solver built purely from random
sampling — block Cholesky factorization over 5-DD vertex subsets with
Schur complements approximated by short C-terminal random walks.

Quickstart
----------
>>> import numpy as np
>>> from repro import generators, LaplacianSolver
>>> g = generators.grid2d(30, 30)
>>> solver = LaplacianSolver(g, seed=0)
>>> b = np.zeros(g.n); b[0], b[-1] = 1.0, -1.0
>>> x = solver.solve(b, eps=1e-6)

Compact representation (performance architecture)
-------------------------------------------------
The α-bounded splitting of Lemma 3.2 conceptually multiplies the edge
count by ``⌈1/α⌉ = Θ(ε⁻² log² n)``; this implementation never
materialises those copies.  ``MultiGraph`` carries an optional ``mult``
array — row ``i`` stands for ``mult[i]`` logical parallel copies of
total weight ``w[i]`` — so ``naive_split``/``leverage_split`` are O(m)
in time *and* memory, Laplacian-level code sees the exact unsplit
totals, and the walk layer samples from a compact CSR while scaling
traversed resistance by the local copy count.  Per elimination round,
adjacency is rebuilt by an O(m + n) counting sort restricted to the
rows walkers can actually sample (the interior), and retired walkers
are compacted out of the stepping loop.  ``graph.m`` counts stored
groups; ``graph.m_logical`` counts the paper's multi-edges.  See
DESIGN.md §1-§2 for the invariants.

Parallel execution
------------------
The embarrassingly parallel phases (walker stepping, column-blocked
solves) dispatch through :class:`repro.pram.ExecutionContext`, which
runs their chunks on a pool of ``workers`` threads (numpy kernels
release the GIL; ``workers=1`` runs in the calling thread).  Pick the
count with ``SolverOptions(workers=…)`` or the ``REPRO_WORKERS`` env
var.  **Determinism contract:** a fixed seed produces bit-identical
graphs, solutions, and cost-ledger totals for every worker count
(DESIGN.md §6–§7).

Measure the hot path (writes BENCH_hotpath.json; ``--smoke`` for the
CI-sized check)::

    PYTHONPATH=src python benchmarks/bench_p01_hotpath.py

Package layout
--------------
* :mod:`repro.core` — the paper's algorithms (Algorithms 1-6).
* :mod:`repro.graphs` — multigraph substrate and generators.
* :mod:`repro.sampling` — parallel sampling + random-walk engine.
* :mod:`repro.linalg` — Jacobi operator, CG, Loewner-order oracles.
* :mod:`repro.pram` — CREW PRAM work/depth cost ledger.
* :mod:`repro.serve` — solver-as-a-service: resident chain cache +
  micro-batched solves (``repro serve`` / ``repro client``).
* :mod:`repro.baselines` — KS16 approximate Cholesky, CG, direct.
* :mod:`repro.apps` — applications (learning, flows, spanning trees...).
* :mod:`repro.theory` — concentration and complexity-fit utilities.
"""

from repro.config import (
    SolverOptions,
    default_options,
    theorem_1_1_options,
    theorem_1_2_options,
    practical_options,
)
from repro.core import (
    LaplacianSolver,
    solve_laplacian,
    SolveReport,
    block_cholesky,
    ApplyCholeskyOperator,
    approx_schur,
    terminal_walks,
    five_dd_subset,
    naive_split,
)
from repro.errors import (
    ReproError,
    GraphStructureError,
    NotConnectedError,
    ConvergenceError,
    FactorizationError,
    SamplingError,
    ServiceError,
)
from repro.graphs import MultiGraph, generators, laplacian
from repro.pram import ExecutionContext, WorkDepthLedger, use_ledger
from repro.serve import ChainCache, ServeResult, SolverService

__version__ = "1.0.0"

__all__ = [
    "SolverOptions",
    "default_options",
    "theorem_1_1_options",
    "theorem_1_2_options",
    "practical_options",
    "LaplacianSolver",
    "solve_laplacian",
    "SolveReport",
    "block_cholesky",
    "ApplyCholeskyOperator",
    "approx_schur",
    "terminal_walks",
    "five_dd_subset",
    "naive_split",
    "ReproError",
    "GraphStructureError",
    "NotConnectedError",
    "ConvergenceError",
    "FactorizationError",
    "SamplingError",
    "MultiGraph",
    "generators",
    "laplacian",
    "ServiceError",
    "WorkDepthLedger",
    "use_ledger",
    "ExecutionContext",
    "SolverService",
    "ChainCache",
    "ServeResult",
    "__version__",
]
