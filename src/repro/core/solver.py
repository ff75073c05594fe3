"""End-to-end Laplacian solver (Theorems 1.1 and 1.2).

Pipeline::

    input graph (connected, simple or multi)
      └─ α-bounded splitting          Lemma 3.2 (naive) / 3.3 (leverage)
          └─ BlockCholesky            Algorithm 1 / Theorem 3.9
              └─ ApplyCholesky = W    Algorithm 2 / Theorem 3.10, W ≈₁ L⁺
                  └─ certified PCG    Theorem 3.8 budget / §15 certificate
                     (PreconRichardson, Algorithm 5, with method="richardson")
                      └─ x̃ with ‖x̃ − L⁺b‖_L ≤ ε ‖L⁺b‖_L

:class:`LaplacianSolver` separates the (randomised, one-off)
preprocessing from the (deterministic given the chain) per-right-hand-
side solves, so many ``b`` vectors can reuse one factorization — the
standard usage pattern for Laplacian primitives inside IPM loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from repro.config import SolverOptions, default_options
from repro.core.apply_cholesky import ApplyCholeskyOperator
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split
from repro.core.richardson import UPDATES, preconditioned_richardson
from repro.errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidInputError,
    ReproError,
)
from repro.graphs.conversions import from_scipy_laplacian
from repro.graphs.laplacian import apply_laplacian
from repro.graphs.multigraph import MultiGraph
from repro.graphs.validation import require_connected
from repro.linalg.cg import conjugate_gradient
from repro.linalg.ops import project_out_ones
from repro.pram.faults import FaultLog, use_fault_log
from repro.rng import as_generator

__all__ = ["LaplacianSolver", "solve_laplacian", "SolveReport",
           "BlockSolveReport", "check_solve_inputs", "METHODS",
           "DEFAULT_METHOD"]

Method = Literal["richardson", "pcg"]
#: Outer loops of every solve: each is an update rule of the certified
#: kernel in :mod:`repro.core.richardson` (DESIGN.md §15).
METHODS: tuple[str, ...] = UPDATES
#: The outer loop the solver, the service, HTTP and the CLI default to.
DEFAULT_METHOD: Method = "pcg"
#: The chain's preconditioner quality, ``W ≈_δ L⁺`` (Theorem 3.10's
#: δ = 1): it sets the outer loop's budget and certificate for both
#: methods (DESIGN.md §15).
RICHARDSON_DELTA = 1.0


def check_solve_inputs(B: np.ndarray, eps) -> None:
    """Reject a non-finite right-hand side or an ``eps`` outside
    ``(0, 1)`` (scalar or per-column) with :class:`InvalidInputError`.

    Theorem 1.1's guarantee is for ``0 < ε < 1`` and finite ``b``;
    anything else would reach the iteration as a silently wrong answer
    or an untyped error from deep inside the solve.
    """
    if not np.isfinite(B).all():
        raise InvalidInputError("b must be finite; it has a NaN or "
                                "infinite entry")
    eps = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    bad = eps[~((eps > 0) & (eps < 1))]
    if bad.size:
        raise InvalidInputError(
            f"eps must lie in (0, 1), got {bad[0]:g}")


@dataclass
class SolveReport:
    """Everything a caller may want to know about one solve."""

    x: np.ndarray
    iterations: int
    method: str
    target_eps: float
    residual_2norm: float
    chain_depth: int
    multiedges: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SolveReport(method={self.method!r}, "
                f"iterations={self.iterations}, "
                f"target_eps={self.target_eps:g}, "
                f"residual={self.residual_2norm:.3e})")


@dataclass
class BlockSolveReport:
    """Diagnostics for one blocked multi-RHS solve (``solve_many``)."""

    x: np.ndarray
    iterations: int
    per_column_iterations: np.ndarray | None
    method: str
    target_eps: np.ndarray
    residual_2norms: np.ndarray
    chain_depth: int
    multiedges: int
    #: Per-column solve path (``(k,)`` object array): the method
    #: (``"pcg"`` / ``"richardson"``) for columns it certified,
    #: ``"pcg"`` for columns of the whole-block fallback and for columns
    #: escalated individually to the residual-stopped PCG after a
    #: numerical breakdown (DESIGN.md §9) or an uncertified finish
    #: (§15), ``"dense"`` where that broke down too.
    column_status: np.ndarray | None = None
    #: Structured :class:`repro.pram.faults.FaultLog` of every
    #: injection and containment action during this solve
    #: (quarantines, escalations).  Empty when nothing happened.
    fault_log: object | None = None
    #: Resident size of the preconditioner chain's solve-time arrays in
    #: bytes (:attr:`repro.core.chain.CholeskyChain.nbytes`).
    chain_nbytes: int = 0
    #: Per-level share of :attr:`chain_nbytes` — one entry per chain
    #: level (its columns of the flat sweep matrix).
    chain_level_nbytes: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockSolveReport(method={self.method!r}, "
                f"k={self.x.shape[1] if self.x.ndim == 2 else 1}, "
                f"iterations={self.iterations}, "
                f"max_residual={self.residual_2norms.max(initial=0.0):.3e})")


class LaplacianSolver:
    """Reusable solver: factor once, solve many right-hand sides.

    Parameters
    ----------
    graph:
        Connected :class:`MultiGraph` (simple graphs are the common
        case; α-bounded multigraphs are accepted with
        ``options.splitting == "none"``).
    options:
        See :class:`repro.config.SolverOptions`; presets
        ``theorem_1_1_options()`` / ``theorem_1_2_options()`` match the
        paper's two headline configurations.
    seed:
        Seed/generator for all randomness (splitting, 5DDSubset,
        terminal walks).

    The randomised build and the blocked solve paths both dispatch
    through ``options``' execution context
    (:class:`repro.pram.ExecutionContext`): ``workers`` /
    ``REPRO_WORKERS`` picks the thread count (``1`` is serial) but
    never the result — fixed seed ⇒ bit-identical factorizations and
    solutions (DESIGN.md §6–§7).  ``coalesce_emitted`` /
    ``REPRO_COALESCE`` additionally merges each elimination level's
    emitted parallel edges in the incremental walk store (smaller
    chain levels, same Laplacians; fixed seed + fixed coalesce setting
    keeps the bit-identical contract — DESIGN.md §11).  The build
    streams (``keep_graphs=False``): the chain holds only its payload.
    """

    def __init__(self, graph: MultiGraph,
                 options: SolverOptions | None = None,
                 seed=None) -> None:
        if not isinstance(graph, MultiGraph):
            raise TypeError("graph must be a MultiGraph; use "
                            "solve_laplacian() for matrix inputs")
        options = options or default_options()
        require_connected(graph)
        #: The seed as given (``options.seed`` when the argument was
        #: ``None``) — what :meth:`cache_key` hashes.  A Generator
        #: argument is kept as-is but is not replayable, so it cannot
        #: be part of a cache identity.
        self.seed = seed if seed is not None else options.seed
        rng = as_generator(self.seed)
        self.graph = graph
        self.options = options

        alpha = options.alpha(graph.n)
        if options.splitting == "naive":
            self.multigraph = naive_split(graph, alpha)
        elif options.splitting == "leverage":
            from repro.core.lev_est import leverage_split
            self.multigraph = leverage_split(graph, alpha,
                                             K=options.K(graph.n),
                                             seed=rng, options=options)
        elif options.splitting == "none":
            self.multigraph = graph
        else:  # pragma: no cover - guarded by SolverOptions typing
            raise ReproError(f"unknown splitting {options.splitting!r}")

        self.chain = block_cholesky(self.multigraph, options, seed=rng,
                                    keep_graphs=False)
        self.preconditioner = ApplyCholeskyOperator(self.chain)
        #: Execution context for the blocked solve paths (walker
        #: stepping inside ``block_cholesky`` already went through it).
        self.ctx = options.execution()
        self._L_csr = None

    def cache_key(self) -> str:
        """Canonical serving-cache key for ``(graph, options, seed)``.

        Two solvers with equal keys build bit-identical chains (same
        canonical multigraph, same chain-affecting options, same seed),
        which is what lets :class:`repro.serve.ChainCache` substitute a
        resident chain for a fresh build.  Requires the seed to be an
        int or ``None`` — a live Generator is not replayable and
        raises ``TypeError``.
        """
        from repro.serve.keys import solver_cache_key
        return solver_cache_key(self.graph, self.options, self.seed)

    # -- solving -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Vertex count of the input graph (RHS length)."""
        return self.graph.n

    def apply_L(self, x: np.ndarray) -> np.ndarray:
        """``L x`` from the *original* graph's edges (exact).

        Accepts ``(n,)`` or a blocked ``(n, k)``; the blocked path uses
        a cached CSR Laplacian so the product is one sparse×dense
        (BLAS-3-style) kernel.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            if self._L_csr is None:
                from repro.graphs.laplacian import laplacian
                self._L_csr = laplacian(self.graph)
            from repro.pram import charge, ledger_active
            from repro.pram import primitives as P
            if ledger_active():
                charge(*P.matvec_cost(self.graph.m * x.shape[1]),
                       label="apply_laplacian")
            return self._L_csr @ x
        return apply_laplacian(self.graph, x)

    def solve(self, b: np.ndarray, eps: float = 1e-6,
              method: Method = DEFAULT_METHOD) -> np.ndarray:
        """ε-approximate ``L⁺ b`` (in the L-norm, Theorems 1.1/1.2)."""
        return self.solve_report(b, eps=eps, method=method).x

    def solve_report(self, b: np.ndarray, eps: float = 1e-6,
                     method: Method = DEFAULT_METHOD) -> SolveReport:
        """Like :meth:`solve` but with iteration diagnostics.

        A single-column view of :meth:`solve_many_report` (one code
        path for the dispatch / divergence-fallback logic).
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise DimensionMismatchError(
                f"b must have shape ({self.n},), got {b.shape}")
        rep = self.solve_many_report(b, eps=eps, method=method)
        return SolveReport(x=rep.x, iterations=rep.iterations,
                           method=rep.method, target_eps=eps,
                           residual_2norm=float(rep.residual_2norms[0]),
                           chain_depth=rep.chain_depth,
                           multiedges=rep.multiedges)

    # -- blocked multi-RHS solving ------------------------------------------

    def solve_many(self, B: np.ndarray, eps: float | np.ndarray = 1e-6,
                   method: Method = DEFAULT_METHOD) -> np.ndarray:
        """ε-approximate ``L⁺ B`` for ``k`` right-hand sides at once.

        The "factor once, solve many" path: one blocked outer iteration
        runs all columns against the shared factorization, so every
        operator apply is a sparse×dense-matrix (BLAS-3-style) product
        instead of ``k`` sequential matvecs.  ``eps`` may be a scalar
        or a length-``k`` array — each column converges at its own
        target and is compacted out of the active block once done.

        ``B`` of shape ``(n,)`` is accepted and round-trips as ``(n,)``;
        ``(n, k)`` returns ``(n, k)`` with columns aligned to inputs.

        ``method`` picks the outer loop (:data:`METHODS`): ``"pcg"``
        (the default) or ``"richardson"`` (Algorithm 5).  Both run the
        certified kernel of :mod:`repro.core.richardson` under Theorem
        3.8's budget; columns it cannot certify escalate to the
        residual-stopped PCG (DESIGN.md §15).
        """
        return self.solve_many_report(B, eps=eps, method=method).x

    def solve_many_report(self, B: np.ndarray,
                          eps: float | np.ndarray = 1e-6,
                          method: Method = DEFAULT_METHOD
                          ) -> BlockSolveReport:
        """Like :meth:`solve_many` but with per-column diagnostics."""
        B = np.asarray(B, dtype=np.float64)
        if B.ndim not in (1, 2) or B.shape[0] != self.n:
            raise DimensionMismatchError(
                f"B must have shape ({self.n},) or ({self.n}, k), "
                f"got {B.shape}")
        check_solve_inputs(B, eps)
        if method not in METHODS:
            raise ReproError(f"unknown method {method!r}; expected one "
                             f"of {METHODS}")
        # Every path below is blocked: a 1-D ``b`` runs as one column
        # and is squeezed back on return.
        squeeze = B.ndim == 1
        if squeeze:
            B = B[:, None]
        k = B.shape[1]
        if self._L_csr is None:
            # Build the cached CSR Laplacian before the column-chunked
            # solvers fan out, so concurrent apply_L calls from pool
            # threads don't each rebuild it.
            from repro.graphs.laplacian import laplacian
            self._L_csr = laplacian(self.graph)
        eps_col = np.broadcast_to(np.asarray(eps, dtype=np.float64),
                                  (k,)).copy()
        B = project_out_ones(B)
        fault_log = FaultLog()
        status = np.full(k, method, dtype=object)
        with use_fault_log(fault_log):
            try:
                res = preconditioned_richardson(
                    self.apply_L, self.preconditioner.apply, B,
                    delta=RICHARDSON_DELTA, eps=eps_col,
                    ctx=self.ctx, update=method)
                x, iters, per_col = res.x, res.iterations, \
                    res.per_column_iterations
                broken = res.broken_columns
                escalate = []
                # Quarantined columns (non-finite iterates, DESIGN.md
                # §9) and columns the certificate did not cover (§15)
                # escalate individually through the residual-stopped
                # PCG; the certified columns keep their solutions.
                for cols, kind in ((broken, "nan"),
                                   (res.uncertified_columns,
                                    "uncertified")):
                    if cols is not None and cols.size:
                        fault_log.record(
                            "escalate", kind=kind,
                            columns=tuple(int(c) for c in cols),
                            detail=f"{method} -> per-column pcg")
                        escalate.append(cols)
                if escalate:
                    esc = np.sort(np.concatenate(escalate))
                    method += "+pcg"
                    status[esc] = "pcg"
                    sub = conjugate_gradient(
                        self.apply_L, B[:, esc], tol=eps_col[esc] / 10.0,
                        preconditioner=self.preconditioner.apply,
                        matvec_edges=self.graph.m, col_ids=esc)
                    x[:, esc] = sub.x
                    iters = max(iters, sub.iterations)
                    per_col[esc] = sub.per_column_iterations
                    broken = sub.broken_columns
            except ConvergenceError:
                # The chain came out far worse than δ = 1 (possible at
                # aggressively small splitting factors).  Residual-
                # stopped PCG converges for any SPD preconditioner,
                # just more slowly, so fall back rather than return
                # garbage.  CG's tolerance is a 2-norm residual; aim an
                # order of magnitude below the requested L-norm target.
                method += "->pcg"
                status[:] = "pcg"
                res = conjugate_gradient(
                    self.apply_L, B, tol=eps_col / 10.0,
                    preconditioner=self.preconditioner.apply,
                    matvec_edges=self.graph.m, ctx=self.ctx)
                x, iters, per_col = res.x, res.iterations, \
                    res.per_column_iterations
                broken = res.broken_columns
            # Last line of containment: any column that is still
            # non-finite (PCG escalation broke down too, or an
            # unpreconditioned path went bad) gets an exact dense
            # pseudo-inverse solve.  O(n³) — acceptable for the rare
            # quarantined stragglers, never the common path.
            bad = ~np.isfinite(x).all(axis=0)
            if broken is not None and len(broken):
                bad[np.asarray(broken, dtype=np.int64)] = True
            bad_idx = np.flatnonzero(bad)
            if bad_idx.size:
                from repro.linalg.pinv import solve_dense_pseudo
                x[:, bad_idx] = solve_dense_pseudo(self._L_csr,
                                                   B[:, bad_idx])
                status[bad_idx] = "dense"
                method += "+dense"
                fault_log.record(
                    "escalate", kind="nan",
                    columns=tuple(int(c) for c in bad_idx),
                    detail="dense pseudo-inverse containment")
        residuals = np.linalg.norm(self.apply_L(x) - B, axis=0)
        if squeeze:
            x = x[:, 0]
        return BlockSolveReport(x=x, iterations=iters,
                                per_column_iterations=per_col,
                                method=method, target_eps=eps_col,
                                residual_2norms=residuals,
                                chain_depth=self.chain.d,
                                multiedges=self.multigraph.m_logical,
                                column_status=status,
                                fault_log=fault_log,
                                chain_nbytes=self.chain.nbytes,
                                chain_level_nbytes=tuple(
                                    self.chain.level_nbytes()))


def solve_laplacian(L_or_graph, b: np.ndarray, eps: float = 1e-6,
                    options: SolverOptions | None = None,
                    seed=None, method: Method = DEFAULT_METHOD
                    ) -> np.ndarray:
    """One-shot convenience wrapper.

    Accepts a :class:`MultiGraph`, a scipy sparse Laplacian, or a dense
    Laplacian ndarray.  For repeated solves against the same graph,
    construct a :class:`LaplacianSolver` once instead.
    """
    if isinstance(L_or_graph, MultiGraph):
        graph = L_or_graph
    elif sp.issparse(L_or_graph) or isinstance(L_or_graph, np.ndarray):
        graph = from_scipy_laplacian(L_or_graph)
    else:
        raise TypeError(f"unsupported input type {type(L_or_graph)!r}")
    solver = LaplacianSolver(graph, options=options, seed=seed)
    return solver.solve(b, eps=eps, method=method)
