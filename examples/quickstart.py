"""Quickstart: solve a Laplacian system on a 2-D grid.

Paper: Theorems 1.1/1.2 end to end — α-bounded splitting (Lemma 3.2)
→ ``BlockCholesky`` (§3, Algorithm 1) → ``ApplyCholesky`` (§3,
Algorithm 2) → an outer loop under Theorem 3.8's budget (by default
conjugate gradient preconditioned by the chain; preconditioned
Richardson, §3 Algorithm 5, with ``method="richardson"``), with the
error measured in the L-norm the theorems promise.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import LaplacianSolver, generators, practical_options
from repro.graphs.laplacian import laplacian
from repro.linalg.ops import relative_lnorm_error, residual_norm
from repro.linalg.pinv import exact_solution


def main() -> None:
    # A 40x40 grid graph: 1600 vertices, 3120 edges.
    g = generators.grid2d(40, 40)
    print(f"graph: n={g.n}, m={g.m}")

    # Factor once; solve many right-hand sides.
    solver = LaplacianSolver(g, options=practical_options(), seed=0)
    print(f"block Cholesky chain: d={solver.chain.d} levels, "
          f"{solver.multigraph.m_logical} multi-edges after splitting "
          f"({solver.multigraph.m} stored groups)")

    # Unit current in at the top-left corner, out at the bottom-right.
    b = np.zeros(g.n)
    b[0], b[-1] = 1.0, -1.0

    for eps in (1e-2, 1e-4, 1e-8):
        report = solver.solve_report(b, eps=eps)
        print(f"eps={eps:8.0e}  iterations={report.iterations:3d}  "
              f"residual={report.residual_2norm:.3e}")

    # Compare against the dense ground truth.
    x = solver.solve(b, eps=1e-8)
    xstar = exact_solution(g, b)
    err = relative_lnorm_error(laplacian(g), x, xstar)
    print(f"relative L-norm error vs dense oracle: {err:.3e}")
    print(f"voltage drop corner-to-corner (effective resistance): "
          f"{x[0] - x[-1]:.4f}")


if __name__ == "__main__":
    main()
