"""P3 — ExecutionContext: real parallelism through the solver stack.

Measures the PR-3 tentpole on an n≈2025 grid:

* **Walker-phase scaling** — end-to-end ``approx_schur`` wall-clock at
  ``REPRO_WORKERS ∈ {1, 2, 4}``.  The walker batches step in
  deterministic disjoint chunks on the thread pool (numpy releases the
  GIL inside each chunk's kernels), so the three runs must produce
  **bit-identical** graphs — asserted — while wall-clock drops with
  available cores.
* **Incremental restricted CSR** — one round's walk CSR extracted from
  the incrementally maintained store vs a from-scratch
  ``adjacency_restricted`` rebuild (informational).
* **Column-blocked solve scaling** — ``solve_many`` with k = 64
  right-hand sides against one factorization, column chunks spread
  over the pool, workers 1 vs 4 (solutions asserted identical).

Acceptance target (ISSUE 3): ≥ 1.5× ``approx_schur`` speedup at 4
workers vs 1.  Thread-pool speedup is physically bounded by the
machine — the gate is enforced in the full run only when the host has
≥ 4 CPUs; on smaller hosts (including this container's 1-CPU cgroup)
the measured ratios are recorded with ``"gate": "skipped (cpus < 4)"``
so CI on multi-core runners still enforces it.  The determinism gates
always run.  Full runs write ``BENCH_parallel.json`` at the repo root;
``--smoke`` runs write a record only when ``--output`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_p03_parallel.py           # full
    PYTHONPATH=src python benchmarks/bench_p03_parallel.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import practical_options
from repro.core.schur import approx_schur
from repro.core.solver import LaplacianSolver
from repro.graphs import generators as G
from repro.linalg.ops import project_out_ones

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_SPEEDUP = 1.5           # 4-worker approx_schur target (≥ 4 CPUs)
WORKERS = (1, 2, 4)
SEED = 1234


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    return G.grid2d(side, side)


def set_workers(w: int) -> None:
    os.environ["REPRO_WORKERS"] = str(w)


def timed(fn, repeats: int):
    best, out = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: gates determinism/equality, "
                         "reports timing without enforcing speedups")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--output", type=Path, default=None,
                    help="JSON record path (default: BENCH_parallel.json "
                         "for full runs; smoke runs write only when "
                         "given)")
    args = ap.parse_args()
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_parallel.json"

    n_target = args.n if args.n is not None else (400 if args.smoke
                                                  else 2025)
    repeats = args.repeats if args.repeats is not None \
        else (1 if args.smoke else 3)
    cpus = os.cpu_count() or 1

    g = make_workload(n_target)
    C = np.arange(0, g.n, 3)
    eps = 0.5
    print(f"workload: grid n={g.n} m={g.m} eps={eps} "
          f"cpus={cpus} repeats={repeats}")

    # -- walker-phase scaling -------------------------------------------------
    schur_times: dict[str, float] = {}
    outputs = {}
    for w in WORKERS:
        set_workers(w)
        t, out = timed(lambda: approx_schur(g, C, eps=eps, seed=SEED),
                       repeats)
        schur_times[str(w)] = t
        outputs[w] = out
        print(f"approx_schur workers={w}: {t:.3f}s")
    identical = all(outputs[w] == outputs[WORKERS[0]] for w in WORKERS[1:])
    print(f"worker-invariance (bit-identical graphs): {identical}")
    if not identical:
        print("FAIL: approx_schur output depends on REPRO_WORKERS",
              file=sys.stderr)
        return 1
    speedup4 = schur_times["1"] / schur_times["4"]

    # -- incremental restricted CSR ------------------------------------------
    set_workers(1)
    # The per-round CSR cost itself.  Mid-elimination working
    # graphs carry mostly *explicit* emitted edges (stored ≈ logical
    # count), so the representative regime is the materialised split:
    # restricted-view extraction touches O(deg F) slots while a
    # from-scratch rebuild counting-sorts every stored edge.
    from repro.core.boundedness import naive_split
    from repro.core.dd_subset import five_dd_subset
    from repro.core.schur import schur_alpha_inverse
    from repro.sampling.inc_csr import IncrementalWalkCSR

    split = naive_split(g, 1.0 / schur_alpha_inverse(g.n, eps)
                        ).materialized()
    F = five_dd_subset(split, active=np.setdiff1d(np.arange(g.n), C),
                       seed=SEED)
    mask = np.zeros(g.n, dtype=bool)
    mask[F] = True
    inc_store = IncrementalWalkCSR(split)
    micro_reps = 5 if args.smoke else 20
    t_view, _ = timed(lambda: inc_store.restricted_view(F), micro_reps)
    t_rebuild, _ = timed(lambda: split.adjacency_restricted(mask),
                         micro_reps)
    print(f"round CSR micro: extract {t_view * 1e3:.2f}ms vs rebuild "
          f"{t_rebuild * 1e3:.2f}ms "
          f"({t_rebuild / t_view:.2f}x, |F|={F.size}, m={split.m})")

    # -- column-blocked solve scaling ----------------------------------------
    set_workers(1)
    solver = LaplacianSolver(g, options=practical_options(), seed=SEED)
    k = 16 if args.smoke else 64
    B = project_out_ones(
        np.random.default_rng(SEED).standard_normal((g.n, k)))
    solve_times: dict[str, float] = {}
    sols = {}
    for w in (1, 4):
        set_workers(w)
        t, x = timed(lambda: solver.solve_many(B, eps=1e-6), repeats)
        solve_times[str(w)] = t
        sols[w] = x
        print(f"solve_many k={k} workers={w}: {t:.3f}s")
    solve_equal = bool(np.array_equal(sols[1], sols[4]))
    print(f"solve_many worker-invariance: {solve_equal}")
    if not solve_equal:
        print("FAIL: solve_many depends on REPRO_WORKERS", file=sys.stderr)
        return 1

    # -- gates ----------------------------------------------------------------
    if args.smoke or cpus < 4:
        gate = f"skipped ({'smoke' if args.smoke else f'cpus={cpus} < 4'})"
        ok = True
    else:
        gate = f"enforced (>= {FULL_SPEEDUP}x at 4 workers)"
        ok = speedup4 >= FULL_SPEEDUP
        if not ok:
            print(f"FAIL: approx_schur speedup {speedup4:.2f}x < "
                  f"{FULL_SPEEDUP}x at 4 workers", file=sys.stderr)

    result = {
        "bench": "p03_parallel",
        "workload": {"n": g.n, "m": g.m, "eps": eps, "k_rhs": k,
                     "seed": SEED},
        "machine": {"cpus": cpus, "platform": platform.platform(),
                    "python": platform.python_version()},
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "approx_schur_seconds": schur_times,
        "approx_schur_speedup_4v1": speedup4,
        "approx_schur_speedup_2v1": schur_times["1"] / schur_times["2"],
        "worker_invariance_bit_identical": identical,
        "incremental_csr": {"round_extract_ms": t_view * 1e3,
                            "round_rebuild_ms": t_rebuild * 1e3,
                            "round_csr_speedup_x": t_rebuild / t_view,
                            "round_F_size": int(F.size)},
        "solve_many_seconds": solve_times,
        "solve_many_speedup_4v1": solve_times["1"] / solve_times["4"],
        "solve_many_invariant": solve_equal,
        "speedup_gate": gate,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
