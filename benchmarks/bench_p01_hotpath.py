"""P1 — hot-path perf: implicit α-split vs the seed's materialised path.

Measures end-to-end ``approx_schur`` (the deepest consumer of the
splitting + walk stack) on a ~n-vertex grid, comparing the solver's
path (implicit multiplicities, incremental walk store, alias planes)
against :func:`repro.baselines.seed_approx_schur` — a faithful re-run
of the seed hot path: materialised ``⌈1/α⌉``-copy split, full CSR
rebuild per round, one walker per stored edge, uncompacted bisection
stepping.

Reported per mode:

* wall-clock seconds (best of ``--repeats``),
* peak edge-array bytes: max over rounds of working-graph arrays +
  either the 5-DD induced-subgraph arrays or the walk-phase CSR +
  walker state + emitted arrays (see DESIGN.md §4),
* rounds, walkers launched, logical/stored edge counts.

Acceptance targets (PR 1): ≥ 5× peak-memory reduction and ≥ 2×
speedup at n≈2000, ε=0.5.  Full runs write ``BENCH_hotpath.json`` at
the repo root (override with ``--output``); ``--smoke`` runs write a
record only when ``--output`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_p01_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_p01_hotpath.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.baselines import seed_approx_schur
from repro.core.schur import approx_schur, schur_alpha_inverse
from repro.graphs import generators as G

REPO_ROOT = Path(__file__).resolve().parent.parent

# Full-run acceptance thresholds (ISSUE 1); the smoke run uses relaxed
# ones because the asymptotic gap shrinks with n.
FULL_MEM_RATIO = 5.0
FULL_SPEEDUP = 2.0
SMOKE_MEM_RATIO = 2.0
SMOKE_SPEEDUP = 1.2


def make_workload(n_target: int, seed: int):
    side = max(4, int(round(math.sqrt(n_target))))
    g = G.grid2d(side, side)
    rng = np.random.default_rng(seed)
    C = np.sort(rng.choice(g.n, size=max(4, g.n // 3), replace=False))
    return g, C


def run_mode(g, C, eps: float, seed: int, legacy: bool, repeats: int):
    run = seed_approx_schur if legacy else approx_schur
    best = None
    report = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        # The solver path's peak bytes include the incremental walk
        # store, which every round keeps alive.
        report = run(g, C, eps=eps, seed=seed, return_report=True)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return {
        "seconds": best,
        "peak_edge_bytes": int(report.peak_edge_bytes),
        "rounds": int(report.rounds),
        "total_walkers": int(report.total_walkers),
        "logical_edges_initial": int(report.edges_per_round[0]),
        "logical_edges_final": int(report.edges_per_round[-1]),
        "stored_edges_initial": int(report.stored_edges_per_round[0]),
        "stored_edges_final": int(report.stored_edges_per_round[-1]),
        "stored_edges_max": int(max(report.stored_edges_per_round)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000,
                    help="target vertex count (default 2000)")
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=2,
                    help="timing repetitions per mode (best is kept)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: n=400, one repeat, relaxed "
                         "thresholds")
    ap.add_argument("--output", type=Path, default=None,
                    help="JSON record path (default: BENCH_hotpath.json for "
                         "full runs; smoke runs write only when given)")
    args = ap.parse_args(argv)
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_hotpath.json"

    args.repeats = max(1, args.repeats)
    if args.smoke:
        args.n = min(args.n, 400)
        args.repeats = 1
    mem_target = SMOKE_MEM_RATIO if args.smoke else FULL_MEM_RATIO
    speed_target = SMOKE_SPEEDUP if args.smoke else FULL_SPEEDUP

    g, C = make_workload(args.n, args.seed)
    alpha_inv = schur_alpha_inverse(g.n, args.eps)
    print(f"workload: grid n={g.n} m={g.m} |C|={C.size} "
          f"eps={args.eps} alpha_inv={alpha_inv}")

    implicit = run_mode(g, C, args.eps, args.seed, legacy=False,
                        repeats=args.repeats)
    legacy = run_mode(g, C, args.eps, args.seed, legacy=True,
                      repeats=args.repeats)

    speedup = legacy["seconds"] / implicit["seconds"]
    mem_ratio = legacy["peak_edge_bytes"] / implicit["peak_edge_bytes"]
    # Smoke (CI) gates only the memory ratio: byte accounting is
    # deterministic given the seed, while single-repeat wall-clock on a
    # shared runner is not.  The full run enforces both targets.
    ok = mem_ratio >= mem_target and (args.smoke
                                      or speedup >= speed_target)

    result = {
        "benchmark": "p01_hotpath",
        "mode": "smoke" if args.smoke else "full",
        "workload": {"kind": "grid2d", "n": g.n, "m": g.m,
                     "C_size": int(C.size), "eps": args.eps,
                     "alpha_inverse": alpha_inv, "seed": args.seed},
        "implicit": implicit,
        "legacy": legacy,
        "speedup": speedup,
        "peak_memory_ratio": mem_ratio,
        "targets": {"speedup": speed_target, "memory_ratio": mem_target},
        "pass": ok,
        "platform": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "machine": platform.machine()},
    }
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"implicit: {implicit['seconds']:.3f}s  "
          f"peak {implicit['peak_edge_bytes'] / 1e6:.1f} MB  "
          f"({implicit['rounds']} rounds, "
          f"{implicit['total_walkers']} walkers)")
    print(f"legacy:   {legacy['seconds']:.3f}s  "
          f"peak {legacy['peak_edge_bytes'] / 1e6:.1f} MB  "
          f"({legacy['rounds']} rounds, "
          f"{legacy['total_walkers']} walkers)")
    speed_note = "informational in smoke" if args.smoke \
        else f"target >= {speed_target}x"
    print(f"speedup: {speedup:.2f}x ({speed_note})   "
          f"peak-memory reduction: {mem_ratio:.2f}x "
          f"(target >= {mem_target}x)")
    print(f"{'PASS' if ok else 'FAIL'} -> "
          f"{args.output or 'no record (smoke run without --output)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
