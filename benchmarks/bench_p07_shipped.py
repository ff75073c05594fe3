"""P7 — shippable blocked-solve tasks over a shared-memory chain payload.

Measures the PR-7 tentpole on an n≈2025 grid: the blocked column
solves (preconditioned Richardson through the solver) ship as pure
``(column slice, tolerances, seed key)`` tasks to the process
backend's worker pool, reconstructing view-only chain operators from a
**once-published** shared-memory payload instead of dispatching
closures onto the thread pool.

* **Shipped-matrix invariance (always gated)** — ``solve_many`` must
  produce **bit-identical** solutions and ledger work/depth totals for
  every backend ∈ {serial, thread, process} ×
  workers ∈ {1, 2, 4} with shipping on, all equal to the serial
  unshipped baseline (DESIGN.md §10: the shipped chunks replay the
  threaded chunk layout exactly).
* **Fault invariance (always gated)** — a ``kill:chunk=1:stage=solve``
  plan (a worker dying mid-solve while attached to the chain payload)
  must recover bit-identically through the standard re-dispatch
  machinery.
* **Shared-memory hygiene (always gated)** — after every run,
  including the faulted one, the parent's segment registry is empty
  and ``/dev/shm`` holds nothing with this process's payload prefix.

Acceptance target (ISSUE 7): ≥ 1.5× solve-phase speedup with the
process backend at 4 workers (shipped) vs the serial backend.  The
speedup gate is enforced in the full run only when the host has ≥ 4
CPUs; on smaller hosts the measured ratios are recorded with
``"gate": "skipped (...)"`` so CI on multi-core runners still
enforces it.  The invariance and hygiene gates always run.  Results
land in ``BENCH_shipped.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_p07_shipped.py           # full
    PYTHONPATH=src python benchmarks/bench_p07_shipped.py --smoke   # CI
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
from repro.core.solver import LaplacianSolver
from repro.graphs import generators as G
from repro.pram import use_ledger
from repro.pram.executor import BACKENDS, live_segment_names
from repro.pram.faults import use_faults

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_SPEEDUP = 1.5           # 4-worker shipped-vs-serial target (≥ 4 CPUs)
WORKERS = (1, 2, 4)
SEED = 1234
EPS = 1e-8

#: Right-hand-side count and column-chunk grain: k / chunk_columns
#: chunks per dispatch, so even the smoke run fans out several shipped
#: tasks per kernel call.  The chunk policy is part of the result ⇒
#: held fixed across the whole matrix.
K_RHS = 16
CHUNK_COLUMNS = 4


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    return G.grid2d(side, side)


def timed(fn, repeats: int):
    best, out = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, out


def shm_leaks() -> tuple[list, list]:
    registry = list(live_segment_names())
    prefix = f"repro-{os.getpid()}-"
    fs = []
    if os.path.isdir("/dev/shm"):
        fs = [name for name in os.listdir("/dev/shm")
              if name.startswith(prefix)]
    return registry, fs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: gates invariance/hygiene, "
                         "reports timing without enforcing speedups")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--repeats", type=int, default=None)
    args = ap.parse_args()

    n_target = args.n if args.n is not None else (400 if args.smoke
                                                  else 2025)
    repeats = args.repeats if args.repeats is not None \
        else (1 if args.smoke else 3)
    cpus = os.cpu_count() or 1

    g = make_workload(n_target)
    rng = np.random.default_rng(SEED)
    B = rng.standard_normal((g.n, K_RHS))
    B -= B.mean(axis=0)
    base_opts = practical_options().with_(chunk_columns=CHUNK_COLUMNS,
                                          chunk_items=4096)
    print(f"workload: grid n={g.n} m={g.m} k={K_RHS} eps={EPS} "
          f"cpus={cpus} repeats={repeats} "
          f"chunk_columns={CHUNK_COLUMNS}")

    def run(backend: str, workers: int, ship: bool, plan=None):
        opts = base_opts.with_(backend=backend, workers=workers,
                               ship_solves=ship)
        solver = LaplacianSolver(g, options=opts, seed=SEED)
        with use_faults(plan):
            t, x = timed(lambda: solver.solve_many(B, eps=EPS),
                         repeats)
            with use_ledger() as ledger:
                check = solver.solve_many(B, eps=EPS)
        payload_mb = solver.shipment.nbytes / 1e6
        solver.close()
        return t, x, check, (ledger.work, ledger.depth), payload_mb

    # -- baseline: serial, unshipped -----------------------------------------
    t_serial, base_x, base_check, base_totals, payload_mb = run(
        "serial", 1, False)
    identical = bool(np.array_equal(base_x, base_check))
    print(f"solve backend=serial workers=1 shipped=False: "
          f"{t_serial:.3f}s  (chain payload {payload_mb:.2f} MB)")

    # -- shipped matrix: timings + bit-identical solutions + ledgers ---------
    times: dict[str, dict[str, float]] = {b: {} for b in BACKENDS}
    times["serial"]["1"] = t_serial
    ledger_ok = True
    for backend in BACKENDS:
        for w in WORKERS:
            if backend == "serial" and w == 1:
                continue
            t, x, check, totals, _ = run(backend, w, True)
            times[backend][str(w)] = t
            if not (np.array_equal(x, base_x)
                    and np.array_equal(check, base_x)):
                identical = False
            if totals != base_totals:
                ledger_ok = False
            print(f"solve backend={backend} workers={w} shipped=True: "
                  f"{t:.3f}s")
    print(f"shipped-matrix invariance (bit-identical solutions): "
          f"{identical}")
    if not identical:
        print("FAIL: solve_many output depends on backend/workers/"
              "shipping", file=sys.stderr)
        return 1
    print(f"ledger work/depth invariance: {ledger_ok}")
    if not ledger_ok:
        print("FAIL: ledger totals vary across the shipped matrix",
              file=sys.stderr)
        return 1

    # -- fault invariance: worker killed mid-solve ---------------------------
    _, fx, fcheck, ftotals, _ = run("process", 2, True,
                                    plan="kill:chunk=1:stage=solve")
    faulted_ok = bool(np.array_equal(fx, base_x)
                      and np.array_equal(fcheck, base_x)
                      and ftotals == base_totals)
    print(f"faulted-run invariance (kill:chunk=1:stage=solve): "
          f"{faulted_ok}")
    if not faulted_ok:
        print("FAIL: faulted shipped run differs from the baseline",
              file=sys.stderr)
        return 1

    # -- shared-memory hygiene (after every run, faulted included) ----------
    leaked_registry, leaked_fs = shm_leaks()
    hygiene_ok = not leaked_registry and not leaked_fs
    print(f"shared-memory hygiene (no leaked segments): {hygiene_ok}")
    if not hygiene_ok:
        print(f"FAIL: leaked segments registry={leaked_registry} "
              f"fs={leaked_fs}", file=sys.stderr)
        return 1

    speedup_proc = t_serial / times["process"]["4"]

    # -- gates ----------------------------------------------------------------
    if args.smoke or cpus < 4:
        gate = f"skipped ({'smoke' if args.smoke else f'cpus={cpus} < 4'})"
        ok = True
    else:
        gate = f"enforced (>= {FULL_SPEEDUP}x process@4 shipped " \
               f"vs serial@1)"
        ok = speedup_proc >= FULL_SPEEDUP
        if not ok:
            print(f"FAIL: shipped-solve speedup {speedup_proc:.2f}x < "
                  f"{FULL_SPEEDUP}x at 4 workers", file=sys.stderr)

    result = {
        "bench": "p07_shipped",
        "workload": {"n": g.n, "m": g.m, "k": K_RHS, "eps": EPS,
                     "seed": SEED, "chunk_columns": CHUNK_COLUMNS},
        "machine": {"cpus": cpus, "platform": platform.platform(),
                    "python": platform.python_version()},
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "chain_payload_mb": payload_mb,
        "solve_seconds": times,
        "process_speedup_4v_serial": speedup_proc,
        "shipped_matrix_bit_identical": identical,
        "ledger_totals_invariant": ledger_ok,
        "faulted_run_bit_identical": faulted_ok,
        "shared_memory_clean": hygiene_ok,
        "speedup_gate": gate,
    }
    out_path = REPO_ROOT / "BENCH_shipped.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
