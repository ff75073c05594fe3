"""P4 — the process execution backend over shared-memory payloads.

Measures the PR-4 tentpole on an n≈2025 grid:

* **Backend invariance (always gated)** — end-to-end ``approx_schur``
  must produce **bit-identical** graphs for every
  ``REPRO_BACKEND ∈ {serial, thread, process}`` at
  ``REPRO_WORKERS ∈ {1, 2, 4}``, and ledger work/depth totals must
  match across the whole matrix.  This is the determinism contract of
  DESIGN.md §7: chunk layout and per-chunk RNG streams are functions
  of problem size only; backends and workers only schedule.
* **Walker-phase scaling** — ``approx_schur`` wall-clock per backend.
  The walker-stepping bookkeeping is Python-bound, so the thread
  backend is GIL-limited (~1.2× at 4 workers); the process backend
  ships the per-level CSR arrays to its lease-scheduled worker pool
  through ``multiprocessing.shared_memory`` (chunk jobs pickle only
  slice bounds + seed keys) and can use all cores.
* **Shared-memory hygiene (always gated)** — after every run the
  parent's segment registry must be empty and ``/dev/shm`` must hold
  nothing with this process's payload prefix: create/attach/unlink is
  crash-safe and leaves no leaks.

Acceptance target (ISSUE 4): ≥ 1.5× ``approx_schur`` speedup with the
process backend at 4 workers vs the serial backend.  Process speedup
is physically bounded by the machine — the gate is enforced in the
full run only when the host has ≥ 4 CPUs; on smaller hosts (including
a 1-CPU container) the measured ratios are recorded with
``"gate": "skipped (...)"`` so CI on multi-core runners still enforces
it.  The invariance and hygiene gates always run.  Results land in
``BENCH_procpool.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_p04_procpool.py           # full
    PYTHONPATH=src python benchmarks/bench_p04_procpool.py --smoke   # CI
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

from repro.config import default_options
from repro.core.schur import approx_schur
from repro.graphs import generators as G
from repro.pram import use_ledger
from repro.pram.executor import BACKENDS, live_segment_names

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_SPEEDUP = 1.5           # 4-worker process-vs-serial target (≥ 4 CPUs)
WORKERS = (1, 2, 4)
SEED = 1234

#: Walker chunk grain for the benchmark workload: small enough that
#: even the CI-sized smoke rounds produce several chunks per dispatch
#: (so every backend — including the shared-memory shipping path —
#: genuinely fans out), large enough that per-chunk kernels dominate
#: dispatch overhead.  Part of the chunk policy ⇒ held fixed across the
#: whole matrix (it is part of the result).
CHUNK_ITEMS = 4096


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    return G.grid2d(side, side)


def set_execution(backend: str, workers: int) -> None:
    os.environ["REPRO_BACKEND"] = backend
    os.environ["REPRO_WORKERS"] = str(workers)


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
    C = np.arange(0, g.n, 3)
    eps = 0.5
    opts = default_options().with_(chunk_items=CHUNK_ITEMS)
    print(f"workload: grid n={g.n} m={g.m} eps={eps} "
          f"cpus={cpus} repeats={repeats} chunk_items={CHUNK_ITEMS}")

    # -- backend × worker matrix: timings + bit-identical outputs ------------
    times: dict[str, dict[str, float]] = {b: {} for b in BACKENDS}
    ledger_totals: dict[tuple[str, int], tuple[float, float]] = {}
    base = None
    identical = True
    for backend in BACKENDS:
        for w in WORKERS:
            set_execution(backend, w)
            t, out = timed(
                lambda: approx_schur(g, C, eps=eps, seed=SEED,
                                     options=opts), repeats)
            times[backend][str(w)] = t
            with use_ledger() as ledger:
                check = approx_schur(g, C, eps=eps, seed=SEED,
                                     options=opts)
            ledger_totals[(backend, w)] = (ledger.work, ledger.depth)
            if base is None:
                base = out
            elif out != base or check != base:
                identical = False
            print(f"approx_schur backend={backend} workers={w}: {t:.3f}s")
    print(f"backend-matrix invariance (bit-identical graphs): {identical}")
    if not identical:
        print("FAIL: approx_schur output depends on REPRO_BACKEND/"
              "REPRO_WORKERS", file=sys.stderr)
        return 1
    ledger_ok = len(set(ledger_totals.values())) == 1
    print(f"ledger work/depth invariance: {ledger_ok}")
    if not ledger_ok:
        print(f"FAIL: ledger totals vary across the matrix: "
              f"{ledger_totals}", file=sys.stderr)
        return 1

    speedup_proc = times["serial"]["1"] / times["process"]["4"]
    speedup_thread = times["serial"]["1"] / times["thread"]["4"]

    # -- shared-memory hygiene ------------------------------------------------
    leaked_registry = list(live_segment_names())
    prefix = f"repro-{os.getpid()}-"
    leaked_fs = []
    if os.path.isdir("/dev/shm"):
        leaked_fs = [name for name in os.listdir("/dev/shm")
                     if name.startswith(prefix)]
    hygiene_ok = not leaked_registry and not leaked_fs
    print(f"shared-memory hygiene (no leaked segments): {hygiene_ok}")
    if not hygiene_ok:
        print(f"FAIL: leaked segments registry={leaked_registry} "
              f"fs={leaked_fs}", file=sys.stderr)
        return 1

    # -- gates ----------------------------------------------------------------
    if args.smoke or cpus < 4:
        gate = f"skipped ({'smoke' if args.smoke else f'cpus={cpus} < 4'})"
        ok = True
    else:
        gate = f"enforced (>= {FULL_SPEEDUP}x process@4 vs serial@1)"
        ok = speedup_proc >= FULL_SPEEDUP
        if not ok:
            print(f"FAIL: process-backend speedup {speedup_proc:.2f}x < "
                  f"{FULL_SPEEDUP}x at 4 workers", file=sys.stderr)

    result = {
        "bench": "p04_procpool",
        "workload": {"n": g.n, "m": g.m, "eps": eps, "seed": SEED,
                     "chunk_items": CHUNK_ITEMS},
        "machine": {"cpus": cpus, "platform": platform.platform(),
                    "python": platform.python_version()},
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "approx_schur_seconds": times,
        "process_speedup_4v_serial": speedup_proc,
        "thread_speedup_4v_serial": speedup_thread,
        "backend_matrix_bit_identical": identical,
        "ledger_totals_invariant": ledger_ok,
        "shared_memory_clean": hygiene_ok,
        "speedup_gate": gate,
    }
    out_path = REPO_ROOT / "BENCH_procpool.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
