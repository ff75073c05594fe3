"""P6 — fault-tolerant execution: recovery is invisible in the results.

Measures fault recovery on an n≈1024 grid.  The determinism contract
(DESIGN.md §6–§8) makes recovery cheap: chunk layout and per-chunk RNG
streams are functions of problem size only, so a lost chunk
re-dispatched with its original ``(lo, hi, seed_key)`` is
bit-identical to what the lost attempt would have produced.  This
benchmark *gates* that claim end-to-end:

* **Fault invariance (always gated)** — a full build+solve with an
  injected fault must produce **bit-identical** solutions and ledger
  work/depth totals vs the fault-free baseline, for every
  ``REPRO_BACKEND ∈ {serial, thread}`` at ``REPRO_WORKERS ∈ {1, 2, 4}``
  and each fault scenario:

  - ``kill`` — chunk 1 of every dispatch raises on its first attempt;
    recovered by bounded re-dispatch;
  - ``hang`` — chunk 0 of every dispatch stalls (bounded in-process)
    and then fails; recovered the same way.

* **Recovery actually happened (always gated)** — each faulted run's
  :class:`~repro.pram.faults.FaultLog` must show ``retry``, so a
  silently-not-firing fault cannot fake a pass.

Full runs write ``BENCH_faults.json`` at the repo root; ``--smoke``
runs write a record only when ``--output`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_p06_faults.py           # full
    PYTHONPATH=src python benchmarks/bench_p06_faults.py --smoke   # CI
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
from repro.pram.executor import BACKENDS
from repro.pram.faults import use_fault_log, use_faults

REPO_ROOT = Path(__file__).resolve().parent.parent

SEED = 1234
WORKERS = (1, 2, 4)
CHUNK_ITEMS = 512      # several walker chunks even at smoke sizes
N_RHS = 5

#: scenario name -> (fault plan, required FaultLog actions).  Both
#: strike attempt 0 and recover via plain re-dispatch.
SCENARIOS = {
    "kill": ("kill:chunk=1", ("retry",)),
    "hang": ("hang:chunk=0:seconds=30", ("retry",)),
}


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    g = G.grid2d(side, side)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((g.n, N_RHS))
    B -= B.mean(axis=0)
    return g, B


def set_execution(backend: str, workers: int) -> None:
    os.environ["REPRO_BACKEND"] = backend
    os.environ["REPRO_WORKERS"] = str(workers)


def run_once(g, B, opts, plan):
    """One full build+solve under ``plan``; returns everything gated."""
    t0 = time.perf_counter()
    with use_faults(plan), use_fault_log() as flog:
        with use_ledger() as ledger:
            solver = LaplacianSolver(g, options=opts, seed=SEED)
            X = solver.solve_many(B, eps=1e-6)
    elapsed = time.perf_counter() - t0
    actions = dict(flog.summary())
    for event_log in (solver.build_fault_log,):
        for action, count in event_log.summary().items():
            actions[action] = actions.get(action, 0) + count
    return X, (ledger.work, ledger.depth), actions, elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: smaller workload and worker "
                         "set; every gate still enforced")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--output", type=Path, default=None,
                    help="JSON record path (default: BENCH_faults.json "
                         "for full runs; smoke runs write only when "
                         "given)")
    args = ap.parse_args()
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_faults.json"

    n_target = args.n if args.n is not None else (400 if args.smoke
                                                  else 1024)
    workers = (2,) if args.smoke else WORKERS
    cpus = os.cpu_count() or 1

    g, B = make_workload(n_target)
    # retries=2 covers every scenario's recovery.
    opts = practical_options().with_(chunk_items=CHUNK_ITEMS, retries=2)
    print(f"workload: grid n={g.n} m={g.m} k={N_RHS} cpus={cpus} "
          f"chunk_items={CHUNK_ITEMS} workers={workers}")

    failures: list[str] = []
    runs: dict[str, dict] = {}

    set_execution("serial", 1)
    X0, ledger0, _, t0 = run_once(g, B, opts, None)
    print(f"baseline serial@1: {t0:.3f}s work={ledger0[0]:.3g} "
          f"depth={ledger0[1]:.3g}")

    for backend in BACKENDS:
        for w in workers:
            set_execution(backend, w)
            Xc, ledgerc, _, tc = run_once(g, B, opts, None)
            if not np.array_equal(Xc, X0) or ledgerc != ledger0:
                failures.append(f"clean run differs: {backend}@{w}")
            for name, (plan, wanted) in SCENARIOS.items():
                Xf, ledgerf, actions, tf = run_once(g, B, opts, plan)
                key = f"{name}:{backend}@{w}"
                bit_identical = bool(np.array_equal(Xf, X0))
                ledger_ok = ledgerf == ledger0
                fired = all(actions.get(a, 0) >= 1 for a in wanted)
                runs[key] = {
                    "seconds": tf, "clean_seconds": tc,
                    "bit_identical": bit_identical,
                    "ledger_invariant": ledger_ok,
                    "fault_log": actions,
                }
                status = "ok" if (bit_identical and ledger_ok
                                  and fired) else "FAIL"
                print(f"{key}: {tf:.3f}s (clean {tc:.3f}s) "
                      f"log={actions} -> {status}")
                if not bit_identical:
                    failures.append(f"{key}: solution differs")
                if not ledger_ok:
                    failures.append(
                        f"{key}: ledger {ledgerf} != {ledger0}")
                if not fired:
                    failures.append(
                        f"{key}: expected {wanted}, log={actions}")

    ok = not failures
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(f"fault invariance (bit-identical under injected faults): {ok}")

    result = {
        "bench": "p06_faults",
        "workload": {"n": g.n, "m": g.m, "k": N_RHS, "seed": SEED,
                     "chunk_items": CHUNK_ITEMS},
        "machine": {"cpus": cpus, "platform": platform.platform(),
                    "python": platform.python_version()},
        "smoke": bool(args.smoke),
        "scenarios": {name: spec[0] for name, spec in SCENARIOS.items()},
        "runs": runs,
        "all_gates_passed": ok,
        "failures": failures,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
