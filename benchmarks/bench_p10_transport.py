"""P10 — hardened transport: faults on the wire are invisible in results.

Measures the PR-10 tentpole end-to-end: the process backend's
framed, checksummed, authenticated transport with lease-based
scheduling, plus the serving layer's admission control.  Every gate is
**always on** (smoke mode shrinks the workload, never the checks):

* **Wire-fault invariance** — a blocked solve over the process
  backend must be **bit-identical** (solutions *and* ledger work/depth
  totals) to the serial baseline under every transport fault kind:
  ``drop`` / ``corrupt`` / ``delay`` frame faults, a worker
  ``disconnect``, a hard ``kill`` and a heartbeat-detected ``hang``
  mid-round — each recovered by retransmission or in-place worker
  replacement, never a pool teardown (the pool that starts a scenario
  must be the one that finishes it).
* **Payload-mode equivalence** — ``REPRO_TRANSPORT=tcp`` (chain and
  dispatch arrays shipped in-band as chunked frames) must be
  bit-identical to the default ``shm`` mode, publish **no**
  shared-memory segments, and survive a corrupt payload frame.
* **Admission control** — an offered-load burst above
  ``REPRO_SERVE_MAX_PENDING`` is shed with HTTP 503 + ``Retry-After``
  while every in-budget request completes; consecutive batch failures
  open the circuit breaker (fail-fast), and it re-closes after the
  fault clears.
* **Hygiene** — after teardown the segment registry is empty and every
  worker process is reaped.

Results land in ``BENCH_transport.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_p10_transport.py           # full
    PYTHONPATH=src python benchmarks/bench_p10_transport.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.config import practical_options, reset_env_caches
from repro.core.solver import LaplacianSolver
from repro.errors import ServiceOverloadedError
from repro.graphs import generators as G
from repro.pram import use_ledger
from repro.pram import executor
from repro.pram.executor import (
    live_segment_names,
    live_worker_pids,
    shutdown_worker_pools,
)
from repro.pram.faults import InjectedFault, use_faults
from repro.serve import SolverService

REPO_ROOT = Path(__file__).resolve().parent.parent

SEED = 1234
WORKERS = 2
N_RHS = 4
CHUNK_COLUMNS = 2
EPS = 1e-6

#: scenario name -> (fault plan, required FaultLog actions).  Frame
#: faults recover inside the channel (retransmit / NAK+resend); the
#: death scenarios must show an in-place replacement.  ``hang``
#: suspends the worker's heartbeats and freezes it — only heartbeat
#: monitoring can detect that, so it runs with a tight heartbeat.
SCENARIOS = {
    "drop": ("drop:frame=0", ("inject", "retransmit")),
    "corrupt": ("corrupt:frame=0", ("inject", "nak")),
    "delay": ("delay:seconds=0.01", ("inject",)),
    "disconnect": ("disconnect:worker=0",
                   ("worker_dead", "worker_replace", "retry")),
    "kill": ("kill:chunk=1:stage=transport",
             ("worker_dead", "worker_replace", "retry")),
    "hang": ("hang:chunk=0:stage=transport:seconds=30",
             ("worker_dead", "worker_replace")),
}

HANG_HEARTBEAT_S = 0.3


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    g = G.grid2d(side, side)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((g.n, N_RHS))
    B -= B.mean(axis=0)
    return g, B


def ledgered_solve(solver, B, plan=None):
    """One blocked solve under ledger + fault accounting.

    Fault events are read from the report: ``solve_many_report``
    installs its own :class:`FaultLog`, so wire-level recovery actions
    (retransmit/nak/worker_dead/...) land there, not in any ambient
    log.  Callers must warm the solver (one un-ledgered blocked solve)
    first so the lazily built CSR Laplacian does not charge the first
    ledger and no other.
    """
    t0 = time.perf_counter()
    with use_faults(plan):
        with use_ledger() as ledger:
            report = solver.solve_many_report(B, eps=EPS)
    elapsed = time.perf_counter() - t0
    return (report.x, (ledger.work, ledger.depth),
            dict(report.fault_log.summary()), elapsed)


def run_wire_scenarios(g, B, X0, ledger0, failures):
    """Gate (a): every transport fault kind is invisible in results."""
    opts = practical_options().with_(
        backend="process", ship_solves=True, workers=WORKERS,
        chunk_columns=CHUNK_COLUMNS, retries=2)
    solver = LaplacianSolver(g, options=opts, seed=SEED)
    solver.solve_many(B, eps=EPS)  # warm the lazy CSR Laplacian
    runs = {}

    shutdown_worker_pools()
    Xc, ledgerc, _, tc = ledgered_solve(solver, B)
    if not np.array_equal(Xc, X0) or ledgerc != ledger0:
        failures.append("clean process solve differs from serial")
    print(f"clean process@{WORKERS}: {tc:.3f}s")

    for name, (plan, wanted) in SCENARIOS.items():
        # Fresh pool per scenario: frame counters and worker ids
        # restart at 0, so frame=/worker= selectors are deterministic.
        shutdown_worker_pools()
        if name == "hang":
            os.environ["REPRO_HEARTBEAT_S"] = str(HANG_HEARTBEAT_S)
        pool = executor._worker_pool(WORKERS)
        Xf, ledgerf, actions, tf = ledgered_solve(solver, B, plan)
        teardowns = int(executor._worker_pools.get(WORKERS) is not pool)
        if name == "hang":
            del os.environ["REPRO_HEARTBEAT_S"]
        bit_identical = bool(np.array_equal(Xf, X0))
        ledger_ok = ledgerf == ledger0
        fired = all(actions.get(a, 0) >= 1 for a in wanted)
        no_teardown = teardowns == 0
        runs[name] = {"plan": plan, "seconds": tf,
                      "bit_identical": bit_identical,
                      "ledger_invariant": ledger_ok,
                      "pool_teardowns": teardowns,
                      "worker_replacements": pool.replacements,
                      "fault_log": actions}
        status = "ok" if (bit_identical and ledger_ok and fired
                          and no_teardown) else "FAIL"
        print(f"{name}: {tf:.3f}s log={actions} -> {status}")
        if not bit_identical:
            failures.append(f"{name}: solution differs from serial")
        if not ledger_ok:
            failures.append(f"{name}: ledger {ledgerf} != {ledger0}")
        if not fired:
            failures.append(f"{name}: expected {wanted}, log={actions}")
        if not no_teardown:
            failures.append(f"{name}: pool was torn down, not repaired")
    return runs


def run_tcp_mode(g, B, X0, ledger0, failures):
    """Gate (b): in-band payload shipping ≡ shared-memory publishing."""
    opts = practical_options().with_(
        backend="process", ship_solves=True, workers=WORKERS,
        chunk_columns=CHUNK_COLUMNS, retries=2)
    os.environ["REPRO_TRANSPORT"] = "tcp"
    reset_env_caches()
    # Built and warmed *in tcp mode*: the persistent chain payload
    # must never touch /dev/shm on this path.
    solver = LaplacianSolver(g, options=opts, seed=SEED)
    solver.solve_many(B, eps=EPS)  # warm the lazy CSR Laplacian
    runs = {}
    try:
        shutdown_worker_pools()
        Xt, ledgert, _, tt = ledgered_solve(solver, B)
        no_shm = live_segment_names() == ()
        runs["clean"] = {"seconds": tt,
                         "bit_identical": bool(np.array_equal(Xt, X0)),
                         "ledger_invariant": ledgert == ledger0,
                         "no_shm_segments": no_shm}
        print(f"tcp clean: {tt:.3f}s -> "
              f"{'ok' if all(runs['clean'].values()) else 'FAIL'}")
        if not np.array_equal(Xt, X0):
            failures.append("tcp mode differs from shm/serial")
        if ledgert != ledger0:
            failures.append(f"tcp ledger {ledgert} != {ledger0}")
        if not no_shm:
            failures.append(
                f"tcp mode leaked segments {live_segment_names()}")

        # A corrupt frame under the (large) in-band payload transfer.
        shutdown_worker_pools()
        Xf, ledgerf, actions, tf = ledgered_solve(
            solver, B, "corrupt:frame=1")
        ok = (np.array_equal(Xf, X0) and ledgerf == ledger0
              and actions.get("nak", 0) >= 1)
        runs["corrupt"] = {"seconds": tf, "bit_identical":
                           bool(np.array_equal(Xf, X0)),
                           "fault_log": actions}
        print(f"tcp corrupt: {tf:.3f}s log={actions} -> "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"tcp corrupt-frame recovery failed "
                            f"(log={actions})")
    finally:
        del os.environ["REPRO_TRANSPORT"]
        reset_env_caches()
        shutdown_worker_pools()
    return runs


def run_admission(g, failures, *, burst: int):
    """Gate (c): overload sheds 503s; the breaker opens and re-closes."""
    rng = np.random.default_rng(SEED)
    b = rng.standard_normal(g.n)
    b -= b.mean()
    stats = {}
    with SolverService(window_ms=500.0, max_pending=2, breaker_fails=2,
                       breaker_cooldown_s=0.5) as svc:
        key = svc.register(g, seed=SEED)
        host, port = svc.serve_http("127.0.0.1", 0)

        # -- offered-load burst above the admission budget ---------------
        in_budget = [svc.submit(key, b, eps=EPS) for _ in range(2)]
        deadline = time.monotonic() + 10.0
        while svc.stats()["admission"]["pending"] < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        payload = json.dumps({"key": key, "source": 0,
                              "sink": -1}).encode()
        codes, retry_afters = [], []
        for _ in range(burst):
            request = urllib.request.Request(
                f"http://{host}:{port}/solve", method="POST",
                data=payload,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=30) as r:
                    codes.append(r.status)
            except urllib.error.HTTPError as err:
                codes.append(err.code)
                retry_afters.append(err.headers.get("Retry-After"))
        shed_503 = sum(1 for c in codes if c == 503)
        completed = [f.result(timeout=300) for f in in_budget]
        in_budget_ok = all(np.isfinite(r.x).all() for r in completed)
        print(f"burst of {burst} over max_pending=2: "
              f"{shed_503} shed with 503, in-budget ok={in_budget_ok}")
        if shed_503 == 0:
            failures.append(f"no request shed with 503 (codes={codes})")
        if any(ra is None for ra in retry_afters):
            failures.append("503 without a Retry-After header")
        if not in_budget_ok:
            failures.append("an in-budget request failed under burst")

        # -- breaker: two dead batches open it; a clean probe closes it --
        with use_faults("kill:chunk=1:attempt=*:stage=serve,"
                        "kill:chunk=2:attempt=*:stage=serve"):
            batch_failures = 0
            for _ in range(2):
                try:
                    svc.solve(key, b, eps=EPS, timeout=300)
                except InjectedFault:
                    batch_failures += 1
        opened = svc.breaker.state == "open"
        failed_fast = False
        try:
            svc.solve(key, b, eps=EPS, timeout=300)
        except ServiceOverloadedError:
            failed_fast = True
        time.sleep(0.6)  # cooldown: the next request is the probe
        probe = svc.solve(key, b, eps=EPS, timeout=300)
        reclosed = bool(svc.breaker.state == "closed"
                        and np.isfinite(probe.x).all())
        print(f"breaker: {batch_failures} batch failures -> "
              f"open={opened}, fail-fast={failed_fast}, "
              f"re-closed={reclosed}")
        if batch_failures != 2:
            failures.append(
                f"expected 2 injected batch failures, got {batch_failures}")
        if not opened:
            failures.append("breaker did not open after failures")
        if not failed_fast:
            failures.append("open breaker did not fail fast")
        if not reclosed:
            failures.append("breaker did not re-close after the probe")
        stats = svc.stats()
    return {"burst_codes": codes, "shed_503": shed_503,
            "in_budget_completed": in_budget_ok,
            "breaker_opened": opened, "breaker_failed_fast": failed_fast,
            "breaker_reclosed": reclosed, "service_stats": stats}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: smaller workload; every gate "
                         "still enforced")
    ap.add_argument("--n", type=int, default=None)
    args = ap.parse_args()

    n_target = args.n if args.n is not None else (196 if args.smoke
                                                  else 1024)
    cpus = os.cpu_count() or 1
    os.environ["REPRO_WORKERS"] = str(WORKERS)
    os.environ["REPRO_TRANSPORT_ACK_S"] = "0.5"

    g, B = make_workload(n_target)
    print(f"workload: grid n={g.n} m={g.m} k={N_RHS} eps={EPS} "
          f"cpus={cpus} workers={WORKERS} "
          f"chunk_columns={CHUNK_COLUMNS}")

    failures: list[str] = []

    # Serial baseline: the reference solutions and ledger totals.
    opts0 = practical_options().with_(backend="serial",
                                      chunk_columns=CHUNK_COLUMNS)
    solver0 = LaplacianSolver(g, options=opts0, seed=SEED)
    solver0.solve_many(B, eps=EPS)  # warm the lazy CSR Laplacian
    X0, ledger0, _, t0 = ledgered_solve(solver0, B)
    print(f"baseline serial: {t0:.3f}s work={ledger0[0]:.3g} "
          f"depth={ledger0[1]:.3g}")

    wire_runs = run_wire_scenarios(g, B, X0, ledger0, failures)
    tcp_runs = run_tcp_mode(g, B, X0, ledger0, failures)
    admission = run_admission(g, failures,
                              burst=4 if args.smoke else 16)

    # -- gate (d): hygiene — everything reaped after teardown ---------------
    shutdown_worker_pools()
    workers_left = live_worker_pids()
    segments_left = live_segment_names()
    clean = workers_left == () and segments_left == ()
    print(f"teardown clean (no workers, no segments): {clean}")
    if workers_left:
        failures.append(f"unreaped worker pids {workers_left}")
    if segments_left:
        failures.append(f"leaked segments {segments_left}")

    ok = not failures
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(f"transport invariance (bit-identical under wire faults): {ok}")

    result = {
        "bench": "p10_transport",
        "workload": {"n": g.n, "m": g.m, "k": N_RHS, "eps": EPS,
                     "seed": SEED, "workers": WORKERS,
                     "chunk_columns": CHUNK_COLUMNS},
        "machine": {"cpus": cpus, "platform": platform.platform(),
                    "python": platform.python_version()},
        "smoke": bool(args.smoke),
        "baseline_seconds": t0,
        "ledger": {"work": ledger0[0], "depth": ledger0[1]},
        "wire_scenarios": wire_runs,
        "tcp_mode": tcp_runs,
        "admission": admission,
        "teardown_clean": clean,
        "all_gates_passed": ok,
        "failures": failures,
    }
    out_path = REPO_ROOT / "BENCH_transport.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
