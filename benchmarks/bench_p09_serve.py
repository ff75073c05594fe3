"""P9 — solver-as-a-service: resident chain cache + micro-batched solves.

Measures the PR-9 tentpole on an n≈2025 grid: a long-lived
:class:`repro.serve.SolverService` holding built chains resident in a
keyed LRU cache and fusing concurrent single-RHS requests into one
BLAS-3 ``solve_many`` block.

* **Batching equivalence (always gated)** — ``k = 16`` concurrent
  requests through the micro-batcher must land in **one** batch and
  scatter columns **bit-identical** to a direct ``solve_many`` on the
  same resident chain (the service's determinism contract,
  DESIGN.md §12).
* **Warm-cache hit rate (always gated)** — over a 3-graph keyset with
  an ample byte budget, steady-state requests must hit the resident
  chains: hit rate ≥ 0.9 (the misses are exactly the three cold
  builds).
* **Throughput (≥ 4 CPUs, full run only)** — one micro-batched window
  of ``k = 16`` requests must complete ≥ 2× faster than 16 sequential
  batch-of-one round trips.  On smaller hosts the measured ratio is
  recorded with ``"gate": "skipped (...)"`` so CI on multi-core
  runners still enforces it.
* **Latency vs offered load (recorded)** — per-request p50/p95/p99
  latency under open-loop arrival at a sweep of offered QPS, showing
  the window trade: batching amortises the blocked solve while adding
  at most one window of queueing delay.

Full runs write ``BENCH_serve.json`` at the repo root; ``--smoke``
runs write a record only when ``--output`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_p09_serve.py           # full
    PYTHONPATH=src python benchmarks/bench_p09_serve.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.config import practical_options
from repro.graphs import generators as G
from repro.serve import SolverService

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_SPEEDUP = 2.0          # batched vs sequential at k=16 (≥ 4 CPUs)
HIT_RATE_FLOOR = 0.9
K_RHS = 16
SEED = 1234
EPS = 1e-6
#: Gathering window for the equivalence/throughput phases: long enough
#: that submission jitter cannot split the batch.
BATCH_WINDOW_MS = 150.0


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    return G.grid2d(side, side)


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def run_equivalence(svc: SolverService, key: str,
                    B: np.ndarray) -> tuple[bool, bool]:
    """k concurrent submits: one batch, bit-identical to solve_many."""
    futures = [svc.submit(key, B[:, i], eps=EPS) for i in range(B.shape[1])]
    results = [f.result(timeout=300) for f in futures]
    one_batch = (len({r.batch_seq for r in results}) == 1
                 and all(r.batched_k == B.shape[1] for r in results))
    X = np.stack([r.x for r in results], axis=1)
    direct = svc.cache.get(key).solve_many(B, eps=EPS)
    return one_batch, bool(np.array_equal(X, direct))


def run_throughput(svc: SolverService, key: str, B: np.ndarray,
                   repeats: int) -> tuple[float, float]:
    """Best-of wall time: one batched window vs k sequential trips."""
    k = B.shape[1]

    def batched() -> float:
        t0 = time.perf_counter()
        futures = [svc.submit(key, B[:, i], eps=EPS) for i in range(k)]
        for f in futures:
            f.result(timeout=300)
        return time.perf_counter() - t0

    def sequential() -> float:
        t0 = time.perf_counter()
        for i in range(k):
            svc.solve(key, B[:, i], eps=EPS, timeout=300)
        return time.perf_counter() - t0

    t_batch = min(batched() for _ in range(repeats))
    t_seq = min(sequential() for _ in range(repeats))
    return t_batch, t_seq


def run_hit_rate(svc: SolverService, keys: list[str],
                 rhs: dict[str, np.ndarray], rounds: int) -> dict:
    """Round-robin steady-state load over the warm keyset."""
    before = svc.cache.stats()
    for r in range(rounds):
        futures = [svc.submit(key, rhs[key], eps=EPS) for key in keys]
        for f in futures:
            f.result(timeout=300)
    after = svc.cache.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    total = hits + misses
    return {"requests": rounds * len(keys), "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "builds": after["builds"], "evictions": after["evictions"]}


def run_latency_sweep(svc: SolverService, key: str, n: int,
                      qps_points: list[float], per_point: int) -> list:
    """Open-loop arrival: fixed inter-arrival gaps at each offered QPS.

    Requests fire on schedule (late completions do not slow the
    arrival clock — open loop); per-request latency is submit→result,
    stamped by a done-callback on each future.
    """
    rng = np.random.default_rng(SEED + 1)
    sweep = []
    for qps in qps_points:
        B = rng.standard_normal((n, per_point))
        B -= B.mean(axis=0)
        latencies = _timed_point(svc, key, B, gap=1.0 / qps)
        sweep.append({
            "offered_qps": qps,
            "requests": per_point,
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p95_ms": percentile(latencies, 95) * 1e3,
            "p99_ms": percentile(latencies, 99) * 1e3,
            "max_ms": max(latencies) * 1e3,
        })
        print(f"latency @ {qps:g} qps: "
              f"p50={sweep[-1]['p50_ms']:.1f}ms "
              f"p95={sweep[-1]['p95_ms']:.1f}ms "
              f"p99={sweep[-1]['p99_ms']:.1f}ms")
    return sweep


def _timed_point(svc: SolverService, key: str, B: np.ndarray,
                 gap: float) -> list[float]:
    """One open-loop point: per-request completion latency via callbacks."""
    per_point = B.shape[1]
    ends = [0.0] * per_point
    starts = [0.0] * per_point
    done = threading.Semaphore(0)

    def on_done(i: int):
        def cb(_fut) -> None:
            ends[i] = time.perf_counter()
            done.release()
        return cb

    t_begin = time.perf_counter()
    for i in range(per_point):
        target = t_begin + i * gap
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        starts[i] = time.perf_counter()
        fut = svc.submit(key, B[:, i], eps=EPS)
        fut.add_done_callback(on_done(i))
    for _ in range(per_point):
        if not done.acquire(timeout=300):
            raise TimeoutError("latency point stalled")
    return [ends[i] - starts[i] for i in range(per_point)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: gates equivalence/hit-rate, "
                         "reports throughput without enforcing it")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--output", type=Path, default=None,
                    help="JSON record path (default: BENCH_serve.json "
                         "for full runs; smoke runs write only when "
                         "given)")
    args = ap.parse_args()
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_serve.json"

    n_target = args.n if args.n is not None else (400 if args.smoke
                                                  else 2025)
    repeats = args.repeats if args.repeats is not None \
        else (1 if args.smoke else 3)
    cpus = os.cpu_count() or 1

    g = make_workload(n_target)
    rng = np.random.default_rng(SEED)
    B = rng.standard_normal((g.n, K_RHS))
    B -= B.mean(axis=0)
    opts = practical_options().with_(chunk_columns=4)
    print(f"workload: grid n={g.n} m={g.m} k={K_RHS} eps={EPS} "
          f"cpus={cpus} repeats={repeats}")

    with SolverService(options=opts,
                       window_ms=BATCH_WINDOW_MS) as svc:
        t0 = time.perf_counter()
        key = svc.register(g, seed=SEED)
        build_s = time.perf_counter() - t0
        chain_mb = svc.cache.get(key).chain.nbytes / 1e6
        print(f"registered key={key[:12]}… build={build_s:.3f}s "
              f"chain={chain_mb:.2f} MB")

        # -- gate 1: batching equivalence (always) ---------------------------
        one_batch, identical = run_equivalence(svc, key, B)
        print(f"micro-batched k={K_RHS} in one batch: {one_batch}")
        print(f"batched bit-identical to direct solve_many: {identical}")
        if not (one_batch and identical):
            print("FAIL: micro-batching is not equivalent to a direct "
                  "blocked solve", file=sys.stderr)
            return 1

        # -- gate 2: warm-cache hit rate over a keyset (always) --------------
        side = max(4, int(round(math.sqrt(g.n))))
        others = [G.torus2d(side, side), G.path(g.n)]
        keyset = [key] + [svc.register(og, seed=SEED) for og in others]
        rhs = {}
        for k_, og in zip(keyset, [g] + others):
            b = rng.standard_normal(og.n)
            rhs[k_] = b - b.mean()
        hit_stats = run_hit_rate(svc, keyset, rhs,
                                 rounds=3 if args.smoke else 10)
        print(f"warm keyset hit rate: {hit_stats['hit_rate']:.3f} "
              f"({hit_stats['hits']}/{hit_stats['hits'] + hit_stats['misses']})")
        if hit_stats["hit_rate"] < HIT_RATE_FLOOR:
            print(f"FAIL: warm-cache hit rate "
                  f"{hit_stats['hit_rate']:.3f} < {HIT_RATE_FLOOR}",
                  file=sys.stderr)
            return 1

        # -- throughput: batched window vs sequential round trips ------------
        t_batch, t_seq = run_throughput(svc, key, B, repeats)
        speedup = t_seq / t_batch if t_batch > 0 else float("inf")
        print(f"k={K_RHS}: batched window {t_batch:.3f}s, sequential "
              f"{t_seq:.3f}s → {speedup:.2f}x")
        if args.smoke or cpus < 4:
            gate = f"skipped ({'smoke' if args.smoke else f'cpus={cpus} < 4'})"
            ok = True
        else:
            gate = f"enforced (>= {FULL_SPEEDUP}x batched vs sequential " \
                   f"at k={K_RHS})"
            ok = speedup >= FULL_SPEEDUP
            if not ok:
                print(f"FAIL: batched speedup {speedup:.2f}x < "
                      f"{FULL_SPEEDUP}x at k={K_RHS}", file=sys.stderr)

        # -- latency vs offered QPS (recorded, not gated) --------------------
        qps_points = [25.0, 100.0] if args.smoke \
            else [25.0, 100.0, 400.0]
        per_point = 20 if args.smoke else 100
        sweep = run_latency_sweep(svc, key, g.n, qps_points, per_point)
        service_stats = svc.stats()

    result = {
        "bench": "p09_serve",
        "workload": {"n": g.n, "m": g.m, "k": K_RHS, "eps": EPS,
                     "seed": SEED, "window_ms": BATCH_WINDOW_MS},
        "machine": {"cpus": cpus, "platform": platform.platform(),
                    "python": platform.python_version()},
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "chain_build_seconds": build_s,
        "chain_payload_mb": chain_mb,
        "batched_one_window": one_batch,
        "batched_bit_identical": identical,
        "hit_rate": hit_stats,
        "batched_seconds": t_batch,
        "sequential_seconds": t_seq,
        "batched_speedup": speedup,
        "latency_vs_qps": sweep,
        "service_stats": service_stats,
        "speedup_gate": gate,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
