"""P2 — blocked multi-RHS solves: one factorization, k right-hand sides.

Measures the Section-6 JL leverage-estimation phase
(``leverage_overestimates``) on a ~n-vertex grid, comparing the blocked
path (all ``q ≈ 8 ln n + 4`` sketch solves issued as **one** multi-RHS
solve, BLAS-3-style sparse×dense kernels throughout) against
``blocked=False`` — the seed-faithful loop of ``q`` sequential
single-vector solves.  Both modes draw identical randomness (the sign
matrix is generated row-by-row either way), so the resulting ``τ̂``
vectors must agree to solver tolerance.

Also records the ``keep_graphs=False`` memory satellite: retained
per-level graph bytes and tracemalloc peak of ``block_cholesky`` with
and without streaming mode.

Reported:

* wall-clock seconds per mode (best of ``--repeats``) and speedup,
* max relative deviation between blocked and looped ``τ̂``,
* chain graph bytes retained + allocation peak for
  ``keep_graphs=True`` vs ``False``,
* the preconditioner apply ``W`` per block width k ∈ {1, 2, 4, 8, 16,
  64} under both of its kernels — SuperLU solves and the level-by-level
  wavefronts — on ``grid2d(32, 32)`` (and ``grid2d(100, 100)`` in the
  full run), with the first width where the wavefronts win.  This is
  the measurement ``K_WAVE`` rests on.

Acceptance targets (ISSUE 2): ≥ 3× JL-phase speedup at n≈2000 with
agreement ≤ ``AGREE_RTOL``.  The smoke run gates only the
deterministic checks (agreement, streaming-mode memory, bitwise
agreement of the two ``W`` kernels at every width); single-repeat
wall-clock on a shared CI runner is reported but not enforced.
Full runs write ``BENCH_blocked.json`` at the repo root; ``--smoke``
runs write a record only when ``--output`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_p02_blocked.py           # full
    PYTHONPATH=src python benchmarks/bench_p02_blocked.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.config import practical_options
from repro.core.apply_cholesky import K_WAVE
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split
from repro.core.lev_est import leverage_overestimates
from repro.core.solver import LaplacianSolver
from repro.graphs import generators as G

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_SPEEDUP = 3.0
SMOKE_SPEEDUP = 1.3          # informational in smoke mode
AGREE_RTOL = 0.1             # blocked vs looped tau_hat agreement
W_APPLY_WIDTHS = (1, 2, 4, 8, 16, 64)


def make_workload(n_target: int):
    side = max(4, int(round(math.sqrt(n_target))))
    return G.grid2d(side, side)


def run_mode(g, K, seed, opts, blocked: bool, repeats: int):
    best, tau = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        tau = leverage_overestimates(g, K=K, seed=seed, options=opts,
                                     blocked=blocked)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, tau


def chain_graph_bytes(chain) -> int:
    """Bytes held by the chain's retained per-level graph edge arrays."""
    if chain.graphs is None:
        return 0
    total = 0
    for g in chain.graphs:
        total += g.u.nbytes + g.v.nbytes + g.w.nbytes
        if g.mult is not None:
            total += g.mult.nbytes
    return total


def measure_keep_graphs(g, opts, seed):
    """Retained bytes + allocation peak with and without streaming."""
    H = naive_split(g, opts.alpha(g.n))
    out = {}
    for keep in (True, False):
        tracemalloc.start()
        chain = block_cholesky(H, opts, seed=seed, keep_graphs=keep)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        key = "keep_graphs" if keep else "streaming"
        out[key] = {
            "retained_graph_bytes": chain_graph_bytes(chain),
            "tracemalloc_peak_bytes": int(peak),
            "chain_depth": chain.d,
            "stored_edges_total": chain.total_stored_edges(),
        }
    return out


def measure_w_apply(side: int, seed: int, repeats: int) -> dict:
    """Both kernels of ``W`` at every width on ``grid2d(side, side)``:
    best-of-``repeats`` milliseconds per kernel, and whether the two
    results agree bitwise."""
    solver = LaplacianSolver(G.grid2d(side, side), seed=seed)
    W = solver.preconditioner
    N = W.chain.A.shape[0]
    rng = np.random.default_rng(seed)
    widths, agree = {}, True
    for k in W_APPLY_WIDTHS:
        r = np.zeros((N, k))
        r[W.chain.u_slot] = rng.standard_normal((W.n, k))
        out, ms = {}, {}
        for name, kernel in (("superlu", W._superlu),
                             ("wavefront", W._wavefronts)):
            ms[name] = math.inf
            for _ in range(repeats):
                buf = r.copy()      # the wavefronts work in place
                t0 = time.perf_counter()
                out[name] = kernel(buf)
                ms[name] = min(ms[name],
                               1e3 * (time.perf_counter() - t0))
        agree &= bool(np.array_equal(out["superlu"], out["wavefront"]))
        widths[str(k)] = {"superlu_ms": ms["superlu"],
                          "wavefront_ms": ms["wavefront"]}
    wins = [k for k, w in zip(W_APPLY_WIDTHS, widths.values())
            if w["wavefront_ms"] < w["superlu_ms"]]
    return {"n": W.n, "levels": W.chain.d, "slots": N,
            "repeats": repeats, "widths": widths,
            "first_wavefront_win_k": wins[0] if wins else None,
            "bitwise_agree": agree}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000,
                    help="target vertex count (default 2000)")
    ap.add_argument("--K", type=float, default=4.0,
                    help="uniform sparsification factor for the JL phase")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=2,
                    help="timing repetitions per mode (best is kept)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: n=400, one repeat, wall-clock "
                         "informational")
    ap.add_argument("--output", type=Path, default=None,
                    help="JSON record path (default: BENCH_blocked.json for "
                         "full runs; smoke runs write only when given)")
    args = ap.parse_args(argv)
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_blocked.json"

    args.repeats = max(1, args.repeats)
    if args.smoke:
        args.n = min(args.n, 400)
        args.repeats = 1
    speed_target = SMOKE_SPEEDUP if args.smoke else FULL_SPEEDUP

    g = make_workload(args.n)
    opts = practical_options(seed=args.seed)
    q = int(math.ceil(8.0 * math.log(max(g.n, 3)))) + 4
    print(f"workload: grid n={g.n} m={g.m} K={args.K} "
          f"jl_rows={q} seed={args.seed}")

    blocked_s, tau_b = run_mode(g, args.K, args.seed, opts,
                                blocked=True, repeats=args.repeats)
    looped_s, tau_l = run_mode(g, args.K, args.seed, opts,
                               blocked=False, repeats=args.repeats)

    speedup = looped_s / blocked_s
    agree = float(np.max(np.abs(tau_b - tau_l)
                         / np.maximum(tau_l, 1e-12)))
    mem = measure_keep_graphs(g, opts, args.seed)
    streamed_ok = (mem["streaming"]["retained_graph_bytes"] == 0
                   and mem["keep_graphs"]["retained_graph_bytes"] > 0)
    w_apply = {f"grid{side}": measure_w_apply(side, args.seed,
                                              3 if args.smoke else 20)
               for side in ((32,) if args.smoke else (32, 100))}
    kernels_agree = all(v["bitwise_agree"] for v in w_apply.values())

    # Smoke (CI) gates only the deterministic checks: tau agreement,
    # the streaming-mode memory drop and the W kernels' bitwise
    # agreement.  The full run also enforces the >= 3x JL-phase speedup
    # target.
    ok = agree <= AGREE_RTOL and streamed_ok and kernels_agree \
        and (args.smoke or speedup >= speed_target)

    result = {
        "benchmark": "p02_blocked",
        "mode": "smoke" if args.smoke else "full",
        "workload": {"kind": "grid2d", "n": g.n, "m": g.m,
                     "K": args.K, "jl_rows": q, "seed": args.seed},
        "blocked_seconds": blocked_s,
        "looped_seconds": looped_s,
        "speedup": speedup,
        "tau_max_rel_deviation": agree,
        "keep_graphs_memory": mem,
        "w_apply": {"k_wave": K_WAVE, **w_apply},
        "targets": {"speedup": speed_target, "agree_rtol": AGREE_RTOL},
        "pass": ok,
        "platform": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "machine": platform.machine()},
    }
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"blocked: {blocked_s:.3f}s   looped: {looped_s:.3f}s   "
          f"speedup: {speedup:.2f}x "
          f"({'informational in smoke' if args.smoke else f'target >= {speed_target}x'})")
    print(f"tau agreement: max rel deviation {agree:.2e} "
          f"(target <= {AGREE_RTOL})")
    kg, st = mem["keep_graphs"], mem["streaming"]
    print(f"keep_graphs=True:  retained {kg['retained_graph_bytes'] / 1e6:.2f} MB  "
          f"peak {kg['tracemalloc_peak_bytes'] / 1e6:.2f} MB")
    print(f"keep_graphs=False: retained {st['retained_graph_bytes'] / 1e6:.2f} MB  "
          f"peak {st['tracemalloc_peak_bytes'] / 1e6:.2f} MB")
    for name, v in w_apply.items():
        row = "  ".join(
            f"k={k}: {w['superlu_ms']:.2f}/{w['wavefront_ms']:.2f}"
            for k, w in v["widths"].items())
        print(f"W apply {name} (d={v['levels']}) SuperLU/wavefront ms: "
              f"{row}")
        print(f"  first wavefront win at k={v['first_wavefront_win_k']} "
              f"(K_WAVE={K_WAVE}); kernels agree bitwise: "
              f"{v['bitwise_agree']}")
    print(f"{'PASS' if ok else 'FAIL'} -> "
          f"{args.output or 'no record (smoke run without --output)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
