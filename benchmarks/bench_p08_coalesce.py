"""P8 — coalescing emitted parallel edges in the incremental walk store.

Each elimination round's terminal walks emit many *parallel* edges
(same endpoint pair, multiplicity 1 each).  The PR-8 coalescing path
merges them at insert time — packed-key ``np.unique`` per batch plus
folding into live slots — so the store holds one weighted group per
pair (weight ``Σwᵢ``, multiplicity ``k``).  The Laplacian is unchanged
(per-copy resistance ``k/Σwᵢ`` is the conditional mean of the
individual resistances, so Lemma 5.1's unbiasedness survives with
*smaller* variance); what shrinks is everything proportional to stored
slots: edge bytes, alias-plane build work, epoch-compaction traffic.

Always-on correctness gates:

* **lockstep Laplacian equality** — a raw store and a coalescing store
  fed identical emission batches agree on ``live_graph().coalesced()``
  after every round: structure and logical edge counts exactly,
  weights to float-association tolerance (1e-12 rtol; bitwise when a
  pair's copies all land in one batch — see DESIGN.md §11);
* **determinism matrix** — coalesce ON, fixed seed ⇒ bit-identical
  ``approx_schur`` and ledger totals across ``{1, 2, 4}`` workers.

Measured at the p01 workload (grid n≈2025, ε=0.5), coalesce ON vs OFF:

* **stored edges per round** (sum), **peak edge bytes**, and
  **alias slots built** over all rounds — the full run **gates**
  every reduction ``> 1×`` (they are typically ≥ 5×);
* **end-to-end** ``approx_schur`` wall-clock, coalesce OFF vs ON
  (informational).

Scale probe (full mode): a preferential-attachment power-law graph at
``n = 10⁵`` (``--scale-n``), coalesce ON vs OFF, recording wall-clock,
``peak_edge_bytes``, and per-phase peak RSS — the regime where the
uncoalesced store's accumulated parallels dominate memory.

Full runs write ``BENCH_coalesce.json`` at the repo root; ``--smoke``
runs write a record only when ``--output`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_p08_coalesce.py           # full
    PYTHONPATH=src python benchmarks/bench_p08_coalesce.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import default_options
from repro.core.boundedness import naive_split
from repro.core.schur import approx_schur, schur_alpha_inverse
from repro.core.terminal_walks import terminal_walks
from repro.graphs import generators as G
from repro.pram import use_ledger
from repro.sampling.inc_csr import IncrementalWalkCSR

REPO_ROOT = Path(__file__).resolve().parent.parent

ULP_RTOL = 1e-12


def peak_rss_bytes() -> int:
    """Lifetime peak RSS of this process (monotone; Linux: KiB)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) * (1 if sys.platform == "darwin" else 1024)


def make_workload(n_target: int, seed: int):
    """The p01 workload: a ~n-vertex grid with |C| = n/3 terminals."""
    side = max(4, int(round(math.sqrt(n_target))))
    g = G.grid2d(side, side)
    rng = np.random.default_rng(seed)
    C = np.sort(rng.choice(g.n, size=max(4, g.n // 3), replace=False))
    return g, C


def lockstep_gate(seed: int) -> dict:
    """Raw vs coalescing store on identical emission batches: same
    Laplacian after every round (structure exact, weights to ulps)."""
    g = naive_split(G.grid2d(11, 11), 0.25)
    raw = IncrementalWalkCSR(g)
    co = IncrementalWalkCSR(g)
    rng = np.random.default_rng(seed)
    work = g
    remaining = np.arange(g.n)
    rounds = 0
    ok = True
    max_rel = 0.0
    for _ in range(5):
        if remaining.size <= 4:
            break
        F = np.unique(rng.choice(remaining,
                                 size=max(1, remaining.size // 5),
                                 replace=False))
        terminals = np.setdiff1d(remaining, F)
        nxt, stats = terminal_walks(work, terminals, seed=rng,
                                    return_stats=True)
        p = stats.passthrough_stored
        mult = None if nxt.mult is None else nxt.mult[p:]
        raw.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:], mult)
        co.advance(F, nxt.u[p:], nxt.v[p:], nxt.w[p:], mult,
                   coalesce=True)
        ca = raw.live_graph().coalesced()
        cb = co.live_graph().coalesced()
        same = (np.array_equal(ca.u, cb.u) and np.array_equal(ca.v, cb.v)
                and np.allclose(ca.w, cb.w, rtol=ULP_RTOL, atol=0.0)
                and ca.m_logical == cb.m_logical)
        if same and ca.m:
            max_rel = max(max_rel, float(np.max(
                np.abs(ca.w - cb.w) / np.abs(ca.w))))
        ok = ok and same
        work = nxt
        remaining = terminals
        rounds += 1
    return {"ok": bool(ok and rounds >= 3), "rounds": rounds,
            "max_weight_rel_err": max_rel,
            "emitted_slots_saved": int(co.emitted_slots_saved)}


def determinism_gate(seed: int) -> dict:
    """Coalesce ON: bit-identical approx_schur + ledger totals across
    worker counts {1, 2, 4}."""
    g = G.grid2d(14, 14)
    C = np.arange(0, g.n, 3)
    opts = default_options().with_(chunk_items=512,
                                   coalesce_emitted=True)

    def run(workers: int):
        with use_ledger() as ledger:
            got = approx_schur(g, C, eps=0.5, seed=seed,
                               options=opts.with_(workers=workers))
        return got, ledger.work, ledger.depth

    base, *others = [run(workers) for workers in (1, 2, 4)]
    return {"ok": all(got[0] == base[0] and got[1:] == base[1:]
                      for got in others)}


def reduction_metrics(g, C, eps: float, seed: int) -> dict:
    """Store metrics at p01, coalesce OFF vs ON."""
    out: dict = {}
    for label, flag in (("off", False), ("on", True)):
        opts = default_options().with_(coalesce_emitted=flag)
        report = approx_schur(g, C, eps=eps, seed=seed, options=opts,
                              return_report=True)
        out[label] = {
            "stored_edges_total": int(sum(report.stored_edges_per_round)),
            "peak_edge_bytes": int(report.peak_edge_bytes),
            "alias_built_slots": int(report.alias_built_slots),
            "emitted_slots_saved": int(report.emitted_slots_saved),
            "rounds": int(report.rounds),
        }
    out["reductions"] = {
        key: (out["off"][key] / out["on"][key]) if out["on"][key] else
        float("inf")
        for key in ("stored_edges_total", "peak_edge_bytes",
                    "alias_built_slots")}
    return out


def end_to_end(g, C, eps: float, seed: int, repeats: int) -> dict:
    """approx_schur wall-clock, coalesce OFF vs ON (informational)."""
    modes = {
        "off": default_options().with_(coalesce_emitted=False),
        "on": default_options().with_(coalesce_emitted=True),
    }
    out: dict = {}
    # Interleave the repeats so neither mode systematically runs with
    # colder caches or under different transient load.
    best: dict = {name: None for name in modes}
    reports: dict = {}
    for _ in range(repeats):
        for name, opts in modes.items():
            t0 = time.perf_counter()
            reports[name] = approx_schur(g, C, eps=eps, seed=seed,
                                         options=opts, return_report=True)
            elapsed = time.perf_counter() - t0
            best[name] = elapsed if best[name] is None \
                else min(best[name], elapsed)
    for name in modes:
        out[name] = {"seconds": best[name],
                     "rounds": int(reports[name].rounds),
                     "total_walkers": int(reports[name].total_walkers)}
    out["speedup"] = out["off"]["seconds"] / out["on"]["seconds"]
    return out


def scale_probe(n: int, seed: int) -> dict:
    """Power-law scale run: approx_schur, coalesce OFF vs ON.

    ``preferential_attachment`` concentrates degree on early hubs, so
    walks revisit the same terminal pairs and the uncoalesced store
    accumulates parallels — the regime the coalescing path targets.
    ``split=False``: at this scale the α-split's multiplicities stay
    implicit and the probe isolates store behaviour, not splitting.
    ru_maxrss is a lifetime high-water mark, so the OFF phase runs
    first — its reading is uninflated; ON's is an upper bound.
    """
    g = G.preferential_attachment(n, 3, seed=seed)
    rng = np.random.default_rng(seed)
    C = np.sort(rng.choice(g.n, size=max(4, g.n // 3), replace=False))
    out: dict = {"n": int(g.n), "m": int(g.m), "C_size": int(C.size)}
    for label, flag in (("off", False), ("on", True)):
        opts = default_options().with_(coalesce_emitted=flag)
        rss0 = peak_rss_bytes()
        t0 = time.perf_counter()
        report = approx_schur(g, C, eps=0.5, seed=seed, options=opts,
                              return_report=True)
        out[label] = {
            "seconds": time.perf_counter() - t0,
            "peak_edge_bytes": int(report.peak_edge_bytes),
            "stored_edges_total": int(sum(report.stored_edges_per_round)),
            "rounds": int(report.rounds),
            "rss_before_bytes": rss0,
            "rss_after_bytes": peak_rss_bytes(),
        }
    out["peak_edge_bytes_reduction"] = (
        out["off"]["peak_edge_bytes"] / out["on"]["peak_edge_bytes"]
        if out["on"]["peak_edge_bytes"] else float("inf"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2025,
                    help="target vertex count for p01 (default 2025)")
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repetitions per mode (best is kept)")
    ap.add_argument("--scale-n", type=int, default=100_000,
                    help="scale-probe vertex count (default 1e5)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run: n=400, scale probe n=3000, one "
                         "repeat, wall-clock and reduction gates "
                         "informational")
    ap.add_argument("--output", type=Path, default=None,
                    help="JSON record path (default: "
                         "BENCH_coalesce.json for full runs; smoke runs "
                         "write only when given)")
    args = ap.parse_args(argv)
    if args.output is None and not args.smoke:
        args.output = REPO_ROOT / "BENCH_coalesce.json"

    args.repeats = max(1, args.repeats)
    if args.smoke:
        args.n = min(args.n, 400)
        args.scale_n = min(args.scale_n, 3000)
        args.repeats = 1

    print(f"cpu_count={os.cpu_count()}")
    g, C = make_workload(args.n, args.seed)
    alpha_inv = schur_alpha_inverse(g.n, args.eps)
    print(f"workload: grid n={g.n} m={g.m} |C|={C.size} "
          f"eps={args.eps} alpha_inv={alpha_inv}")

    lockstep = lockstep_gate(args.seed)
    determinism = determinism_gate(args.seed)
    reductions = reduction_metrics(g, C, args.eps, args.seed)
    e2e = end_to_end(g, C, args.eps, args.seed, args.repeats)
    scale = scale_probe(args.scale_n, args.seed)

    gates_ok = lockstep["ok"] and determinism["ok"]
    # Reduction ratios are gated on the full run only — same
    # convention as the p05 smoke.
    reductions_ok = args.smoke or all(
        r > 1.0 for r in reductions["reductions"].values())
    ok = gates_ok and reductions_ok

    result = {
        "benchmark": "p08_coalesce",
        "mode": "smoke" if args.smoke else "full",
        "workload": {"kind": "grid2d", "n": g.n, "m": g.m,
                     "C_size": int(C.size), "eps": args.eps,
                     "alpha_inverse": alpha_inv, "seed": args.seed},
        "lockstep_laplacian": lockstep,
        "determinism": determinism,
        "reduction_metrics": reductions,
        "end_to_end": e2e,
        "scale_probe": scale,
        "targets": {"reductions": "> 1x each"},
        "pass": ok,
        "platform": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "machine": platform.machine(),
                     "cpu_count": os.cpu_count()},
    }
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")

    red = reductions["reductions"]
    print(f"lockstep Laplacian: {'ok' if lockstep['ok'] else 'FAIL'} "
          f"(max weight rel err {lockstep['max_weight_rel_err']:.2e})")
    print(f"determinism matrix: {determinism}")
    print(f"reductions at p01: stored-edges {red['stored_edges_total']:.1f}x  "
          f"peak-bytes {red['peak_edge_bytes']:.1f}x  "
          f"alias-builds {red['alias_built_slots']:.1f}x")
    print(f"end-to-end: coalesce off {e2e['off']['seconds']:.3f}s  "
          f"on {e2e['on']['seconds']:.3f}s  "
          f"-> {e2e['speedup']:.2f}x (informational)")
    print(f"scale probe (power-law n={scale['n']}): "
          f"off {scale['off']['seconds']:.1f}s "
          f"{scale['off']['peak_edge_bytes'] / 1e6:.1f} MB edges  "
          f"on {scale['on']['seconds']:.1f}s "
          f"{scale['on']['peak_edge_bytes'] / 1e6:.1f} MB edges  "
          f"-> {scale['peak_edge_bytes_reduction']:.1f}x peak-bytes")
    print(f"{'PASS' if ok else 'FAIL'} -> "
          f"{args.output or 'no record (smoke run without --output)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
