"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``gen``    — generate a named workload graph and save it as .npz
* ``info``   — structural summary of a saved graph
* ``solve``  — solve ``L x = b`` for a saved graph (b from .npy or an
  s/t unit demand), printing solve diagnostics
* ``bench``  — quick work/depth ledger report for one build+solve
* ``serve``  — long-lived HTTP solver service: resident chain cache +
  micro-batched solves (DESIGN.md §12)
* ``client`` — talk to a running ``serve`` instance (register graphs,
  solve, stats)

The CLI is a thin veneer over the library; every command is also
callable in-process (`repro.cli.main([...])`) which is how the test
suite drives it.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main"]


def _cmd_gen(args) -> int:
    from repro.graphs import generators as G
    from repro.graphs.io import save_npz

    makers = {
        "grid": lambda: G.grid2d(args.size, args.size),
        "torus": lambda: G.torus2d(args.size, args.size),
        "expander": lambda: G.random_regular(args.size, 4,
                                             seed=args.seed),
        "er": lambda: G.erdos_renyi(args.size, 8.0 / max(args.size, 8),
                                    seed=args.seed),
        "barbell": lambda: G.barbell(args.size, 3),
        "path": lambda: G.path(args.size),
    }
    if args.family not in makers:
        print(f"unknown family {args.family!r}; "
              f"choose from {sorted(makers)}", file=sys.stderr)
        return 2
    g = makers[args.family]()
    save_npz(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return 0


def _cmd_info(args) -> int:
    from repro.graphs.io import load_npz
    from repro.graphs.validation import connected_components

    g = load_npz(args.graph)
    deg = g.multi_degrees()
    comps = int(connected_components(g).max()) + 1
    print(f"n={g.n} m={g.m} components={comps}")
    print(f"degree: min={deg.min()} max={deg.max()} "
          f"mean={deg.mean():.2f}")
    if g.m:
        print(f"weights: min={g.w.min():.4g} max={g.w.max():.4g} "
              f"total={g.total_weight():.4g}")
    else:
        print("weights: none")
    return 0


def _cmd_solve(args) -> int:
    from repro import LaplacianSolver, default_options
    from repro.graphs.io import load_npz

    g = load_npz(args.graph)
    if args.rhs:
        b = np.load(args.rhs)
    else:
        b = np.zeros(g.n)
        b[args.source], b[args.sink] = 1.0, -1.0
    t0 = time.time()
    options = default_options()
    if args.workers is not None:
        options = options.with_(workers=args.workers)
    if args.backend is not None:
        options = options.with_(backend=args.backend)
    if args.coalesce is not None:
        options = options.with_(coalesce_emitted=args.coalesce)
    solver = LaplacianSolver(g, options=options, seed=args.seed)
    t_build = time.time() - t0
    t0 = time.time()
    report = solver.solve_report(b, eps=args.eps, method=args.method)
    t_solve = time.time() - t0
    A = solver.chain.A
    nb = solver.chain.base.size
    print(f"build: {t_build:.3f}s (d={report.chain_depth} levels, "
          f"{report.multiedges} multi-edges)")
    print(f"chain payload: {solver.chain.nbytes / 1e6:.2f} MB "
          f"(sweep matrix {A.shape[0]}x{A.shape[0]} with {A.nnz} "
          f"entries, base Cholesky factor {nb}x{nb})")
    print(f"solve: {t_solve:.3f}s ({report.iterations} iterations, "
          f"method={report.method}, residual="
          f"{report.residual_2norm:.3e})")
    if args.output:
        np.save(args.output, report.x)
        print(f"wrote {args.output}")
    return 0


def _cmd_bench(args) -> int:
    from repro import LaplacianSolver, default_options, use_ledger
    from repro.graphs.io import load_npz

    g = load_npz(args.graph)
    b = np.zeros(g.n)
    b[0], b[-1] = 1.0, -1.0
    with use_ledger() as ledger:
        solver = LaplacianSolver(g, options=default_options(),
                                 seed=args.seed)
        solver.solve(b, eps=args.eps)
    print(ledger.report())
    return 0


def _cmd_serve(args) -> int:
    import signal

    from repro import default_options
    from repro.graphs.io import load_npz
    from repro.serve.service import SolverService

    g = load_npz(args.graph)
    options = default_options()
    if args.backend is not None:
        options = options.with_(backend=args.backend)
    service = SolverService(options=options,
                            window_ms=args.window_ms,
                            max_batch=args.max_batch,
                            cache_bytes=args.cache_bytes,
                            max_pending=args.max_pending)
    service.start()
    # SIGTERM should tear down like Ctrl-C: close the service instead
    # of dying mid-batch.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        key = service.register(g, seed=args.seed)
        host, port = service.serve_http(args.host, args.port)
        print(f"serving http://{host}:{port} key={key} "
              f"n={g.n} m={g.m}", flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def _cmd_client(args) -> int:
    import json

    from repro.serve.http import http_request

    base = args.url.rstrip("/")
    if args.stats:
        code, payload = http_request(base + "/stats")
        print(json.dumps(payload, indent=2))
        return 0 if code == 200 else 1
    if args.register:
        from repro.graphs.io import load_npz
        g = load_npz(args.register)
        code, payload = http_request(
            base + "/graphs", method="POST",
            payload={"n": g.n, "u": g.u.tolist(), "v": g.v.tolist(),
                     "w": g.w.tolist(),
                     "mult": g.mult.tolist()
                     if g.mult is not None else None,
                     "seed": args.seed})
        if code != 200:
            print(f"error: {payload.get('error', code)}",
                  file=sys.stderr)
            return 1
        print(f"registered key={payload['key']} n={payload['n']} "
              f"m={payload['m']} "
              f"chain_nbytes={payload['chain_nbytes']}")
        return 0
    if not args.key:
        print("client needs --key (or --stats / --register)",
              file=sys.stderr)
        return 2
    body = {"key": args.key, "eps": args.eps, "method": args.method}
    if args.rhs:
        body["b"] = np.load(args.rhs).tolist()
    else:
        body["source"] = args.source
        body["sink"] = args.sink
    code, payload = http_request(base + "/solve", method="POST",
                                 payload=body)
    if code != 200:
        print(f"error: {payload.get('error', code)}", file=sys.stderr)
        return 1
    print(f"solved: status={payload['status']} "
          f"iterations={payload['iterations']} "
          f"residual={payload['residual_2norm']:.3e} "
          f"batched_k={payload['batched_k']}")
    if args.output:
        np.save(args.output, np.asarray(payload["x"]))
        print(f"wrote {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    from repro.core.solver import DEFAULT_METHOD, METHODS
    from repro.pram.executor import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel Laplacian solver (Sachdeva-Zhao SPAA'23)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a workload graph")
    p.add_argument("family")
    p.add_argument("output")
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("info", help="summarise a saved graph")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("solve", help="solve L x = b")
    p.add_argument("graph")
    p.add_argument("--rhs", help=".npy right-hand side")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--sink", type=int, default=-1)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--method", choices=list(METHODS),
                   default=DEFAULT_METHOD,
                   help="outer loop around the Cholesky chain; both stop "
                        "on the chain's own error certificate (default: "
                        f"{DEFAULT_METHOD}; richardson is Algorithm 5, "
                        "the Theorem 3.8 reference)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the parallel phases "
                        "(default: REPRO_WORKERS env var / CPU count; "
                        "results are worker-count independent)")
    p.add_argument("--backend", choices=list(BACKENDS), default=None,
                   help="execution backend (default: REPRO_BACKEND env "
                        "var / thread); results are backend independent")
    p.add_argument("--coalesce", default=None,
                   action=argparse.BooleanOptionalAction,
                   help="coalesce each elimination level's emitted "
                        "parallel edges in the incremental walk store "
                        "(default: REPRO_COALESCE env var / off); same "
                        "Laplacians and smaller levels — results are "
                        "deterministic per (seed, coalesce) pair")
    p.add_argument("--output", help="save x as .npy")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="work/depth ledger for one solve")
    p.add_argument("graph")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("serve",
                       help="HTTP solver service (resident chains + "
                            "micro-batched solves)")
    p.add_argument("graph", help="initial .npz graph to register")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="TCP port (0 = ephemeral; the bound port is "
                        "printed on startup)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window-ms", type=float, default=None,
                   help="micro-batch gathering window in ms (default: "
                        "REPRO_SERVE_WINDOW_MS env var / 2.0)")
    p.add_argument("--max-batch", type=int, default=None,
                   help="flush a batch early at this many requests "
                        "(default: REPRO_SERVE_MAX_BATCH env var / 64)")
    p.add_argument("--cache-bytes", type=int, default=None,
                   help="resident chain byte budget (default: "
                        "REPRO_SERVE_CACHE_BYTES env var / 256 MiB)")
    p.add_argument("--max-pending", type=int, default=None,
                   help="admission budget: pending solve requests "
                        "beyond this are shed with 503 + Retry-After "
                        "(default: REPRO_SERVE_MAX_PENDING env var / "
                        "256; 0 disables shedding)")
    p.add_argument("--backend", choices=list(BACKENDS), default=None)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("client",
                       help="talk to a running `repro serve` instance")
    p.add_argument("url", help="service base URL, e.g. "
                               "http://127.0.0.1:8000")
    p.add_argument("--stats", action="store_true",
                   help="print the service stats snapshot")
    p.add_argument("--register", metavar="GRAPH.npz",
                   help="register (and warm-build) a graph")
    p.add_argument("--key", help="graph cache key to solve against")
    p.add_argument("--rhs", help=".npy right-hand side")
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--sink", type=int, default=-1)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--method", choices=list(METHODS),
                   default=DEFAULT_METHOD,
                   help=f"outer loop (default: {DEFAULT_METHOD})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="save x as .npy")
    p.set_defaults(fn=_cmd_client)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
