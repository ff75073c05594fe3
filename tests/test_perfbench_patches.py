"""The benchmark's trace patch sites still resolve.

``perfbench/tracing.py`` wraps call sites under ``src/`` from outside
(its ``PATCHES`` table), so renaming one of them breaks
``perfbench/run.py --trace 1`` only when the benchmark runs.  This test
installs the tracer, checks that every site now holds a wrapper,
uninstalls it, and checks that the originals are back.  A second test
runs one serve batch under the tracer ``perfbench/run.py`` builds, so
its hooks and request-id lambdas still fit the wrapped signatures.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("perfbench_tracing", TRACING)


def _resolve(module_name: str, path: str):
    """The object a ``PATCHES`` entry names, looked up like the tracer
    does (class attributes from the class ``__dict__``)."""
    importlib.import_module(module_name)
    owner = sys.modules[module_name]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_every_patch_site_resolves_and_is_restored():
    tracing = _load_tracing()
    sites = [(module, path) for module, path, _ in tracing.PATCHES]
    originals = {site: _resolve(*site) for site in sites}
    tracer = tracing.Tracer().install()
    try:
        for site, orig in originals.items():
            assert _resolve(*site) is not orig, f"{site} was not wrapped"
    finally:
        tracer.uninstall()
    for site, orig in originals.items():
        assert _resolve(*site) is orig, f"{site} was not restored"


def test_traced_serve_batch_carries_its_batch_id(monkeypatch):
    from repro.graphs import generators as G
    from repro.serve import SolverService

    # run.py's make_tracer imports its sibling module as ``tracing``.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load("perfbench_run", PERFBENCH / "run.py")
    tracer, _ = run.make_tracer()
    tracer.install()
    try:
        g = G.grid2d(5, 5)
        b = np.zeros(g.n)
        b[0], b[-1] = 1.0, -1.0
        with SolverService(window_ms=5.0) as svc:
            key = svc.register(g, seed=0)
            result = svc.solve(key, b)
    finally:
        tracer.uninstall()
    batches = [s for s in tracer.spans
               if s.name == "serve.service.batch_solve"]
    assert [s.rid for s in batches] == [f"batch{result.batch_seq}"]
    assert batches[0].attrs == {"k": 1}
