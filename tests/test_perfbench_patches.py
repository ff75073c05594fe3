"""The benchmark's trace patch sites still resolve.

``perfbench/tracing.py`` wraps call sites under ``src/`` from outside
(its ``PATCHES`` table), so renaming one of them breaks
``perfbench/run.py --trace 1`` only when the benchmark runs.  This test
installs the tracer, checks that every site now holds a wrapper,
uninstalls it, and checks that the originals are back.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
