"""Shared fixtures: a deterministic graph zoo and seeded generators."""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest

from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph


@pytest.fixture(autouse=True)
def _reset_env_caches():
    """Teardown: drop cached ``REPRO_*`` env lookups after every test.

    The env knobs are parsed once per raw value into a shared
    module-level cache (:func:`repro.pram.executor._env_cached`); a
    test that monkeypatches an env var or pokes the cache must not
    leak its parse results into the next test.
    """
    yield
    from repro.config import reset_env_caches

    reset_env_caches()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


def _zoo() -> dict[str, MultiGraph]:
    return {
        "path": G.path(25),
        "cycle": G.cycle(24),
        "complete": G.complete(12),
        "star": G.star(20),
        "grid": G.grid2d(6, 7),
        "torus": G.torus2d(5, 6),
        "tree": G.binary_tree(4),
        "barbell": G.barbell(8, 2),
        "er": G.erdos_renyi(40, 0.15, seed=1),
        "regular": G.random_regular(30, 4, seed=2),
        "weighted_grid": G.with_random_weights(G.grid2d(5, 5), 0.1, 10.0,
                                               seed=3, log_uniform=True),
    }


@pytest.fixture(params=sorted(_zoo()))
def zoo_graph(request) -> MultiGraph:
    """Parametrised over a small family of connected graphs."""
    return _zoo()[request.param]


@pytest.fixture
def zoo() -> dict[str, MultiGraph]:
    """The whole zoo as a dict for tests that pick specific members."""
    return _zoo()


@pytest.fixture
def balanced_rhs():
    """Factory: a zero-sum right-hand side for a given graph."""

    def make(graph: MultiGraph, seed: int = 1) -> np.ndarray:
        r = np.random.default_rng(seed)
        b = r.standard_normal(graph.n)
        return b - b.mean()

    return make


def _scratch_terminal_walks(graph, C, *args, engine=None, **kwargs):
    """``terminal_walks`` ignoring the store's engine: the walk CSR and
    alias planes are rebuilt from the working graph itself."""
    from repro.core.terminal_walks import terminal_walks

    return terminal_walks(graph, C, *args, **kwargs)


class _RebuiltScan(MultiGraph):
    """An induced interior subgraph with the degree oracle's ``nbytes``."""

    __slots__ = ()

    @property
    def nbytes(self) -> int:
        return self.edge_nbytes


def _scratch_interior_degrees(self, rows):
    """The 5-DD scan on the induced interior subgraph, rebuilt from the
    store's live edges instead of gathered from its epoch index."""
    member = np.zeros(self.n, dtype=bool)
    member[rows] = True
    live = self.live_graph()
    sub = live.edge_subset(member[live.u] & member[live.v])
    return _RebuiltScan(sub.n, sub.u, sub.v, sub.w, mult=sub.mult,
                        validate=False)


@pytest.fixture
def scratch_walks(monkeypatch):
    """Oracle for the incremental walk store: inside the returned
    context, both elimination loops walk engines built from scratch on
    each round's working graph and scan rebuilt interior subgraphs.
    Without coalescing the store's views are bit-identical to these
    rebuilds, so outputs must match an unpatched run bit for bit."""
    from repro.sampling.inc_csr import IncrementalWalkCSR

    # importlib: ``repro.core.block_cholesky`` the attribute is the
    # re-exported function, not the module.
    block_cholesky = importlib.import_module("repro.core.block_cholesky")
    schur = importlib.import_module("repro.core.schur")

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as m:
            m.setattr(block_cholesky, "terminal_walks",
                      _scratch_terminal_walks)
            m.setattr(schur, "terminal_walks", _scratch_terminal_walks)
            m.setattr(IncrementalWalkCSR, "interior_degrees",
                      _scratch_interior_degrees)
            yield

    return patched
