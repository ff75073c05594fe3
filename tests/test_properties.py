"""Hypothesis property-based tests on core data structures & invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.laplacian import apply_laplacian, laplacian
from repro.graphs.multigraph import MultiGraph
from repro.pram.executor import chunk_ranges
from repro.sampling.alias import AliasTable

SETTINGS = dict(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def multigraphs(draw, max_n=12, max_m=30, connected=False):
    """Random small multigraphs (optionally with a spanning path)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0 if not connected else 1,
                         max_value=max_m))
    u = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    shift = draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m))
    v = [(a + s) % n for a, s in zip(u, shift)]
    w = draw(st.lists(
        st.floats(min_value=0.01, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=m, max_size=m))
    if connected:
        us = list(u) + list(range(n - 1))
        vs = list(v) + list(range(1, n))
        ws = list(w) + [1.0] * (n - 1)
        return MultiGraph(n, np.array(us), np.array(vs), np.array(ws))
    return MultiGraph(n, np.array(u, dtype=np.int64),
                      np.array(v, dtype=np.int64), np.array(w))


class TestMultigraphProperties:
    @given(multigraphs())
    @settings(**SETTINGS)
    def test_laplacian_rows_sum_to_zero(self, g):
        L = laplacian(g)
        assert np.abs(np.asarray(L.sum(axis=1))).max() < 1e-9 * max(
            1.0, g.w.sum())

    @given(multigraphs())
    @settings(**SETTINGS)
    def test_degrees_equal_laplacian_diagonal(self, g):
        assert np.allclose(g.weighted_degrees(),
                           laplacian(g).diagonal())

    @given(multigraphs())
    @settings(**SETTINGS)
    def test_adjacency_round_trip(self, g):
        from repro.graphs.conversions import adjacency_to_edge_list

        if g.m == 0:
            return
        back = adjacency_to_edge_list(g.n, g.adjacency())
        assert np.allclose(laplacian(back).toarray(),
                           laplacian(g).toarray())

    @given(multigraphs(), st.integers(0, 2 ** 31 - 1))
    @settings(**SETTINGS)
    def test_apply_matches_matrix(self, g, seed):
        x = np.random.default_rng(seed).standard_normal(g.n)
        assert np.allclose(apply_laplacian(g, x), laplacian(g) @ x,
                           atol=1e-7 * max(1.0, g.w.max(initial=1.0)))

    @given(multigraphs())
    @settings(**SETTINGS)
    def test_coalesce_preserves_laplacian_and_shrinks(self, g):
        h = g.coalesced()
        assert h.m <= g.m
        assert np.allclose(laplacian(h).toarray(),
                           laplacian(g).toarray(), atol=1e-9)

    @given(multigraphs(), st.floats(0.05, 1.0))
    @settings(**SETTINGS)
    def test_naive_split_preserves_laplacian(self, g, alpha):
        from repro.core.boundedness import naive_split

        h = naive_split(g, alpha)
        assert np.allclose(laplacian(h).toarray(),
                           laplacian(g).toarray(), atol=1e-9)

    @given(multigraphs(connected=True))
    @settings(**SETTINGS)
    def test_energy_nonnegative(self, g):
        x = np.linspace(-1, 1, g.n)
        assert float(x @ apply_laplacian(g, x)) >= -1e-9


class TestSchurProperties:
    @given(multigraphs(connected=True), st.integers(0, 2 ** 31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_terminal_walks_edge_budget_and_support(self, g, seed):
        from repro.core.dd_subset import five_dd_subset
        from repro.core.terminal_walks import terminal_walks

        # Lemma 5.4's precondition: the eliminated set V \ C is 5-DD
        # (an arbitrary C lets heavy interior edges reach the walk cap).
        rng = np.random.default_rng(seed)
        F = five_dd_subset(g, seed=rng)
        C = np.setdiff1d(np.arange(g.n), F)
        H = terminal_walks(g, C, seed=rng)
        assert H.m <= g.m
        in_C = np.zeros(g.n, dtype=bool)
        in_C[C] = True
        if H.m:
            assert in_C[H.u].all() and in_C[H.v].all()
            assert np.all(H.w > 0)

    @given(multigraphs(connected=True), st.integers(0, 2 ** 31 - 1))
    @settings(deadline=None, max_examples=20)
    def test_exact_schur_is_laplacian(self, g, seed):
        from repro.linalg.pinv import exact_schur_complement

        rng = np.random.default_rng(seed)
        k = rng.integers(1, g.n)
        C = np.sort(rng.choice(g.n, size=k, replace=False))
        SC = exact_schur_complement(laplacian(g).toarray(), C)
        assert np.abs(SC.sum(axis=1)).max() < 1e-6 * max(
            1.0, float(g.w.sum()))
        assert np.linalg.eigvalsh(SC).min() > -1e-7 * max(
            1.0, float(g.w.sum()))


class TestSamplingProperties:
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=64)
           .filter(lambda ws: sum(ws) > 0))
    @settings(**SETTINGS)
    def test_alias_pmf_matches_weights(self, ws):
        w = np.asarray(ws)
        table = AliasTable(w)
        assert np.allclose(table.pmf(), w / w.sum(), atol=1e-9)

    @given(st.integers(0, 500), st.integers(1, 32))
    @settings(**SETTINGS)
    def test_chunk_ranges_partition(self, n, chunks):
        pieces = chunk_ranges(n, chunks)
        covered = [i for lo, hi in pieces for i in range(lo, hi)]
        assert covered == list(range(n))
        assert all(hi > lo for lo, hi in pieces)


class TestSolverProperty:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(deadline=None, max_examples=8)
    def test_solver_meets_eps_on_random_instances(self, seed):
        from repro import LaplacianSolver, practical_options
        from repro.graphs import generators as G
        from repro.linalg.ops import relative_lnorm_error
        from repro.linalg.pinv import exact_solution

        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        g = G.erdos_renyi(n, 0.1, seed=int(rng.integers(0, 2 ** 31)))
        b = rng.standard_normal(g.n)
        b -= b.mean()
        solver = LaplacianSolver(g, options=practical_options(),
                                 seed=int(rng.integers(0, 2 ** 31)))
        x = solver.solve(b, eps=1e-5)
        err = relative_lnorm_error(laplacian(g), x, exact_solution(g, b))
        assert err <= 1e-5
