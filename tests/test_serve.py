"""Service-level test suite: resident chain cache + micro-batched solves.

Re-proves the library's contracts at the service boundary
(DESIGN.md §12):

* **batching equivalence** — k concurrent single-RHS requests through
  the micro-batcher are bit-identical to one direct ``solve_many`` on
  the assembled block, at one worker (serial) and on a thread pool;
  sequential library ``solve(b)`` calls agree to
  solver tolerance (the blocked path's documented contract: reductions
  depend on the block width — DESIGN.md §5);
* **cache semantics** — canonical graph hashing, LRU eviction under a
  byte budget audited against ``CholeskyChain.nbytes``, single-flight
  concurrent builds, cached-vs-fresh-chain bit-identity;
* **fault isolation** — a raising batch fails every request in it
  and feeds the circuit breaker; a nan-poisoned request degrades only
  its own column (``column_status``) while cohabiting requests in the
  same batch are untouched;
* **settings** — each serve setting is a constructor argument,
  checked once at construction (``InvalidInputError`` out of range);
* **hygiene** — env caches reset on server start and in test
  teardown.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.config import default_options, practical_options, reset_env_caches
from repro.core.solver import DEFAULT_METHOD, LaplacianSolver
from repro.errors import DimensionMismatchError, InvalidInputError, \
    ServiceError, ServiceOverloadedError
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.pram.executor import _env_caches, default_workers
from repro.pram.faults import use_faults
from repro.serve import (
    ChainCache,
    SolverService,
    graph_fingerprint,
    solver_cache_key,
)

#: Generous gathering window for tests that must co-batch their
#: submissions regardless of scheduler jitter.
WINDOW_MS = 200.0


class _StubBatchFailure(Exception):
    """What :func:`_fail_next_batches`' stub raises for a batch."""


def _fail_next_batches(monkeypatch, svc, key, count):
    """Make the next ``count`` batched solves on ``key``'s resident
    chain raise :class:`_StubBatchFailure`; later batches solve."""
    solver = svc.cache.get(key)
    real = solver.solve_many_report
    left = [count]

    def flaky(*args, **kwargs):
        if left[0] > 0:
            left[0] -= 1
            raise _StubBatchFailure("stub batch failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_many_report", flaky)


# ---------------------------------------------------------------------------
# canonical cache keys


class TestGraphKeys:
    def test_edge_order_permutation_hashes_identically(self):
        g = G.grid2d(5, 5)
        perm = np.random.default_rng(3).permutation(g.m)
        shuffled = MultiGraph(g.n, g.u[perm], g.v[perm], g.w[perm])
        assert graph_fingerprint(shuffled) == graph_fingerprint(g)

    def test_endpoint_orientation_hashes_identically(self):
        g = G.path(10)
        flipped = MultiGraph(g.n, g.v.copy(), g.u.copy(), g.w.copy())
        assert graph_fingerprint(flipped) == graph_fingerprint(g)

    def test_dtype_variants_hash_identically(self):
        g = G.cycle(12)
        narrow = MultiGraph(g.n,
                            g.u.astype(np.int32), g.v.astype(np.int32),
                            g.w.astype(np.float32))
        assert graph_fingerprint(narrow) == graph_fingerprint(g)

    def test_node_relabeling_hashes_distinctly(self):
        g = G.grid2d(5, 5)
        relabel = np.arange(g.n)
        relabel[[0, 1]] = [1, 0]
        relabeled = MultiGraph(g.n, relabel[g.u], relabel[g.v], g.w)
        assert graph_fingerprint(relabeled) != graph_fingerprint(g)

    def test_weights_hash_distinctly(self):
        g = G.path(10)
        heavier = MultiGraph(g.n, g.u, g.v, g.w * 2.0)
        assert graph_fingerprint(heavier) != graph_fingerprint(g)

    def test_mult_grouping_is_part_of_identity(self):
        # Two unit groups vs one mult=2 group have the same Laplacian
        # but different stored layouts, hence different walk
        # realisations — they must not share a chain.
        two_groups = MultiGraph(3, [0, 0, 1], [1, 1, 2],
                                [1.0, 1.0, 1.0])
        merged = MultiGraph(3, [0, 1], [1, 2], [2.0, 1.0],
                            mult=[2, 1])
        assert graph_fingerprint(two_groups) != graph_fingerprint(merged)
        # ...but an explicit all-ones mult is the same identity as None.
        explicit = MultiGraph(3, [0, 0, 1], [1, 1, 2],
                              [1.0, 1.0, 1.0], mult=[1, 1, 1])
        assert graph_fingerprint(explicit) == graph_fingerprint(two_groups)

    def test_seed_and_chain_options_change_the_key(self):
        g = G.grid2d(5, 5)
        base = solver_cache_key(g, default_options(), 0)
        assert solver_cache_key(g, default_options(), 1) != base
        assert solver_cache_key(g, practical_options(), 0) != base
        assert solver_cache_key(
            g, default_options().with_(min_vertices=50), 0) != base
        assert solver_cache_key(
            g, default_options().with_(chunk_columns=4), 0) != base

    def test_runtime_knobs_do_not_change_the_key(self):
        # The determinism contract (DESIGN.md §6) proves these
        # result-neutral, so clients differing only in them share a
        # resident chain.
        g = G.grid2d(5, 5)
        base = solver_cache_key(g, default_options(), 0)
        for variant in (default_options().with_(workers=3),
                        default_options().with_(backend="thread"),
                        default_options().with_(retries=0),
                        default_options().with_(degrade=False),
                        default_options().with_(ship_solves=False)):
            assert solver_cache_key(g, variant, 0) == base

    def test_sampler_option_does_not_change_the_key(self):
        # There is one walk sampler, so every accepted ``sampler`` value
        # builds the same chain and names the same key; a value that
        # would pick another walk is refused before it can name one.
        g = G.grid2d(5, 5)
        base = solver_cache_key(g, default_options(), 0)
        assert solver_cache_key(
            g, default_options().with_(sampler="alias"), 0) == base
        with pytest.raises(InvalidInputError):
            default_options().with_(sampler="bisect")

    def test_solver_cache_key_method(self):
        g = G.grid2d(4, 4)
        opts = default_options()
        solver = LaplacianSolver(g, options=opts, seed=0)
        assert solver.cache_key() == solver_cache_key(g, opts, 0)
        gen = LaplacianSolver(g, options=opts,
                              seed=np.random.default_rng(0))
        with pytest.raises(TypeError):
            gen.cache_key()


# ---------------------------------------------------------------------------
# cache semantics


class TestChainCache:
    def test_hit_miss_and_build_counts(self):
        g = G.path(20)
        cache = ChainCache(max_bytes=1 << 30)
        key = solver_cache_key(g, default_options(), 0)
        built = []

        def build():
            solver = LaplacianSolver(g, seed=0)
            built.append(solver)
            return solver

        first = cache.get_or_build(key, build)
        second = cache.get_or_build(key, build)
        assert first is second and len(built) == 1
        assert cache.builds == 1 and cache.misses == 1
        assert cache.hits == 1
        assert key in cache and len(cache) == 1

    def test_lru_eviction_audited_against_chain_nbytes(self):
        graphs = [G.path(30), G.grid2d(5, 5), G.cycle(40)]
        solvers = [LaplacianSolver(g, seed=0) for g in graphs]
        sizes = [s.chain.nbytes for s in solvers]
        keys = [solver_cache_key(g, default_options(), 0)
                for g in graphs]
        # Budget admits the first two chains but not all three.
        budget = sizes[0] + sizes[1] + sizes[2] - 1
        cache = ChainCache(max_bytes=budget)
        cache.get_or_build(keys[0], lambda: solvers[0])
        cache.get_or_build(keys[1], lambda: solvers[1])
        assert cache.total_bytes() == sizes[0] + sizes[1]
        # Touch key 0 so key 1 is the LRU entry...
        assert cache.get(keys[0]) is solvers[0]
        cache.get_or_build(keys[2], lambda: solvers[2])
        # ...and the third insert evicts exactly key 1.
        assert cache.keys() == (keys[0], keys[2])
        assert cache.evictions == 1
        assert cache.total_bytes() == sizes[0] + sizes[2] <= budget

    def test_oversized_single_entry_is_retained(self):
        g = G.path(25)
        cache = ChainCache(max_bytes=1)
        key = solver_cache_key(g, default_options(), 0)
        solver = cache.get_or_build(key, lambda: LaplacianSolver(g, seed=0))
        assert cache.get(key) is solver
        assert cache.evictions == 0
        # A second chain evicts the first: under a budget smaller than
        # any chain, only the most recent one stays resident.
        other = G.cycle(30)
        key2 = solver_cache_key(other, default_options(), 0)
        cache.get_or_build(key2, lambda: LaplacianSolver(other, seed=0))
        assert cache.keys() == (key2,)
        assert cache.evictions == 1

    def test_single_flight_concurrent_misses_build_once(self):
        g = G.grid2d(5, 5)
        cache = ChainCache(max_bytes=1 << 30)
        key = solver_cache_key(g, default_options(), 0)
        build_calls = []
        barrier = threading.Barrier(6)
        results = []

        def build():
            build_calls.append(1)
            time.sleep(0.05)  # widen the race window
            return LaplacianSolver(g, seed=0)

        def worker():
            barrier.wait()
            results.append(cache.get_or_build(key, build))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(build_calls) == 1 and cache.builds == 1
        assert len(results) == 6
        assert all(r is results[0] for r in results)

    def test_build_failure_propagates_and_is_not_cached(self):
        cache = ChainCache(max_bytes=1 << 30)
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("injected build failure")

        with pytest.raises(ValueError):
            cache.get_or_build("k", boom)
        # A later miss retries (failures are not poisoned-cached).
        g = G.path(10)
        solver = cache.get_or_build("k", lambda: LaplacianSolver(g, seed=0))
        assert solver.n == g.n and len(calls) == 1

    def test_cached_vs_fresh_chain_solves_bit_identical(self):
        g = G.grid2d(6, 6)
        cache = ChainCache(max_bytes=1 << 30)
        key = solver_cache_key(g, default_options(), 0)
        cached = cache.get_or_build(key, lambda: LaplacianSolver(g, seed=0))
        fresh = LaplacianSolver(g, seed=0)
        assert cached.chain.payload_fingerprint() \
            == fresh.chain.payload_fingerprint()
        B = np.random.default_rng(7).normal(size=(g.n, 4))
        np.testing.assert_array_equal(cached.solve_many(B),
                                      fresh.solve_many(B))

    def test_close_releases_everything(self):
        g = G.path(15)
        cache = ChainCache(max_bytes=1 << 30)
        cache.get_or_build("k", lambda: LaplacianSolver(g, seed=0))
        cache.close()
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# batching equivalence (schedule × sampler-option matrix)


class TestBatchingEquivalence:
    K = 5

    @pytest.mark.parametrize("sampler", [None, "alias"])
    @pytest.mark.parametrize("workers", [pytest.param(1, id="serial"),
                                         pytest.param(2, id="thread")])
    def test_batched_bit_identical_to_direct_solve_many(
            self, workers, sampler):
        # n > min_vertices so the build actually walks (the schedule
        # matters); chunk_columns=2 so the blocked solve fans out
        # column chunks on the chosen schedule too.
        g = G.grid2d(12, 12)
        opts = practical_options(seed=0).with_(
            workers=workers, sampler=sampler, chunk_columns=2)
        with SolverService(options=opts, window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(5).normal(size=(g.n, self.K))
            futures = [svc.submit(key, B[:, i]) for i in range(self.K)]
            results = [f.result(timeout=120) for f in futures]
            # One batch, columns scattered in submission order.
            assert {r.batch_seq for r in results} == \
                {results[0].batch_seq}
            assert all(r.batched_k == self.K for r in results)
            X = np.stack([r.x for r in results], axis=1)
            solver = svc.cache.get(key)
            direct = solver.solve_many_report(B, eps=1e-6)
            np.testing.assert_array_equal(X, direct.x)
            assert [r.status for r in results] \
                == list(direct.column_status)
            assert [r.iterations for r in results] \
                == list(direct.per_column_iterations)

    def test_batched_matches_sequential_solves_to_tolerance(self):
        # Sequential solve(b) runs each column as a one-column block
        # (block-width-dependent reductions), so agreement is to solver
        # tolerance — the documented blocked-path contract — while both
        # meet eps.
        g = G.grid2d(8, 8)
        with SolverService(window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(2).normal(size=(g.n, 4))
            futures = [svc.submit(key, B[:, i], eps=1e-8)
                       for i in range(4)]
            results = [f.result(timeout=60) for f in futures]
            solver = svc.cache.get(key)
        for i, r in enumerate(results):
            x_seq = solver.solve(B[:, i], eps=1e-8)
            np.testing.assert_allclose(r.x, x_seq, rtol=1e-6,
                                       atol=1e-9)
            assert r.residual_2norm < 1e-6

    def test_heterogeneous_eps_per_request(self):
        g = G.grid2d(8, 8)
        with SolverService(window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(3).normal(size=(g.n, 3))
            eps = [1e-4, 1e-8, 1e-6]
            futures = [svc.submit(key, B[:, i], eps=eps[i])
                       for i in range(3)]
            results = [f.result(timeout=60) for f in futures]
            assert all(r.batched_k == 3 for r in results)
            X = np.stack([r.x for r in results], axis=1)
            direct = svc.cache.get(key).solve_many(
                B, eps=np.array(eps))
        np.testing.assert_array_equal(X, direct)

    def test_single_request_is_a_batch_of_one(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=20.0) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(4).normal(size=g.n)
            r = svc.solve(key, b)
            assert r.batched_k == 1
            direct = svc.cache.get(key).solve_many(b[:, None])
        np.testing.assert_array_equal(r.x, direct[:, 0])

    def test_max_batch_flushes_before_the_window(self):
        g = G.grid2d(6, 6)
        # Window absurdly long: only the max-batch flush can finish.
        with SolverService(window_ms=60_000.0, max_batch=3) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(6).normal(size=(g.n, 3))
            t0 = time.perf_counter()
            futures = [svc.submit(key, B[:, i]) for i in range(3)]
            results = [f.result(timeout=30) for f in futures]
            elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        assert all(r.batched_k == 3 for r in results)

    def test_methods_do_not_share_a_batch(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(8).normal(size=g.n)
            f1 = svc.submit(key, b, method="richardson")
            f2 = svc.submit(key, b, method="pcg")
            r1, r2 = f1.result(60), f2.result(60)
        assert r1.batch_seq != r2.batch_seq
        assert r1.batched_k == r2.batched_k == 1
        assert r2.method == "pcg"

    def test_two_graphs_batch_separately(self):
        g1, g2 = G.grid2d(6, 6), G.path(30)
        with SolverService(window_ms=WINDOW_MS) as svc:
            k1 = svc.register(g1, seed=0)
            k2 = svc.register(g2, seed=0)
            assert k1 != k2
            b1 = np.random.default_rng(9).normal(size=g1.n)
            b2 = np.random.default_rng(10).normal(size=g2.n)
            f1 = svc.submit(k1, b1)
            f2 = svc.submit(k2, b2)
            r1, r2 = f1.result(60), f2.result(60)
        assert r1.batch_seq != r2.batch_seq
        assert r1.x.shape == (g1.n,) and r2.x.shape == (g2.n,)

    def test_eviction_then_request_rebuilds_transparently(self):
        g1, g2 = G.path(30), G.cycle(40)
        nb = LaplacianSolver(g1, seed=0).chain.nbytes
        # Budget below two chains: registering g2 evicts g1's chain.
        with SolverService(window_ms=20.0, cache_bytes=nb) as svc:
            k1 = svc.register(g1, seed=0)
            baseline = svc.solve(
                k1, np.random.default_rng(11).normal(size=g1.n))
            k2 = svc.register(g2, seed=0)
            assert svc.cache.keys() == (k2,)
            # The evicted key still serves: the retained spec rebuilds.
            again = svc.solve(
                k1, np.random.default_rng(11).normal(size=g1.n))
            assert svc.cache.builds == 3
        np.testing.assert_array_equal(again.x, baseline.x)

    def test_request_validation(self):
        g = G.grid2d(5, 5)
        with SolverService(window_ms=10.0) as svc:
            key = svc.register(g, seed=0)
            with pytest.raises(ServiceError):
                svc.solve("no-such-key",
                          np.zeros(g.n))
            with pytest.raises(DimensionMismatchError):
                svc.submit(key, np.zeros((g.n, 2)))
            bad = svc.submit(key, np.zeros(g.n + 1))
            with pytest.raises(DimensionMismatchError):
                bad.result(timeout=30)
        with pytest.raises(ServiceError):
            svc.submit(key, np.zeros(g.n))


# ---------------------------------------------------------------------------
# service-level fault injection


class TestServeFaults:
    def test_raising_batch_fails_every_request(self, monkeypatch):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(14).normal(size=(g.n, 3))
            _fail_next_batches(monkeypatch, svc, key, 1)
            futures = [svc.submit(key, B[:, i]) for i in range(3)]
            # Batch-level failure reaches every cohabiting caller, and
            # the batch is not run again.
            for f in futures:
                with pytest.raises(_StubBatchFailure):
                    f.result(timeout=60)
            assert svc.breaker.consecutive_failures == 1
            # The service survives: the next batch solves.
            ok = svc.solve(key, B[:, 0])
            assert np.isfinite(ok.x).all()
            assert svc.breaker.consecutive_failures == 0

    def test_nan_poisons_only_its_own_request(self):
        # Same workload as TestNumericalContainment in test_faults.py,
        # through the service: request 3 of a 6-wide batch is poisoned;
        # its column walks the escalation ladder while the cohabiting
        # five are bit-identical to the fault-free batch.
        g = G.grid2d(8, 8)
        opts = default_options().with_(chunk_columns=4)
        with SolverService(options=opts, window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(1).normal(size=(g.n, 6))
            futures = [svc.submit(key, B[:, i]) for i in range(6)]
            clean = [f.result(timeout=60) for f in futures]
            assert all(r.batched_k == 6 for r in clean)
            assert all(r.status == DEFAULT_METHOD for r in clean)
            with use_faults("nan:col=3:stage=solve"):
                futures = [svc.submit(key, B[:, i]) for i in range(6)]
            faulted = [f.result(timeout=60) for f in futures]
            summary = svc.fault_log.summary()
        assert all(r.batched_k == 6 for r in faulted)
        # The poisoned request alone degrades (nan at iter 0, re-fired
        # by the stage wildcard inside the escalation CG -> dense).
        assert faulted[3].status == "dense"
        assert np.isfinite(faulted[3].x).all()
        assert faulted[3].residual_2norm < 1e-6
        for i in (0, 1, 2, 4, 5):
            assert faulted[i].status == DEFAULT_METHOD
            np.testing.assert_array_equal(faulted[i].x, clean[i].x)
        assert summary.get("quarantine", 0) >= 1
        assert summary.get("escalate", 0) >= 1

    def test_nan_request_is_rejected_alone(self):
        # A non-finite b is refused with a typed error before batching;
        # the healthy requests submitted alongside it batch and solve
        # as usual.
        g = G.grid2d(8, 8)
        with SolverService(window_ms=WINDOW_MS) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(1).normal(size=(g.n, 3))
            bad = B[:, 1].copy()
            bad[5] = np.nan
            futures = [svc.submit(key, B[:, 0]), svc.submit(key, bad),
                       svc.submit(key, B[:, 2])]
            with pytest.raises(InvalidInputError):
                futures[1].result(timeout=60)
            for f in (futures[0], futures[2]):
                r = f.result(timeout=60)
                assert r.status == DEFAULT_METHOD and r.batched_k == 2
                assert np.isfinite(r.x).all()
            with pytest.raises(InvalidInputError):
                svc.solve(key, B[:, 0], eps=2.0)
            assert svc.breaker.consecutive_failures == 0


# ---------------------------------------------------------------------------
# env-cache reset (satellite fix)


class TestEnvCacheReset:
    def test_reset_clears_the_shared_cache_dict(self):
        default_workers()
        assert "REPRO_WORKERS" in _env_caches
        reset_env_caches()
        assert _env_caches == {}

    def test_reset_drops_stale_parse_results(self):
        # Simulate a poisoned entry (same raw env value, stale parse):
        # the raw-value check alone cannot catch this; reset can.
        real = default_workers()
        _env_caches["REPRO_WORKERS"] = (
            os.environ.get("REPRO_WORKERS"), real + 555)
        assert default_workers() == real + 555
        reset_env_caches()
        assert default_workers() == real

    def test_service_start_resets_env_caches(self):
        real = default_workers()
        _env_caches["REPRO_WORKERS"] = (
            os.environ.get("REPRO_WORKERS"), real + 555)
        svc = SolverService(window_ms=10.0)
        try:
            svc.start()
            assert default_workers() == real
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# settings: constructor arguments, checked once


#: Every serve setting at its default, as ``stats()["knobs"]`` shows it.
DEFAULT_KNOBS = {"window_ms": 2.0, "max_batch": 64,
                 "cache_bytes": 268435456, "max_pending": 256,
                 "breaker_fails": 5, "breaker_cooldown_s": 5.0}


class TestServeSettings:
    def test_defaults_show_in_stats(self):
        svc = SolverService()
        try:
            knobs = svc.stats()["knobs"]
        finally:
            svc.close()
        assert knobs == DEFAULT_KNOBS
        assert [type(v) for v in knobs.values()] == \
            [type(v) for v in DEFAULT_KNOBS.values()]

    def test_range_edges_are_accepted(self):
        svc = SolverService(window_ms=0, max_batch=1, cache_bytes=0,
                            max_pending=0, breaker_fails=1,
                            breaker_cooldown_s=0.25)
        try:
            assert svc.stats()["knobs"] == {
                "window_ms": 0.0, "max_batch": 1, "cache_bytes": 0,
                "max_pending": 0, "breaker_fails": 1,
                "breaker_cooldown_s": 0.25}
        finally:
            svc.close()

    @pytest.mark.parametrize("name, value", [
        ("max_batch", 0), ("max_batch", -3), ("max_batch", 2.5),
        ("window_ms", -5.0), ("window_ms", float("nan")),
        ("window_ms", float("inf")), ("window_ms", "2"),
        ("cache_bytes", -1), ("max_pending", -1),
        ("breaker_fails", 0), ("breaker_cooldown_s", -1.0),
        ("breaker_cooldown_s", 0.0), ("breaker_cooldown_s", float("nan")),
        ("breaker_cooldown_s", float("inf")),
    ])
    def test_bad_value_raises_at_construction(self, name, value):
        with pytest.raises(InvalidInputError, match=name) as err:
            SolverService(**{name: value})
        assert isinstance(err.value, ValueError)


# ---------------------------------------------------------------------------
# HTTP front end


class TestServeHTTP:
    @staticmethod
    def _request(base, path, method="GET", payload=None):
        from repro.serve.http import http_request
        return http_request(base + path, method=method, payload=payload)

    def test_healthz_stats_and_errors(self):
        with SolverService(window_ms=20.0) as svc:
            host, port = svc.serve_http("127.0.0.1", 0)
            base = f"http://{host}:{port}"
            code, payload = self._request(base, "/healthz")
            assert code == 200 and payload["ok"] is True
            code, payload = self._request(base, "/stats")
            assert code == 200 and "cache" in payload
            code, payload = self._request(base, "/nope")
            assert code == 404
            code, payload = self._request(
                base, "/solve", method="POST",
                payload={"key": "missing", "source": 0, "sink": -1})
            assert code == 404 and "unknown graph key" in payload["error"]
            code, payload = self._request(
                base, "/graphs", method="POST", payload={"n": 3})
            assert code == 400

    def test_register_and_solve_round_trip(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=20.0) as svc:
            svc.start()
            host, port = svc.serve_http("127.0.0.1", 0)
            base = f"http://{host}:{port}"
            code, reg = self._request(
                base, "/graphs", method="POST",
                payload={"n": g.n, "u": g.u.tolist(),
                         "v": g.v.tolist(), "w": g.w.tolist(),
                         "seed": 0})
            assert code == 200
            assert reg["n"] == g.n and reg["m"] == g.m
            assert reg["chain_nbytes"] > 0
            key = reg["key"]
            assert key == solver_cache_key(g, svc.options, 0)
            code, sol = self._request(
                base, "/solve", method="POST",
                payload={"key": key, "source": 0, "sink": -1})
            assert code == 200 and sol["status"] == DEFAULT_METHOD
            # JSON floats round-trip exactly (repr-based), so the HTTP
            # answer is bit-identical to the direct blocked solve.
            b = np.zeros(g.n)
            b[0], b[-1] = 1.0, -1.0
            direct = svc.cache.get(key).solve_many(b[:, None])
            np.testing.assert_array_equal(np.asarray(sol["x"]),
                                          direct[:, 0])

    def test_bad_solve_inputs_are_400(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=20.0) as svc:
            key = svc.register(g, seed=0)
            host, port = svc.serve_http("127.0.0.1", 0)
            base = f"http://{host}:{port}"
            b = [0.0] * g.n
            b[0], b[-1] = 1.0, -1.0
            nan_b = list(b)
            nan_b[4] = float("nan")
            for body in ({"key": key, "source": 0, "sink": -1, "eps": 2.0},
                         {"key": key, "source": 0, "sink": -1,
                          "eps": "abc"},
                         {"key": key, "b": ["x"] * g.n},
                         {"key": key, "b": nan_b},
                         {"key": key, "source": [], "sink": -1},
                         # Non-integral or boolean endpoints used to
                         # be truncated to vertex 1.
                         {"key": key, "source": 1.5, "sink": -1},
                         {"key": key, "source": True, "sink": -1},
                         {"key": key, "source": "0", "sink": -1},
                         {"key": key, "source": 0, "sink": g.n},
                         {"key": key, "source": 0, "sink": -g.n - 1}):
                code, payload = self._request(base, "/solve",
                                              method="POST", payload=body)
                assert code == 400, (body, payload)
            # The service is still healthy afterwards.
            code, sol = self._request(base, "/solve", method="POST",
                                      payload={"key": key, "b": b})
            assert code == 200 and sol["status"] == DEFAULT_METHOD

    @staticmethod
    def _graph_body(g):
        return {"n": g.n, "u": g.u.tolist(), "v": g.v.tolist(),
                "w": g.w.tolist()}

    @pytest.mark.parametrize("patch", [
        {"seed": "abc"}, {"seed": [1]}, {"seed": 1.5}, {"seed": True},
        {"seed": -1}, {"n": 9.5}, {"u": [0.5]}, {"v": ["a"]},
        {"u": [[0, 1], [2]]}, {"mult": [1.5]},
    ], ids=lambda patch: repr(patch).replace(" ", ""))
    def test_bad_graph_bodies_are_400(self, patch):
        # Non-integral entries would otherwise be truncated into a
        # different graph, and a bad seed used to escape as a 500.
        g = G.grid2d(3, 3)
        body = self._graph_body(g)
        for field, value in patch.items():
            if field in ("u", "v", "mult") and len(value) == 1:
                # Spoil the first entry of an otherwise valid array.
                value = value + body.get(field, [1] * g.m)[1:]
            body[field] = value
        with SolverService(window_ms=20.0) as svc:
            host, port = svc.serve_http("127.0.0.1", 0)
            code, payload = self._request(f"http://{host}:{port}",
                                          "/graphs", method="POST",
                                          payload=body)
            assert code == 400, payload
            assert svc.stats()["graphs"] == 0

    def test_integral_floats_register(self):
        g = G.grid2d(3, 3)
        body = self._graph_body(g)
        body.update(u=[float(x) for x in body["u"]], seed=3.0)
        with SolverService(window_ms=20.0) as svc:
            host, port = svc.serve_http("127.0.0.1", 0)
            code, reg = self._request(f"http://{host}:{port}",
                                      "/graphs", method="POST",
                                      payload=body)
        assert code == 200
        assert reg["key"] == solver_cache_key(g, svc.options, 3)

    def test_concurrent_http_requests_share_a_batch(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=400.0) as svc:
            key = svc.register(g, seed=0)
            host, port = svc.serve_http("127.0.0.1", 0)
            base = f"http://{host}:{port}"
            results = [None, None]

            def call(i, source):
                results[i] = self._request(
                    base, "/solve", method="POST",
                    payload={"key": key, "source": source, "sink": -1})

            threads = [threading.Thread(target=call, args=(i, i))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        for code, payload in results:
            assert code == 200
            assert payload["batched_k"] == 2


# ---------------------------------------------------------------------------
# CLI: `repro serve` subprocess + `repro client`


class TestServeCLI:
    def test_serve_and_client_end_to_end(self, tmp_path):
        from repro.cli import main

        root = Path(__file__).resolve().parents[1]
        graph_path = tmp_path / "g.npz"
        assert main(["gen", "grid", str(graph_path), "--size", "5"]) == 0

        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(graph_path),
             "--port", "0", "--window-ms", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=root)
        try:
            banner = {}

            def read_banner():
                banner["line"] = proc.stdout.readline()

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=90)
            line = banner.get("line", "")
            assert line.startswith("serving http://"), \
                f"no banner; stderr: {proc.stderr.read() if proc.poll() is not None else '(still running)'}"
            url = line.split()[1]
            key = line.split("key=")[1].split()[0]

            assert main(["client", url, "--stats"]) == 0
            out = tmp_path / "x.npy"
            assert main(["client", url, "--key", key, "--source", "0",
                         "--sink", "-1", "--output", str(out)]) == 0
            x = np.load(out)
            assert x.shape == (25,) and np.isfinite(x).all()
            # Unknown key surfaces the server's 404 as exit code 1.
            assert main(["client", url, "--key", "bogus"]) == 1
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# admission control + circuit breaker (ISSUE 10)


class TestAdmissionControl:
    def _occupy_budget(self, svc, key, b):
        """Submit one request and wait until it holds the budget."""
        future = svc.submit(key, b)
        deadline = time.monotonic() + 10.0
        while svc.stats()["admission"]["pending"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        assert svc.stats()["admission"]["pending"] >= 1
        return future

    def test_burst_beyond_budget_is_shed(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=500.0, max_pending=1) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(20).normal(size=g.n)
            first = self._occupy_budget(svc, key, b)
            shed = svc.submit(key, b)
            with pytest.raises(ServiceOverloadedError) as err:
                shed.result(timeout=30)
            assert err.value.retry_after > 0
            # The in-budget request is untouched by the shedding.
            result = first.result(timeout=120)
            assert np.isfinite(result.x).all()
            assert svc.shed == 1
            assert svc.fault_log.count("shed") == 1
            stats = svc.stats()
            assert stats["admission"]["shed"] == 1
            assert stats["knobs"]["max_pending"] == 1

    def test_zero_budget_disables_shedding(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=50.0, max_pending=0) as svc:
            key = svc.register(g, seed=0)
            B = np.random.default_rng(21).normal(size=(g.n, 4))
            futures = [svc.submit(key, B[:, i]) for i in range(4)]
            for f in futures:
                assert np.isfinite(f.result(timeout=120).x).all()
            assert svc.shed == 0


class TestCircuitBreaker:
    def test_opens_fails_fast_and_recloses(self, monkeypatch):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=10.0, breaker_fails=2,
                           breaker_cooldown_s=0.4) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(22).normal(size=g.n)
            # Batches 0 and 1 raise: two consecutive batch failures
            # trip the breaker.
            _fail_next_batches(monkeypatch, svc, key, 2)
            for _ in range(2):
                with pytest.raises(_StubBatchFailure):
                    svc.solve(key, b)
            assert svc.breaker.state == "open"
            assert svc.fault_log.count("breaker_open") == 1
            # Open breaker: fail fast, no batch is even attempted.
            t0 = time.monotonic()
            with pytest.raises(ServiceOverloadedError) as err:
                svc.solve(key, b)
            assert time.monotonic() - t0 < 0.2
            assert err.value.retry_after > 0
            assert svc.fault_log.count("shed") == 1
            # After the cooldown the half-open probe (batch 2, the stub
            # is spent) succeeds and re-closes the breaker.
            time.sleep(0.45)
            result = svc.solve(key, b)
            assert np.isfinite(result.x).all()
            stats = svc.stats()
            assert stats["breaker"]["state"] == "closed"
            assert stats["breaker"]["opens"] == 1
            assert stats["breaker"]["consecutive_failures"] == 0
            assert svc.fault_log.count("breaker_close") == 1

    def test_failed_probe_reopens(self, monkeypatch):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=10.0, breaker_fails=1,
                           breaker_cooldown_s=0.3) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(23).normal(size=g.n)
            _fail_next_batches(monkeypatch, svc, key, 2)
            with pytest.raises(_StubBatchFailure):
                svc.solve(key, b)  # batch 0: trips (threshold 1)
            assert svc.breaker.state == "open"
            time.sleep(0.35)
            # The half-open probe (batch 1) also dies: re-open.
            with pytest.raises(_StubBatchFailure):
                svc.solve(key, b)
            assert svc.breaker.state == "open"
            assert svc.breaker.opens == 2
            assert svc.fault_log.count("breaker_open") == 2
            time.sleep(0.35)
            result = svc.solve(key, b)  # clean probe: batch 2
            assert np.isfinite(result.x).all()
            assert svc.breaker.state == "closed"

    def test_probe_dying_pre_batch_releases_slot(self, monkeypatch):
        # A half-open probe that fails before the batch path (unknown
        # key, bad shape) must free the probe slot — not strand
        # _probing=True and shed every later request forever.
        g = G.grid2d(6, 6)
        with SolverService(window_ms=10.0, breaker_fails=1,
                           breaker_cooldown_s=0.2) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(24).normal(size=g.n)
            _fail_next_batches(monkeypatch, svc, key, 1)
            with pytest.raises(_StubBatchFailure):
                svc.solve(key, b)  # batch 0: trips (threshold 1)
            assert svc.breaker.state == "open"
            time.sleep(0.25)
            # Probe 1: dies resolving an unregistered key.
            with pytest.raises(ServiceError):
                svc.solve("no-such-key", b)
            assert svc.breaker.state == "half-open"
            # Probe 2: dies on a right-hand side of the wrong length.
            with pytest.raises(DimensionMismatchError):
                svc.solve(key, b[:-1])
            assert svc.breaker.state == "half-open"
            # Probe 3: clean request is admitted and re-closes.
            result = svc.solve(key, b)
            assert np.isfinite(result.x).all()
            assert svc.breaker.state == "closed"

    def test_bad_requests_do_not_open_the_breaker(self):
        # An unknown method or a non-numeric eps is the caller's fault:
        # it is refused in the calling thread, before anything is
        # queued, so it never reaches a batch or the breaker.
        g = G.grid2d(6, 6)
        with SolverService(window_ms=10.0) as svc:
            key = svc.register(g, seed=0)
            b = np.random.default_rng(25).normal(size=g.n)
            for _ in range(svc.breaker.threshold):
                with pytest.raises(InvalidInputError, match="method"):
                    svc.submit(key, b, method="bogus")
            with pytest.raises(InvalidInputError, match="eps"):
                svc.submit(key, b, eps="abc")
            assert svc.breaker.state == "closed"
            assert svc.breaker.consecutive_failures == 0
            result = svc.solve(key, b)
            assert np.isfinite(result.x).all()


# ---------------------------------------------------------------------------
# service lifecycle (close() regression) + HTTP hardening


class TestCloseLifecycle:
    def test_close_closes_loop_and_joins_thread(self):
        svc = SolverService(window_ms=10.0)
        svc.start()
        loop, thread = svc._loop, svc._thread
        svc.close()
        assert loop.is_closed()
        assert not thread.is_alive()
        svc.close()  # idempotent

    def test_close_before_start_is_a_noop(self):
        SolverService(window_ms=10.0).close()

    def test_close_closes_loop_with_inflight_request(self):
        # The regression: a drain that cannot finish cleanly must not
        # leak the loop.
        g = G.grid2d(6, 6)
        svc = SolverService(window_ms=5_000.0)  # window outlives close
        svc.start()
        key = svc.register(g, seed=0)
        b = np.random.default_rng(24).normal(size=g.n)
        svc.submit(key, b)  # parked in the gather window
        loop = svc._loop
        svc.close()
        assert loop.is_closed()


class TestHTTPHardening:
    def test_oversized_body_is_413_before_reading(self):
        with SolverService(window_ms=10.0) as svc:
            host, port = svc.serve_http("127.0.0.1", 0)
            with socket.create_connection((host, port)) as s:
                s.sendall(b"POST /solve HTTP/1.1\r\n"
                          b"Content-Length: 999999999999\r\n\r\n")
                s.settimeout(30)
                response = s.recv(65536)
        assert response.startswith(b"HTTP/1.1 413")

    @pytest.mark.parametrize("length", [b"-5", b"abc"])
    def test_bad_content_length_is_400(self, length):
        with SolverService(window_ms=10.0) as svc:
            host, port = svc.serve_http("127.0.0.1", 0)
            with socket.create_connection((host, port)) as s:
                s.sendall(b"POST /graphs HTTP/1.1\r\n"
                          b"Content-Length: " + length + b"\r\n\r\n")
                s.settimeout(30)
                response = s.recv(65536)
        assert response.startswith(b"HTTP/1.1 400")
        assert b"bad Content-Length" in response

    def test_trickling_client_times_out_408(self, monkeypatch):
        monkeypatch.setattr("repro.serve.http.READ_TIMEOUT_S", 0.3)
        with SolverService(window_ms=10.0) as svc:
            host, port = svc.serve_http("127.0.0.1", 0)
            with socket.create_connection((host, port)) as s:
                s.sendall(b"POST /solve HT")  # never finishes the line
                s.settimeout(30)
                t0 = time.monotonic()
                response = s.recv(65536)
                elapsed = time.monotonic() - t0
        assert response.startswith(b"HTTP/1.1 408")
        assert 0.2 <= elapsed < 10.0

    def test_overload_maps_to_503_with_retry_after(self):
        g = G.grid2d(6, 6)
        with SolverService(window_ms=500.0, max_pending=1) as svc:
            key = svc.register(g, seed=0)
            host, port = svc.serve_http("127.0.0.1", 0)
            b = np.random.default_rng(25).normal(size=g.n)
            first = TestAdmissionControl()._occupy_budget(svc, key, b)
            request = urllib.request.Request(
                f"http://{host}:{port}/solve", method="POST",
                data=json.dumps({"key": key, "source": 0,
                                 "sink": -1}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=30)
            assert err.value.code == 503
            assert int(err.value.headers["Retry-After"]) >= 1
            body = json.loads(err.value.read().decode())
            assert body["retry_after"] > 0
            assert "overloaded" in body["error"]
            # The in-budget request still completes.
            assert np.isfinite(first.result(timeout=120).x).all()
