"""Coverage for small utility paths not exercised elsewhere."""

import numpy as np
import pytest

from repro import SolveReport
from repro.graphs import generators as G
from repro.pram.executor import default_workers
from repro.rng import integers_from


class TestRngUtilities:
    def test_integers_from_deterministic(self):
        assert integers_from(7, 5) == integers_from(7, 5)

    def test_integers_from_range(self):
        vals = integers_from(1, 100, high=10)
        assert all(0 <= v < 10 for v in vals)


class TestExecutorDefaults:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_garbage_ignored(self, monkeypatch):
        # Junk and non-positive counts raise like every other knob ...
        for bad in ("lots", "0", "-3"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ValueError, match="REPRO_WORKERS"):
                default_workers()
        # ... while empty still means the CPU count.
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert default_workers() >= 1


class TestReportRepr:
    def test_solve_report_repr(self):
        rep = SolveReport(x=np.zeros(3), iterations=5,
                          method="richardson", target_eps=1e-6,
                          residual_2norm=1e-9, chain_depth=2,
                          multiedges=10)
        text = repr(rep)
        assert "richardson" in text and "5" in text


class TestChainDiagnostics:
    def test_summary_and_counts(self):
        from repro.config import SolverOptions
        from repro.core.block_cholesky import block_cholesky
        from repro.core.boundedness import naive_split

        g = naive_split(G.grid2d(7, 7), 0.25)
        chain = block_cholesky(g, SolverOptions(min_vertices=15), seed=0)
        counts = chain.active_counts
        assert counts[0] == g.n
        assert counts[-1] == chain.final_active.size
        assert chain.total_stored_edges() == sum(chain.stored_edge_counts)
        assert chain.total_stored_edges() <= sum(chain.edge_counts)
        assert f"d={chain.d}" in chain.summary()


class TestDDSubsetStats:
    def test_stats_record(self):
        from repro.core.dd_subset import DDSubsetStats, five_dd_subset

        stats = DDSubsetStats()
        five_dd_subset(G.grid2d(8, 8), seed=0, stats=stats)
        assert stats.rounds == len(stats.accepted) >= 1


class TestWalkChunkedThreaded:
    def test_threaded_chunks_agree_statistically(self):
        from repro.pram.executor import ExecutionContext
        from repro.sampling.walks import WalkEngine

        g = G.grid2d(8, 8)
        is_term = np.zeros(g.n, dtype=bool)
        is_term[:8] = True
        engine = WalkEngine(g, is_term)
        starts = np.tile(np.arange(g.n), 20)
        # 1280 walkers at 320 per chunk: four chunks on four threads.
        ctx = ExecutionContext(workers=4, chunk_items=320)
        res = engine.run_chunked(starts, ctx, seed=0)
        assert res.terminal.size == starts.size
        assert is_term[res.terminal].all()
        # distribution sanity: every terminal reachable gets some mass
        hits = np.bincount(res.terminal, minlength=g.n)[:8]
        assert (hits > 0).all()


class TestLevEstInternals:
    def test_spanning_edges_form_spanning_forest(self):
        from repro.core.lev_est import _spanning_edges
        from repro.graphs.validation import is_connected

        g = G.erdos_renyi(40, 0.15, seed=0)
        idx = _spanning_edges(g)
        assert idx.size == g.n - 1
        tree = g.edge_subset(np.isin(np.arange(g.m), idx))
        assert is_connected(tree)


class TestSchurReport:
    def test_report_fields_consistent(self):
        from repro.core.schur import approx_schur

        g = G.grid2d(6, 6)
        C = np.arange(0, g.n, 4)
        rep = approx_schur(g, C, eps=0.5, seed=0, return_report=True)
        assert len(rep.edges_per_round) == rep.rounds + 1
        assert len(rep.interior_per_round) == rep.rounds + 1
        assert rep.interior_per_round[-1] == 0
        assert rep.graph.m_logical == rep.edges_per_round[-1]
        assert rep.graph.m == rep.stored_edges_per_round[-1]
        assert rep.peak_edge_bytes > 0
