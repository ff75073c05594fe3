"""Lemma 3.3 / Section 6: leverage-score overestimates and splitting."""

import numpy as np
import pytest

from repro.config import SolverOptions, practical_options
from repro.core.boundedness import leverage_scores, naive_split
from repro.core.lev_est import (
    leverage_overestimates,
    leverage_split,
    uniform_edge_sample,
)
from repro.errors import SamplingError
from repro.graphs import generators as G
from repro.graphs.laplacian import laplacian
from repro.graphs.validation import is_connected


class TestUniformEdgeSample:
    def test_connected(self, zoo_graph):
        H = uniform_edge_sample(zoo_graph, K=4, seed=0)
        assert is_connected(H)

    def test_subgraph_domination(self, zoo_graph):
        # L_{G'} ≼ L_G: G' is a subset of edges at original weights.
        H = uniform_edge_sample(zoo_graph, K=4, seed=1)
        L = laplacian(zoo_graph).toarray()
        LH = laplacian(H).toarray()
        evals = np.linalg.eigvalsh(L - LH)
        assert evals.min() > -1e-9

    def test_size_reduction(self):
        g = G.complete(40)
        H = uniform_edge_sample(g, K=10, seed=2)
        # ~m/K sampled + spanning forest
        assert H.m <= g.m / 10 + g.n

    def test_K_one_keeps_everything(self, zoo_graph):
        H = uniform_edge_sample(zoo_graph, K=1, seed=3)
        assert H.m == zoo_graph.m

    def test_rejects_K_below_one(self):
        with pytest.raises(SamplingError):
            uniform_edge_sample(G.path(4), K=0.5)


class TestLeverageOverestimates:
    def test_overestimates_dense_graph(self):
        # The contract: tau_hat >= tau (up to clipping), whp.
        g = G.complete(30)
        tau = leverage_scores(g)
        tau_hat = leverage_overestimates(g, K=4, seed=0,
                                         options=practical_options())
        assert np.mean(tau_hat >= tau * 0.999) > 0.98

    def test_bounded_in_unit_interval(self):
        g = G.erdos_renyi(60, 0.3, seed=1)
        tau_hat = leverage_overestimates(g, K=4, seed=1,
                                         options=practical_options())
        assert np.all(tau_hat > 0)
        assert np.all(tau_hat <= 1.0)

    def test_sum_bound(self):
        # [CLMMPS15]: sum tau_hat = O(nK).
        g = G.complete(40)
        K = 4
        tau_hat = leverage_overestimates(g, K=K, seed=2,
                                         options=practical_options())
        assert tau_hat.sum() <= 10.0 * g.n * K

    def test_informative_on_dense_graphs(self):
        # On K_n most edges have tiny leverage (~2/n): estimates must
        # be well below 1 so the split actually saves copies.
        g = G.complete(40)
        tau_hat = leverage_overestimates(g, K=3, seed=3,
                                         options=practical_options())
        assert np.median(tau_hat) < 0.5


class TestLeverageSplit:
    def test_preserves_laplacian(self):
        g = G.complete(25)
        H = leverage_split(g, alpha=0.2, K=4, seed=0,
                           options=practical_options())
        assert np.allclose(laplacian(H).toarray(),
                           laplacian(g).toarray())

    def test_achieves_alpha(self):
        g = G.complete(25)
        alpha = 0.2
        H = leverage_split(g, alpha, K=4, seed=1,
                           options=practical_options())
        tau = leverage_scores(H, reference=g)
        assert np.all(tau <= alpha * 1.001 + 1e-9)

    def test_beats_naive_on_dense_graphs(self):
        g = G.complete(40)
        alpha = 1.0 / 16.0
        lev = leverage_split(g, alpha, K=3, seed=2,
                             options=practical_options())
        naive = naive_split(g, alpha)
        assert lev.m_logical < 0.6 * naive.m_logical

    def test_tau_hat_reuse(self):
        g = G.complete(20)
        tau_hat = np.full(g.m, 0.5)
        H = leverage_split(g, alpha=0.25, tau_hat=tau_hat)
        assert H.m == g.m  # stored groups stay compact
        assert H.m_logical == 2 * g.m  # ceil(0.5/0.25) = 2 copies each
        mat = H.materialized()
        assert mat.m == mat.m_logical == 2 * g.m
        assert np.allclose(mat.w, np.repeat(g.w / 2.0, 2))

    def test_tau_hat_shape_checked(self):
        with pytest.raises(SamplingError):
            leverage_split(G.path(4), alpha=0.5, tau_hat=np.ones(7))
