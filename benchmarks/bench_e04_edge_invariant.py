"""E4 — Theorem 3.9-(1): every G^(k) has at most m multi-edges.

``TerminalWalks`` emits ≤ 1 edge per input edge, so the chain's edge
counts must be non-increasing; we check the full profile across
workloads (and time the chain construction).
"""

import pytest

from conftest import record, workload

from repro.config import default_options
from repro.core.block_cholesky import block_cholesky
from repro.core.boundedness import naive_split


@pytest.mark.parametrize("name", ["grid", "expander", "er", "barbell",
                                  "weighted_grid"])
def test_e04_edge_counts_monotone(benchmark, name):
    g = workload(name, 500, seed=4)
    opts = default_options()
    H = naive_split(g, opts.alpha(g.n))

    chain = benchmark(lambda: block_cholesky(H, opts, seed=0))
    # edge_counts are logical multi-edges; H.m counts stored groups
    # (an implicit α-split stores each edge's copies as one group).
    counts = chain.edge_counts
    record(benchmark, workload=name, m_multigraph=H.m_logical,
           edge_profile=counts, levels=chain.d)
    assert all(c <= H.m_logical for c in counts)
    assert all(b <= a for a, b in zip(counts, counts[1:]))
