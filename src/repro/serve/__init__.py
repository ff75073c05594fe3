"""Solver-as-a-service (DESIGN.md §12).

The production shape of "factor once, solve many": a long-lived
:class:`SolverService` keeps built solver chains resident in a keyed
LRU byte-budgeted :class:`ChainCache` (canonical graph hash →
chain, single-flight builds, ``keep_graphs=False`` streaming) and
fuses concurrent single-RHS requests into one BLAS-3 ``solve_many``
via a :class:`MicroBatcher` time window — with the library's
determinism and fault contracts re-proven at the service boundary
(``tests/test_serve.py``).

Front ends: in-process (``SolverService.submit``/``solve``), HTTP
(``SolverService.serve_http`` — stdlib asyncio, JSON), and the CLI
(``repro serve`` / ``repro client``).

Overload behaviour (DESIGN.md §12): a bounded pending-request budget
(``REPRO_SERVE_MAX_PENDING``) sheds excess load with a retriable
:class:`repro.errors.ServiceOverloadedError` (HTTP 503 +
``Retry-After``), and a circuit breaker opens after
``REPRO_SERVE_BREAKER_FAILS`` consecutive batch failures — failing
fast until a half-open probe succeeds after
``REPRO_SERVE_BREAKER_COOLDOWN_S``.

Knobs (env-cached like every ``REPRO_*`` setting, reset on service
start via :func:`repro.config.reset_env_caches`):
``REPRO_SERVE_WINDOW_MS``, ``REPRO_SERVE_MAX_BATCH``,
``REPRO_SERVE_CACHE_BYTES``, ``REPRO_SERVE_MAX_PENDING``,
``REPRO_SERVE_BREAKER_FAILS``, ``REPRO_SERVE_BREAKER_COOLDOWN_S``,
``REPRO_SERVE_READ_TIMEOUT_S``.
"""

from repro.serve.batcher import (
    MicroBatcher,
    ServeResult,
    default_serve_max_batch,
    default_serve_window_ms,
)
from repro.serve.cache import ChainCache, default_serve_cache_bytes
from repro.serve.keys import (
    canonical_edge_arrays,
    graph_fingerprint,
    options_token,
    solver_cache_key,
)
from repro.serve.service import (
    GraphSpec,
    SolverService,
    default_serve_max_pending,
    default_serve_breaker_fails,
    default_serve_breaker_cooldown_s,
)

__all__ = [
    "SolverService",
    "GraphSpec",
    "ChainCache",
    "MicroBatcher",
    "ServeResult",
    "solver_cache_key",
    "graph_fingerprint",
    "options_token",
    "canonical_edge_arrays",
    "default_serve_window_ms",
    "default_serve_max_batch",
    "default_serve_cache_bytes",
    "default_serve_max_pending",
    "default_serve_breaker_fails",
    "default_serve_breaker_cooldown_s",
]
