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
(``max_pending``) sheds excess load with a retriable
:class:`repro.errors.ServiceOverloadedError` (HTTP 503 +
``Retry-After``), and a circuit breaker opens after ``breaker_fails``
consecutive batch failures — failing fast until a half-open probe
succeeds after ``breaker_cooldown_s``.

Settings are :class:`SolverService` constructor arguments
(``window_ms``, ``max_batch``, ``cache_bytes``, ``max_pending``,
``breaker_fails``, ``breaker_cooldown_s``), each defaulting to its
``DEFAULT_*`` constant and checked once, at construction; the HTTP
read timeout is :data:`repro.serve.http.READ_TIMEOUT_S`.
"""

from repro.serve.batcher import MicroBatcher, ServeResult
from repro.serve.cache import ChainCache
from repro.serve.keys import (
    canonical_edge_arrays,
    graph_fingerprint,
    options_token,
    solver_cache_key,
)
from repro.serve.service import GraphSpec, SolverService

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
]
