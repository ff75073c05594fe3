"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphStructureError(ReproError):
    """A graph violates a structural requirement (e.g. disconnected input,
    vertex index out of range, negative edge weight)."""


class NotConnectedError(GraphStructureError):
    """The graph must be connected for the requested operation.

    Laplacians of disconnected graphs have a kernel of dimension larger
    than one; the solver (Fact 2.3 of the paper) requires a connected
    graph so that ``ker(L) = span(1)``.
    """


class EmptyGraphError(GraphStructureError):
    """Operation requires at least one vertex/edge."""


class ConvergenceError(ReproError):
    """An iterative method failed to reach the requested tolerance within
    its iteration budget."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NumericalBreakdownError(ConvergenceError):
    """An iterate became non-finite (NaN/Inf) mid-iteration.

    Subclasses :class:`ConvergenceError` so existing fallbacks (the
    solver's Richardson→PCG escalation) keep catching it; carries the
    broken column indices and the iteration at which the breakdown was
    detected so containment logic can quarantine precisely.
    """

    def __init__(self, message: str,
                 column_indices: tuple[int, ...] = (),
                 iteration: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message, iterations=iteration, residual=residual)
        self.column_indices = tuple(int(c) for c in column_indices)
        self.iteration = iteration


class ServiceError(ReproError):
    """The serving layer rejected or could not complete a request.

    Raised by :class:`repro.serve.SolverService` for unknown graph
    keys, submissions to a closed service, and micro-batches whose
    shared solve failed for every cohabiting request.
    """


class ServiceOverloadedError(ServiceError):
    """The service shed this request under admission control.

    Raised when the pending-request count is at the
    ``REPRO_SERVE_MAX_PENDING`` budget or the circuit breaker is open
    (DESIGN.md §12).  **Retriable**: nothing about the request was
    wrong — resubmit after ``retry_after`` seconds.  The HTTP front
    end maps it to ``503`` with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class FactorizationError(ReproError):
    """Block Cholesky construction failed (e.g. a level became empty or a
    5-DD subset could not be found)."""


class SamplingError(ReproError):
    """A random-sampling primitive was given an invalid distribution
    (e.g. non-positive total weight)."""


class DimensionMismatchError(ReproError):
    """Vector/matrix dimensions are inconsistent with the graph."""


class InvalidInputError(ReproError, ValueError):
    """A solve input is out of its domain: a right-hand side with a
    NaN or infinite entry, or an accuracy ``eps`` outside ``(0, 1)``.

    Also a :class:`ValueError`, so callers that caught the untyped
    error a non-finite ``b`` used to surface keep working.
    """
