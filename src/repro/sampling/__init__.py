"""Parallel weighted random sampling and vectorised random walks.

Implements the [HS19] primitive the paper cites as Lemma 2.6 — alias
tables: ``O(n)`` work, ``O(log n)`` depth build; ``O(1)`` per query —
both for a single distribution (:class:`AliasTable`) and batched
per-CSR-row (:class:`CSRAliasSampler`, the walk engine's O(1)-per-step
sampler), the walk engine ``TerminalWalks`` runs on, and the
incrementally maintained restricted CSR the elimination loops extract
their per-round walk engine (and its alias planes) from.  The
bisection-based :class:`RowSampler` is the independent oracle the
alias sampler is tested against.
"""

from repro.sampling.alias import AliasTable, CSRAliasSampler, \
    build_alias_tables
from repro.sampling.inc_csr import IncrementalWalkCSR
from repro.sampling.rowsample import RowSampler
from repro.sampling.walks import WalkEngine, WalkResult

__all__ = ["AliasTable", "CSRAliasSampler", "IncrementalWalkCSR",
           "RowSampler", "WalkEngine", "WalkResult",
           "build_alias_tables"]
