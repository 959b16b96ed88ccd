"""Execution engine: Volcano-style iterators over physical plans.

Each physical operator opens into a fresh Python iterator of row
tuples laid out by the operator's ``output_ids()``.  Remote operators
speak OLE DB: remote scans open rowsets, remote ranges drive
IRowsetIndex + IRowsetLocate, remote queries execute ICommand text (and
re-validate remote schema versions first — the *delayed schema
validation* of Section 4.1.5).

Concurrency contract: a statement executes on its session's thread,
``Gather``/``GatherMerge`` exchanges included
(:mod:`repro.execution.exchange` runs every branch on that thread), so
operators and the ``ExecutionContext`` are lock-free.  What sessions
share — circuit breakers, channel stats, metrics — is synchronized at
its source.
"""

from repro.execution.context import ExecutionContext
from repro.execution.executor import execute_plan, open_plan

__all__ = ["ExecutionContext", "execute_plan", "open_plan"]
