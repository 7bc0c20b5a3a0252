"""Unified query execution core.

One staged pipeline behind every front-end: a front-end describes its
work as a :class:`QueryPlan` (ordered :class:`Stage` callables over a
shared :class:`ExecutionContext`) and its ``query_batch`` calls
:func:`run_plan` on it — validation, the observer gate, deadlines,
stage timing and bounded-memory batch sharding happen there, once per
batch.  :func:`run_validated` is the same executor below the gates
(it runs each shard); :meth:`ExecutionContext.absorb` is the one fold
that puts a sub-result in its parent's rows.

See DESIGN.md §11 ("Execution core") for the architecture and the
recipe for adding a new front-end.
"""

from repro.exec.context import ExecutionContext, QueryStats
from repro.exec.executor import run_plan, run_validated
from repro.exec.plan import QueryPlan, Stage

__all__ = [
    "ExecutionContext",
    "QueryPlan",
    "QueryStats",
    "Stage",
    "run_plan",
    "run_validated",
]
