"""The staged query-plan abstraction every front-end implements.

A :class:`QueryPlan` decomposes one front-end's query path into an
ordered sequence of named :class:`Stage` callables (route → hash →
gather → escalate → rank).  The executor
(:func:`repro.exec.executor.run_plan`) owns everything around the
stages — the observer gate, deadline construction, per-stage timing,
batch sharding, and the final :class:`~repro.exec.context.QueryStats`
— so the plans themselves contain only front-end-specific work.

Plans live next to what they execute (``repro/lsh``, ``repro/core``)
because stages need private access to index
internals; this module only defines the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exec.context import ExecutionContext
from repro.resilience.errors import QueryValidationError
from repro.utils.validation import as_query_matrix, check_k

StageFn = Callable[[ExecutionContext], None]


def validate_query_batch(queries: object, k: int, dim: int,
                         ) -> Tuple[np.ndarray, int]:
    """Typed top-of-query validation, the body of every plan's
    :meth:`QueryPlan.validate` over a ``dim``-column index, and the
    HTTP door's check before a request may join a merge queue.

    Returns ``(queries, k)``; shape, dim, non-finite and ``k`` problems
    raise :class:`QueryValidationError` (a ``ValueError`` subclass, so
    pre-existing callers keep working) naming the field, instead of a
    downstream broadcasting or index error.
    """
    try:
        queries = as_query_matrix(queries, dim=dim, name="queries")
    except ValueError as error:
        raise QueryValidationError(str(error), field="queries") from error
    try:
        k = check_k(k)
    except ValueError as error:
        raise QueryValidationError(str(error), field="k") from error
    return queries, k


def check_hierarchy_threshold(value: object) -> Optional[int]:
    """``value`` as an escalation threshold: ``None`` (the index's fitted
    one) or an integer ``>= 0``, not a ``bool``; anything else raises
    :class:`QueryValidationError` naming the field, on every index."""
    if value is None:
        return None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and value >= 0:
        return int(value)
    raise QueryValidationError(
        "hierarchy_threshold must be None or an integer >= 0, "
        f"got {value!r}", field="hierarchy_threshold")


@dataclass(frozen=True)
class Stage:
    """One named step of a query plan.

    ``fn`` does the work, mutating the context in place; a stage that
    can stop early reads ``ctx.deadline`` itself.  Every stage is lapped
    into the shared ``repro_stage_seconds`` histogram under its name.
    """

    name: str
    fn: StageFn


class QueryPlan:
    """Base contract for a front-end's staged execution.

    Class attributes
    ----------------
    site:
        Short front-end name (``"lsh"``, ``"bilevel"``) used to prefix
        telemetry sites (e.g. ``"lsh.validate"``, ``"bilevel.shard"``).
    """

    site: str = "plan"

    def validate(self, queries: object, k: int) -> Tuple[np.ndarray, int]:
        """Coerce and validate the batch inputs: ``(queries, k)``, or a
        :class:`QueryValidationError` naming the bad field."""
        raise NotImplementedError

    def stages(self) -> Sequence[Stage]:
        """The ordered stages for one validated shard."""
        raise NotImplementedError

    def lookups_per_row(self) -> int:
        """Bucket lookups one query row costs, the unit the executor
        sizes its shards in; a plan that looks nothing up counts 1."""
        return 1

    def record_obs(self, ctx: ExecutionContext) -> None:
        """Batch-level telemetry; called only when an Observer is active."""
