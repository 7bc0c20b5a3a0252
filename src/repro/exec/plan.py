"""The staged query-plan abstraction every front-end implements.

A :class:`QueryPlan` decomposes one front-end's query path into an
ordered sequence of named :class:`Stage` callables (hash → gather →
escalate → rank; route → dispatch → merge).  The executor
(:func:`repro.exec.executor.run_plan`) owns everything around the
stages — gate reads, deadline construction, per-stage timing,
non-finite-row degradation, batch sharding, and the final
:class:`~repro.exec.context.QueryStats` — so the plans themselves
contain only front-end-specific work.

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
                         allow_nonfinite: bool,
                         ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Typed top-of-query validation, the body of every plan's
    :meth:`QueryPlan.validate` over a ``dim``-column index.

    Returns ``(queries, finite_row_mask_or_None, k)``; shape, dim and
    ``k`` problems raise :class:`QueryValidationError` (a ``ValueError``
    subclass, so pre-existing callers keep working) instead of a
    downstream broadcasting or index error.
    """
    try:
        queries, finite_row = as_query_matrix(
            queries, dim=dim, name="queries",
            allow_nonfinite=allow_nonfinite)
    except ValueError as error:
        raise QueryValidationError(str(error), field="queries") from error
    try:
        k = check_k(k)
    except ValueError as error:
        raise QueryValidationError(str(error), field="k") from error
    return queries, finite_row, k


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
        Short front-end name (``"lsh"``, ``"bilevel"``, ``"forest"``)
        used to prefix failure-record and telemetry
        sites (e.g. ``"lsh.validate"``), and the ``engine`` label of
        ``record_batch``.
    delegates_sharding:
        Whether the plan applies ``max_batch_rows`` itself instead of
        the executor slicing the batch at the top level.  Plans that fan
        out to inner sub-executions (the bi-level dispatch)
        set this and hand ``ctx.max_batch_rows`` on to each inner
        execution — sharding at the fan-out level avoids re-paying the
        per-sub-index fixed cost once per top-level shard while bounding
        the same gather/rank scratch memory.
    """

    site: str = "plan"
    delegates_sharding: bool = False

    def validate(self, queries: object, k: int, *, allow_nonfinite: bool,
                 ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        """Coerce and validate the batch inputs.

        Returns ``(queries, finite_row, k)`` where ``finite_row`` is a
        per-row finiteness mask (``None`` when every row is usable).
        Non-finite rows are only tolerated when ``allow_nonfinite`` — the
        executor passes ``True`` exactly when a policy is active, and
        degrades the flagged rows instead of running them.
        """
        raise NotImplementedError

    def stages(self) -> Sequence[Stage]:
        """The ordered stages for one validated shard."""
        raise NotImplementedError

    def record_obs(self, ctx: ExecutionContext) -> None:
        """Batch-level telemetry; called only when an Observer is active."""
