"""Per-batch execution state shared by every query front-end.

:class:`ExecutionContext` is built once per batch by
:func:`repro.exec.executor.run_plan` (and once more per shard or
finite-row subset, see :meth:`ExecutionContext.child`) and threaded through
every stage of a :class:`repro.exec.plan.QueryPlan`.
Stages communicate exclusively through it: inputs (validated queries,
``k``), supervision handles (Deadline, ResiliencePolicy, FaultPlan,
Observer), intermediate products (:attr:`ExecutionContext.scratch`), and
the batch outputs (id/distance matrices plus the diagnostic masks that
become a :class:`QueryStats`); a sub-result reaches its parent's
through :meth:`ExecutionContext.absorb`.

:class:`QueryStats` lives here — it is the executor's output contract —
and is re-exported from :mod:`repro.lsh.index` for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.resilience.policy import FailureRecord
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from concurrent.futures import Executor
    from repro.obs import Observer
    from repro.obs.trace import StageTimer
    from repro.resilience.deadline import Deadline
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import ResiliencePolicy

#: A selection of a batch's rows: an index array or a contiguous slice.
Rows = Union[np.ndarray, slice]


@dataclass
class QueryStats:
    """Per-query diagnostics from a batch query.

    Attributes
    ----------
    n_candidates:
        Size of the deduplicated short-list ``|A(v)|`` per query — the
        numerator of the paper's selectivity metric (Eq. (5)).
    escalated:
        Whether the hierarchical table escalated this query.
    degraded:
        Boolean mask of queries answered by a resilience fallback (or
        flagged empty after one), plus non-finite input rows; ``None``
        on the fast path when no resilience feature was engaged.
    exhausted_budget:
        Boolean mask of queries whose ``deadline_ms`` budget expired
        mid-pipeline (best-effort answer returned); ``None`` when no
        deadline was requested.
    failures:
        The :class:`~repro.resilience.policy.FailureRecord` entries this
        batch generated (``None`` when nothing failed).
    """

    n_candidates: np.ndarray
    escalated: np.ndarray
    degraded: Optional[np.ndarray] = None
    exhausted_budget: Optional[np.ndarray] = None
    failures: Optional[Tuple[FailureRecord, ...]] = None

    def selectivity(self, dataset_size: int) -> np.ndarray:
        """Selectivity ``tau(v) = |A(v)| / |S|`` per query."""
        check_positive(dataset_size, "dataset_size")
        return self.n_candidates / float(dataset_size)

    def degraded_mask(self) -> np.ndarray:
        """``degraded`` as a concrete mask (all-False when ``None``)."""
        if self.degraded is None:
            return np.zeros(self.n_candidates.shape[0], dtype=bool)
        return self.degraded

    def exhausted_mask(self) -> np.ndarray:
        """``exhausted_budget`` as a concrete mask (all-False when ``None``)."""
        if self.exhausted_budget is None:
            return np.zeros(self.n_candidates.shape[0], dtype=bool)
        return self.exhausted_budget


@dataclass
class ExecutionContext:
    """Everything one batch (or shard) of queries needs to execute.

    The degraded/exhausted masks follow the lazy-allocation convention of
    :class:`QueryStats`: they stay ``None`` (meaning "all-False, nothing
    engaged") until a stage calls :meth:`ensure_degraded` /
    :meth:`ensure_exhausted` or :meth:`absorb` folds in a sub-result
    that carries one, which keeps the fast path allocation-free.
    """

    queries: np.ndarray
    k: int
    nq: int
    ob: "Optional[Observer]"
    timer: "StageTimer"
    deadline: "Optional[Deadline]"
    policy: "Optional[ResiliencePolicy]"
    fault_plan: "Optional[FaultPlan]"
    ids_out: np.ndarray
    dists_out: np.ndarray
    n_candidates: np.ndarray
    escalated: np.ndarray
    degraded: Optional[np.ndarray] = None
    exhausted: Optional[np.ndarray] = None
    #: Rows per executed shard (``None`` = unbounded); the executor
    #: slices by it.
    max_batch_rows: Optional[int] = None
    #: Runs the executor's shards (``None``: in turn); no :meth:`child`
    #: inherits it, so fan-out happens at one level.
    pool: "Optional[Executor]" = None
    failures: List[FailureRecord] = field(default_factory=list)
    scratch: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def for_batch(cls, queries: np.ndarray, k: int, *,
                  ob: "Optional[Observer]" = None,
                  deadline: "Optional[Deadline]" = None,
                  policy: "Optional[ResiliencePolicy]" = None,
                  fault_plan: "Optional[FaultPlan]" = None,
                  max_batch_rows: Optional[int] = None,
                  timer: "Optional[StageTimer]" = None,
                  pool: "Optional[Executor]" = None,
                  ) -> "ExecutionContext":
        """Build a context with padded outputs for ``queries`` x ``k``;
        ``timer`` is the batch's running one when the caller already
        lapped on it (``run_plan``: validation), else a fresh one."""
        from repro.obs.trace import StageTimer

        nq = int(queries.shape[0])
        return cls(
            queries=queries, k=int(k), nq=nq, ob=ob,
            timer=timer if timer is not None else StageTimer(ob),
            deadline=deadline, policy=policy,
            fault_plan=fault_plan, max_batch_rows=max_batch_rows, pool=pool,
            ids_out=np.full((nq, int(k)), -1, dtype=np.int64),
            dists_out=np.full((nq, int(k)), np.inf, dtype=np.float64),
            n_candidates=np.zeros(nq, dtype=np.int64),
            escalated=np.zeros(nq, dtype=bool))

    def child(self, rows: Rows) -> "ExecutionContext":
        """A context over ``queries[rows]`` under the same handles: what
        the executor runs a shard (or a batch's finite rows) in before
        :meth:`absorb` folds it back.  Its timer starts from the spans
        lapped so far, so its traces open with ``<site>.validate``."""
        sub = ExecutionContext.for_batch(
            self.queries[rows], self.k, ob=self.ob, deadline=self.deadline,
            policy=self.policy, fault_plan=self.fault_plan,
            max_batch_rows=self.max_batch_rows)
        sub.timer.stages.update(self.timer.stages)
        return sub

    def absorb(self, rows: Rows, ids: np.ndarray,
               dists: np.ndarray, stats: QueryStats) -> None:
        """Put a sub-result in place: the one fold of the execution core.

        ``ids`` / ``dists`` / ``stats`` answer this context's ``rows`` —
        a shard or a batch's finite rows.  Answers and counts are
        assigned; a mask the sub-result carries is OR-ed in (allocated on
        first need, so ``None`` still means "never engaged"); failure
        records are appended in order.
        """
        self.ids_out[rows] = ids
        self.dists_out[rows] = dists
        self.n_candidates[rows] = stats.n_candidates
        self.escalated[rows] = stats.escalated
        if stats.degraded is not None:
            self.ensure_degraded()[rows] |= stats.degraded
        if stats.exhausted_budget is not None:
            self.ensure_exhausted()[rows] |= stats.exhausted_budget
        if stats.failures:
            self.failures.extend(stats.failures)

    def ensure_degraded(self) -> np.ndarray:
        """The degraded mask, allocating an all-False one on first use."""
        if self.degraded is None:
            self.degraded = np.zeros(self.nq, dtype=bool)
        return self.degraded

    def ensure_exhausted(self) -> np.ndarray:
        """The exhausted mask, allocating an all-False one on first use."""
        if self.exhausted is None:
            self.exhausted = np.zeros(self.nq, dtype=bool)
        return self.exhausted

    def build_stats(self) -> QueryStats:
        """Freeze the context's diagnostic state into a :class:`QueryStats`."""
        return QueryStats(
            self.n_candidates, self.escalated, degraded=self.degraded,
            exhausted_budget=self.exhausted,
            failures=tuple(self.failures) if self.failures else None)
