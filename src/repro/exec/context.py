"""Per-batch execution state shared by every query front-end.

:class:`ExecutionContext` is built once per batch by
:func:`repro.exec.executor.run_plan` (and once more per shard, see
:meth:`ExecutionContext.child`) and threaded through every stage of a
:class:`repro.exec.plan.QueryPlan`.
Stages communicate exclusively through it: inputs (validated queries,
``k``), handles (Deadline, Observer), intermediate products
(:attr:`ExecutionContext.scratch`), and the batch outputs (id/distance
matrices plus the diagnostic masks that become a :class:`QueryStats`);
a sub-result reaches its parent's through
:meth:`ExecutionContext.absorb`.

:class:`QueryStats` lives here — it is the executor's output contract —
and is re-exported from :mod:`repro.lsh.index` for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs import Observer
    from repro.obs.trace import StageTimer
    from repro.resilience.deadline import Deadline


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
    exhausted_budget:
        Boolean mask of queries whose ``deadline_ms`` budget expired
        mid-pipeline (best-effort answer returned); ``None`` when no
        deadline was requested.
    """

    n_candidates: np.ndarray
    escalated: np.ndarray
    exhausted_budget: Optional[np.ndarray] = None

    def selectivity(self, dataset_size: int) -> np.ndarray:
        """Selectivity ``tau(v) = |A(v)| / |S|`` per query."""
        check_positive(dataset_size, "dataset_size")
        return self.n_candidates / float(dataset_size)

    def exhausted_mask(self) -> np.ndarray:
        """``exhausted_budget`` as a concrete mask (all-False when ``None``)."""
        if self.exhausted_budget is None:
            return np.zeros(self.n_candidates.shape[0], dtype=bool)
        return self.exhausted_budget


@dataclass
class ExecutionContext:
    """Everything one batch (or shard) of queries needs to execute.

    The exhausted mask follows the lazy-allocation convention of
    :class:`QueryStats`: it stays ``None`` (meaning "no deadline") until
    a stage calls :meth:`ensure_exhausted` or :meth:`absorb` folds in a
    sub-result that carries one, which keeps the fast path
    allocation-free.
    """

    queries: np.ndarray
    k: int
    nq: int
    ob: "Optional[Observer]"
    timer: "StageTimer"
    deadline: "Optional[Deadline]"
    ids_out: np.ndarray
    dists_out: np.ndarray
    n_candidates: np.ndarray
    escalated: np.ndarray
    exhausted: Optional[np.ndarray] = None
    scratch: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def for_batch(cls, queries: np.ndarray, k: int, *,
                  ob: "Optional[Observer]" = None,
                  deadline: "Optional[Deadline]" = None,
                  timer: "Optional[StageTimer]" = None,
                  ) -> "ExecutionContext":
        """Build a context with padded outputs for ``queries`` x ``k``;
        ``timer`` is the batch's running one when the caller already
        lapped on it (``run_plan``: validation), else a fresh one."""
        from repro.obs.trace import StageTimer

        nq = int(queries.shape[0])
        return cls(
            queries=queries, k=int(k), nq=nq, ob=ob,
            timer=timer if timer is not None else StageTimer(ob),
            deadline=deadline,
            ids_out=np.full((nq, int(k)), -1, dtype=np.int64),
            dists_out=np.full((nq, int(k)), np.inf, dtype=np.float64),
            n_candidates=np.zeros(nq, dtype=np.int64),
            escalated=np.zeros(nq, dtype=bool))

    def child(self, rows: slice) -> "ExecutionContext":
        """A context over ``queries[rows]`` under the same handles: what
        the executor runs a shard in before :meth:`absorb` folds it back.
        Its timer starts from the spans lapped so far, so its traces open
        with ``<site>.validate``."""
        sub = ExecutionContext.for_batch(
            self.queries[rows], self.k, ob=self.ob, deadline=self.deadline)
        sub.timer.stages.update(self.timer.stages)
        return sub

    def absorb(self, rows: slice, ids: np.ndarray,
               dists: np.ndarray, stats: QueryStats) -> None:
        """Put a sub-result in place: the one fold of the execution core.

        ``ids`` / ``dists`` / ``stats`` answer this context's ``rows``,
        a shard.  Answers and counts are assigned; an exhausted mask the
        sub-result carries is OR-ed in (allocated on first need, so
        ``None`` still means "no deadline").
        """
        self.ids_out[rows] = ids
        self.dists_out[rows] = dists
        self.n_candidates[rows] = stats.n_candidates
        self.escalated[rows] = stats.escalated
        if stats.exhausted_budget is not None:
            self.ensure_exhausted()[rows] |= stats.exhausted_budget

    def ensure_exhausted(self) -> np.ndarray:
        """The exhausted mask, allocating an all-False one on first use."""
        if self.exhausted is None:
            self.exhausted = np.zeros(self.nq, dtype=bool)
        return self.exhausted

    def build_stats(self) -> QueryStats:
        """Freeze the context's diagnostic state into a :class:`QueryStats`."""
        return QueryStats(self.n_candidates, self.escalated,
                          exhausted_budget=self.exhausted)
