"""The one query executor behind every front-end.

:func:`run_plan` owns the per-batch machinery that PRs 1–4 grew five
slightly-different copies of: gate reads (observer, installed policy,
installed fault plan), typed validation with policy-gated non-finite
degradation, :class:`~repro.resilience.deadline.Deadline` construction,
deadline checks between stages, per-stage timing, and assembly of the
final :class:`~repro.exec.context.QueryStats`.  Front-ends contribute
only a :class:`~repro.exec.plan.QueryPlan` with their stage bodies.

On top of the single-shard path, :func:`run_plan` implements
bounded-memory **batch sharding**: ``max_batch_rows`` splits a large
batch into contiguous row shards, each executed through the same plan
with the same absolute deadline and supervision handles.  Results are
bit-identical to the unsharded run (stages are row-independent given a
fixed ``hierarchy_threshold``), while peak intermediate memory — the
gather/rank scratch, which scales with rows per call — is capped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.exec.context import ExecutionContext, QueryStats
from repro.exec.plan import QueryPlan
from repro.obs import Observer
from repro.resilience.deadline import Deadline
from repro.resilience.errors import QueryValidationError
from repro.resilience.faults import FaultPlan, faults_active
from repro.resilience.policy import (FailureRecord, ResiliencePolicy,
                                     active_policy)


def execute_stages(plan: QueryPlan, queries: np.ndarray, k: int, *,
                   ob: Optional[Observer] = None,
                   deadline: Optional[Deadline] = None,
                   policy: Optional[ResiliencePolicy] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   max_batch_rows: Optional[int] = None,
                   pre_stages: Optional[Dict[str, float]] = None,
                   ) -> ExecutionContext:
    """Run one validated, all-finite shard through ``plan``'s stages.

    This is the gate-free inner engine: callers supply the observer /
    policy / fault plan explicitly (``benchmarks/bench_obs_overhead.py``
    uses it to time the pipeline with the gates pinned).  Normal entry is
    :func:`run_plan`.  ``max_batch_rows`` is only carried into the
    context for plans with ``delegates_sharding`` — this function itself
    never slices the batch.  ``pre_stages`` seeds the batch's stage span
    dict with spans measured before the stage loop (e.g. the
    ``<site>.validate`` lap of :func:`run_plan`), so sampled traces show
    the full waterfall.
    """
    ctx = ExecutionContext.for_batch(
        queries, k, ob=ob, deadline=deadline, policy=policy,
        fault_plan=fault_plan, max_batch_rows=max_batch_rows)
    if pre_stages:
        ctx.timer.stages.update(pre_stages)
    for stage in plan.stages():
        if (stage.skip is not None and deadline is not None
                and deadline.expired()):
            stage.skip(ctx)
        else:
            stage.fn(ctx)
        ctx.timer.lap(stage.name)
    plan.finish(ctx)
    if deadline is not None and ctx.exhausted is None:
        ctx.exhausted = np.zeros(ctx.nq, dtype=bool)
    if ob is not None:
        plan.record_obs(ctx)
    return ctx


def _run_shard(plan: QueryPlan, queries: np.ndarray, k: int,
               finite_row: Optional[np.ndarray], ob: Optional[Observer],
               deadline: Optional[Deadline],
               pol: Optional[ResiliencePolicy],
               fault_plan: Optional[FaultPlan],
               max_batch_rows: Optional[int] = None,
               pre_stages: Optional[Dict[str, float]] = None,
               ) -> ExecutionContext:
    """One shard: split off non-finite rows (policy mode), run the rest.

    Rows flagged non-finite by validation are answered with padding and
    ``degraded=True`` (plus one FailureRecord for the shard) while the
    finite rows execute normally — the behavior every front-end used to
    hand-roll, now in one place.
    """
    if finite_row is None or bool(finite_row.all()):
        return execute_stages(plan, queries, k, ob=ob, deadline=deadline,
                              policy=pol, fault_plan=fault_plan,
                              max_batch_rows=max_batch_rows,
                              pre_stages=pre_stages)
    assert pol is not None  # validation only tolerates bad rows under a policy
    ctx = ExecutionContext.for_batch(
        queries, k, ob=ob, deadline=deadline, policy=pol,
        fault_plan=fault_plan, max_batch_rows=max_batch_rows)
    ctx.degraded = ~finite_row
    if deadline is not None:
        ctx.exhausted = np.zeros(ctx.nq, dtype=bool)
    good = np.nonzero(finite_row)[0]
    if good.size:
        sub = execute_stages(plan, queries[good], k, ob=ob,
                             deadline=deadline, policy=pol,
                             fault_plan=fault_plan,
                             max_batch_rows=max_batch_rows,
                             pre_stages=pre_stages)
        ctx.ids_out[good] = sub.ids_out
        ctx.dists_out[good] = sub.dists_out
        ctx.n_candidates[good] = sub.n_candidates
        ctx.escalated[good] = sub.escalated
        if sub.degraded is not None:
            ctx.degraded[good] |= sub.degraded
        if ctx.exhausted is not None and sub.exhausted is not None:
            ctx.exhausted[good] = sub.exhausted
        ctx.failures.extend(sub.failures)
    n_bad = int(ctx.nq - good.size)
    ctx.failures.append(pol.note_failure(
        f"{plan.site}.validate", f"rows={n_bad}",
        QueryValidationError("query rows contain NaN or infinite values",
                             field="queries"),
        "degraded"))
    if ob is not None:
        ob.record_degraded("nonfinite_query", n_bad)
    return ctx


def run_plan(plan: QueryPlan, queries: object, k: int, *,
             deadline_ms: Optional[float] = None,
             deadline: Optional[Deadline] = None,
             policy: Optional[ResiliencePolicy] = None,
             max_batch_rows: Optional[int] = None,
             ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Execute ``plan`` over a query batch; the single front-end entry.

    Resolution order (identical for every front-end): explicit ``policy``
    else the installed gate; plan validation (non-finite rows tolerated
    only under a policy); explicit ``deadline`` else one built from
    ``deadline_ms``.  ``max_batch_rows`` bounds rows per executed
    shard — results are bit-identical to unsharded execution, the
    deadline is one absolute expiry shared by all shards, and shards
    past an expired deadline return padded answers flagged
    ``exhausted_budget`` without running their stages.  Plans with
    ``delegates_sharding`` apply the bound themselves at their fan-out
    level (via :func:`run_shards`) instead of the top-level slicing.
    """
    pol = policy if policy is not None else active_policy()
    ob = obs.active()
    # Validation is timed into the batch waterfall (``<site>.validate``)
    # so a stitched trace starts at the real entry point; StageTimer is
    # clock-free when ``ob`` is None, keeping the disabled-path contract.
    vtimer = obs.StageTimer(ob)
    arr, finite_row, k = plan.validate(queries, k,
                                       allow_nonfinite=pol is not None)
    vtimer.lap(f"{plan.site}.validate")
    pre_stages = vtimer.stages if ob is not None else None
    if deadline is None:
        deadline = Deadline.from_ms(deadline_ms)
    if max_batch_rows is not None:
        if not isinstance(max_batch_rows, (int, np.integer)) \
                or isinstance(max_batch_rows, bool) or max_batch_rows <= 0:
            raise QueryValidationError(
                f"max_batch_rows must be a positive int or None, "
                f"got {max_batch_rows!r}", field="max_batch_rows")
    fault_plan = faults_active()
    if plan.delegates_sharding:
        # The plan bounds rows at its own fan-out level (see
        # QueryPlan.delegates_sharding); the top-level batch runs once.
        ctx = _run_shard(plan, arr, k, finite_row, ob, deadline, pol,
                         fault_plan,
                         max_batch_rows=(int(max_batch_rows)
                                         if max_batch_rows is not None
                                         else None),
                         pre_stages=pre_stages)
        return ctx.ids_out, ctx.dists_out, ctx.build_stats()
    return run_shards(plan, arr, k, finite_row=finite_row, ob=ob,
                      deadline=deadline, policy=pol, fault_plan=fault_plan,
                      max_batch_rows=max_batch_rows, pre_stages=pre_stages)


def run_shards(plan: QueryPlan, queries: np.ndarray, k: int, *,
               finite_row: Optional[np.ndarray] = None,
               ob: Optional[Observer] = None,
               deadline: Optional[Deadline] = None,
               policy: Optional[ResiliencePolicy] = None,
               fault_plan: Optional[FaultPlan] = None,
               max_batch_rows: Optional[int] = None,
               pre_stages: Optional[Dict[str, float]] = None,
               ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Execute pre-validated ``queries`` in shards of ``max_batch_rows``.

    The bounded-memory inner loop of :func:`run_plan`, also called by
    ``delegates_sharding`` plans to bound their fan-out sub-executions
    (each per-group sub-batch of the bi-level dispatch).  Inputs must
    already be validated; gates are supplied by the caller.  With
    ``max_batch_rows`` ``None`` or >= the batch, the batch runs as one
    shard and no shard telemetry is recorded.
    """
    nq = int(queries.shape[0])
    if max_batch_rows is None or int(max_batch_rows) >= nq:
        ctx = _run_shard(plan, queries, k, finite_row, ob, deadline,
                         policy, fault_plan, pre_stages=pre_stages)
        return ctx.ids_out, ctx.dists_out, ctx.build_stats()

    rows_per_shard = int(max_batch_rows)
    ids_out = np.full((nq, k), -1, dtype=np.int64)
    dists_out = np.full((nq, k), np.inf, dtype=np.float64)
    n_candidates = np.zeros(nq, dtype=np.int64)
    escalated = np.zeros(nq, dtype=bool)
    degraded: Optional[np.ndarray] = None
    exhausted: Optional[np.ndarray] = (
        np.zeros(nq, dtype=bool) if deadline is not None else None)
    failures: List[FailureRecord] = []
    n_shards = 0
    for start in range(0, nq, rows_per_shard):
        stop = min(start + rows_per_shard, nq)
        n_shards += 1
        if deadline is not None and deadline.expired():
            # Budget spent before this shard started: padded best-effort
            # answer, flagged exhausted; earlier shards stay untouched.
            assert exhausted is not None
            exhausted[start:stop] = True
            if ob is not None:
                ob.record_deadline_exhausted(f"{plan.site}.shard",
                                             stop - start)
            continue
        sub_finite = (finite_row[start:stop]
                      if finite_row is not None else None)
        ctx = _run_shard(plan, queries[start:stop], k, sub_finite, ob,
                         deadline, policy, fault_plan,
                         pre_stages=pre_stages)
        ids_out[start:stop] = ctx.ids_out
        dists_out[start:stop] = ctx.dists_out
        n_candidates[start:stop] = ctx.n_candidates
        escalated[start:stop] = ctx.escalated
        if ctx.degraded is not None:
            if degraded is None:
                degraded = np.zeros(nq, dtype=bool)
            degraded[start:stop] = ctx.degraded
        if exhausted is not None and ctx.exhausted is not None:
            exhausted[start:stop] = ctx.exhausted
        failures.extend(ctx.failures)
    if ob is not None:
        ob.record_shards(plan.site, n_shards)
    stats = QueryStats(
        n_candidates, escalated, degraded=degraded,
        exhausted_budget=exhausted,
        failures=tuple(failures) if failures else None)
    return ids_out, dists_out, stats
