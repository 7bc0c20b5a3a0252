"""The one query executor behind every front-end: two functions.

:func:`run_plan` is the front-end entry and owns what is decided once
per batch: the gate reads (observer, installed policy, installed fault
plan), typed validation with policy-gated non-finite tolerance,
:class:`~repro.resilience.deadline.Deadline` construction, and the
:class:`~repro.exec.context.ExecutionContext` all of it lives in.
:func:`run_validated` is the gate-free inner entry: it runs a context's
already-validated rows through the plan's stages — in bounded-memory
shards, non-finite rows set aside — folding every sub-result back with
:meth:`~repro.exec.context.ExecutionContext.absorb`.  Front-ends
contribute only a :class:`~repro.exec.plan.QueryPlan`.

**Batch sharding**: ``max_batch_rows`` splits a large batch into
contiguous row shards, each executed through the same plan with the
same absolute deadline and supervision handles.  Results are
bit-identical to the unsharded run (stages are row-independent given a
fixed ``hierarchy_threshold``), while peak intermediate memory — the
gather/rank scratch, which scales with rows per call — is capped.
"""

from __future__ import annotations

from concurrent.futures import Executor
from functools import partial
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exec.context import ExecutionContext, QueryStats
from repro.exec.plan import QueryPlan
from repro.resilience.deadline import Deadline
from repro.resilience.errors import QueryValidationError
from repro.resilience.faults import faults_active
from repro.resilience.policy import ResiliencePolicy, active_policy


def run_plan(plan: QueryPlan, queries: object, k: int, *,
             deadline_ms: Optional[float] = None,
             deadline: Optional[Deadline] = None,
             policy: Optional[ResiliencePolicy] = None,
             max_batch_rows: Optional[int] = None,
             shard_pool: Optional[Executor] = None,
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
    level instead of the top-level slicing.  ``shard_pool`` (an
    ``IndexRuntime``'s) runs the shards on its threads instead of in turn
    — the kernels release the GIL — folded in shard order, so the answer
    is the inline one byte for byte (DESIGN.md §12).
    """
    pol = policy if policy is not None else active_policy()
    ob = obs.active()
    # Validation is the first lap of the batch's one timer
    # (``<site>.validate``), so a trace starts at the real entry point;
    # StageTimer is clock-free when ``ob`` is None, keeping the
    # disabled-path contract.
    timer = obs.StageTimer(ob)
    arr, finite_row, k = plan.validate(queries, k,
                                       allow_nonfinite=pol is not None)
    timer.lap(f"{plan.site}.validate")
    if deadline is None:
        deadline = Deadline.from_ms(deadline_ms)
    if max_batch_rows is not None:
        if not isinstance(max_batch_rows, (int, np.integer)) \
                or isinstance(max_batch_rows, bool) or max_batch_rows <= 0:
            raise QueryValidationError(
                f"max_batch_rows must be a positive int or None, "
                f"got {max_batch_rows!r}", field="max_batch_rows")
        max_batch_rows = int(max_batch_rows)
    ctx = ExecutionContext.for_batch(
        arr, k, ob=ob, deadline=deadline, policy=pol,
        fault_plan=faults_active(), max_batch_rows=max_batch_rows,
        timer=timer, pool=shard_pool)
    return run_validated(plan, ctx, finite_row)


def run_validated(plan: QueryPlan, ctx: ExecutionContext,
                  finite_row: Optional[np.ndarray] = None,
                  ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Run ``ctx``'s rows through ``plan``; the gate-free inner entry.

    Everything :func:`run_plan` resolves arrives in ``ctx``, so fan-out
    plans (the bi-level dispatch, once per group sub-batch) and
    ``benchmarks/bench_obs_overhead.py`` (gates pinned) enter here.
    One of three things happens to the rows:

    - more than ``ctx.max_batch_rows`` (and the plan does not apply the
      bound itself): shard by shard — in turn, or on ``ctx.pool`` — a
      shard whose turn comes after the deadline keeping its padded
      rows, flagged ``exhausted_budget``;
    - some flagged non-finite by validation (``finite_row``; only under
      a policy): those get padding, ``degraded=True`` and one
      FailureRecord, the finite rows run;
    - otherwise: the stage loop, each stage lapped under its name.

    The first two recurse on a :meth:`ExecutionContext.child` and fold
    it back with :meth:`ExecutionContext.absorb`.
    """
    nq, ob, deadline = ctx.nq, ctx.ob, ctx.deadline
    if deadline is not None:
        ctx.ensure_exhausted()  # a budget always materializes its mask
    bound = None if plan.delegates_sharding else ctx.max_batch_rows
    if bound is not None and bound < nq:
        shards = [slice(start, min(start + bound, nq))
                  for start in range(0, nq, bound)]
        run = partial(_run_shard, plan, ctx, finite_row)
        # ``map`` is lazy: without a pool a shard runs when its turn comes.
        results = map(run, shards) if ctx.pool is None \
            else _pooled(ctx.pool, run, shards)
        for rows, result in zip(shards, results):
            if result is None:
                # Budget spent before this shard started: padded best-effort
                # answer, flagged exhausted; earlier shards stay untouched.
                ctx.ensure_exhausted()[rows] = True
                if ob is not None:
                    ob.record_deadline_exhausted(f"{plan.site}.shard",
                                                 rows.stop - rows.start)
                continue
            ctx.absorb(rows, *result)
        if ob is not None:
            ob.record_shards(plan.site, len(shards))
    elif finite_row is not None and not finite_row.all():
        # Validation only tolerates bad rows under a policy.
        assert ctx.policy is not None
        ctx.ensure_degraded()[~finite_row] = True
        good = np.nonzero(finite_row)[0]
        if good.size:
            ctx.absorb(good, *run_validated(plan, ctx.child(good)))
        n_bad = int(nq - good.size)
        ctx.failures.append(ctx.policy.note_failure(
            f"{plan.site}.validate", f"rows={n_bad}",
            QueryValidationError("query rows contain NaN or infinite values",
                                 field="queries"),
            "degraded"))
        if ob is not None:
            ob.record_degraded("nonfinite_query", n_bad)
    else:
        for stage in plan.stages():
            stage.fn(ctx)
            ctx.timer.lap(stage.name)
        if ob is not None:
            plan.record_obs(ctx)
    return ctx.ids_out, ctx.dists_out, ctx.build_stats()


_ShardResult = Optional[Tuple[np.ndarray, np.ndarray, QueryStats]]


def _run_shard(plan: QueryPlan, ctx: ExecutionContext,
               finite_row: Optional[np.ndarray], rows: slice) -> _ShardResult:
    """One shard of ``ctx``'s rows, or ``None`` when its turn came after
    the deadline: the task a shard pool thread runs.  The child context
    carries no pool, so no pool thread ever waits on its own pool."""
    if ctx.deadline is not None and ctx.deadline.expired():
        return None
    return run_validated(
        plan, ctx.child(rows),
        finite_row[rows] if finite_row is not None else None)


def _pooled(pool: Executor, run: Callable[[slice], _ShardResult],
            shards: Sequence[slice]) -> Iterator[_ShardResult]:
    """``run`` over every shard at once on ``pool``, results in shard
    order — an error surfaces at the first shard that raised, as inline."""
    futures = [pool.submit(run, rows) for rows in shards]
    try:
        for future in futures:
            yield future.result()
    finally:
        # Early only when a shard raised: shards not started never run,
        # running ones are waited out — nothing of the batch outlives it.
        for future in futures:
            if not future.cancel():
                future.exception()
