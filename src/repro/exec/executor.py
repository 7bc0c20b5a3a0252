"""The one query executor behind every front-end: two functions.

:func:`run_plan` is the front-end entry and owns what is decided once
per batch: the observer gate read, typed validation (a non-finite or
mis-shaped row is refused, never answered),
:class:`~repro.resilience.deadline.Deadline` construction, and the
:class:`~repro.exec.context.ExecutionContext` all of it lives in.
:func:`run_validated` is the gate-free inner entry: it runs a context's
already-validated rows through the plan's stages — in bounded-memory
shards — folding every sub-result back with
:meth:`~repro.exec.context.ExecutionContext.absorb`.  Front-ends
contribute only a :class:`~repro.exec.plan.QueryPlan`.

**Batch sharding**: the gather/rank scratch grows with *lookup* rows
(query rows × tables × (1 + probes) × spill, what
:meth:`~repro.exec.plan.QueryPlan.lookups_per_row` counts), so a batch
of more than :data:`SHARD_LOOKUP_ROWS` lookup rows runs as contiguous
row shards, each through the same plan with the same absolute deadline
and observer.  Results are bit-identical to the unsharded run
(stages are row-independent: even the escalation threshold is the
index's, not the batch's), while peak scratch memory is capped.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.exec.context import ExecutionContext, QueryStats
from repro.exec.plan import QueryPlan
from repro.resilience.deadline import Deadline

#: Lookup rows one shard may gather.  Scratch runs ≈ 125–180 B per lookup
#: row (more the larger the call), so a shard holds ≈ 130 MiB of it; no
#: batch under this many lookup rows shards.
SHARD_LOOKUP_ROWS = 1 << 20


def run_plan(plan: QueryPlan, queries: object, k: int, *,
             deadline_ms: Optional[float] = None,
             deadline: Optional[Deadline] = None,
             ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Execute ``plan`` over a query batch; the single front-end entry.

    Resolution order (identical for every front-end): plan validation
    (:class:`~repro.resilience.errors.QueryValidationError` for a bad
    row or ``k``); explicit ``deadline`` else one built from
    ``deadline_ms``.  The deadline is
    one absolute expiry shared by all of :func:`run_validated`'s shards.
    Shards run in turn; the kernels use P threads (DESIGN.md §12).
    """
    ob = obs.active()
    # Validation is the first lap of the batch's one timer
    # (``<site>.validate``), so a trace starts at the real entry point;
    # StageTimer is clock-free when ``ob`` is None, keeping the
    # disabled-path contract.
    timer = obs.StageTimer(ob)
    arr, k = plan.validate(queries, k)
    timer.lap(f"{plan.site}.validate")
    if deadline is None:
        deadline = Deadline.from_ms(deadline_ms)
    ctx = ExecutionContext.for_batch(arr, k, ob=ob, deadline=deadline,
                                     timer=timer)
    return run_validated(plan, ctx)


def run_validated(plan: QueryPlan, ctx: ExecutionContext,
                  ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Run ``ctx``'s rows through ``plan``; the gate-free inner entry.

    Everything :func:`run_plan` resolves arrives in ``ctx``, so the
    executor's own shards and ``benchmarks/bench_obs_overhead.py`` (gates
    pinned) enter here.
    A batch of more than :data:`SHARD_LOOKUP_ROWS` lookup rows runs
    shard by shard, in turn, each shard as many rows as fit, each a
    :meth:`ExecutionContext.child` folded back with
    :meth:`ExecutionContext.absorb`; a shard whose turn comes after the
    deadline keeps its padded rows, flagged ``exhausted_budget``.  Any
    other batch runs the stage loop, each stage lapped under its name.
    """
    nq, ob, deadline = ctx.nq, ctx.ob, ctx.deadline
    if deadline is not None:
        ctx.ensure_exhausted()  # a budget always materializes its mask
    bound = max(1, SHARD_LOOKUP_ROWS // plan.lookups_per_row())
    if bound < nq:
        for start in range(0, nq, bound):
            rows = slice(start, min(start + bound, nq))
            if deadline is not None and deadline.expired():
                # Budget spent before this shard started: padded best-effort
                # answer, flagged exhausted; earlier shards stay untouched.
                ctx.ensure_exhausted()[rows] = True
                if ob is not None:
                    ob.record_deadline_exhausted(f"{plan.site}.shard",
                                                 rows.stop - rows.start)
                continue
            ctx.absorb(rows, *run_validated(plan, ctx.child(rows)))
        if ob is not None:
            ob.record_shards(plan.site, -(-nq // bound))
    else:
        for stage in plan.stages():
            stage.fn(ctx)
            ctx.timer.lap(stage.name)
        if ob is not None:
            plan.record_obs(ctx)
    return ctx.ids_out, ctx.dists_out, ctx.build_stats()

