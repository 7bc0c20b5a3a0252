"""Micro-batching: coalesce concurrent requests into one executor batch.

The batch engine amortizes hashing and candidate scoring across
query rows, so ten concurrent 1-row requests cost far more as
ten ``run_plan`` calls than as one 10-row call.  :class:`MicroBatcher`
exploits that without changing answers: concurrent requests whose
execution options agree (same ``k``, threshold, policy, sharding,
deadline-ness) are merged under a small time/size window,
executed as one batch, and the results split back per request
**bit-identically** to solo execution.

Correctness of the merge rests on three facts about the executor:

1. Row independence — every plan stage maps query rows independently
   (rule R8 centralizes execution on that contract), so stacking two
   requests' rows changes neither request's candidates nor distances.
2. The one batch-*dependent* knob is the hierarchical ``"median"``
   escalation threshold, which is computed from the executed batch.
   Requests resolving to ``"median"`` on a hierarchy-sensitive index
   are therefore executed solo (``solo_fn``) unless the session pins an
   integer threshold.
3. Deadlines are absolute: a request is resolved where it arrives
   (:meth:`~repro.runtime.session.IndexRuntime.resolve`: session
   defaults filled in, its :class:`~repro.resilience.deadline.Deadline`
   started), so the batcher keys on what will actually run, and a
   merged batch runs under the *earliest* member expiry, so no member
   can overrun its own budget by riding a batch.  Because the earliest
   expiry also *shrinks* the other members' budgets, requests merge
   only within one deadline-proximity bucket (remaining budget
   quantized to ``deadline_bucket_ms``): a nearly-expired request can
   never drag a generous one into ``exhausted_budget`` padding it
   would not produce solo, and the budget a member can lose to the
   batch minimum is bounded by one bucket width.

Stat splitting mirrors the executor's lazy-``None`` conventions: a
request whose slice of ``degraded`` is all-False gets ``None`` (exactly
what its solo run would report), while ``exhausted_budget`` is sliced
whenever the merged batch materialized it — it ran under a deadline,
and the key guarantees every member then had one of its own, as its
solo run would.  ``failures`` records are batch-scoped
with no row attribution, so a merged batch's failure tuple is reported
to every member — the one documented widening versus solo execution.

Thread-safety: the batcher is driven by N server threads calling
:meth:`MicroBatcher.submit` concurrently.  The first arrival for a
merge key becomes the *leader*: it waits out the window (or until the
size cap fills), pops the bucket, executes the merged batch outside the
monitor, and distributes slices to the followers' events.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.context import QueryStats
from repro.runtime.session import QueryRequest, QueryResponse, shed_response

__all__ = ["DEADLINE_BUCKET_MS", "MicroBatcher", "merge_key", "split_stats"]

#: Default width of the deadline-proximity buckets in :func:`merge_key`.
#: A merged batch runs under its earliest member expiry, so a member can
#: lose at most one bucket width of its own budget to the batch minimum.
DEADLINE_BUCKET_MS = 25.0


def merge_key(request: QueryRequest, *,
              deadline_bucket_ms: float = DEADLINE_BUCKET_MS) -> Hashable:
    """The homogeneity key: requests merge only when every execution
    option that can change results (or stat shape) agrees.

    Policies compare by identity — two distinct policy objects are kept
    apart even if equal, because the executor consults object state.
    Deadlines contribute a *proximity bucket*, not mere presence: the
    merged batch executes under the earliest member expiry, so merging
    a nearly-expired request with a generous one would silently spend
    the generous member's budget — quantizing the remaining budget to
    ``deadline_bucket_ms`` keeps materially different budgets apart
    (executing them as separate batches) while bounding the loss within
    a bucket to one bucket width.  Any bucket number means "has a
    deadline", so a batch still either wholly materializes
    ``exhausted_budget`` or wholly omits it.
    """
    if request.deadline is not None:
        remaining_ms: Optional[float] = max(
            0.0, request.deadline.remaining_seconds() * 1000.0)
    elif request.deadline_ms is not None:
        remaining_ms = float(request.deadline_ms)
    else:
        remaining_ms = None
    deadline_bucket: Optional[int] = None
    if remaining_ms is not None:
        deadline_bucket = int(remaining_ms // deadline_bucket_ms)
    return (
        int(request.k),
        request.hierarchy_threshold,
        id(request.policy) if request.policy is not None else None,
        request.max_batch_rows,
        deadline_bucket,
    )


def split_stats(stats: QueryStats, sl: slice) -> QueryStats:
    """Slice one request's rows out of a merged batch's stats.

    Preserves the lazy-``None`` convention bit-for-bit against solo
    execution: ``degraded`` collapses back to ``None`` when the slice
    carries no mark, ``exhausted_budget`` survives exactly when the
    batch — hence, by the merge key, the request — ran under a deadline.
    """
    degraded: Optional[np.ndarray] = None
    if stats.degraded is not None:
        part = stats.degraded[sl]
        if part.any():
            degraded = part.copy()
    exhausted: Optional[np.ndarray] = None
    if stats.exhausted_budget is not None:
        exhausted = stats.exhausted_budget[sl].copy()
    return QueryStats(
        n_candidates=stats.n_candidates[sl].copy(),
        escalated=stats.escalated[sl].copy(),
        degraded=degraded,
        exhausted_budget=exhausted,
        failures=stats.failures,
    )


class _Entry:
    """One waiting request: its slot in the bucket and its result latch."""

    __slots__ = ("request", "event", "response", "error")

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self.event = threading.Event()
        self.response: Optional[QueryResponse] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Leader/follower request coalescer in front of an executor.

    Parameters
    ----------
    execute:
        ``QueryRequest -> QueryResponse`` — typically
        :meth:`repro.runtime.session.IndexRuntime.submit`.
    window_ms:
        How long a leader waits for companions before dispatching.
        ``0`` disables coalescing (every request runs solo), which is
        also the honest baseline for benchmarks.
    max_rows:
        Dispatch early once the bucket holds this many query rows.
    solo_fn:
        Optional predicate; requests for which it returns True bypass
        merging (used for batch-dependent ``"median"`` thresholds on
        hierarchy-sensitive indexes).
    deadline_bucket_ms:
        Width of the deadline-proximity buckets in :func:`merge_key`:
        requests whose remaining budgets land in different buckets
        execute as separate batches, bounding how much budget a member
        can lose to the batch's earliest-expiry rule.
    """

    def __init__(self, execute: Callable[[QueryRequest], QueryResponse], *,
                 window_ms: float = 2.0, max_rows: int = 256,
                 solo_fn: Optional[Callable[[QueryRequest], bool]] = None,
                 deadline_bucket_ms: float = DEADLINE_BUCKET_MS,
                 ) -> None:
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        if not deadline_bucket_ms > 0:
            raise ValueError(f"deadline_bucket_ms must be positive, "
                             f"got {deadline_bucket_ms}")
        self._execute = execute
        self._window_s = window_ms / 1000.0
        self._max_rows = max_rows
        self._solo_fn = solo_fn
        self._deadline_bucket_ms = deadline_bucket_ms
        # Leader/follower monitor.  Deliberately not named "*lock*": the
        # only waiting under it is Condition.wait with a bounded timeout,
        # and the merged execution happens outside the monitor.
        self._cond = threading.Condition()
        self._buckets: Dict[Hashable, List[_Entry]] = {}
        self._closed = False
        self._merged_batches = 0
        self._merged_requests = 0

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Refuse new work; in-flight leaders drain on their own threads."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    @property
    def merge_counts(self) -> Tuple[int, int]:
        """(merged batches executed, requests that rode them)."""
        with self._cond:
            return self._merged_batches, self._merged_requests

    # ------------------------------------------------------------- submit

    def submit(self, request: QueryRequest) -> QueryResponse:
        """Answer one request, riding a merged batch when possible.

        Blocks the calling thread until its rows come back (at most the
        window plus the merged execution).  ``request`` is read as it
        stands — resolve it at the door
        (:meth:`~repro.runtime.session.IndexRuntime.resolve`), or an
        unset option keys as unset and an unstarted ``deadline_ms`` only
        starts inside ``execute``, after the window.  Past-due requests
        — whose deadline expired before any work started — are answered
        immediately with exhausted-budget padding and never occupy the
        executor.
        """
        if request.deadline is not None and request.deadline.expired():
            return shed_response(request, reason="past-due")
        if self._window_s == 0.0 or (self._solo_fn is not None
                                     and self._solo_fn(request)):
            return self._execute(request)
        key = merge_key(request,
                        deadline_bucket_ms=self._deadline_bucket_ms)
        entry = _Entry(request)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                is_leader = True
            else:
                bucket.append(entry)
                is_leader = False
                if self._bucket_rows(bucket) >= self._max_rows:
                    self._cond.notify_all()
        if is_leader:
            return self._lead(key, entry)
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        assert entry.response is not None
        return entry.response

    @staticmethod
    def _bucket_rows(bucket: Sequence[_Entry]) -> int:
        return sum(e.request.n_rows() for e in bucket)

    def _lead(self, key: Hashable, entry: _Entry) -> QueryResponse:
        """Wait out the window, pop the bucket, execute, distribute."""
        expires_at = time.monotonic() + self._window_s
        with self._cond:
            while True:
                bucket = self._buckets[key]
                if self._bucket_rows(bucket) >= self._max_rows or self._closed:
                    break
                remaining = expires_at - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            bucket = self._buckets.pop(key)
        try:
            responses = self._run_merged(bucket)
        except BaseException as exc:
            for follower in bucket:
                if follower is not entry:
                    follower.error = exc
                    follower.event.set()
            raise
        result: Optional[QueryResponse] = None
        for follower, response in zip(bucket, responses):
            if follower is entry:
                result = response
            else:
                follower.response = response
                follower.event.set()
        assert result is not None
        return result

    # ------------------------------------------------------------- merging

    def _run_merged(self, bucket: List[_Entry]) -> List[QueryResponse]:
        if len(bucket) == 1:
            return [self._execute(bucket[0].request)]
        template = bucket[0].request
        queries = np.concatenate(
            [np.asarray(e.request.queries) for e in bucket], axis=0)
        # Earliest member expiry governs the merged batch: absolute
        # Deadline objects make "earliest" exact, not re-derived.
        deadline = min(
            (e.request.deadline for e in bucket
             if e.request.deadline is not None),
            key=lambda d: d.remaining_seconds(), default=None)
        response = self._execute(
            replace(template, queries=queries, deadline=deadline))
        with self._cond:
            self._merged_batches += 1
            self._merged_requests += len(bucket)
        out: List[QueryResponse] = []
        start = 0
        for member in bucket:
            n = member.request.n_rows()
            sl = slice(start, start + n)
            start += n
            out.append(QueryResponse(
                ids=response.ids[sl].copy(),
                distances=response.distances[sl].copy(),
                stats=split_stats(response.stats, sl),
                shed=False,
                batched=len(bucket)))
        return out
