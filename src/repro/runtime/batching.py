"""Micro-batching: coalesce concurrent requests into one executor batch.

The batch engine amortizes hashing and candidate scoring across
query rows, so ten concurrent 1-row requests cost far more as
ten ``run_plan`` calls than as one 10-row call.  :class:`MicroBatcher`
exploits that without changing answers and without a clock: at most
one batch executes at a time, and requests that arrive while it runs
queue up; when it finishes, the queued requests whose execution
options agree (same ``k``, threshold, deadline-ness)
execute as the next batch, and the results split back per request
**bit-identically** to solo execution.  Under light load a request
finds nothing running and executes at once; under load the batches
grow by themselves, because everything that arrived during one batch
rides the next.

Correctness of the merge rests on two facts about the executor:

1. Row independence — every query stage maps query rows independently
   (:mod:`repro.lsh.query` is the one query path), so stacking two
   requests' rows changes neither request's candidates nor distances.
   That includes escalation: a hierarchy index escalates by its fitted
   threshold (or the request's own), never by a statistic of the batch.
2. Deadlines are absolute: a request is resolved where it arrives
   (:meth:`~repro.runtime.session.IndexRuntime.resolve`: session
   defaults filled in, its :class:`~repro.resilience.deadline.Deadline`
   started), so the batcher keys on what will actually run, and a
   merged batch runs under the *earliest* member expiry, so no member
   can overrun its own budget by riding a batch.  Because the earliest
   expiry also *shrinks* the other members' budgets, requests merge
   only within one deadline-proximity bucket (remaining budget at
   arrival quantized to ``deadline_bucket_ms``), and the batch cut from
   a key's queue spans less than one bucket width of expiry instants —
   a key's queue fills over whole batches, so members that arrived far
   apart with equal budgets expire far apart.  A nearly-expired request
   can never drag a generous one into ``exhausted_budget`` padding it
   would not produce solo, and the budget a member can lose to the
   batch minimum is bounded by one bucket width, however long it
   queued.

Stat splitting mirrors the executor's lazy-``None`` convention:
``exhausted_budget`` is sliced whenever the merged batch materialized
it — it ran under a deadline, and the key guarantees every member then
had one of its own, as its solo run would.  A merged batch that raises
is re-run member by member, so a bad request (the HTTP door refuses
one with a 400 before it queues) fails alone and its neighbours answer.

Thread-safety: the batcher is driven by N server threads calling
:meth:`MicroBatcher.submit` concurrently.  A request that finds no
batch running *leads* one at once.  Otherwise it joins its merge key's
queue and waits on the batcher's condition until its answer is set or
its turn to lead comes.  A leader executes outside the monitor, then,
back inside it, hands the answers to its batch's members and the turn
to the queue: the key whose oldest request has waited longest forms
the next batch (its oldest requests, up to ``max_rows`` rows, skipping
any that expire a bucket width or more apart from the rest; what
remains waits for its oldest request's turn), and that batch's oldest
member leads it.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import (Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
                    TypeVar, cast)

import numpy as np

from repro.lsh.query import QueryStats
from repro.runtime.session import QueryRequest, QueryResponse, shed_response

__all__ = ["DEADLINE_BUCKET_MS", "MicroBatcher", "merge_key", "split_stats"]

T = TypeVar("T")

#: Default width of the deadline-proximity buckets in :func:`merge_key`.
#: A merged batch runs under its earliest member expiry, so a member can
#: lose at most one bucket width of its own budget to the batch minimum.
DEADLINE_BUCKET_MS = 25.0


def merge_key(request: QueryRequest, *,
              deadline_bucket_ms: float = DEADLINE_BUCKET_MS) -> Hashable:
    """The homogeneity key: requests merge only when every execution
    option that can change results (or stat shape) agrees.

    Deadlines contribute a *proximity bucket*, not mere presence: the
    merged batch executes under the earliest member expiry, so merging
    a nearly-expired request with a generous one would silently spend
    the generous member's budget — quantizing the remaining budget to
    ``deadline_bucket_ms`` keeps materially different budgets apart
    (executing them as separate batches).  Any bucket number means "has
    a deadline", so a batch still either wholly materializes
    ``exhausted_budget`` or wholly omits it.  The key compares budgets
    as they stood at arrival; members of one key that arrived far apart
    expire far apart, so :class:`MicroBatcher` also bounds the expiry
    span of each batch it cuts from a key's queue.
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
        deadline_bucket,
    )


def split_stats(stats: QueryStats, sl: slice) -> QueryStats:
    """Slice one request's rows out of a merged batch's stats.

    Preserves the lazy-``None`` convention bit-for-bit against solo
    execution: ``exhausted_budget`` survives exactly when the batch —
    hence, by the merge key, the request — ran under a deadline.
    """
    exhausted: Optional[np.ndarray] = None
    if stats.exhausted_budget is not None:
        exhausted = stats.exhausted_budget[sl].copy()
    return QueryStats(
        n_candidates=stats.n_candidates[sl].copy(),
        escalated=stats.escalated[sl].copy(),
        exhausted_budget=exhausted,
    )


class _Entry:
    """One waiting request — a read, or a ``call`` that takes a turn of
    its own — with its turn and its result latch.

    ``seq`` is its arrival number, which orders the turns.  ``batch`` is
    set when the entry's turn to lead comes (it is then the batch's first
    member); ``done`` when a leader has answered it.  Both are written
    and read under the batcher's monitor only.
    """

    __slots__ = ("request", "call", "rows", "seq", "batch", "done",
                 "result", "error")

    def __init__(self, request: Optional[QueryRequest],
                 call: Optional[Callable[[], object]] = None) -> None:
        self.request = request
        self.call = call
        self.rows = request.n_rows() if request is not None else 0
        self.seq = 0
        self.batch: Optional[List["_Entry"]] = None
        self.done = False
        self.result: object = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Single-flight request coalescer in front of an executor.

    Parameters
    ----------
    execute:
        ``QueryRequest -> QueryResponse`` — typically
        :meth:`repro.runtime.session.IndexRuntime.submit`.  Never called
        twice at once by one batcher.
    max_rows:
        Cap on the query rows of one executed batch: queued requests
        beyond it run in the following batch, and a single request
        larger than the cap runs alone.
    deadline_bucket_ms:
        Width of the deadline-proximity buckets in :func:`merge_key`:
        requests whose remaining budgets land in different buckets, or
        whose expiry instants lie a width or more apart, execute as
        separate batches, bounding how much budget a member can lose to
        the batch's earliest-expiry rule.
    """

    def __init__(self, execute: Callable[[QueryRequest], QueryResponse], *,
                 max_rows: int = 256,
                 deadline_bucket_ms: float = DEADLINE_BUCKET_MS,
                 ) -> None:
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        if not deadline_bucket_ms > 0:
            raise ValueError(f"deadline_bucket_ms must be positive, "
                             f"got {deadline_bucket_ms}")
        self._execute = execute
        self._max_rows = max_rows
        self._deadline_bucket_ms = deadline_bucket_ms
        # The monitor over the queue and the turn.  Deliberately not
        # named "*lock*": execution happens outside it, and the only
        # waiting under it is Condition.wait, which releases it.
        self._cond = threading.Condition()
        # Merge key -> its waiting requests, oldest first.  The next turn
        # goes to the key whose oldest waiting request arrived first.
        self._queues: Dict[Hashable, List[_Entry]] = {}
        self._arrivals = 0
        self._running = False
        self._closed = False
        self._merged_batches = 0
        self._merged_requests = 0

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Refuse new work; queued requests still run, turn by turn."""
        with self._cond:
            self._closed = True

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

        Blocks the calling thread until its rows come back: at once if
        nothing is running, else after the running batch and the batches
        queued ahead of its own.  ``request`` is read as it stands —
        resolve it at the door
        (:meth:`~repro.runtime.session.IndexRuntime.resolve`), or an
        unset option keys as unset and an unstarted ``deadline_ms`` only
        starts inside ``execute``, after the queue wait.  Past-due
        requests — whose deadline expired before any work started — are
        answered immediately with exhausted-budget padding and never
        occupy the executor.
        """
        if request.deadline is not None and request.deadline.expired():
            return shed_response(request, reason="past-due")
        key = merge_key(request, deadline_bucket_ms=self._deadline_bucket_ms)
        return cast(QueryResponse, self._take_turn(_Entry(request), key))

    def run_in_turn(self, call: Callable[[], T]) -> T:
        """Run ``call()`` — a write — in the read batches' turn order: after
        the batch running now and every batch whose oldest request arrived
        before it, alone, and before every batch whose oldest request
        arrived after it.  So a write never runs beside a read batch, and
        reads that arrive during it wait for it.  (A read that arrives
        after the write may still ride a batch of its key that was already
        waiting — merging takes a key's waiting requests together.)"""
        entry = _Entry(None, call)
        return cast(T, self._take_turn(entry, entry))

    def _take_turn(self, entry: _Entry, key: Hashable) -> object:
        """Lead ``entry`` now if nothing runs, else queue it under ``key``
        and wait for its answer or its turn to lead."""
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if not self._running:
                # Nothing runs, so nothing is queued either: lead now.
                self._running = True
                entry.batch = [entry]
            else:
                self._arrivals += 1
                entry.seq = self._arrivals
                self._queues.setdefault(key, []).append(entry)
                while entry.batch is None and not entry.done:
                    self._cond.wait()
        if entry.batch is None:
            if entry.error is not None:
                raise entry.error
            return entry.result
        return self._lead(entry.batch)

    def _lead(self, batch: List[_Entry]) -> object:
        """Execute ``batch`` (whose first member is the caller), answer its
        members, then pass the turn to the next queued batch."""
        outcomes = self._attempt(batch)
        failure = outcomes[0][1]
        if len(batch) > 1 and isinstance(failure, Exception):
            # A merged batch that failed is re-run member by member: each
            # gets its own answer or its own error, never a neighbour's.
            outcomes = [self._attempt([member])[0] for member in batch]
        with self._cond:
            for member, (result, error) in zip(batch, outcomes):
                member.done = True
                member.result, member.error = result, error
            if len(batch) > 1 and failure is None:
                self._merged_batches += 1
                self._merged_requests += len(batch)
            following = self._next_batch()
            if following is None:
                self._running = False
            else:
                following[0].batch = following
            self._cond.notify_all()
        result, error = outcomes[0]
        if error is not None:
            raise error
        return result

    def _attempt(self, part: List[_Entry],
                 ) -> Sequence[Tuple[object, Optional[BaseException]]]:
        """``part`` run as one batch: ``(answer, None)`` or ``(None, error)``."""
        try:
            return [(result, None) for result in self._run_merged(part)]
        except BaseException as exc:  # handed on; each receiver re-raises it
            return [(None, exc)] * len(part)

    def _next_batch(self) -> Optional[List[_Entry]]:
        """Pop the next batch (under the monitor) from the key whose oldest
        waiting request arrived first: its requests oldest first, up to
        ``max_rows`` rows and at least one, skipping any whose deadline
        expires a bucket width or more apart from a member's."""
        if not self._queues:
            return None
        key, queue = min(self._queues.items(),
                         key=lambda item: item[1][0].seq)
        width = self._deadline_bucket_ms / 1000.0
        batch: List[_Entry] = []
        rest: List[_Entry] = []
        rows = 0
        span: Optional[Tuple[float, float]] = None  # members' expiries
        for i, entry in enumerate(queue):
            deadline = (entry.request.deadline
                        if entry.request is not None else None)
            grown = span
            if deadline is not None:
                t = deadline.expires_at
                grown = (t, t) if span is None else (min(span[0], t),
                                                     max(span[1], t))
                if grown[1] - grown[0] >= width:
                    rest.append(entry)  # too far from a member: later
                    continue
            if batch and rows + entry.rows > self._max_rows:
                rest.extend(queue[i:])
                break
            span = grown
            batch.append(entry)
            rows += entry.rows
        if rest:
            self._queues[key] = rest  # waits for its oldest's turn
        else:
            del self._queues[key]
        return batch

    # ------------------------------------------------------------- merging

    def _run_merged(self, bucket: List[_Entry]) -> List[object]:
        if len(bucket) == 1:
            head = bucket[0]
            if head.call is not None:
                return [head.call()]
            assert head.request is not None
            return [self._execute(head.request)]
        # Only reads share a key (a call has one of its own), so a merged
        # bucket holds requests only.
        members = [cast(QueryRequest, e.request) for e in bucket]
        template = members[0]
        queries = np.concatenate(
            [np.asarray(r.queries) for r in members], axis=0)
        # Earliest member expiry governs the merged batch: absolute
        # Deadline objects make "earliest" exact, not re-derived.
        deadline = min(
            (r.deadline for r in members if r.deadline is not None),
            key=lambda d: d.expires_at, default=None)
        response = self._execute(
            replace(template, queries=queries, deadline=deadline))
        out: List[object] = []
        start = 0
        for member in bucket:
            sl = slice(start, start + member.rows)
            start += member.rows
            out.append(QueryResponse(
                ids=response.ids[sl].copy(),
                distances=response.distances[sl].copy(),
                stats=split_stats(response.stats, sl),
                shed=False,
                batched=len(bucket)))
        return out
