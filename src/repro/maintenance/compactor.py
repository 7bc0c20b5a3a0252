"""Background compaction: overlay/tombstone merges off the writer path.

Inserts against a fitted index land in per-table CSR overlays; deletes
are tombstones.  Both degrade query cost over time, and folding them
back into the sorted CSR layout used to happen *synchronously* inside
``insert()`` (the PR 1 all-tables rebuild trigger) — a stall on the
writer while every table is re-sorted.  The :class:`Compactor` turns
that trigger into a hint: the index enqueues itself here, a daemon
thread builds fresh immutable tables **off the writer lock** (see
``StandardLSH._compact_once``) and installs them with the repository's
atomic-swap discipline, so neither writers nor queries block on the
rebuild.

The same queue serves drift-triggered per-group rebuilds of a bi-level
index (:mod:`repro.maintenance.drift`): one slow or overloaded leaf
group is compacted alone, never the world.

Failure handling: a task that raises is counted, recorded through
:mod:`repro.obs` and kept in :attr:`Compactor.errors` for the owner to
surface — the thread itself never dies, matching the degrade, don't
crash posture of :mod:`repro.resilience`.  The ``maintenance.compact``
fault site is consulted per task, so chaos tests can crash, delay or
abort compactions deterministically.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro import obs
from repro.resilience.faults import faults_active

__all__ = ["Compactable", "Compactor"]


class Compactable(Protocol):
    """What the compactor needs from an index: one synchronous compaction."""

    def compact(self) -> bool:
        """Merge overlays/tombstones into fresh tables; True when installed."""
        ...


@dataclass(frozen=True)
class _Task:
    kind: str                      # "tables" | "group"
    target: Compactable            # the index whose tables get rebuilt
    group: int = -1                # leaf-group number for kind="group"


class Compactor:
    """A single daemon thread draining a queue of compaction tasks.

    Tasks are deduplicated while queued (re-hinting an index whose
    compaction is already pending is a no-op), but a hint arriving while
    that index's compaction is *running* enqueues a fresh task — the
    running build may miss the mutation that prompted the hint.
    """

    def __init__(self) -> None:
        self._queue: "queue.Queue[Optional[_Task]]" = queue.Queue()
        self._lock = threading.Lock()
        self._pending: set = set()
        self._errors: List[BaseException] = []
        self._counts: Dict[str, int] = {
            "installed": 0, "stale": 0, "aborted": 0, "failed": 0,
        }
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-compactor", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------ requests

    def request_compaction(self, index: Compactable) -> bool:
        """Hint: ``index`` has overlay/tombstone debt worth folding.

        Returns True when a task was enqueued, False when one is already
        pending for the same index (or the compactor is closed).
        """
        return self._submit(_Task(kind="tables", target=index))

    def request_group_rebuild(self, index: Compactable, group: int) -> bool:
        """Schedule a per-leaf-group table rebuild of a bi-level index."""
        return self._submit(_Task(kind="group", target=index,
                                  group=int(group)))

    def _submit(self, task: _Task) -> bool:
        key = (id(task.target), task.kind, task.group)
        # The put happens under the same lock as the _closed check:
        # close() also takes the lock before enqueueing its None
        # sentinel, so a task can never land *behind* the sentinel
        # (where it would never run or task_done(), hanging drain()).
        # Safe to hold the lock here — the queue is unbounded so put()
        # never blocks, and the drain thread never holds the lock while
        # waiting on get().
        with self._lock:
            if self._closed or key in self._pending:
                return False
            self._pending.add(key)
            self._queue.put(task)
        return True

    # ----------------------------------------------------------- the drain

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                self._queue.task_done()
                return
            key = (id(task.target), task.kind, task.group)
            with self._lock:
                self._pending.discard(key)
            try:
                self._execute(task)
            except Exception as error:
                ob = obs.active()
                if ob is not None:
                    ob.record_failure("maintenance.compact",
                                      type(error).__name__)
                    ob.record_compaction(task.kind, "failed")
                with self._lock:
                    self._errors.append(error)
                    self._counts["failed"] += 1
            finally:
                self._queue.task_done()

    def _execute(self, task: _Task) -> None:
        plan = faults_active()
        if plan is not None and plan.check("maintenance.compact",
                                           kind=task.kind,
                                           group=task.group):
            # Corruption hit: model a compaction whose build turned out
            # useless (e.g. superseded) — drop the task without a swap.
            self._note(task.kind, "aborted")
            return
        installed = task.target.compact()
        self._note(task.kind, "installed" if installed else "stale")

    def _note(self, kind: str, outcome: str) -> None:
        with self._lock:
            self._counts[outcome] += 1
        ob = obs.active()
        if ob is not None:
            ob.record_compaction(kind, outcome)

    # ----------------------------------------------------------- lifecycle

    def drain(self) -> None:
        """Block until every queued task has finished executing."""
        self._queue.join()

    @property
    def errors(self) -> Tuple[BaseException, ...]:
        """Exceptions raised by tasks so far (the thread survives them)."""
        with self._lock:
            return tuple(self._errors)

    def stats(self) -> Dict[str, int]:
        """Counts of task outcomes: installed / stale / aborted / failed."""
        with self._lock:
            return dict(self._counts)

    def is_alive(self) -> bool:
        """True while the drain thread is running and accepting tasks.

        The public liveness probe readiness checks consume (e.g.
        :meth:`repro.runtime.session.IndexRuntime.info`): ``False``
        once :meth:`close` has stopped the thread or if it died.
        """
        return self._thread.is_alive()

    def close(self) -> None:
        """Stop the drain thread after in-flight tasks finish (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Sentinel enqueued under the lock: orders it strictly after
            # every task _submit() already accepted (see _submit).
            self._queue.put(None)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "Compactor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (f"Compactor(pending={len(self._pending)}, "
                    f"counts={self._counts}, closed={self._closed})")
