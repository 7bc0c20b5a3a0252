"""Degradation bookkeeping: the policy that turns a fault into a flag.

Passing a :class:`ResiliencePolicy` to ``query_batch(..., policy=...)``
changes what a fault does to a batch.  Without one, an exception at a
fault site propagates.  With one, the failing unit is degraded instead —
a table dropped from the union, a group answered by an exact scan of its
live rows, a non-finite query row padded — its rows flagged in
``stats.degraded``, and the failure kept as a :class:`FailureRecord`
(:meth:`ResiliencePolicy.note_failure`) rather than lost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class FailureRecord:
    """One failure a policy turned into a degraded answer.

    ``action`` says what became of the failing unit: ``"gave_up"`` (a
    table dropped from the gather), ``"fallback:bruteforce"`` (a group
    answered by an exact scan), or ``"degraded"`` (non-finite query rows
    padded).
    """

    site: str
    label: str
    error_type: str
    message: str
    action: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "site": self.site,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "action": self.action,
        }


class ResiliencePolicy:
    """Degrade failing units instead of raising; record every failure.

    One policy may serve many batches (on several threads at once): its
    failure list is shared and thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[FailureRecord] = []

    def note_failure(self, site: str, label: str, error: BaseException,
                     action: str) -> FailureRecord:
        """Record a failure (thread-safe); returns the stored record."""
        record = FailureRecord(
            site=site, label=label, error_type=type(error).__name__,
            message=str(error), action=action)
        with self._lock:
            self._records.append(record)
        return record

    def failures(self) -> Tuple[FailureRecord, ...]:
        """Snapshot of every failure recorded so far."""
        with self._lock:
            return tuple(self._records)

    def clear_failures(self) -> None:
        with self._lock:
            self._records.clear()


__all__ = ["FailureRecord", "ResiliencePolicy"]
