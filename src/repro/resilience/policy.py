"""Supervision policy: retries, timeouts, fallback chains, failure records.

:class:`ResiliencePolicy` is the single place pipeline code is allowed to
catch exceptions (invariant R7 forbids swallowing them anywhere else):
workers run through :meth:`ResiliencePolicy.run`, which retries transient
failures with backoff, walks a caller-supplied fallback chain when
retries are exhausted, and records every failure as a structured
:class:`FailureRecord` instead of letting it vanish.  A policy is either
threaded explicitly through ``query_batch(..., policy=...)`` or installed
process-wide through the :func:`set_policy` module gate (same shape as
the obs gate — one global read per batch, zero overhead when unset).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro import obs


@dataclass(frozen=True)
class FailureRecord:
    """One recorded failure inside a supervised call.

    ``action`` says what the policy did about it: ``"retried"`` (a later
    attempt may have succeeded), ``"fallback:<name>"`` (that fallback
    produced the answer), or ``"gave_up"`` (nothing worked; the caller
    flagged the affected queries degraded).
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
    """Retry/timeout/fallback supervision for pipeline workers.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first failure (0 disables retry).
    backoff_ms:
        Sleep before retry attempt *i* is ``backoff_ms * 2**(i-1)``;
        0 retries immediately (the default — unit tests stay fast).
    group_timeout_ms:
        Wall-clock bound on one supervised call.  ``None`` disables
        timeouts.  Timed-out workers are abandoned (the thread finishes
        in the background); the policy moves on to the fallback chain.
    """

    def __init__(self, max_retries: int = 1, backoff_ms: float = 0.0,
                 group_timeout_ms: Optional[float] = None) -> None:
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {max_retries}")
        if backoff_ms < 0:
            raise ValueError(
                f"backoff_ms must be non-negative, got {backoff_ms}")
        if group_timeout_ms is not None and not group_timeout_ms > 0:
            raise ValueError(
                f"group_timeout_ms must be positive or None, "
                f"got {group_timeout_ms}")
        self.max_retries = int(max_retries)
        self.backoff_ms = float(backoff_ms)
        self.group_timeout_ms = group_timeout_ms
        self._lock = threading.Lock()
        self._records: List[FailureRecord] = []

    # -- failure bookkeeping ------------------------------------------------
    def note_failure(self, site: str, label: str, error: BaseException,
                     action: str) -> FailureRecord:
        """Record a failure (thread-safe); returns the stored record."""
        record = FailureRecord(
            site=site, label=label, error_type=type(error).__name__,
            message=str(error), action=action)
        with self._lock:
            self._records.append(record)
        ob = obs.active()
        if ob is not None and action == "retried":
            ob.record_retry(site)
        return record

    def failures(self) -> Tuple[FailureRecord, ...]:
        """Snapshot of every failure recorded so far."""
        with self._lock:
            return tuple(self._records)

    def clear_failures(self) -> None:
        with self._lock:
            self._records.clear()

    # -- supervised execution ----------------------------------------------
    def _call_bounded(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn``, enforcing ``group_timeout_ms`` if configured."""
        if self.group_timeout_ms is None:
            return fn()
        # No context manager: `with` would call shutdown(wait=True) on
        # exit and block on a hung worker, voiding the timeout.  Always
        # release the pool without waiting — a timed-out worker's thread
        # finishes in the background and its result is discarded.
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            future = pool.submit(fn)
            return future.result(timeout=self.group_timeout_ms / 1000.0)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def run(self, site: str, label: str, fn: Callable[[], Any],
            fallbacks: Sequence[Tuple[str, Callable[[], Any]]] = (),
            ) -> Tuple[Any, Optional[str], List[FailureRecord]]:
        """Supervise ``fn``: retry, then walk ``fallbacks``, never raise.

        Returns ``(result, action, records)``.  ``action`` is ``None``
        when the primary succeeded (possibly after retries it is
        ``"retried"``), ``"fallback:<name>"`` when a fallback answered,
        and ``"gave_up"`` when everything failed (``result`` is ``None``
        and the caller must substitute a flagged-degraded answer).
        Fault-injection and real exceptions are treated identically —
        that is the point.
        """
        records: List[FailureRecord] = []
        retried = False
        for attempt in range(self.max_retries + 1):
            try:
                result = self._call_bounded(fn)
            except FutureTimeoutError:
                timeout_error = TimeoutError(
                    f"supervised call exceeded {self.group_timeout_ms}ms")
                records.append(self.note_failure(
                    site, label, timeout_error,
                    "retried" if attempt < self.max_retries else "gave_up"))
            except Exception as error:  # noqa: BLE001 - supervision boundary
                records.append(self.note_failure(
                    site, label, error,
                    "retried" if attempt < self.max_retries else "gave_up"))
            else:
                return result, ("retried" if retried else None), records
            retried = True
            if attempt < self.max_retries and self.backoff_ms > 0:
                time.sleep(self.backoff_ms * (2.0 ** attempt) / 1000.0)
        for name, fallback in fallbacks:
            try:
                result = fallback()
            except Exception as error:  # noqa: BLE001 - supervision boundary
                records.append(self.note_failure(
                    site, f"{label}:{name}", error, "gave_up"))
            else:
                action = f"fallback:{name}"
                if records:
                    records[-1] = self._retag(records[-1], action)
                ob = obs.active()
                if ob is not None:
                    ob.record_fallback(site, name)
                return result, action, records
        return None, "gave_up", records

    def _retag(self, record: FailureRecord, action: str) -> FailureRecord:
        """Rewrite the stored action of the most recent record in place."""
        updated = FailureRecord(
            site=record.site, label=record.label,
            error_type=record.error_type, message=record.message,
            action=action)
        with self._lock:
            for i in range(len(self._records) - 1, -1, -1):
                if self._records[i] is record:
                    self._records[i] = updated
                    break
        return updated


# ---------------------------------------------------------------------------
# Module-level gate (same shape as the repro.obs observer gate).
# ---------------------------------------------------------------------------
_state_lock = threading.Lock()
_policy: Optional[ResiliencePolicy] = None


def active_policy() -> Optional[ResiliencePolicy]:
    """The hot-path gate: the installed policy, else ``None``.

    One module-global read; ``query_batch`` consults it once per batch
    (an explicit ``policy=`` argument takes precedence).
    """
    return _policy


def set_policy(policy: ResiliencePolicy) -> ResiliencePolicy:
    """Install ``policy`` process-wide (replaces any prior policy)."""
    global _policy
    with _state_lock:
        _policy = policy
    return policy


def clear_policy() -> None:
    """Remove the installed policy; dispatch runs unsupervised again."""
    global _policy
    with _state_lock:
        _policy = None


@contextmanager
def supervised(policy: Optional[ResiliencePolicy] = None,
               ) -> Iterator[ResiliencePolicy]:
    """Scoped installation for tests and CLI: install on entry, clear on exit."""
    installed = policy if policy is not None else ResiliencePolicy()
    set_policy(installed)
    try:
        yield installed
    finally:
        clear_policy()


__all__ = [
    "FailureRecord", "ResiliencePolicy",
    "active_policy", "set_policy", "clear_policy", "supervised",
]
