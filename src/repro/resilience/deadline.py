"""Monotonic wall-clock budgets for deadline-bounded queries.

A :class:`Deadline` is created once at the top of a batch query and
threaded through the pipeline; stages consult :meth:`Deadline.expired`
at cheap checkpoints (between groups, between escalation rounds) and
degrade gracefully — returning best-effort results with a per-query
``exhausted_budget`` flag — instead of blowing the latency SLO.

This module owns the resilience layer's clock reads: invariant R6 bars
pipeline modules from reading the wall clock directly, and exempts
``repro.obs`` and ``repro.resilience`` (where the reads are supposed to
live).
"""

from __future__ import annotations

import time
from typing import Optional


class Deadline:
    """An absolute monotonic expiry shared by one query batch.

    The budget is wall-clock, not CPU: a stalled worker exhausts it just
    like a slow kernel, which is exactly what a latency SLO means.
    Checks are two float operations — cheap enough for per-escalation
    granularity, and entirely absent when no deadline was requested
    (callers hold ``None`` instead of a Deadline).
    """

    __slots__ = ("budget_ms", "_expires_at")

    def __init__(self, budget_ms: float) -> None:
        if not budget_ms > 0:
            raise ValueError(
                f"deadline budget must be positive, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self._expires_at = time.monotonic() + self.budget_ms / 1000.0

    @classmethod
    def from_ms(cls, budget_ms: Optional[float]) -> "Optional[Deadline]":
        """Build a deadline, or ``None`` when no budget was requested."""
        if budget_ms is None:
            return None
        return cls(budget_ms)

    @property
    def expires_at(self) -> float:
        """The absolute expiry instant, on the ``time.monotonic`` clock."""
        return self._expires_at

    def remaining_seconds(self) -> float:
        """Seconds left on the budget (never negative)."""
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        """True once the budget is spent."""
        return time.monotonic() >= self._expires_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Deadline(budget_ms={self.budget_ms:g}, "
                f"remaining={self.remaining_seconds() * 1000.0:.1f}ms)")
