"""Queue-depth admission control: shed load instead of queuing it.

A serving process under sustained overload has two bad options — grow
the queue without bound (latency and memory both explode, then the
process dies taking every in-flight request with it) or crash-fail new
connections.  The repo already has a third vocabulary for "could not do
the work in budget": the executor's ``exhausted_budget`` semantics.
:class:`AdmissionController` reuses it — a request arriving while
``max_depth`` requests are already queued or executing is
answered immediately with the same padded, ``exhausted_budget``-flagged
response an expired deadline produces (see
:func:`repro.runtime.session.shed_response`), marked ``shed=True`` so
clients and the load generator can count it.

The controller is a counting gate, not a queue: callers wrap the
blocking submit path in :meth:`admit`, which either yields a slot or
raises :class:`AdmissionError` without blocking.  Depth covers the
whole residence time (the batcher queue + execution), which is what
bounds worst-case latency.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional
from contextlib import contextmanager

__all__ = ["AdmissionController", "AdmissionError"]


class AdmissionError(RuntimeError):
    """Raised by :meth:`AdmissionController.admit` when a request is shed."""

    def __init__(self, depth: int, max_depth: int) -> None:
        super().__init__(
            f"shedding load: {depth} requests in flight (max {max_depth})")
        self.depth = depth
        self.max_depth = max_depth


class AdmissionController:
    """Bounded in-flight counter guarding a blocking submit path.

    ``max_depth`` counts requests between admission and completion —
    both those queued for a micro-batch and those executing.
    The gate never blocks: over-limit arrivals fail fast with
    :class:`AdmissionError` so the caller can shed them in O(1).
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        self._mutex = threading.Lock()
        self._depth = 0
        self._admitted = 0
        self._shed = 0
        self._peak = 0

    @property
    def depth(self) -> int:
        with self._mutex:
            return self._depth

    def snapshot(self) -> Dict[str, int]:
        """Counters for /metrics: admitted, shed, current and peak depth."""
        with self._mutex:
            return {
                "admitted": self._admitted, "shed": self._shed,
                "depth": self._depth, "peak_depth": self._peak,
                "max_depth": self.max_depth,
            }

    def try_acquire(self) -> bool:
        """Take a slot if one is free; never blocks."""
        with self._mutex:
            if self._depth >= self.max_depth:
                self._shed += 1
                return False
            self._depth += 1
            self._admitted += 1
            if self._depth > self._peak:
                self._peak = self._depth
            return True

    def release(self) -> None:
        with self._mutex:
            if self._depth <= 0:
                raise RuntimeError("release without matching acquire")
            self._depth -= 1

    @contextmanager
    def admit(self) -> Iterator[None]:
        """Context-managed slot: sheds with :class:`AdmissionError` when full.

        The slot spans the ``with`` body — hold it across the entire
        batcher submit so queue depth reflects true residence.
        """
        if not self.try_acquire():
            raise AdmissionError(self.depth, self.max_depth)
        try:
            yield
        finally:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        snap: Optional[Dict[str, int]]
        try:
            snap = self.snapshot()
        except RuntimeError:
            snap = None
        return f"AdmissionController({snap})"
