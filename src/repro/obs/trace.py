"""Tracing: stage spans, batch stage timers, sampled per-query traces.

This module owns every wall-clock read of the observability layer (rule
R6 allows raw ``time.perf_counter`` only inside :mod:`repro.obs`).  Hot
paths never time themselves directly; they hold a :class:`StageTimer`
which is a no-op when observability is disabled.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

import numpy as np

from repro.obs.registry import (LATENCY_BUCKETS_SECONDS, MetricsRegistry)
from repro.utils.rng import SeedLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.obs import Observer

#: Stage / span latency histogram, labeled by ``stage``.
STAGE_SECONDS = "repro_stage_seconds"


class Span:
    """Context manager timing one named pipeline stage into a registry.

    >>> with Span(registry, "rptree.route"):
    ...     partitioner.assign(queries)          # doctest: +SKIP

    On exit the elapsed wall-clock time is observed into the
    ``repro_stage_seconds{stage=...}`` histogram and kept on
    :attr:`elapsed` for the caller.
    """

    __slots__ = ("stage", "elapsed", "_registry", "_labels", "_t0")

    def __init__(self, registry: MetricsRegistry, stage: str,
                 **labels: object) -> None:
        self.stage = stage
        self.elapsed = 0.0
        self._registry = registry
        self._labels = labels
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.elapsed = time.perf_counter() - self._t0
        hist = self._registry.histogram(
            STAGE_SECONDS, "Per-stage pipeline latency (seconds).",
            buckets=LATENCY_BUCKETS_SECONDS)
        hist.labels(stage=self.stage, **self._labels).observe(self.elapsed)


class StageTimer:
    """Sectioned batch timer that costs (almost) nothing when off.

    Construct with the result of :func:`repro.obs.active`; when that is
    ``None`` every method returns immediately without reading the clock.
    ``lap(stage)`` attributes the time since the previous lap (or
    construction) to ``stage``, both into the shared
    ``repro_stage_seconds`` histogram and into :attr:`stages`, which the
    caller can attach to sampled :class:`QueryTrace` records.
    """

    __slots__ = ("stages", "_observer", "_t0")

    def __init__(self, observer: "Optional[Observer]") -> None:
        self._observer = observer
        self.stages: Dict[str, float] = {}
        self._t0 = time.perf_counter() if observer is not None else 0.0

    def lap(self, stage: str) -> None:
        observer = self._observer
        if observer is None:
            return
        now = time.perf_counter()
        elapsed = now - self._t0
        self._t0 = now
        self.stages[stage] = self.stages.get(stage, 0.0) + elapsed
        observer.observe_stage(stage, elapsed)


@dataclass(frozen=True)
class QueryTrace:
    """One sampled query's journey through the pipeline."""

    query_index: int
    engine: str
    n_candidates: int
    n_probes: int
    escalated: bool
    stages: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "query_index": self.query_index,
            "engine": self.engine,
            "n_candidates": self.n_candidates,
            "n_probes": self.n_probes,
            "escalated": self.escalated,
            "stages": dict(self.stages),
        }


class TraceCollector:
    """Deterministic sampler and bounded store of :class:`QueryTrace`.

    Sampling draws come from a single :func:`repro.utils.rng.ensure_rng`
    generator (rule R1), so two runs with the same seed and the same
    sequence of batch sizes sample exactly the same query indices.
    """

    __slots__ = ("rate", "_rng", "_lock", "_traces")

    def __init__(self, rate: float, seed: SeedLike = 0,
                 max_traces: int = 512) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"trace sample rate must be in [0, 1], "
                             f"got {rate}")
        if max_traces <= 0:
            raise ValueError(f"max_traces must be positive, got {max_traces}")
        self.rate = float(rate)
        self._rng = ensure_rng(seed)
        self._lock = threading.Lock()
        self._traces: Deque[QueryTrace] = deque(maxlen=max_traces)

    def sample_mask(self, n_queries: int) -> Optional[np.ndarray]:
        """Boolean mask of sampled queries, or ``None`` if none are."""
        if self.rate <= 0.0 or n_queries <= 0:
            return None
        with self._lock:  # Generator.random is not thread-safe
            draws = self._rng.random(n_queries)
        mask = draws < self.rate
        return mask if bool(mask.any()) else None

    def add(self, trace: QueryTrace) -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> List[QueryTrace]:
        with self._lock:
            return list(self._traces)
