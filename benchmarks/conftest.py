"""Shared configuration and timing helpers for the benchmarks.

Each figure benchmark regenerates one figure of the paper via the
drivers in :mod:`repro.experiments.figures` and prints the same data
series the figure plots.  The scale is selected with the
``REPRO_BENCH_SCALE`` environment variable:

- ``smoke``  (default) — minutes for the whole suite; directional shapes.
- ``default``          — the library's standard reduced scale.
- ``paper``            — the paper's full 100k/100k/k=500 protocol
                          (days of pure-Python runtime; provided for
                          completeness).

The module also hosts the one sanctioned wall-clock timer for the
repository: :func:`time_calls` / :func:`interleaved_times` (used by
``bench_exec.py`` and ``bench_obs_overhead.py``).  Pipeline code
under ``src/repro`` is barred from raw ``time.perf_counter()`` reads by
invariant R6; benchmarks time from the outside, here.
"""

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np
import pytest

from repro.experiments.workloads import Scale
from repro.lsh import query


@dataclass(frozen=True)
class TimingResult:
    """Wall-clock timings of one benchmarked callable.

    The warmup repetition is timed *separately* from the measured
    repetitions — it pays one-off costs (lazy imports, cache fills,
    thread-pool spin-up) that would otherwise skew the distribution.
    """

    warmup_seconds: float
    times: np.ndarray  # (n_repeats,) measured wall-clock seconds
    result: Any = None  # return value of the warmup call

    @property
    def best(self) -> float:
        """Minimum measured time — the low-noise statistic for overhead
        comparisons (min is robust to scheduler interference)."""
        return float(self.times.min())

    @property
    def p50(self) -> float:
        return float(np.percentile(self.times, 50))

    @property
    def p95(self) -> float:
        return float(np.percentile(self.times, 95))


def time_calls(fn: Callable[[], Any], n_repeats: int,
               warmup: int = 1) -> TimingResult:
    """Time ``fn()`` over ``warmup`` untimed-ish + ``n_repeats`` timed runs.

    Warmup repetitions run first and their total wall-clock time is
    recorded in :attr:`TimingResult.warmup_seconds`; the last warmup
    return value is kept as :attr:`TimingResult.result` so callers can
    benchmark and collect output with a single extra call.
    """
    if n_repeats <= 0:
        raise ValueError(f"n_repeats must be positive, got {n_repeats}")
    result = None
    t0 = time.perf_counter()
    for _ in range(max(warmup, 0)):
        result = fn()
    warmup_seconds = time.perf_counter() - t0
    times = np.empty(n_repeats, dtype=np.float64)
    for i in range(n_repeats):
        t0 = time.perf_counter()
        fn()
        times[i] = time.perf_counter() - t0
    return TimingResult(warmup_seconds=warmup_seconds, times=times,
                        result=result)


def interleaved_times(fns: Mapping[str, Callable[[], Any]], rounds: int,
                      warmup: int = 1) -> Dict[str, TimingResult]:
    """Time several callables round-robin: A B C, A B C, ...

    Interleaving makes paired comparisons (e.g. observability on vs off)
    robust to slow machine-state drift — thermal throttling or a noisy
    neighbor hits every configuration equally instead of whichever ran
    last.  Each callable still gets its own separate warmup pass first.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    warmups: Dict[str, Tuple[float, Any]] = {}
    for name, fn in fns.items():
        result = None
        t0 = time.perf_counter()
        for _ in range(max(warmup, 0)):
            result = fn()
        warmups[name] = (time.perf_counter() - t0, result)
    times: Dict[str, np.ndarray] = {
        name: np.empty(rounds, dtype=np.float64) for name in fns
    }
    for i in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name][i] = time.perf_counter() - t0
    return {
        name: TimingResult(warmup_seconds=warmups[name][0],
                           times=times[name], result=warmups[name][1])
        for name in fns
    }


def latency_row(timing: TimingResult, n_queries: int,
                extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The standard per-batch latency columns shared by benchmark reports."""
    row: Dict[str, Any] = {
        "n_queries": int(n_queries),
        "batch_seconds_p50": timing.p50,
        "batch_seconds_p95": timing.p95,
        "per_query_ms_p50": timing.p50 / n_queries * 1e3,
        "per_query_ms_p95": timing.p95 / n_queries * 1e3,
        "qps": n_queries / timing.p50,
        "warmup_seconds": timing.warmup_seconds,
    }
    if extra:
        row.update(extra)
    return row


@contextlib.contextmanager
def shard_rows(index: Any, rows: int) -> Iterator[None]:
    """Inside, ``index``'s batches run in shards of ``rows`` query rows:
    the query path's ``SHARD_LOOKUP_ROWS`` set to ``rows`` of the plan's
    lookup rows, and restored on exit."""
    saved = query.SHARD_LOOKUP_ROWS
    query.SHARD_LOOKUP_ROWS = (
        rows * index.execution_plan().lookups_per_row())
    try:
        yield
    finally:
        query.SHARD_LOOKUP_ROWS = saved


def _selected_scale() -> Scale:
    choice = os.environ.get("REPRO_BENCH_SCALE", "smoke").lower()
    if choice == "paper":
        return Scale.paper()
    if choice == "default":
        return Scale()
    # Smoke: small but large enough that the figures' orderings are stable.
    return Scale(n_train=2500, n_queries=150, dim=48, k=20, n_runs=2,
                 n_tables=6, n_probes=16, widths=(0.75, 1.5, 3.0))


@pytest.fixture(scope="session")
def scale() -> Scale:
    return _selected_scale()
