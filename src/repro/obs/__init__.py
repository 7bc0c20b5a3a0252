"""Runtime observability: metrics registry, spans, sampled query traces.

The telemetry layer for the bi-level pipeline (DESIGN.md §9).  Three
pieces:

- :class:`repro.obs.registry.MetricsRegistry` — thread-safe counters,
  gauges, and log-bucket histograms with ``labels()`` breakdown, exported
  as JSON (:meth:`~repro.obs.registry.MetricsRegistry.snapshot`) or
  Prometheus text (:meth:`~repro.obs.registry.MetricsRegistry.to_prometheus`);
- :mod:`repro.obs.trace` — ``Span`` context managers, the per-batch
  :class:`~repro.obs.trace.StageTimer`, and deterministic sampling of
  per-query :class:`~repro.obs.trace.QueryTrace` records;
- the module-level gate below — hot paths call :func:`active` **once per
  batch**; it returns ``None`` unless :func:`enable` was called, and every
  instrumentation site is behind a single ``if ob is not None`` branch, so
  the disabled path costs one global read plus a handful of predictable
  branches per batch (bounded at <=2% by ``benchmarks/bench_obs_overhead.py``
  and enforced in CI).

Usage::

    from repro import obs

    obs.enable(trace_sample_rate=0.01, trace_seed=7)
    index.query_batch(queries, k=10)
    print(obs.get_registry().to_prometheus())
    for trace in obs.recent_traces():
        print(trace.to_dict())
    obs.disable()

Hot-path modules must route *all* telemetry through this package: rule R6
of ``tools/check_invariants.py`` rejects raw ``time.perf_counter()`` or
``print()`` instrumentation in pipeline packages.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.obs.kernels import NATIVE_KERNEL_SECONDS, TimedKernels
from repro.obs.registry import (COUNT_BUCKETS, LATENCY_BUCKETS_SECONDS,
                                CounterFamily, Gauge, GaugeFamily, Histogram,
                                HistogramFamily, MetricsRegistry, log_buckets)
from repro.obs.registry import Counter  # noqa: F401  (re-export)
from repro.obs.trace import (STAGE_SECONDS, QueryTrace, Span, StageTimer,
                             TraceCollector)
from repro.utils.rng import SeedLike

__all__ = [
    "MetricsRegistry", "CounterFamily", "GaugeFamily", "HistogramFamily",
    "Counter", "Gauge", "Histogram", "log_buckets",
    "COUNT_BUCKETS", "LATENCY_BUCKETS_SECONDS",
    "Span", "StageTimer", "QueryTrace", "TraceCollector",
    "TimedKernels", "NATIVE_KERNEL_SECONDS", "Observer",
    "active", "enabled", "enable", "disable", "get_registry",
    "recent_traces", "derived_summary", "full_snapshot",
]

# --------------------------------------------------------------------------
# Metric names — the stable telemetry schema.  Instrumentation sites use
# these constants so dashboards and tests never chase string typos.
# --------------------------------------------------------------------------
QUERIES_TOTAL = "repro_queries_total"              # counter{engine}
BATCHES_TOTAL = "repro_batches_total"              # counter{engine}
ESCALATIONS_TOTAL = "repro_escalations_total"      # counter
SHORTLIST_SIZE = "repro_shortlist_size"            # histogram
PROBE_COUNT = "repro_probe_count"                  # histogram (per query)
PROBES_TOTAL = "repro_probes_total"                # counter{table}
BUCKET_LOOKUPS_TOTAL = "repro_bucket_lookups_total"    # counter{table}
BUCKET_MISSES_TOTAL = "repro_bucket_misses_total"      # counter{table}
TABLE_REBUILDS_TOTAL = "repro_table_rebuilds_total"    # counter
OVERLAY_MERGES_TOTAL = "repro_overlay_merges_total"    # counter
ESCALATION_DEPTH = "repro_escalation_depth"        # histogram{kind}
GROUP_QUERIES_TOTAL = "repro_group_queries_total"          # counter{group}
GROUP_ESCALATIONS_TOTAL = "repro_group_escalations_total"  # counter{group}
INDEX_POINTS = "repro_index_points"                # gauge
FAULTS_INJECTED_TOTAL = "repro_faults_injected_total"      # counter{site}
DEADLINE_EXHAUSTED_TOTAL = "repro_deadline_exhausted_total"  # counter{stage}
EXEC_SHARDS_TOTAL = "repro_exec_shards_total"      # counter{site}
NATIVE_FALLBACKS_TOTAL = "repro_native_fallbacks_total"    # counter{reason}
NATIVE_BATCHES_TOTAL = "repro_native_batches_total"        # counter{backend}
NATIVE_SETUP_SECONDS = "repro_native_setup_seconds"        # histogram{backend}
WAL_APPENDS_TOTAL = "repro_wal_appends_total"      # counter{kind}
WAL_BYTES_TOTAL = "repro_wal_bytes_total"          # counter
WAL_FSYNCS_TOTAL = "repro_wal_fsyncs_total"        # counter
WAL_REPLAYED_TOTAL = "repro_wal_replayed_total"    # counter{outcome}


class Observer:
    """The enabled-state bundle handed to instrumented hot paths.

    Instrumentation sites receive an ``Observer`` (or ``None``) from
    :func:`active` and call the ``record_*`` helpers below, which keep
    the hot modules down to one guarded line per event.  All methods are
    thread-safe (they delegate to the registry/collector locks).
    """

    __slots__ = ("registry", "tracer")

    def __init__(self, registry: MetricsRegistry,
                 tracer: TraceCollector) -> None:
        self.registry = registry
        self.tracer = tracer

    def span(self, stage: str, **labels: object) -> Span:
        return Span(self.registry, stage, **labels)

    def observe_stage(self, stage: str, seconds: float) -> None:
        self.registry.histogram(
            STAGE_SECONDS, "Per-stage pipeline latency (seconds).",
            buckets=LATENCY_BUCKETS_SECONDS).labels(stage=stage).observe(
                seconds)

    # -- batch-level events ------------------------------------------------

    def record_batch(self, engine: str, counts: np.ndarray,
                     escalated: np.ndarray, stages: Dict[str, float],
                     probes: Optional[np.ndarray] = None) -> None:
        """One ``query_batch`` worth of short-list stats + trace samples."""
        nq = int(counts.size)
        reg = self.registry
        reg.counter(QUERIES_TOTAL, "Queries answered.").labels(
            engine=engine).inc(nq)
        reg.counter(BATCHES_TOTAL, "Query batches answered.").labels(
            engine=engine).inc()
        reg.histogram(SHORTLIST_SIZE, "Candidates ranked per query.",
                      buckets=COUNT_BUCKETS).observe_many(counts)
        n_escalated = int(np.count_nonzero(escalated))
        if n_escalated:
            reg.counter(ESCALATIONS_TOTAL,
                        "Queries escalated by the hierarchy.").inc(
                            n_escalated)
        if probes is not None:
            reg.histogram(PROBE_COUNT,
                          "Multi-probe buckets issued per query "
                          "(all tables).",
                          buckets=COUNT_BUCKETS).observe_many(probes)
        mask = self.tracer.sample_mask(nq)
        if mask is not None:
            for qi in np.nonzero(mask)[0]:
                self.tracer.add(QueryTrace(
                    query_index=int(qi),
                    engine=engine,
                    n_candidates=int(counts[qi]),
                    n_probes=int(probes[qi]) if probes is not None else 0,
                    escalated=bool(escalated[qi]),
                    stages=dict(stages)))

    def record_group(self, group: int, n_queries: int,
                     n_escalated: int) -> None:
        reg = self.registry
        reg.counter(GROUP_QUERIES_TOTAL,
                    "Queries routed to each first-level group.").labels(
                        group=group).inc(n_queries)
        if n_escalated:
            reg.counter(GROUP_ESCALATIONS_TOTAL,
                        "Escalated queries per first-level group.").labels(
                            group=group).inc(n_escalated)

    def record_index_size(self, n_points: int) -> None:
        self.registry.gauge(INDEX_POINTS,
                            "Live points in the index.").set(n_points)

    # -- table / probe events ----------------------------------------------

    def record_table_lookup(self, table: int, n_lookups: int,
                            n_misses: int, n_probes: int) -> None:
        reg = self.registry
        reg.counter(BUCKET_LOOKUPS_TOTAL,
                    "Bucket lookups issued per table.").labels(
                        table=table).inc(n_lookups)
        if n_misses:
            reg.counter(BUCKET_MISSES_TOTAL,
                        "Lookups that hit no bucket, per table.").labels(
                            table=table).inc(n_misses)
        if n_probes:
            reg.counter(PROBES_TOTAL,
                        "Multi-probe lookups beyond the home bucket.").labels(
                            table=table).inc(n_probes)

    def record_rebuild(self) -> None:
        self.registry.counter(
            TABLE_REBUILDS_TOTAL,
            "Full table rebuilds (fit, restore or compact()).").inc()

    def record_overlay_merge(self) -> None:
        self.registry.counter(
            OVERLAY_MERGES_TOTAL,
            "Insert-overlay layouts re-sorted (one per table per add).").inc()

    def record_escalation_depth(self, kind: str, depths: np.ndarray) -> None:
        self.registry.histogram(
            ESCALATION_DEPTH,
            "Hierarchy levels climbed per escalated query.",
            buckets=COUNT_BUCKETS).labels(kind=kind).observe_many(depths)

    # -- resilience events ---------------------------------------------------

    def record_fault(self, site: str) -> None:
        self.registry.counter(
            FAULTS_INJECTED_TOTAL,
            "Injected faults fired, per site.").labels(site=site).inc()

    def record_shards(self, site: str, n_shards: int) -> None:
        """Shard count of one batch the executor split."""
        self.registry.counter(
            EXEC_SHARDS_TOTAL,
            "Shards executed by bounded-memory query batches, "
            "per front-end.").labels(site=site).inc(n_shards)

    def record_deadline_exhausted(self, stage: str, n_queries: int) -> None:
        if n_queries:
            self.registry.counter(
                DEADLINE_EXHAUSTED_TOTAL,
                "Queries whose wall-clock budget expired mid-pipeline."
                ).labels(stage=stage).inc(n_queries)

    # -- durability / maintenance events -----------------------------------

    def record_wal_append(self, kind: str, nbytes: int,
                          fsynced: bool) -> None:
        """One acknowledged WAL record (insert/delete) hit the log."""
        reg = self.registry
        reg.counter(WAL_APPENDS_TOTAL,
                    "WAL records appended, per kind.").labels(
                        kind=kind).inc()
        reg.counter(WAL_BYTES_TOTAL, "Bytes appended to the WAL.").inc(
            nbytes)
        if fsynced:
            reg.counter(WAL_FSYNCS_TOTAL, "fsync calls issued by the WAL."
                        ).inc()

    def record_wal_replay(self, applied: int, skipped: int,
                          torn_bytes: int) -> None:
        """Outcome counts of one recovery replay pass."""
        reg = self.registry
        counter = reg.counter(WAL_REPLAYED_TOTAL,
                              "WAL records seen during recovery, "
                              "per outcome.")
        if applied:
            counter.labels(outcome="applied").inc(applied)
        if skipped:
            counter.labels(outcome="skipped").inc(skipped)
        if torn_bytes:
            counter.labels(outcome="torn").inc()

    # -- native tier events ------------------------------------------------

    def record_native_setup(self, backend: str, seconds: float) -> None:
        """One-time kernel setup cost (jit compile / cc invocation)."""
        self.registry.histogram(
            NATIVE_SETUP_SECONDS,
            "One-time native-backend setup latency (seconds).",
            buckets=LATENCY_BUCKETS_SECONDS).labels(
                backend=backend).observe(seconds)

    def record_native_fallback(self, reason: str) -> None:
        """Kernel resolution fell back to the numpy table."""
        self.registry.counter(
            NATIVE_FALLBACKS_TOTAL,
            "Resolutions that fell back to the numpy kernel table."
            ).labels(reason=reason).inc()

    def record_native_batch(self, backend: str) -> None:
        """One batch executed on the ``backend`` kernel table."""
        self.registry.counter(
            NATIVE_BATCHES_TOTAL,
            "Query batches executed, per kernel table."
            ).labels(backend=backend).inc()

    def timed_kernels(self, kernels: object,
                      stages: Dict[str, float]) -> TimedKernels:
        """Wrap a kernel table with per-call timing."""
        return TimedKernels(kernels, self, stages)

    def observe_kernel(self, kernel: str, backend: str,
                       seconds: float) -> None:
        self.registry.histogram(
            NATIVE_KERNEL_SECONDS,
            "Per-call kernel latency (seconds).",
            buckets=LATENCY_BUCKETS_SECONDS).labels(
                kernel=kernel, backend=backend).observe(seconds)



# --------------------------------------------------------------------------
# Module-level gate.  ``_observer`` is the single global hot paths read.
# --------------------------------------------------------------------------
_state_lock = threading.Lock()
_default_registry = MetricsRegistry()
_observer: Optional[Observer] = None


def active() -> Optional[Observer]:
    """The hot-path gate: the enabled :class:`Observer`, else ``None``.

    Reading one module global is the entire disabled-path cost; call it
    once per batch, not per query.
    """
    return _observer


def enabled() -> bool:
    return _observer is not None


def enable(registry: Optional[MetricsRegistry] = None,
           trace_sample_rate: float = 0.0, trace_seed: SeedLike = 0,
           max_traces: int = 512) -> Observer:
    """Turn observability on (idempotent; replaces any prior observer).

    ``registry=None`` records into the process-wide default registry.
    ``trace_sample_rate`` in ``[0, 1]`` samples that fraction of queries
    into :class:`~repro.obs.trace.QueryTrace` records, deterministically
    under ``trace_seed``.
    """
    global _observer
    with _state_lock:
        target = registry if registry is not None else _default_registry
        observer = Observer(target, TraceCollector(
            trace_sample_rate, trace_seed, max_traces))
        _observer = observer
    return observer


def disable() -> None:
    """Turn observability off; recorded metrics stay readable."""
    global _observer
    with _state_lock:
        _observer = None


def get_registry() -> MetricsRegistry:
    """The active registry (default registry when disabled)."""
    observer = _observer
    return observer.registry if observer is not None else _default_registry


def recent_traces() -> List[QueryTrace]:
    """Traces collected by the currently-enabled observer."""
    observer = _observer
    return observer.tracer.traces() if observer is not None else []


# --------------------------------------------------------------------------
# Derived roll-ups for CLI / benchmark snapshots.
# --------------------------------------------------------------------------

def _histogram_summary(family: Optional[object]) -> Optional[Dict[str, float]]:
    if not isinstance(family, HistogramFamily):
        return None
    count = sum(h.count for h in family.children())
    if count == 0:
        return None
    total = sum(h.sum for h in family.children())
    child = family.labels()
    return {
        "count": float(count),
        "mean": total / count,
        "p50": child.percentile(50.0),
        "p95": child.percentile(95.0),
        "p99": child.percentile(99.0),
    }


def derived_summary(registry: Optional[MetricsRegistry] = None,
                    ) -> Dict[str, object]:
    """Roll-ups the raw snapshot does not state directly.

    Includes the per-group escalation fraction (the paper's hierarchy
    tuning signal), overall escalated fraction, and short-list / probe
    distribution summaries.
    """
    reg = registry if registry is not None else get_registry()
    out: Dict[str, object] = {}

    queries = reg.get(QUERIES_TOTAL)
    total_queries = queries.total() if isinstance(queries, CounterFamily) \
        else 0.0
    escalations = reg.get(ESCALATIONS_TOTAL)
    total_escalated = escalations.total() \
        if isinstance(escalations, CounterFamily) else 0.0
    out["queries_total"] = total_queries
    out["escalated_total"] = total_escalated
    out["escalated_fraction"] = (total_escalated / total_queries
                                 if total_queries else 0.0)

    per_group: Dict[str, Dict[str, float]] = {}
    group_queries = reg.get(GROUP_QUERIES_TOTAL)
    group_escalations = reg.get(GROUP_ESCALATIONS_TOTAL)
    if isinstance(group_queries, CounterFamily):
        for child in group_queries.children():
            group = dict(child.label_items).get("group", "")
            n_queries = child.value
            n_escalated = 0.0
            if isinstance(group_escalations, CounterFamily):
                n_escalated = group_escalations.labels(group=group).value
            per_group[group] = {
                "queries": n_queries,
                "escalated": n_escalated,
                "escalation_fraction": (n_escalated / n_queries
                                        if n_queries else 0.0),
            }
    out["per_group"] = per_group

    shortlist = _histogram_summary(reg.get(SHORTLIST_SIZE))
    if shortlist is not None:
        out["shortlist_size"] = shortlist
    probe_count = _histogram_summary(reg.get(PROBE_COUNT))
    if probe_count is not None:
        out["probe_count"] = probe_count
    return out


def full_snapshot(registry: Optional[MetricsRegistry] = None,
                  ) -> Dict[str, object]:
    """``{"metrics": <raw snapshot>, "derived": <roll-ups>}``."""
    reg = registry if registry is not None else get_registry()
    return {"metrics": reg.snapshot(), "derived": derived_summary(reg)}
