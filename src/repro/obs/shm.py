"""Cross-process metrics: the fixed-slot shared-memory sink (DESIGN.md §9).

Metrics recorded inside :class:`~repro.exec.process.ProcessShardExecutor`
workers used to die with the worker — the worker's module-global registry
was never read by anyone.  This module gives every worker one
**fixed-layout slot** in a small parent-owned
:class:`multiprocessing.shared_memory.SharedMemory` segment:

- the :class:`SlotSchema` enumerates, ahead of time, every ``(metric
  name, label set)`` cell a shard worker can record — counter cells are
  one aligned ``float64`` each, histogram cells one ``float64`` sum, one
  ``int64`` observation count, and one ``int64`` array of per-bucket
  counts (same :func:`~repro.obs.registry.log_buckets` layout as the
  in-process histograms, so snapshots merge exactly);
- each worker writes its slot through a :class:`SlotWriter` — plain
  aligned-word numpy stores, **single writer per slot, no locks**
  (the parent only ever reads, and an 8-byte aligned store is not torn
  on the supported platforms);
- the parent's :class:`ShmMetricsSink` drains the segment on demand:
  it computes per-cell **deltas against the previous drain** and applies
  them as ordinary ``inc``/:meth:`~repro.obs.registry.Histogram.merge_counts`
  increments on a normal :class:`~repro.obs.registry.MetricsRegistry`,
  so repeated drains never double-count and a worker that died mid-batch
  still contributes everything it managed to write.

Workers route recordings into their slot transparently:
:class:`SlotMetricsRegistry` is a :class:`MetricsRegistry` whose counter
and histogram families resolve label sets to schema cells, so the
existing :class:`repro.obs.Observer` instrumentation works unchanged
(``obs.enable(registry=worker_slot.registry)``).  A recording that has
no schema cell is **never silently dropped**: it increments the
always-present overflow counter (:data:`SHM_OVERFLOW_TOTAL`, cell 0), so
schema gaps show up in the parent's exposition instead of vanishing.

Buffer-lifetime ownership follows the rule of
:mod:`repro.exec.process`: every numpy view into the segment is dropped
(:meth:`SlotWriter.close`) before the owning ``SharedMemory`` handle is
closed, or ``close()`` raises ``BufferError`` over the live exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import (Counter, CounterFamily, Histogram,
                                HistogramFamily, LabelItems, MetricsRegistry,
                                Number, _label_key)

__all__ = [
    "SHM_OVERFLOW_TOTAL", "CounterCell", "HistogramCell", "SlotSchema",
    "SlotWriter", "SlotMetricsRegistry", "ShmMetricsSink", "WorkerSlot",
    "attach_worker_slot", "build_worker_schema",
]

#: Counter bumped once per worker-side recording that found no schema
#: cell for its ``(name, labels)`` — the loss-visibility escape hatch.
SHM_OVERFLOW_TOTAL = "repro_obs_shm_overflow_total"

#: Slot byte alignment (cache-line friendly; avoids false sharing
#: between adjacent workers' slots).
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class CounterCell:
    """One pre-declared counter ``(name, label set)`` slot cell."""

    name: str
    help: str
    labels: LabelItems = ()


@dataclass(frozen=True)
class HistogramCell:
    """One pre-declared histogram cell: fixed bounds, one bucket array."""

    name: str
    help: str
    labels: LabelItems = ()
    bounds: Tuple[float, ...] = ()


class SlotSchema:
    """Static layout of one worker's metrics slot.

    Computes byte offsets eagerly at construction so :class:`SlotWriter`
    and :class:`ShmMetricsSink` agree on the layout without negotiation.
    Instances are plain picklable data (no locks, files, or RNG state),
    shippable to spawn-context workers.  The overflow counter
    (:data:`SHM_OVERFLOW_TOTAL`) is always present as counter cell 0.
    """

    def __init__(self, counters: Sequence[CounterCell] = (),
                 histograms: Sequence[HistogramCell] = ()) -> None:
        cells = list(counters)
        if not cells or cells[0].name != SHM_OVERFLOW_TOTAL:
            cells.insert(0, CounterCell(
                SHM_OVERFLOW_TOTAL,
                "Worker recordings that had no shared-memory schema cell "
                "(detail lost, loss counted).", ()))
        self.counters: Tuple[CounterCell, ...] = tuple(cells)
        self.histograms: Tuple[HistogramCell, ...] = tuple(histograms)
        for cell in self.histograms:
            if len(cell.bounds) == 0 or any(
                    b <= a for a, b in zip(cell.bounds, cell.bounds[1:])):
                raise ValueError(
                    f"histogram cell {cell.name}{dict(cell.labels)}: bounds "
                    f"must be non-empty and strictly increasing")
        self.n_counters = len(self.counters)
        self.n_histograms = len(self.histograms)

        self._counter_index: Dict[Tuple[str, LabelItems], int] = {}
        for i, ccell in enumerate(self.counters):
            key = (ccell.name, ccell.labels)
            if key in self._counter_index:
                raise ValueError(f"duplicate counter cell {key!r}")
            self._counter_index[key] = i
        self._histogram_index: Dict[Tuple[str, LabelItems], int] = {}
        bucket_offsets: List[int] = []
        total_buckets = 0
        for i, hcell in enumerate(self.histograms):
            key = (hcell.name, hcell.labels)
            if key in self._histogram_index:
                raise ValueError(f"duplicate histogram cell {key!r}")
            self._histogram_index[key] = i
            bucket_offsets.append(total_buckets)
            total_buckets += len(hcell.bounds) + 1  # +1: overflow bucket
        self.bucket_offsets: Tuple[int, ...] = tuple(bucket_offsets)
        self.total_buckets = total_buckets

        # Per-slot packing: counters | histogram sums | histogram ns |
        # flat bucket counts.  Every section is 8-byte aligned by
        # construction (all elements are 8 bytes); the slot stride is
        # cache-line aligned so adjacent workers never share a line.
        self.counters_offset = 0
        offset = 8 * self.n_counters
        self.sums_offset = offset
        offset += 8 * self.n_histograms
        self.ns_offset = offset
        offset += 8 * self.n_histograms
        self.buckets_offset = offset
        offset += 8 * self.total_buckets
        self.slot_stride = _align(max(offset, 8))

    def counter_index(self, name: str,
                      labels: LabelItems) -> Optional[int]:
        """Cell index for a counter ``(name, labels)``, or ``None``."""
        return self._counter_index.get((name, labels))

    def histogram_index(self, name: str,
                        labels: LabelItems) -> Optional[int]:
        """Cell index for a histogram ``(name, labels)``, or ``None``."""
        return self._histogram_index.get((name, labels))

    def segment_bytes(self, n_slots: int) -> int:
        """Total segment size for ``n_slots`` workers."""
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        return self.slot_stride * int(n_slots)


class SlotWriter:
    """Lock-free numpy views over one slot; single writer, parent reader.

    Every update is a read-modify-write of one aligned 8-byte word (or a
    vectorized add over the slot's private bucket array).  The writing
    worker is the only mutator of its slot, so no synchronization is
    needed; the parent's reads may observe a histogram's ``sum`` a beat
    ahead of its ``counts`` mid-observation, which the delta-clamping
    drain tolerates (the remainder lands in the next drain).
    """

    __slots__ = ("schema", "slot", "_counters", "_sums", "_ns", "_buckets",
                 "_bounds")

    def __init__(self, schema: SlotSchema, shm: SharedMemory,
                 slot: int) -> None:
        if not 0 <= slot or schema.segment_bytes(slot + 1) > shm.size:
            raise ValueError(
                f"slot {slot} out of range for segment of {shm.size} bytes")
        self.schema = schema
        self.slot = int(slot)
        base = self.slot * schema.slot_stride
        buf = shm.buf
        self._counters = np.frombuffer(
            buf, np.float64, schema.n_counters,
            base + schema.counters_offset)
        self._sums = np.frombuffer(
            buf, np.float64, schema.n_histograms, base + schema.sums_offset)
        self._ns = np.frombuffer(
            buf, np.int64, schema.n_histograms, base + schema.ns_offset)
        self._buckets = np.frombuffer(
            buf, np.int64, schema.total_buckets,
            base + schema.buckets_offset)
        self._bounds = tuple(np.asarray(cell.bounds, dtype=np.float64)
                             for cell in schema.histograms)

    def inc_counter(self, index: int, amount: float) -> None:
        self._counters[index] += amount

    def inc_overflow(self) -> None:
        self._counters[0] += 1.0

    def observe_many(self, index: int, values: np.ndarray) -> None:
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        bounds = self._bounds[index]
        n_buckets = bounds.size + 1
        idx = np.searchsorted(bounds, flat, side="left")
        add = np.bincount(idx, minlength=n_buckets).astype(np.int64)
        off = self.schema.bucket_offsets[index]
        self._buckets[off:off + n_buckets] += add
        self._sums[index] += float(flat.sum())
        self._ns[index] += int(flat.size)

    def counter_value(self, index: int) -> float:
        return float(self._counters[index])

    def counters_snapshot(self) -> np.ndarray:
        return self._counters.copy()

    def histograms_snapshot(self) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
        """``(sums, ns, flat bucket counts)`` copies of this slot."""
        return self._sums.copy(), self._ns.copy(), self._buckets.copy()

    def close(self) -> None:
        """Drop the segment views (before the SHM handle closes)."""
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        self._counters = empty_f
        self._sums = empty_f
        self._ns = empty_i
        self._buckets = empty_i


class _SlotCounter(Counter):
    """Counter child writing straight into a slot cell (or overflow)."""

    __slots__ = ("_writer", "_cell")

    def __init__(self, name: str, label_items: LabelItems,
                 writer: SlotWriter, cell: Optional[int]) -> None:
        super().__init__(name, label_items)
        self._writer = writer
        self._cell = cell

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"({amount})")
        if self._cell is None:
            self._writer.inc_overflow()
        else:
            self._writer.inc_counter(self._cell, float(amount))

    @property
    def value(self) -> float:
        if self._cell is None:
            return 0.0
        return self._writer.counter_value(self._cell)


class _SlotHistogram(Histogram):
    """Histogram child writing observations into a slot cell."""

    __slots__ = ("_writer", "_cell")

    def __init__(self, name: str, label_items: LabelItems,
                 bounds: Sequence[float], writer: SlotWriter,
                 cell: Optional[int]) -> None:
        super().__init__(name, label_items, bounds)
        self._writer = writer
        self._cell = cell

    def observe_many(self, values: np.ndarray) -> None:
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        if self._cell is None:
            self._writer.inc_overflow()
        else:
            self._writer.observe_many(self._cell, flat)


class _SlotCounterFamily(CounterFamily):
    __slots__ = ("_schema", "_writer")

    def __init__(self, name: str, help_text: str, schema: SlotSchema,
                 writer: SlotWriter) -> None:
        super().__init__(name, help_text)
        self._schema = schema
        self._writer = writer

    def labels(self, **labels: object) -> Counter:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    cell = self._schema.counter_index(self.name, key)
                    child = _SlotCounter(self.name, key, self._writer, cell)
                    self._children[key] = child
        return child


class _SlotHistogramFamily(HistogramFamily):
    __slots__ = ("_schema", "_writer")

    def __init__(self, name: str, help_text: str,
                 bounds: Sequence[float], schema: SlotSchema,
                 writer: SlotWriter) -> None:
        super().__init__(name, help_text, bounds)
        self._schema = schema
        self._writer = writer

    def labels(self, **labels: object) -> Histogram:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    cell = self._schema.histogram_index(self.name, key)
                    bounds = (self._schema.histograms[cell].bounds
                              if cell is not None else self.bounds)
                    child = _SlotHistogram(self.name, key, bounds,
                                           self._writer, cell)
                    self._children[key] = child
        return child


class SlotMetricsRegistry(MetricsRegistry):
    """Worker-side registry: counters/histograms write into one slot.

    Drop-in for :func:`repro.obs.enable`'s ``registry`` argument, so the
    existing :class:`~repro.obs.Observer` instrumentation transparently
    lands in shared memory.  Gauges keep the in-process behavior (shard
    workers have no meaningful gauges; any set value simply stays local
    to the worker).  Unknown cells route to the overflow counter — see
    the module docstring's no-silent-loss rule.
    """

    def __init__(self, schema: SlotSchema, writer: SlotWriter) -> None:
        super().__init__()
        self._schema = schema
        self._writer = writer

    def counter(self, name: str, help_text: str = "") -> CounterFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _SlotCounterFamily(name, help_text, self._schema,
                                            self._writer)
                self._families[name] = family
        if not isinstance(family, CounterFamily):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family

    def histogram(self, name: str, help_text: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  ) -> HistogramFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                bounds: Sequence[float]
                if buckets is not None:
                    bounds = tuple(buckets)
                else:
                    from repro.obs.registry import LATENCY_BUCKETS_SECONDS
                    bounds = LATENCY_BUCKETS_SECONDS
                family = _SlotHistogramFamily(name, help_text, bounds,
                                              self._schema, self._writer)
                self._families[name] = family
        if not isinstance(family, HistogramFamily):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        return family


class WorkerSlot:
    """A worker's attachment to the metrics segment.

    Owns the worker-side ``SharedMemory`` handle; :meth:`close` drops
    the slot views before closing the handle (the ownership rule) and
    must run before the worker exits.
    """

    def __init__(self, shm: SharedMemory, schema: SlotSchema,
                 slot: int) -> None:
        self._shm = shm
        self.writer = SlotWriter(schema, shm, slot)
        self.registry: MetricsRegistry = SlotMetricsRegistry(schema,
                                                             self.writer)

    def close(self) -> None:
        self.writer.close()
        self._shm.close()


def attach_worker_slot(name: str, schema: SlotSchema,
                       slot: int) -> WorkerSlot:
    """Attach to the parent's metrics segment from a worker process.

    Mirrors the attach in :func:`repro.exec.process._worker_main`:
    Python < 3.13 registers every attach with the resource tracker,
    which would tear down the parent-owned segment at worker exit —
    suppress the registration for the duration of the attach.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register
    return WorkerSlot(shm, schema, slot)


class ShmMetricsSink:
    """Parent-owned metrics segment plus delta-based aggregation.

    Created by :class:`~repro.exec.process.ProcessShardExecutor` (one
    slot per worker).  :meth:`drain_into` folds every slot's
    since-last-drain increments into an ordinary registry; deltas are
    clamped at zero so a respawned worker resuming an existing slot, or
    a mid-write torn pair, can never decrement a parent counter.
    """

    def __init__(self, schema: SlotSchema, n_slots: int) -> None:
        self.schema = schema
        self.n_slots = int(n_slots)
        nbytes = schema.segment_bytes(self.n_slots)
        self._shm = SharedMemory(create=True, size=nbytes)
        self._shm.buf[:nbytes] = bytes(nbytes)  # deterministic zero start
        self._readers: List[SlotWriter] = [
            SlotWriter(schema, self._shm, s) for s in range(self.n_slots)]
        self._last_counters = np.zeros((self.n_slots, schema.n_counters),
                                       dtype=np.float64)
        self._last_sums = np.zeros((self.n_slots, schema.n_histograms),
                                   dtype=np.float64)
        self._last_ns = np.zeros((self.n_slots, schema.n_histograms),
                                 dtype=np.int64)
        self._last_buckets = np.zeros((self.n_slots, schema.total_buckets),
                                      dtype=np.int64)
        self._closed = False

    @property
    def name(self) -> str:
        """Segment name workers attach by."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Segment size in bytes (the self-monitoring gauge value)."""
        return int(self._shm.size)

    def writer(self, slot: int) -> SlotWriter:
        """Parent-side writer view of one slot (tests / diagnostics)."""
        return self._readers[slot]

    def drain_into(self, registry: MetricsRegistry) -> int:
        """Apply every slot's new increments to ``registry``.

        Returns the number of cells that carried a nonzero delta.
        Idempotent between worker writes: draining twice in a row
        applies nothing the second time.
        """
        if self._closed:
            return 0
        updated = 0
        schema = self.schema
        for slot, reader in enumerate(self._readers):
            cur = reader.counters_snapshot()
            delta = cur - self._last_counters[slot]
            np.maximum(delta, 0.0, out=delta)
            for i in np.nonzero(delta > 0.0)[0]:
                cell = schema.counters[i]
                registry.counter(cell.name, cell.help).labels(
                    **dict(cell.labels)).inc(float(delta[i]))
                updated += 1
            self._last_counters[slot] = cur
            if not schema.n_histograms:
                continue
            sums, ns, buckets = reader.histograms_snapshot()
            d_n = ns - self._last_ns[slot]
            np.maximum(d_n, 0, out=d_n)
            d_sum = sums - self._last_sums[slot]
            np.maximum(d_sum, 0.0, out=d_sum)
            d_buckets = buckets - self._last_buckets[slot]
            np.maximum(d_buckets, 0, out=d_buckets)
            for i in np.nonzero(d_n > 0)[0]:
                cell = schema.histograms[i]
                off = schema.bucket_offsets[i]
                n_buckets = len(cell.bounds) + 1
                child = registry.histogram(
                    cell.name, cell.help, buckets=cell.bounds).labels(
                        **dict(cell.labels))
                child.merge_counts(d_buckets[off:off + n_buckets],
                                   float(d_sum[i]), int(d_n[i]))
                updated += 1
            self._last_sums[slot] = sums
            self._last_ns[slot] = ns
            self._last_buckets[slot] = buckets
        return updated

    def emergency_unlink(self) -> None:
        """Unlink the segment name only (signal-handler path).

        One re-entrant syscall, no view teardown: safe at any
        interruption point.  Mappings stay valid; :meth:`close` later
        treats the missing name as benign.
        """
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # invariant: disable=R5,R7 —
            pass  # best-effort on the way down; raising would mask the exit

    def close(self) -> None:
        """Drop views, close, and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for reader in self._readers:
            reader.close()
        self._readers = []
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # invariant: disable=R5 — double-unlink
            # race with interpreter-shutdown cleanup is benign by design.
            pass


def _labels(**labels: object) -> LabelItems:
    return _label_key(labels)


def build_worker_schema(n_tables: int) -> SlotSchema:
    """The default slot layout: every metric a shard worker records.

    Enumerates the closed label vocabularies of the worker-reachable
    instrumentation sites — kernel tables, kernel names, stage names, per-table counters up to ``n_tables``, fault sites,
    degraded reasons, escalation kinds, and the worker lifecycle events.
    Anything outside this vocabulary lands in the overflow counter.
    """
    from repro import obs
    from repro.obs.kernels import NATIVE_KERNEL_SECONDS, TIMED_KERNEL_NAMES
    from repro.obs.registry import COUNT_BUCKETS, LATENCY_BUCKETS_SECONDS
    from repro.obs.trace import STAGE_SECONDS
    from repro.resilience.faults import KNOWN_SITES

    backends = ("cext", "numpy")
    stages = ("lsh.validate", "lsh.hash", "lsh.gather", "lsh.escalate",
              "lsh.rank")
    event_kinds = ("shard_recv", "shard_ok", "shard_err")
    degraded_reasons = ("table_dropped", "nonfinite_query")
    escalation_kinds = ("morton", "e8")

    counters: List[CounterCell] = []
    # Workers run the LSH plan only; it reports its site as the label.
    counters.append(CounterCell(obs.QUERIES_TOTAL, "Queries answered.",
                                _labels(engine="lsh")))
    counters.append(CounterCell(obs.BATCHES_TOTAL, "Query batches answered.",
                                _labels(engine="lsh")))
    counters.append(CounterCell(obs.ESCALATIONS_TOTAL,
                                "Queries escalated by the hierarchy."))
    for table in range(int(n_tables)):
        counters.append(CounterCell(
            obs.BUCKET_LOOKUPS_TOTAL, "Bucket lookups issued per table.",
            _labels(table=table)))
        counters.append(CounterCell(
            obs.BUCKET_MISSES_TOTAL,
            "Lookups that hit no bucket, per table.",
            _labels(table=table)))
        counters.append(CounterCell(
            obs.PROBES_TOTAL,
            "Multi-probe lookups beyond the home bucket.",
            _labels(table=table)))
    for backend in backends:
        counters.append(CounterCell(
            obs.NATIVE_BATCHES_TOTAL,
            "Query batches executed, per kernel table.",
            _labels(backend=backend)))
    for reason in ("disabled", "unavailable"):
        counters.append(CounterCell(
            obs.NATIVE_FALLBACKS_TOTAL,
            "Resolutions that fell back to the numpy kernel table.",
            _labels(reason=reason)))
    for kind in event_kinds:
        counters.append(CounterCell(
            obs.EXEC_WORKER_EVENTS_TOTAL,
            "Shard-worker pool lifecycle events.", _labels(kind=kind)))
    for site in KNOWN_SITES:
        counters.append(CounterCell(
            obs.FAULTS_INJECTED_TOTAL, "Injected faults fired, per site.",
            _labels(site=site)))
    for reason in degraded_reasons:
        counters.append(CounterCell(
            obs.DEGRADED_QUERIES_TOTAL,
            "Queries answered with a degraded result.",
            _labels(reason=reason)))
    counters.append(CounterCell(
        obs.DEADLINE_EXHAUSTED_TOTAL,
        "Queries whose wall-clock budget expired mid-pipeline.",
        _labels(stage="lsh.escalate")))

    histograms: List[HistogramCell] = []
    for stage in stages:
        histograms.append(HistogramCell(
            STAGE_SECONDS, "Per-stage pipeline latency (seconds).",
            _labels(stage=stage), LATENCY_BUCKETS_SECONDS))
    for kernel in TIMED_KERNEL_NAMES:
        for backend in backends:
            histograms.append(HistogramCell(
                NATIVE_KERNEL_SECONDS,
                "Per-call kernel latency (seconds).",
                _labels(kernel=kernel, backend=backend),
                LATENCY_BUCKETS_SECONDS))
    histograms.append(HistogramCell(
        obs.NATIVE_SETUP_SECONDS,
        "One-time native-backend setup latency (seconds).",
        _labels(backend="cext"), LATENCY_BUCKETS_SECONDS))
    histograms.append(HistogramCell(
        obs.SHORTLIST_SIZE, "Candidates ranked per query.", (),
        COUNT_BUCKETS))
    histograms.append(HistogramCell(
        obs.PROBE_COUNT,
        "Multi-probe buckets issued per query (all tables).", (),
        COUNT_BUCKETS))
    histograms.append(HistogramCell(
        obs.ADAPTIVE_PROBE_BUDGET,
        "Probe budget chosen by adaptive multi-probe.", (), COUNT_BUCKETS))
    for kind in escalation_kinds:
        histograms.append(HistogramCell(
            obs.ESCALATION_DEPTH,
            "Hierarchy levels climbed per escalated query.",
            _labels(kind=kind), COUNT_BUCKETS))
    histograms.append(HistogramCell(
        obs.QUEUE_WAIT_SECONDS,
        "Dispatch-to-receive wait of one shard message (seconds).", (),
        LATENCY_BUCKETS_SECONDS))
    return SlotSchema(counters, histograms)
