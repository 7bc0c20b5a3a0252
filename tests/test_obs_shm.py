"""Tests for the shared-memory metrics sink (``repro.obs.shm``).

The slot plane's contract, independent of the process executor:

- the :class:`SlotSchema` layout is deterministic, picklable, and
  cache-line aligned (one single-writer slot per worker);
- :class:`SlotMetricsRegistry` routes the stock ``Observer`` helpers
  into slot cells, and recordings without a cell land in the overflow
  counter — never silently dropped;
- :meth:`ShmMetricsSink.drain_into` applies **deltas**: repeated drains
  never double-count, histogram bucket counts merge exactly, and a
  fresh reader attached to the same segment sees prior writes.
"""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.obs.registry import (COUNT_BUCKETS, LATENCY_BUCKETS_SECONDS,
                                MetricsRegistry)
from repro.obs.shm import (SHM_OVERFLOW_TOTAL, CounterCell, HistogramCell,
                           ShmMetricsSink, SlotMetricsRegistry, SlotSchema,
                           attach_worker_slot, build_worker_schema)


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def small_schema() -> SlotSchema:
    return SlotSchema(
        counters=[
            CounterCell("t_total", "help", ()),
            CounterCell("t_total", "help", (("kind", "a"),)),
        ],
        histograms=[
            HistogramCell("t_seconds", "help", (), (0.1, 1.0, 10.0)),
        ])


class TestSlotSchema:
    def test_overflow_cell_is_always_index_zero(self):
        schema = small_schema()
        assert schema.counters[0].name == SHM_OVERFLOW_TOTAL
        assert schema.counter_index(SHM_OVERFLOW_TOTAL, ()) == 0

    def test_layout_is_aligned_and_deterministic(self):
        a, b = small_schema(), small_schema()
        assert a.slot_stride == b.slot_stride
        assert a.slot_stride % 64 == 0
        assert a.segment_bytes(3) == 3 * a.slot_stride

    def test_lookup_distinguishes_label_sets(self):
        schema = small_schema()
        assert schema.counter_index("t_total", ()) is not None
        assert schema.counter_index("t_total", (("kind", "a"),)) \
            != schema.counter_index("t_total", ())
        assert schema.counter_index("t_total", (("kind", "zzz"),)) is None
        assert schema.histogram_index("t_seconds", ()) == 0

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SlotSchema(counters=[CounterCell("x", "h"),
                                 CounterCell("x", "h")])

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(ValueError, match="bounds"):
            SlotSchema(histograms=[
                HistogramCell("h", "help", (), (1.0, 1.0))])

    def test_schema_is_picklable(self):
        schema = build_worker_schema(4)
        clone = pickle.loads(pickle.dumps(schema))
        assert clone.n_counters == schema.n_counters
        assert clone.slot_stride == schema.slot_stride
        assert clone.counter_index(SHM_OVERFLOW_TOTAL, ()) == 0


class TestSinkDrain:
    def test_counter_and_histogram_round_trip(self):
        schema = small_schema()
        sink = ShmMetricsSink(schema, n_slots=2)
        try:
            writer = sink.writer(1)
            writer.inc_counter(schema.counter_index("t_total", ()), 3.0)
            writer.observe_many(0, np.array([0.05, 0.5, 5.0, 50.0]))
            reg = MetricsRegistry()
            assert sink.drain_into(reg) == 2
            assert reg.counter("t_total").labels().value == 3.0
            hist = reg.histogram("t_seconds",
                                 buckets=(0.1, 1.0, 10.0)).labels()
            assert hist.count == 4
            assert hist.sum == pytest.approx(55.55)
        finally:
            sink.close()

    def test_repeated_drain_applies_nothing(self):
        schema = small_schema()
        sink = ShmMetricsSink(schema, n_slots=1)
        try:
            sink.writer(0).inc_counter(1, 2.0)
            reg = MetricsRegistry()
            assert sink.drain_into(reg) == 1
            assert sink.drain_into(reg) == 0
            assert reg.counter("t_total").labels().value == 2.0
            sink.writer(0).inc_counter(1, 1.0)
            assert sink.drain_into(reg) == 1
            assert reg.counter("t_total").labels().value == 3.0
        finally:
            sink.close()

    def test_slots_aggregate_independently(self):
        schema = small_schema()
        sink = ShmMetricsSink(schema, n_slots=3)
        try:
            for slot in range(3):
                sink.writer(slot).inc_counter(1, float(slot + 1))
            reg = MetricsRegistry()
            sink.drain_into(reg)
            assert reg.counter("t_total").labels().value == 6.0
        finally:
            sink.close()

    def test_close_is_idempotent_and_stops_drains(self):
        sink = ShmMetricsSink(small_schema(), n_slots=1)
        sink.close()
        sink.close()
        assert sink.drain_into(MetricsRegistry()) == 0


class TestWorkerSlotRegistry:
    def test_observer_recordings_land_in_parent_registry(self):
        schema = build_worker_schema(2)
        sink = ShmMetricsSink(schema, n_slots=1)
        slot = attach_worker_slot(sink.name, schema, 0)
        try:
            ob = obs.enable(registry=slot.registry)
            ob.record_batch("lsh", np.array([5, 7]),
                            np.array([True, False]), {})
            ob.record_native_batch("cext")
            ob.record_table_lookup(1, 12, 2, 3)
            ob.observe_stage("lsh.rank", 0.25)
            ob.observe_kernel("rank_topk", "cext", 0.002)
            obs.disable()
            reg = MetricsRegistry()
            sink.drain_into(reg)
            assert reg.counter("repro_queries_total").labels(
                engine="lsh").value == 2.0
            assert reg.counter("repro_native_batches_total").labels(
                backend="cext").value == 1.0
            assert reg.counter("repro_bucket_lookups_total").labels(
                table=1).value == 12.0
            assert reg.histogram(
                "repro_stage_seconds",
                buckets=LATENCY_BUCKETS_SECONDS).labels(
                    stage="lsh.rank").count == 1
            assert reg.histogram(
                "repro_native_kernel_seconds",
                buckets=LATENCY_BUCKETS_SECONDS).labels(
                    kernel="rank_topk", backend="cext").count == 1
            assert reg.histogram(
                "repro_shortlist_size",
                buckets=COUNT_BUCKETS).labels().count == 2
        finally:
            slot.close()
            sink.close()

    def test_unknown_recordings_increment_overflow(self):
        schema = small_schema()
        sink = ShmMetricsSink(schema, n_slots=1)
        slot = attach_worker_slot(sink.name, schema, 0)
        try:
            wreg = slot.registry
            assert isinstance(wreg, SlotMetricsRegistry)
            wreg.counter("never_declared_total").labels(x=1).inc(99)
            wreg.histogram("never_declared_seconds").labels().observe(0.5)
            reg = MetricsRegistry()
            sink.drain_into(reg)
            snapshot = reg.snapshot()
            assert "never_declared_total" not in snapshot
            assert reg.counter(SHM_OVERFLOW_TOTAL).labels().value == 2.0
        finally:
            slot.close()
            sink.close()

    def test_counter_still_rejects_negative(self):
        schema = small_schema()
        sink = ShmMetricsSink(schema, n_slots=1)
        slot = attach_worker_slot(sink.name, schema, 0)
        try:
            with pytest.raises(ValueError):
                slot.registry.counter("t_total").labels().inc(-1)
        finally:
            slot.close()
            sink.close()

    def test_gauges_stay_local_to_the_worker(self):
        schema = small_schema()
        sink = ShmMetricsSink(schema, n_slots=1)
        slot = attach_worker_slot(sink.name, schema, 0)
        try:
            slot.registry.gauge("g").set(7)
            assert slot.registry.gauge("g").value == 7.0
            reg = MetricsRegistry()
            sink.drain_into(reg)
            assert "g" not in reg.snapshot()
        finally:
            slot.close()
            sink.close()


class TestWorkerSchemaCoverage:
    def test_default_schema_covers_worker_vocabulary(self):
        schema = build_worker_schema(6)
        # Spot-check the vocabularies the worker pipeline records.
        assert schema.counter_index("repro_queries_total",
                                    (("engine", "lsh"),)) is not None
        assert schema.counter_index("repro_bucket_lookups_total",
                                    (("table", "5"),)) is not None
        assert schema.counter_index("repro_bucket_lookups_total",
                                    (("table", "6"),)) is None
        assert schema.counter_index("repro_faults_injected_total",
                                    (("site", "exec.process"),)) is not None
        assert schema.histogram_index("repro_stage_seconds",
                                      (("stage", "lsh.hash"),)) is not None
        assert schema.histogram_index(
            "repro_native_kernel_seconds",
            (("backend", "cext"), ("kernel", "rank_topk"))) is not None
        assert schema.histogram_index(
            "repro_native_kernel_seconds",
            (("backend", "numpy"), ("kernel", "dedup_candidates"))) \
            is not None
        assert schema.histogram_index("repro_exec_queue_wait_seconds",
                                      ()) is not None

    def test_merge_counts_validates_shape(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.0)).labels()
        with pytest.raises(ValueError, match="merge"):
            hist.merge_counts(np.zeros(99, dtype=np.int64), 0.0, 0)
        with pytest.raises(ValueError, match=">= 0"):
            hist.merge_counts(np.array([0, -1, 0], dtype=np.int64),
                              0.0, 0)
        hist.merge_counts(np.array([1, 2, 3], dtype=np.int64), 10.0, 6)
        assert hist.count == 6
        assert hist.sum == 10.0
