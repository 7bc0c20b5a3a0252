"""Tests for the observability layer (``repro.obs``).

Covers the metrics registry (kinds, labels, histograms, exports), the
module-level gate, trace-sampling determinism under the repo's seeded
RNG, and — reusing the concurrency-audit harness pattern — counter-total
consistency when the registry is hammered from worker threads and when
``n_jobs`` parallel per-group dispatch records into it.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.obs.registry import MetricsRegistry, log_buckets
from repro.obs.trace import QueryTrace, TraceCollector


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    obs.disable()
    yield
    obs.disable()


def _bilevel(seed: int, n_jobs: int = 4) -> BiLevelLSH:
    # Same shape as the concurrency-audit harness.
    return BiLevelLSH(BiLevelConfig(
        n_groups=4, n_tables=2, n_hashes=4, bucket_width=8.0,
        n_jobs=n_jobs, seed=seed))


class TestRegistryBasics:
    def test_counter_inc_and_total(self):
        reg = MetricsRegistry()
        family = reg.counter("c_total", "help")
        family.inc()
        family.labels(engine="a").inc(4)
        family.labels(engine="b").inc(2.5)
        assert family.labels(engine="a").value == 4.0
        assert family.total() == 7.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value == 7.0

    def test_same_labels_return_same_child(self):
        reg = MetricsRegistry()
        family = reg.counter("c_total")
        assert family.labels(a=1, b=2) is family.labels(b=2, a=1)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="registered as"):
            reg.histogram("m")

    def test_get_and_families(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.gauge("a_points")
        assert reg.get("missing") is None
        assert [f.name for f in reg.families()] == ["a_points", "b_total"]

    def test_reset_clears_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(5)
        reg.reset()
        assert reg.snapshot() == {}


class TestHistogram:
    def test_log_buckets_are_increasing(self):
        bounds = log_buckets(1.0, 1024.0)
        assert list(bounds) == sorted(bounds)
        assert bounds[0] == 1.0 and bounds[-1] >= 1024.0

    def test_observe_many_matches_scalar_observe(self):
        reg = MetricsRegistry()
        values = np.array([0.5, 1.0, 3.0, 200.0, 10_000.0])
        one = reg.histogram("one", buckets=log_buckets(1.0, 1024.0))
        many = reg.histogram("many", buckets=log_buckets(1.0, 1024.0))
        for v in values:
            one.observe(v)
        many.observe_many(values)
        np.testing.assert_array_equal(one.labels().bucket_counts(),
                                      many.labels().bucket_counts())
        assert one.count == many.count == values.size
        assert one.sum == many.sum == values.sum()

    def test_percentiles_bracket_the_data(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=log_buckets(1.0, 4096.0))
        values = np.arange(1, 1001, dtype=np.float64)
        hist.observe_many(values)
        p50 = hist.percentile(50.0)
        p99 = hist.percentile(99.0)
        # Bucket interpolation: within a factor-2 bucket of the truth.
        assert 250 <= p50 <= 1000
        assert p50 < p99 <= 2048
        assert hist.percentile(0.0) <= values.min() + 1

    def test_empty_histogram_percentile_is_zero(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").percentile(50.0) == 0.0

    def test_invalid_buckets_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(3.0, 1.0))


class TestExports:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", "Queries.").labels(
            engine="vectorized").inc(10)
        reg.gauge("repro_index_points", "Points.").set(400)
        reg.histogram("repro_shortlist_size", "Sizes.",
                      buckets=(1.0, 2.0, 4.0)).observe_many(
                          np.array([1, 3, 100]))
        return reg

    def test_snapshot_and_json_round_trip(self):
        snap = json.loads(self._populated().to_json())
        assert snap["repro_queries_total"]["kind"] == "counter"
        sample = snap["repro_queries_total"]["samples"][0]
        assert sample["labels"] == {"engine": "vectorized"}
        assert sample["value"] == 10.0
        hist = snap["repro_shortlist_size"]["samples"][0]
        assert hist["buckets"][-1]["le"] == "+Inf"
        assert hist["count"] == 3

    def test_prometheus_exposition(self):
        text = self._populated().to_prometheus()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{engine="vectorized"} 10' in text
        assert "# TYPE repro_index_points gauge" in text
        assert 'repro_shortlist_size_bucket{le="+Inf"} 3' in text
        assert "repro_shortlist_size_sum" in text
        assert "repro_shortlist_size_count 3" in text
        # Cumulative le buckets never decrease.
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                  if line.startswith("repro_shortlist_size_bucket")]
        assert counts == sorted(counts)

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total").labels(path='a"b\\c\nd').inc()
        text = reg.to_prometheus()
        assert r'path="a\"b\\c\nd"' in text


class TestPrometheusExpositionEdgeCases:
    """Exposition-format conformance on the awkward inputs.

    The text format has exact spellings parsers insist on: label values
    escape ``\\``, ``\"`` and newlines (in that order, so backslashes
    aren't double-escaped); non-finite scalars render as ``NaN`` /
    ``+Inf`` / ``-Inf`` (Python's ``nan``/``inf`` are rejected); a
    histogram family with no observations still emits its full bucket
    ladder with zero counts.
    """

    def test_each_escape_class_alone(self):
        reg = MetricsRegistry()
        reg.counter("a_total").labels(v='say "hi"').inc()
        reg.counter("b_total").labels(v="back\\slash").inc()
        reg.counter("c_total").labels(v="line\nbreak").inc()
        text = reg.to_prometheus()
        assert r'v="say \"hi\""' in text
        assert r'v="back\\slash"' in text
        assert r'v="line\nbreak"' in text
        # One physical line per sample even with embedded newlines.
        for line in text.splitlines():
            assert line.startswith(("#", "a_total", "b_total", "c_total"))

    def test_backslash_escaped_before_quote_and_newline(self):
        # The pathological value: a literal backslash-n followed by a
        # real newline.  Escaping backslashes first keeps them distinct.
        reg = MetricsRegistry()
        reg.gauge("g").labels(v="\\n\n").set(1)
        text = reg.to_prometheus()
        assert 'v="\\\\n\\n"' in text

    def test_empty_histogram_family_emits_zero_ladder(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "help", buckets=(0.1, 1.0)).labels(
            stage="rank")  # instantiated, never observed
        text = reg.to_prometheus()
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{stage="rank",le="0.1"} 0' in text
        assert 'h_seconds_bucket{stage="rank",le="+Inf"} 0' in text
        assert 'h_seconds_sum{stage="rank"} 0.0' in text
        assert 'h_seconds_count{stage="rank"} 0' in text

    def test_histogram_family_with_no_children(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "help", buckets=(0.1,))
        text = reg.to_prometheus()
        assert "# TYPE h_seconds histogram" in text
        assert "h_seconds_bucket" not in text

    def test_nonfinite_gauges_use_prometheus_spellings(self):
        reg = MetricsRegistry()
        reg.gauge("g").labels(k="nan").set(float("nan"))
        reg.gauge("g").labels(k="pinf").set(float("inf"))
        reg.gauge("g").labels(k="ninf").set(float("-inf"))
        text = reg.to_prometheus()
        assert 'g{k="nan"} NaN' in text
        assert 'g{k="pinf"} +Inf' in text
        assert 'g{k="ninf"} -Inf' in text
        # Python's own float spellings must never leak into the text.
        for line in text.splitlines():
            value = line.rsplit(" ", 1)[1]
            assert value not in ("nan", "inf", "-inf")

    def test_nonfinite_histogram_sum(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0,)).labels()
        hist.observe(float("inf"))
        text = reg.to_prometheus()
        assert "h_sum +Inf" in text
        assert 'h_bucket{le="+Inf"} 1' in text

    def test_json_snapshot_unaffected_by_exposition_spellings(self):
        # snapshot() keeps native floats; only the text format respells.
        reg = MetricsRegistry()
        reg.gauge("g").labels().set(float("inf"))
        snap = reg.snapshot()
        assert snap["g"]["samples"][0]["value"] == float("inf")


class TestGate:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert not obs.enabled()
        assert obs.recent_traces() == []

    def test_enable_disable(self):
        reg = MetricsRegistry()
        observer = obs.enable(registry=reg)
        assert obs.active() is observer
        assert obs.get_registry() is reg
        obs.disable()
        assert obs.active() is None

    def test_span_records_stage_seconds(self):
        reg = MetricsRegistry()
        observer = obs.enable(registry=reg)
        with observer.span("unit.test"):
            pass
        hist = reg.get(obs.STAGE_SECONDS)
        assert hist.labels(stage="unit.test").count == 1


class TestInstrumentedPipeline:
    def test_query_batch_populates_registry(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((400, 16))
        queries = rng.standard_normal((30, 16))
        index = _bilevel(seed=0, n_jobs=1).fit(data)
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        index.query_batch(queries, 5)
        obs.disable()
        assert reg.get(obs.QUERIES_TOTAL).total() == queries.shape[0]
        assert reg.get(obs.SHORTLIST_SIZE).count == queries.shape[0]
        assert reg.get(obs.INDEX_POINTS).value == data.shape[0]
        per_group = reg.get(obs.GROUP_QUERIES_TOTAL)
        assert per_group.total() == queries.shape[0]
        stages = {dict(h.label_items)["stage"]
                  for h in reg.get(obs.STAGE_SECONDS).children()}
        assert {"bilevel.route", "bilevel.dispatch", "bilevel.merge",
                "lsh.hash", "lsh.gather", "lsh.rank"} <= stages

    def test_results_identical_with_and_without_obs(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((300, 8))
        queries = rng.standard_normal((25, 8))
        index = _bilevel(seed=1).fit(data)
        ids0, dists0, _ = index.query_batch(queries, 5)
        obs.enable(registry=MetricsRegistry(), trace_sample_rate=0.5)
        ids1, dists1, _ = index.query_batch(queries, 5)
        obs.disable()
        np.testing.assert_array_equal(ids0, ids1)
        np.testing.assert_allclose(dists0, dists1)


class TestRegistryConcurrency:
    def test_counter_totals_from_many_threads(self):
        reg = MetricsRegistry()
        family = reg.counter("c_total")
        barrier = threading.Barrier(8)

        def hammer(tid: int) -> None:
            barrier.wait()
            for _ in range(1000):
                family.labels(thread=tid % 4).inc()

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert family.total() == 8000.0

    def test_histogram_counts_from_many_threads(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=log_buckets(1.0, 64.0))
        values = np.arange(1, 65, dtype=np.float64)
        barrier = threading.Barrier(6)

        def hammer(_tid: int) -> None:
            barrier.wait()
            for _ in range(50):
                hist.observe_many(values)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(hammer, range(6)))
        assert hist.count == 6 * 50 * values.size
        assert hist.sum == 6 * 50 * values.sum()

    def test_parallel_group_dispatch_counts_are_consistent(self):
        """n_jobs worker threads record per-group counters concurrently;
        totals must equal the serial run's exactly."""
        rng = np.random.default_rng(7)
        data = rng.standard_normal((500, 16))
        queries = rng.standard_normal((40, 16))

        def totals(n_jobs: int, n_batches: int = 4):
            index = _bilevel(seed=7, n_jobs=n_jobs).fit(data)
            reg = MetricsRegistry()
            obs.enable(registry=reg)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(index.query_batch, queries, 5)
                           for _ in range(n_batches)]
                for future in futures:
                    future.result()
            obs.disable()
            group = reg.get(obs.GROUP_QUERIES_TOTAL)
            return (reg.get(obs.QUERIES_TOTAL).total(),
                    {dict(c.label_items)["group"]: c.value
                     for c in group.children()})

        serial_total, serial_groups = totals(n_jobs=1)
        parallel_total, parallel_groups = totals(n_jobs=4)
        assert serial_total == parallel_total == 4 * queries.shape[0]
        assert serial_groups == parallel_groups
        assert sum(parallel_groups.values()) == parallel_total


class TestTraceSampling:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TraceCollector(-0.1)
        with pytest.raises(ValueError):
            TraceCollector(1.5)

    def test_zero_rate_samples_nothing(self):
        assert TraceCollector(0.0).sample_mask(100) is None

    def test_same_seed_is_deterministic(self):
        a = TraceCollector(0.2, seed=123)
        b = TraceCollector(0.2, seed=123)
        for n in (50, 10, 200):
            mask_a, mask_b = a.sample_mask(n), b.sample_mask(n)
            if mask_a is None:
                assert mask_b is None
            else:
                np.testing.assert_array_equal(mask_a, mask_b)

    def test_different_seeds_diverge(self):
        masks = [TraceCollector(0.5, seed=s).sample_mask(400)
                 for s in (0, 1)]
        assert not np.array_equal(masks[0], masks[1])

    def test_end_to_end_traces_are_deterministic(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((400, 16))
        queries = rng.standard_normal((60, 16))
        index = _bilevel(seed=3, n_jobs=1).fit(data)

        def traced_indices(seed: int):
            obs.enable(registry=MetricsRegistry(), trace_sample_rate=0.25,
                       trace_seed=seed)
            index.query_batch(queries, 5)
            traces = obs.recent_traces()
            obs.disable()
            return [t.query_index for t in traces]

        first = traced_indices(seed=42)
        assert first, "0.25 sampling over 60 queries should trace some"
        assert traced_indices(seed=42) == first

    def test_trace_contents(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((300, 8))
        queries = rng.standard_normal((20, 8))
        index = _bilevel(seed=4, n_jobs=1).fit(data)
        obs.enable(registry=MetricsRegistry(), trace_sample_rate=1.0)
        index.query_batch(queries, 5)
        traces = obs.recent_traces()
        obs.disable()
        assert len(traces) == queries.shape[0]
        for trace in traces:
            assert isinstance(trace, QueryTrace)
            record = trace.to_dict()
            assert record["engine"] == "lsh"
            assert record["n_candidates"] >= 0
            assert "lsh.rank" in record["stages"]

    def test_max_traces_bounds_memory(self):
        collector = TraceCollector(1.0, seed=0, max_traces=3)
        for i in range(10):
            collector.add(QueryTrace(query_index=i, engine="e",
                                     n_candidates=0, n_probes=0,
                                     escalated=False, stages={}))
        assert len(collector.traces()) == 3


class TestDerivedSummary:
    def test_summary_fields(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((400, 16))
        queries = rng.standard_normal((30, 16))
        index = _bilevel(seed=5, n_jobs=1).fit(data)
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        index.query_batch(queries, 5)
        obs.disable()
        derived = obs.derived_summary(reg)
        assert derived["queries_total"] == queries.shape[0]
        assert 0.0 <= derived["escalated_fraction"] <= 1.0
        assert derived["per_group"]
        for stats in derived["per_group"].values():
            assert 0.0 <= stats["escalation_fraction"] <= 1.0
        assert derived["shortlist_size"]["count"] == queries.shape[0]
        snapshot = obs.full_snapshot(reg)
        assert set(snapshot) == {"metrics", "derived"}
