"""ProcessShardExecutor tests: parity, chaos, deadlines, SHM lifecycle.

The contract under test (DESIGN.md §12, "Process sharding"):

1. **Bit-identical** — the process pool returns exactly what the
   in-process ``index.query_batch`` returns (integer hierarchy
   threshold; the ``"median"`` rule is per-shard by construction, same
   as the thread path).
2. **Zero wrong answers under chaos** — killing a live shard worker
   mid-batch (``kill -9``) or injecting a fault at ``exec.process``
   never produces a wrong row: retried shards stay bit-identical,
   brute-forced shards are flagged ``degraded`` and carry *exact*
   answers, and only the unsupervised path is allowed to raise.
3. **One absolute deadline** — shipped to workers as a raw monotonic
   expiry; an expired budget yields flagged padding, never a hang.
4. **Segment ownership** — a ``np.frombuffer`` view must die before its
   ``SharedMemory`` closes (the view holds a buffer export); ``close()``
   is idempotent and actually releases the segment.

All plans and datasets are seeded; CI's ``chaos`` job runs this file.
"""

import collections
import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.exec import ProcessShardExecutor, WorkerCrashError
from repro.exec.process import _segment_view
from repro.lsh.index import StandardLSH
from repro.obs.registry import MetricsRegistry
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResiliencePolicy,
    injected_faults,
)

N_QUERIES = 23
DIM = 16
K = 10
THRESHOLD = 12  # integer: shard-invariant, so parity is exact


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(404).standard_normal((500, DIM))


@pytest.fixture(scope="module")
def queries(dataset):
    q = np.random.default_rng(405).standard_normal((N_QUERIES, DIM))
    q[3] = dataset[41]  # exact self-match: distance must be bitwise 0.0
    return q


@pytest.fixture(scope="module")
def index(dataset):
    return StandardLSH(n_tables=6, bucket_width=6.0, seed=9, lattice="e8",
                       n_probes=2, hierarchy=True).fit(dataset)


@pytest.fixture(scope="module")
def reference(index, queries):
    return index.query_batch(queries, K, hierarchy_threshold=THRESHOLD)


@pytest.fixture(scope="module")
def executor(index):
    with ProcessShardExecutor(index, n_workers=2) as ex:
        yield ex


def assert_bit_identical(result, reference):
    ids_a, dists_a, stats_a = result
    ids_b, dists_b, stats_b = reference
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(dists_a.view(np.int64), dists_b.view(np.int64))
    assert np.array_equal(stats_a.n_candidates, stats_b.n_candidates)
    assert np.array_equal(stats_a.escalated, stats_b.escalated)


# ----------------------------------------------------------------- parity


class TestParity:
    def test_single_shard_is_bit_identical(self, executor, queries,
                                           reference):
        result = executor.query_batch(queries, K,
                                      hierarchy_threshold=THRESHOLD)
        assert_bit_identical(result, reference)
        assert result[2].degraded_mask().sum() == 0

    @pytest.mark.parametrize("rows", [1, 5, N_QUERIES])
    def test_sharded_is_bit_identical(self, executor, queries, reference,
                                      rows):
        result = executor.query_batch(queries, K,
                                      hierarchy_threshold=THRESHOLD,
                                      max_batch_rows=rows)
        assert_bit_identical(result, reference)

    def test_self_match_distance_is_zero(self, executor, queries):
        ids, dists, _ = executor.query_batch(queries, K,
                                             hierarchy_threshold=THRESHOLD)
        assert ids[3, 0] == 41
        assert dists[3, 0] == 0.0

    def test_workers_on_the_numpy_table_are_bit_identical(
            self, index, queries, reference):
        # Spawned workers resolve their own kernel table from the
        # environment they inherit; ``reference`` is in-process on
        # whatever this one resolved.
        from repro.native import registry

        reg = MetricsRegistry()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_BACKEND", "none")
            registry.reset()
            obs.enable(registry=reg)
            try:
                with ProcessShardExecutor(index, n_workers=2) as ex:
                    result = ex.query_batch(queries, K,
                                            hierarchy_threshold=THRESHOLD,
                                            max_batch_rows=8)
            finally:
                obs.disable()
        registry.reset()
        assert_bit_identical(result, reference)
        assert set(_samples(reg.snapshot(), "repro_native_batches_total")) \
            == {(("backend", "numpy"),)}

    def test_median_threshold_single_shard(self, index, executor, queries):
        # One shard == whole batch, so even the per-shard "median" rule
        # matches the unsharded run exactly.
        base = index.query_batch(queries, K)
        result = executor.query_batch(queries, K)
        assert_bit_identical(result, base)


# ------------------------------------------------------------- validation


class TestValidation:
    def test_rejects_zero_workers(self, index):
        with pytest.raises(ValueError, match="n_workers"):
            ProcessShardExecutor(index, n_workers=0)

    def test_worker_pids_match_pool_size(self, executor):
        pids = executor.worker_pids()
        assert len(pids) == executor.n_workers
        assert all(isinstance(p, int) and p > 0 for p in pids)

    def test_nonfinite_rows_degrade_under_policy(self, executor, queries,
                                                 reference):
        bad = queries.copy()
        bad[1, 0] = np.nan
        pol = ResiliencePolicy(max_retries=1)
        ids, dists, stats = executor.query_batch(
            bad, K, hierarchy_threshold=THRESHOLD, policy=pol)
        degraded = stats.degraded_mask()
        assert degraded[1] and degraded.sum() == 1
        assert np.all(ids[1] == -1)
        good = ~degraded
        assert np.array_equal(ids[good], reference[0][good])
        assert np.array_equal(dists[good].view(np.int64),
                              reference[1][good].view(np.int64))


# ----------------------------------------------------------------- chaos


class TestChaos:
    def test_killed_worker_is_respawned_with_zero_wrong_answers(
            self, index, queries, reference):
        # kill -9 one live worker, then run a multi-shard batch: the
        # supervised path must retry on a fresh process and return the
        # exact answers (no degradation — the retry succeeded).
        with ProcessShardExecutor(index, n_workers=2) as ex:
            victim = ex.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline_for_death = time.monotonic() + 5.0
            while (victim in ex.worker_pids()
                   and time.monotonic() < deadline_for_death):
                time.sleep(0.01)
            result = ex.query_batch(queries, K,
                                    hierarchy_threshold=THRESHOLD,
                                    policy=ResiliencePolicy(max_retries=2),
                                    max_batch_rows=5)
            assert_bit_identical(result, reference)
            assert result[2].degraded_mask().sum() == 0
            # The pool healed: every slot holds a live worker again.
            assert len(ex.worker_pids()) == 2

    def test_kill_midstream_batches_stay_correct(self, index, queries,
                                                 reference):
        # Interleave kills with queries: every batch, no matter when the
        # worker died, must be bit-identical (retry) with zero degraded.
        pol = ResiliencePolicy(max_retries=2)
        with ProcessShardExecutor(index, n_workers=1) as ex:
            for _ in range(3):
                os.kill(ex.worker_pids()[0], signal.SIGKILL)
                result = ex.query_batch(queries, K,
                                        hierarchy_threshold=THRESHOLD,
                                        policy=pol, max_batch_rows=8)
                assert_bit_identical(result, reference)
                assert result[2].degraded_mask().sum() == 0

    def test_injected_fault_exhausts_retries_to_exact_brute_force(
            self, index, executor, queries, reference):
        # Pin the fault to shard 1 with no retry budget: its rows fall
        # back to the exact in-parent brute-force scan (flagged
        # degraded), every other row stays bit-identical.
        plan = FaultPlan([FaultSpec(site="exec.process",
                                    match={"shard": 1})], seed=13)
        pol = ResiliencePolicy(max_retries=0)
        with injected_faults(plan):
            ids, dists, stats = executor.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD, policy=pol,
                max_batch_rows=5)
        degraded = stats.degraded_mask()
        assert degraded[5:10].all() and degraded.sum() == 5
        brute_ids, brute_dists = index.brute_force_batch(queries[5:10], K)
        assert np.array_equal(ids[5:10], brute_ids)
        assert np.array_equal(dists[5:10].view(np.int64),
                              brute_dists.view(np.int64))
        good = ~degraded
        assert np.array_equal(ids[good], reference[0][good])
        assert np.array_equal(dists[good].view(np.int64),
                              reference[1][good].view(np.int64))
        assert stats.failures is not None
        assert any(r.action.startswith("fallback") for r in stats.failures)

    def test_injected_fault_with_retry_budget_is_bit_identical(
            self, executor, queries, reference):
        plan = FaultPlan([FaultSpec(site="exec.process", match={"shard": 0},
                                    max_hits=1)], seed=13)
        pol = ResiliencePolicy(max_retries=2)
        with injected_faults(plan):
            result = executor.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD, policy=pol,
                max_batch_rows=5)
        assert_bit_identical(result, reference)
        assert result[2].degraded_mask().sum() == 0
        assert result[2].failures is not None  # the retry was recorded

    def test_unsupervised_fault_propagates(self, executor, queries):
        plan = FaultPlan([FaultSpec(site="exec.process")], seed=13)
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                executor.query_batch(queries, K,
                                     hierarchy_threshold=THRESHOLD)


# -------------------------------------------------------------- deadlines


class TestDeadline:
    def test_expired_deadline_pads_and_flags(self, executor, queries):
        deadline = Deadline.from_ms(0.001)
        time.sleep(0.01)
        ids, dists, stats = executor.query_batch(
            queries, K, hierarchy_threshold=THRESHOLD, deadline=deadline,
            max_batch_rows=5)
        assert stats.exhausted_budget is not None
        assert stats.exhausted_budget.all()
        assert np.all(ids == -1)
        assert np.all(np.isinf(dists))

    def test_generous_deadline_changes_nothing(self, executor, queries,
                                               reference):
        result = executor.query_batch(
            queries, K, hierarchy_threshold=THRESHOLD, deadline_ms=60_000,
            max_batch_rows=5)
        assert_bit_identical(result, reference)
        assert not result[2].exhausted_budget.any()


# ------------------------------------------------- shared-memory lifecycle


class TestSharedMemoryOwnership:
    def test_view_must_die_before_close(self):
        # The np.frombuffer regression pinned by persistence.py's
        # ownership comments: a live view holds a buffer export, so
        # closing the segment under it raises BufferError instead of
        # leaving a dangling pointer.
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(create=True, size=1024)
        try:
            view = _segment_view(shm, "<f8", (16,), 0)
            with pytest.raises(BufferError):
                shm.close()
            del view
            shm.close()  # all exports dropped: close now succeeds
        finally:
            shm.unlink()

    def test_segment_views_are_read_only(self):
        from multiprocessing.shared_memory import SharedMemory

        shm = SharedMemory(create=True, size=256)
        try:
            view = _segment_view(shm, "<i8", (4, 8), 0)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1
            del view
            shm.close()
        finally:
            shm.unlink()

    def test_worker_side_index_is_whole_and_read_only(self, index):
        # What a worker adopts is a StandardLSH like any other — every
        # attribute __init__ sets, on the index and on each table — and
        # no array of it can be written through.
        from repro.exec.process import _materialize, _reconstruct_index
        from repro.lsh.table import LSHTable

        shm, manifest, scalars = _materialize(index)
        try:
            adopted = _reconstruct_index(shm, manifest, scalars)
            assert vars(adopted).keys() == vars(StandardLSH()).keys()
            built = vars(LSHTable(np.zeros((1, 8), dtype=np.int64))).keys()
            assert all(vars(t).keys() == built for t in adopted._tables)
            _, source, derived = adopted.state()
            arrays = {**source, **derived}
            assert {"data", "ids", "sq_norms", "family5/directions",
                    "table5/sorted_ids"} <= set(arrays)
            for arr in arrays.values():
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0
            # Views die before the segment closes (the ownership rule).
            del adopted, source, derived, arrays, arr
            shm.close()
        finally:
            shm.unlink()

    def test_close_releases_the_segment(self, index, queries):
        from multiprocessing.shared_memory import SharedMemory

        ex = ProcessShardExecutor(index, n_workers=1)
        name = ex._shm.name
        ex.query_batch(queries, K, hierarchy_threshold=THRESHOLD)
        ex.close()
        ex.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)

    def test_closed_executor_rejects_queries(self, index, queries):
        ex = ProcessShardExecutor(index, n_workers=1)
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.query_batch(queries, K)

    def test_memmap_index_is_rejected(self, tmp_path, dataset):
        path = tmp_path / "data.npy"
        np.save(path, dataset)
        mm = np.load(path, mmap_mode="r")
        index = StandardLSH(n_tables=3, bucket_width=6.0, seed=9).fit(
            np.asarray(mm))
        index._data = mm  # simulate an out-of-core fit
        with pytest.raises(ValueError, match="in-memory"):
            ProcessShardExecutor(index, n_workers=1)


# ---------------------------------------------------------- observability


class TestObservability:
    def test_worker_events_and_shards_are_counted(self, index, queries,
                                                  reference):
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with ProcessShardExecutor(index, n_workers=1) as ex:
                os.kill(ex.worker_pids()[0], signal.SIGKILL)
                result = ex.query_batch(
                    queries, K, hierarchy_threshold=THRESHOLD,
                    policy=ResiliencePolicy(max_retries=2),
                    max_batch_rows=8)
        finally:
            obs.disable()
        assert_bit_identical(result, reference)
        snap = reg.snapshot()
        events = {s["labels"]["kind"]: s["value"]
                  for s in snap["repro_exec_worker_events_total"]["samples"]}
        assert events.get("spawn", 0) >= 2  # initial + the replacement
        assert events.get("respawn", 0) >= 1
        shards = snap["repro_exec_shards_total"]["samples"]
        assert any(s["labels"].get("site") == "exec.process"
                   for s in shards)


# ------------------------------------------------ cross-process metrics


def _samples(snap, name):
    return {tuple(sorted(s["labels"].items())): s["value"]
            for s in snap.get(name, {}).get("samples", ())}


#: What a batch records identically wherever its shards run: counts of
#: work done, no clock in them.
_DETERMINISTIC_COUNTERS = (
    "repro_queries_total", "repro_bucket_lookups_total",
    "repro_bucket_misses_total", "repro_probes_total",
    "repro_escalations_total")


def _deterministic(snap):
    """``{(series, labels or bucket): count}`` over those series."""
    flat = {(name, labels): value for name in _DETERMINISTIC_COUNTERS
            for labels, value in _samples(snap, name).items()}
    (sizes,) = snap["repro_shortlist_size"]["samples"]
    flat["repro_shortlist_size", "count"] = sizes["count"]
    for bucket in sizes["buckets"]:
        flat["repro_shortlist_size", bucket["le"]] = bucket["count"]
    return flat


class TestCrossProcessMetrics:
    """PR 8 contract: worker recordings survive the process boundary.

    Regression for the silent-loss bug: ``_worker_main``'s
    ``obs.active()`` recordings used to land in a registry that died
    with the worker.  They ride each shard's reply now and are merged
    into the parent's registry as it is read.
    """

    @pytest.mark.filterwarnings(
        "ignore:native kernels unavailable:RuntimeWarning")
    @pytest.mark.parametrize("backend_env", ["auto", "none"])
    @pytest.mark.parametrize("shape", ["zm_probes", "e8_hierarchy"])
    def test_pooled_snapshot_equals_in_process(self, dataset, index,
                                               queries, shape, backend_env):
        from repro.native import registry

        if shape == "zm_probes":
            index = StandardLSH(n_tables=4, bucket_width=6.0, seed=9,
                                n_probes=4).fit(dataset)
        snaps = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_BACKEND", backend_env)
            registry.reset()
            with ProcessShardExecutor(index, n_workers=2) as ex:
                for name, target in (("in_process", index), ("pooled", ex)):
                    reg = MetricsRegistry()
                    obs.enable(registry=reg)
                    try:
                        target.query_batch(queries, K,
                                           hierarchy_threshold=THRESHOLD,
                                           max_batch_rows=8)
                    finally:
                        obs.disable()
                    snaps[name] = reg.snapshot()
        registry.reset()
        want = _deterministic(snaps["in_process"])
        assert _deterministic(snaps["pooled"]) == want
        # Not vacuous: every table looked up, probed, and — on the
        # hierarchy index — something escalated.
        label_sets = collections.Counter(series for series, _ in want)
        assert label_sets["repro_bucket_lookups_total"] == index.n_tables
        assert label_sets["repro_probes_total"] == index.n_tables
        assert (label_sets["repro_escalations_total"] > 0) \
            == (shape == "e8_hierarchy")
        assert want["repro_shortlist_size", "count"] == N_QUERIES

    def test_worker_counters_visible_in_parent_snapshot(self, index,
                                                        queries,
                                                        reference):
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with ProcessShardExecutor(index, n_workers=2) as ex:
                result = ex.query_batch(queries, K,
                                        hierarchy_threshold=THRESHOLD,
                                        max_batch_rows=8)
        finally:
            obs.disable()
        assert_bit_identical(result, reference)
        snap = reg.snapshot()
        # Worker-side pipeline counters, recorded inside the shard
        # processes, merged into the parent registry.
        queries_by_engine = _samples(snap, "repro_queries_total")
        assert queries_by_engine.get((("engine", "lsh"),), 0) \
            == N_QUERIES
        lookups = _samples(snap, "repro_bucket_lookups_total")
        assert sum(lookups.values()) > 0
        events = _samples(snap, "repro_exec_worker_events_total")
        n_shards = -(-N_QUERIES // 8)
        assert events.get((("kind", "shard_recv"),), 0) == n_shards
        assert events.get((("kind", "shard_ok"),), 0) == n_shards
        # Worker-side stage histograms merge bucket-exactly.
        stage = snap["repro_stage_seconds"]["samples"]
        stages = {s["labels"]["stage"] for s in stage}
        assert {"lsh.hash", "lsh.gather", "lsh.rank"} <= stages
        # Self-monitoring: queue wait + segment gauge.
        assert "repro_exec_queue_wait_seconds" in snap
        shm_gauges = _samples(snap, "repro_obs_shm_bytes")
        assert shm_gauges.get((("segment", "index"),), 0) > 0

    def test_worker_faults_counted_in_parent(self, index, queries):
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        plan = FaultPlan((FaultSpec("exec.process", max_hits=1),), seed=5)
        try:
            with ProcessShardExecutor(index, n_workers=1) as ex:
                with injected_faults(plan):
                    ex.query_batch(queries, K,
                                   hierarchy_threshold=THRESHOLD,
                                   policy=ResiliencePolicy(max_retries=2),
                                   max_batch_rows=8)
        finally:
            obs.disable()
        snap = reg.snapshot()
        faults = _samples(snap, "repro_faults_injected_total")
        assert faults.get((("site", "exec.process"),), 0) >= 1

    def test_stitched_trace_has_parent_and_worker_spans(self, index,
                                                        queries,
                                                        reference):
        reg = MetricsRegistry()
        obs.enable(registry=reg, trace_sample_rate=1.0, trace_seed=11)
        try:
            with ProcessShardExecutor(index, n_workers=2) as ex:
                result = ex.query_batch(queries, K,
                                        hierarchy_threshold=THRESHOLD,
                                        max_batch_rows=8)
            traces = obs.recent_traces()
        finally:
            obs.disable()
        assert_bit_identical(result, reference)
        stitched = [t for t in traces if t.engine == "process:lsh"]
        # rate=1.0: one stitched waterfall per query, no re-sampling.
        assert len(stitched) == N_QUERIES
        assert sorted(t.query_index for t in stitched) == \
            list(range(N_QUERIES))
        for trace in stitched:
            assert trace.shard_id >= 0
            assert 0 <= trace.worker_id < 2
            assert {"exec.process.validate", "exec.process.dispatch",
                    "exec.process.collect"} <= set(trace.stages)
            assert {"lsh.validate", "lsh.hash", "lsh.gather",
                    "lsh.rank"} <= set(trace.worker_stages)
            payload = trace.to_dict()
            assert payload["shard_id"] == trace.shard_id
            assert payload["worker_stages"] == trace.worker_stages

    def test_native_kernel_spans_in_stitched_trace(self, index, queries,
                                                   reference):
        # Whichever table the workers resolved, its calls are spans.
        reg = MetricsRegistry()
        obs.enable(registry=reg, trace_sample_rate=1.0, trace_seed=11)
        try:
            with ProcessShardExecutor(index, n_workers=2) as ex:
                result = ex.query_batch(queries, K,
                                        hierarchy_threshold=THRESHOLD,
                                        max_batch_rows=8)
            traces = obs.recent_traces()
        finally:
            obs.disable()
        assert_bit_identical(result, reference)
        stitched = [t for t in traces if t.engine == "process:lsh"]
        assert len(stitched) == N_QUERIES
        kernel_spans = set()
        for trace in stitched:
            kernel_spans |= {s for s in trace.worker_stages
                             if s.startswith("kernel/")}
        assert "kernel/rank_topk" in kernel_spans
        snap = reg.snapshot()
        assert sum(_samples(snap, "repro_native_batches_total")
                   .values()) > 0
        kernel_hist = snap["repro_native_kernel_seconds"]["samples"]
        assert any(s["labels"].get("kernel") == "rank_topk"
                   for s in kernel_hist)

    def test_two_batches_report_exactly_twice(self, index, queries):
        # Each reply carries its own shard's recordings and is merged
        # once: nothing is re-read, nothing is dropped between batches.
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with ProcessShardExecutor(index, n_workers=1) as ex:
                ex.query_batch(queries, K, hierarchy_threshold=THRESHOLD,
                               max_batch_rows=8)
                once = _deterministic(reg.snapshot())
                ex.query_batch(queries, K, hierarchy_threshold=THRESHOLD,
                               max_batch_rows=8)
                twice = _deterministic(reg.snapshot())
        finally:
            obs.disable()
        assert once["repro_queries_total", (("engine", "lsh"),)] \
            == N_QUERIES
        assert twice == {key: 2 * count for key, count in once.items()}

    def test_error_reply_carries_its_telemetry(self, index, queries):
        # The worker raises on the threshold (ValueError inside
        # query_batch); what it recorded up to there — and the
        # ``shard_err`` event itself — comes back on the ``err`` reply.
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with ProcessShardExecutor(index, n_workers=1) as ex:
                _, _, stats = ex.query_batch(
                    queries, K, hierarchy_threshold="not-an-int",
                    policy=ResiliencePolicy(max_retries=1),
                    max_batch_rows=8)
        finally:
            obs.disable()
        assert stats.degraded_mask().all()  # brute-force fallback rows
        events = _samples(reg.snapshot(), "repro_exec_worker_events_total")
        assert events.get((("kind", "shard_err"),), 0) >= 1
        assert events[(("kind", "shard_err"),)] \
            == events[(("kind", "shard_recv"),)]
        assert (("kind", "shard_ok"),) not in events

    def test_obs_disabled_ships_no_trace_context(self, index, queries,
                                                 reference):
        # Off path: no TraceContext, no worker instrumentation, and the
        # answers stay bit-identical.
        assert obs.active() is None
        with ProcessShardExecutor(index, n_workers=1) as ex:
            result = ex.query_batch(queries, K,
                                    hierarchy_threshold=THRESHOLD,
                                    max_batch_rows=8)
        assert_bit_identical(result, reference)
        assert obs.recent_traces() == []


# ------------------------------------------------------- SHM crash cleanup

_LEAK_CHILD = r"""
import os, signal, sys, time
import numpy as np
from repro.exec import ProcessShardExecutor
from repro.lsh.index import StandardLSH

mode = sys.argv[1]
if mode == "sigign":
    # An embedding process that deliberately ignores SIGTERM; building
    # an executor must not overwrite that disposition.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
data = np.random.default_rng(1).standard_normal((200, 8))
index = StandardLSH(n_tables=3, bucket_width=6.0, seed=2).fit(data)
before = set(os.listdir("/dev/shm"))
ex = ProcessShardExecutor(index, n_workers=1)
print(*sorted(set(os.listdir("/dev/shm")) - before), flush=True)
if mode in ("sigterm", "sigign"):
    time.sleep(60)          # parent signals us here
else:
    sys.exit(1)             # abnormal exit skipping close(); atexit unlinks
"""


class TestShmCrashCleanup:
    """A dying parent must not leak its /dev/shm segments (DESIGN §12)."""

    def _spawn(self, mode):
        import subprocess
        import sys as _sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [_sys.executable, "-c", _LEAK_CHILD, mode], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        names = proc.stdout.readline().split()
        assert names, "child failed before creating its executor"
        assert len(names) == 1, f"one segment per executor, got {names}"
        return proc, names

    def _assert_unlinked(self, names):
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [n for n in names
                      if os.path.exists(os.path.join("/dev/shm", n))]
            if not leaked:
                return
            time.sleep(0.05)
        raise AssertionError(f"leaked /dev/shm segments: {leaked}")

    def test_sigterm_unlinks_segments(self):
        proc, names = self._spawn("sigterm")
        for name in names:  # live before the signal
            assert os.path.exists(os.path.join("/dev/shm", name))
        proc.terminate()
        proc.wait(timeout=15.0)
        proc.stdout.close()
        proc.stderr.close()
        assert proc.returncode != 0  # died by/after SIGTERM, not cleanly
        self._assert_unlinked(names)

    def test_abnormal_exit_unlinks_segments(self):
        proc, names = self._spawn("exit")
        proc.wait(timeout=15.0)
        proc.stdout.close()
        proc.stderr.close()
        assert proc.returncode == 1
        self._assert_unlinked(names)

    def test_sig_ign_disposition_preserved(self):
        # Regression: installing the cleanup hook must not convert a
        # deliberate SIG_IGN into a terminating handler — an embedding
        # process that ignores SIGTERM keeps ignoring it.
        proc, names = self._spawn("sigign")
        proc.terminate()
        time.sleep(1.0)
        assert proc.poll() is None, "SIGTERM killed a SIG_IGN process"
        proc.kill()
        proc.wait(timeout=15.0)
        proc.stdout.close()
        proc.stderr.close()
        # SIGKILL leaks by design (nothing can catch it); reap the
        # segments here so later tests see a clean /dev/shm.
        for name in names:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:
                pass
