"""Threaded shard execution: parity, faults, deadlines, telemetry.

(The file keeps the name it had when these shards ran in worker
processes; the classes and most test names are the ones that survived.)

The contract under test (DESIGN.md §12, "Threaded shards"): an
:class:`~repro.runtime.IndexRuntime` configured with ``shard_workers``
runs the executor's own ``max_batch_rows`` shard loop on its threads,
over the live index, so

1. **Byte-equal** — answers, every :class:`QueryStats` field and the
   recorded telemetry equal the inline sharded run at the same
   ``max_batch_rows``, for integer *and* ``"median"`` thresholds (the
   shards are the same shards), on in-memory, memmapped, overlaid and
   tombstoned indexes and the forest plan.
2. **Faults as inline** — a fault inside a threaded shard is retried /
   degraded by the same policy code; unsupervised, it propagates, in
   shard order, and the pool keeps serving.
3. **One absolute deadline** — a shard checks it when it *starts*; one
   whose turn comes too late keeps its padded rows, flagged
   ``exhausted_budget``.
4. **Nothing to go stale, leak or die** — a write is visible to the next
   read, ``close()`` joins every thread the runtime started.

All plans and datasets are seeded; CI's ``chaos`` job runs this file.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.exec import ExecutionContext, QueryPlan, Stage, run_validated
from repro.lsh.forest import LSHForest
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
from repro.runtime import IndexRuntime, QueryRequest, RuntimeConfig

N_QUERIES = 23
DIM = 16
K = 10
THRESHOLD = 12


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
def runtime(index):
    with IndexRuntime(index, RuntimeConfig(shard_workers=2)) as rt:
        yield rt


def stats_fields(stats):
    """Every ``QueryStats`` field as plain values, ``None``-ness kept."""
    def listed(mask):
        return None if mask is None else mask.tolist()

    return {"n_candidates": stats.n_candidates.tolist(),
            "escalated": stats.escalated.tolist(),
            "degraded": listed(stats.degraded),
            "exhausted_budget": listed(stats.exhausted_budget),
            "failures": stats.failures}


def assert_bit_identical(result, reference):
    ids_a, dists_a, stats_a = result
    ids_b, dists_b, stats_b = reference
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(dists_a.view(np.int64), dists_b.view(np.int64))
    assert np.array_equal(stats_a.n_candidates, stats_b.n_candidates)
    assert np.array_equal(stats_a.escalated, stats_b.escalated)


# ----------------------------------------------------------------- parity


class TestParity:
    def test_single_shard_is_bit_identical(self, runtime, queries,
                                           reference):
        # A batch ``max_batch_rows`` does not split runs inline.
        result = runtime.query_batch(queries, K,
                                     hierarchy_threshold=THRESHOLD)
        assert_bit_identical(result, reference)
        assert result[2].degraded_mask().sum() == 0

    @pytest.mark.parametrize("rows", [1, 5, N_QUERIES])
    def test_sharded_is_bit_identical(self, runtime, queries, reference,
                                      rows):
        result = runtime.query_batch(queries, K,
                                     hierarchy_threshold=THRESHOLD,
                                     max_batch_rows=rows)
        assert_bit_identical(result, reference)

    def test_self_match_distance_is_zero(self, runtime, queries):
        ids, dists, _ = runtime.query_batch(queries, K,
                                            hierarchy_threshold=THRESHOLD,
                                            max_batch_rows=5)
        assert ids[3, 0] == 41
        assert dists[3, 0] == 0.0

    @pytest.mark.filterwarnings(
        "ignore:native kernels unavailable:RuntimeWarning")
    def test_workers_on_the_numpy_table_are_bit_identical(
            self, runtime, queries, reference):
        # The shard threads run whatever table the process resolved;
        # ``reference`` is inline on the one this module started with.
        from repro.native import registry

        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_BACKEND", "none")
            registry.reset()
            result, snap = _observed(lambda: runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD,
                max_batch_rows=8))
        registry.reset()
        assert_bit_identical(result, reference)
        assert set(_samples(snap, "repro_native_batches_total")) \
            == {(("backend", "numpy"),)}

    def test_median_threshold_single_shard(self, index, runtime, queries):
        # One shard == whole batch; and — what a pool of snapshots could
        # not promise — several shards too: each derives its median from
        # its own rows, threaded or not, and they are the same rows.
        assert_bit_identical(runtime.query_batch(queries, K),
                             index.query_batch(queries, K))
        base = index.query_batch(queries, K, max_batch_rows=5)
        result = runtime.query_batch(queries, K, max_batch_rows=5)
        assert_bit_identical(result, base)
        assert stats_fields(result[2]) == stats_fields(base[2])
        # Not vacuous: per-shard medians differ from the batch's.
        whole = index.query_batch(queries, K)
        assert not np.array_equal(base[2].n_candidates,
                                  whole[2].n_candidates)


@pytest.fixture(scope="module")
def front_ends(dataset, queries):
    fronts = {
        "zm": StandardLSH(n_tables=4, bucket_width=6.0, seed=9),
        "zm_probes": StandardLSH(n_tables=4, bucket_width=6.0, seed=9,
                                 n_probes=4),
        "e8_hierarchy": StandardLSH(n_tables=6, bucket_width=6.0, seed=9,
                                    lattice="e8", hierarchy=True),
        "forest": LSHForest(n_trees=4, max_depth=12, seed=9),
    }
    for front in fronts.values():
        # One unobserved query each: kernel set-up and the norm cache
        # record once per process, not once per batch.
        front.fit(dataset).query_batch(queries, K)
    return fronts


def _observed(run):
    """``run()`` under a fresh registry: ``(result, snapshot)``."""
    reg = MetricsRegistry()
    obs.enable(registry=reg)
    try:
        result = run()
    finally:
        obs.disable()
    return result, reg.snapshot()


class TestShardWorkersMatrix:
    """``shard_workers`` never changes an answer, a stat or a count."""

    @pytest.mark.parametrize("threshold", ["median", 32])
    @pytest.mark.parametrize("rows", [None, 1, 7, N_QUERIES])
    @pytest.mark.parametrize("front", ["zm", "zm_probes", "e8_hierarchy",
                                       "forest"])
    def test_equals_inline_at_the_same_max_batch_rows(
            self, front_ends, queries, front, rows, threshold):
        index = front_ends[front]
        options = dict(hierarchy_threshold=threshold, max_batch_rows=rows,
                       deadline_ms=60_000.0)
        want, want_snap = _observed(
            lambda: index.query_batch(queries, K, **options))
        for workers in (0, 1, 2, 3):
            with IndexRuntime(index,
                              RuntimeConfig(shard_workers=workers)) as rt:
                got, snap = _observed(
                    lambda: rt.query_batch(queries, K, **options))
            assert_bit_identical(got, want)
            assert stats_fields(got[2]) == stats_fields(want[2])
            assert _deterministic(snap) == _deterministic(want_snap)


class TestInputsThePoolRefused:
    """What the process pool could not take, the shard loop always could."""

    def test_memmap_index_is_byte_equal(self, tmp_path, dataset, queries):
        from repro.core.outofcore import fit_standard_chunked

        path = tmp_path / "data.npy"
        np.save(path, dataset)
        index = fit_standard_chunked(
            StandardLSH(n_tables=3, bucket_width=6.0, seed=9),
            np.load(path, mmap_mode="r"), chunk_size=128)
        assert isinstance(index._data, np.memmap)
        base = index.query_batch(queries, K, max_batch_rows=5)
        with IndexRuntime(index, RuntimeConfig(
                shard_workers=2, max_batch_rows=5)) as rt:
            result = rt.query_batch(queries, K)
        assert_bit_identical(result, base)
        assert stats_fields(result[2]) == stats_fields(base[2])

    @pytest.mark.parametrize("threshold", ["median", THRESHOLD])
    def test_overlay_and_tombstones_need_no_fold(self, dataset, queries,
                                                 threshold):
        index = StandardLSH(n_tables=6, bucket_width=6.0, seed=9,
                            lattice="e8", n_probes=2,
                            hierarchy=True).fit(dataset)
        extra = np.random.default_rng(7).standard_normal((20, DIM))
        with IndexRuntime(index, RuntimeConfig(
                shard_workers=2, max_batch_rows=5,
                hierarchy_threshold=threshold)) as rt:
            new_ids = rt.insert(extra)
            assert rt.delete(np.array([41, int(new_ids[0])])) == 2
            tables = index._tables
            assert all(table.n_extra for table in tables)
            assert index._deleted is not None and index._deleted.sum() == 2
            probe = np.vstack([queries, extra[1:4]])
            result = rt.query_batch(probe, K)
            # Still the overlaid tables: nothing was rebuilt to serve it.
            assert index._tables is tables
            assert all(table.n_extra for table in tables)
        base = index.query_batch(probe, K, hierarchy_threshold=threshold,
                                 max_batch_rows=5)
        assert_bit_identical(result, base)
        assert stats_fields(result[2]) == stats_fields(base[2])
        # The overlay rows answer, the tombstoned ones never do.
        assert result[0][N_QUERIES, 0] == new_ids[1]
        assert not np.isin(result[0], [41, new_ids[0]]).any()


# ------------------------------------------------------------- validation


class TestValidation:
    def test_nonfinite_rows_degrade_under_policy(self, runtime, queries,
                                                 reference):
        bad = queries.copy()
        bad[1, 0] = np.nan
        pol = ResiliencePolicy(max_retries=1)
        ids, dists, stats = runtime.query_batch(
            bad, K, hierarchy_threshold=THRESHOLD, policy=pol,
            max_batch_rows=5)
        degraded = stats.degraded_mask()
        assert degraded[1] and degraded.sum() == 1
        assert np.all(ids[1] == -1)
        good = ~degraded
        assert np.array_equal(ids[good], reference[0][good])
        assert np.array_equal(dists[good].view(np.int64),
                              reference[1][good].view(np.int64))


# ----------------------------------------------------------------- chaos


class TestChaos:
    def test_injected_fault_with_retry_budget_is_bit_identical(
            self, runtime, queries, reference):
        plan = FaultPlan([FaultSpec(site="lsh.gather", match={"table": 0},
                                    max_hits=1)], seed=13)
        pol = ResiliencePolicy(max_retries=2)
        with injected_faults(plan):
            result = runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD, policy=pol,
                max_batch_rows=5)
        assert plan.hits() == {"lsh.gather": 1}
        assert_bit_identical(result, reference)
        assert result[2].degraded_mask().sum() == 0
        assert result[2].failures is not None  # the retry was recorded

    def test_unsupervised_fault_propagates(self, runtime, queries,
                                           reference):
        plan = FaultPlan([FaultSpec(site="lsh.gather")], seed=13)
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                runtime.query_batch(queries, K,
                                    hierarchy_threshold=THRESHOLD,
                                    max_batch_rows=5)
        # Nothing of the failed batch is left on the pool, and the pool
        # is not wedged by it.
        result = runtime.query_batch(queries, K,
                                     hierarchy_threshold=THRESHOLD,
                                     max_batch_rows=5)
        assert_bit_identical(result, reference)

    def test_exception_surfaces_in_shard_order(self, runtime):
        # Shards 1 and 3 both raise, 3 long before 1; the caller sees
        # shard 1's — the one the inline loop would have stopped at —
        # and by then no shard of the batch is still running.
        started, ended = [], []

        def stage(ctx):
            shard = int(ctx.queries[0, 0]) // 5
            started.append(shard)
            try:
                if shard == 1:
                    time.sleep(0.1)
                if shard in (1, 3):
                    raise _Boom(shard)
            finally:
                ended.append(shard)

        with pytest.raises(_Boom) as caught:
            _run_probe(stage, runtime._shard_pool)
        assert caught.value.args == (1,)
        assert {1, 3} <= set(started)
        assert sorted(started) == sorted(ended)


class _Boom(Exception):
    pass


class _ProbePlan(QueryPlan):
    """One stage, given by the test; rows say which shard they are in."""

    site = "probe"

    def __init__(self, fn):
        self.fn = fn

    def stages(self):
        return (Stage("probe.run", self.fn),)


def _run_probe(fn, pool, n_rows=20, max_batch_rows=5):
    rows = np.arange(float(n_rows)).reshape(n_rows, 1)
    ctx = ExecutionContext.for_batch(rows, K, max_batch_rows=max_batch_rows,
                                     pool=pool)
    return run_validated(_ProbePlan(fn), ctx)


# -------------------------------------------------------------- deadlines


class TestDeadline:
    def test_expired_deadline_pads_and_flags(self, runtime, queries):
        deadline = Deadline.from_ms(0.001)
        time.sleep(0.01)
        ids, dists, stats = runtime.query_batch(
            queries, K, hierarchy_threshold=THRESHOLD, deadline=deadline,
            max_batch_rows=5)
        assert stats.exhausted_budget is not None
        assert stats.exhausted_budget.all()
        assert np.all(ids == -1)
        assert np.all(np.isinf(dists))

    def test_generous_deadline_changes_nothing(self, runtime, queries,
                                               reference):
        result = runtime.query_batch(
            queries, K, hierarchy_threshold=THRESHOLD, deadline_ms=60_000,
            max_batch_rows=5)
        assert_bit_identical(result, reference)
        assert not result[2].exhausted_budget.any()

    def test_expiry_after_the_first_wave_flags_the_shards_not_started(
            self, dataset, queries):
        # Two threads, five shards; the first two stall 500 ms in their
        # gather, the budget is 250 ms: by the time a thread is free the
        # deadline has passed, so shards 2-4 never start.  A started
        # shard is not cut short here (no hierarchy: no stage of this
        # plan reads the deadline).
        index = StandardLSH(n_tables=4, bucket_width=6.0,
                            seed=9).fit(dataset)
        base = index.query_batch(queries, K)
        plan = FaultPlan([FaultSpec(site="lsh.gather", kind="delay",
                                    delay_ms=500.0, match={"table": 0},
                                    max_hits=2)], seed=1)
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with IndexRuntime(index, RuntimeConfig(shard_workers=2)) as rt, \
                    injected_faults(plan):
                ids, dists, stats = rt.query_batch(
                    queries, K, deadline_ms=250.0, max_batch_rows=5)
        finally:
            obs.disable()
        assert plan.hits() == {"lsh.gather": 2}
        assert stats.exhausted_budget.tolist() == \
            [False] * 10 + [True] * (N_QUERIES - 10)
        assert np.array_equal(ids[:10], base[0][:10])
        assert np.array_equal(dists[:10], base[1][:10])
        assert np.all(ids[10:] == -1) and np.all(np.isinf(dists[10:]))
        exhausted = _samples(reg.snapshot(), "repro_deadline_exhausted_total")
        assert exhausted == {(("stage", "lsh.shard"),): N_QUERIES - 10}


# -------------------------------------------------------------- lifecycle


@pytest.mark.concurrency
class TestPoolLifecycle:
    def test_close_joins_every_thread_it_started(self, index, queries):
        before = set(threading.enumerate())
        runtime = IndexRuntime(index, RuntimeConfig(shard_workers=3))
        runtime.query_batch(queries, K, max_batch_rows=2)
        started = set(threading.enumerate()) - before
        assert 1 <= len(started) <= 3
        assert all(t.name.startswith("shard") for t in started)
        runtime.close()
        runtime.close()  # idempotent
        assert not any(t.is_alive() for t in started)
        with pytest.raises(RuntimeError, match="closed"):
            runtime.query_batch(queries, K)

    def test_no_pool_without_shard_workers(self, index, queries):
        before = set(threading.enumerate())
        with IndexRuntime(index) as runtime:
            runtime.query_batch(queries, K, max_batch_rows=2)
            assert set(threading.enumerate()) == before

    def test_concurrent_submits_share_the_pool(self, runtime, queries,
                                               reference):
        # More callers than pool threads, each fanning its own shards
        # out over the one pool under a shortened switch interval: every
        # caller returns, with its own rows.
        n_callers = 4
        barrier = threading.Barrier(n_callers)
        results, errors = [None] * n_callers, []

        def call(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    results[i] = runtime.submit(QueryRequest(
                        queries=queries[i:], k=K, max_batch_rows=3,
                        hierarchy_threshold=THRESHOLD))
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(n_callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        for i, response in enumerate(results):
            assert np.array_equal(response.ids, reference[0][i:])
            assert np.array_equal(response.distances, reference[1][i:])

    def test_a_pool_thread_is_handed_no_pool(self, runtime):
        # Fan-out happens at one level: the context a shard runs in has
        # no pool, so a shard can never wait on the pool it occupies.
        seen = []
        _run_probe(lambda ctx: seen.append(
            (threading.current_thread().name, ctx.pool)),
            runtime._shard_pool)
        assert len(seen) == 4
        assert all(name.startswith("shard") and pool is None
                   for name, pool in seen)


# ---------------------------------------------------------- observability


class TestObservability:
    def test_worker_events_and_shards_are_counted(self, index, queries,
                                                  reference):
        with IndexRuntime(index, RuntimeConfig(shard_workers=1)) as rt:
            result, snap = _observed(lambda: rt.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD,
                policy=ResiliencePolicy(max_retries=2), max_batch_rows=8))
        assert_bit_identical(result, reference)
        assert _samples(snap, "repro_exec_shards_total") == \
            {(("site", "lsh"),): -(-N_QUERIES // 8)}
        # The pool's lifecycle series went with the pool.
        assert not [name for name in snap
                    if name.startswith(("repro_exec_worker",
                                        "repro_exec_queue_wait",
                                        "repro_obs_shm"))]


# ----------------------------------------------- telemetry from the threads


def _samples(snap, name):
    return {tuple(sorted(s["labels"].items())): s["value"]
            for s in snap.get(name, {}).get("samples", ())}


def _deterministic(snap):
    """Everything a batch records identically wherever its shards run:
    ``{(series, labels[, bucket]): count}`` over every counter, every
    histogram's observation count, and — where no clock is involved —
    its buckets."""
    flat = {}
    for name, family in snap.items():
        for sample in family["samples"]:
            labels = tuple(sorted(sample["labels"].items()))
            if family["kind"] == "counter":
                flat[name, labels] = sample["value"]
            elif family["kind"] == "histogram":
                flat[name, labels, "count"] = sample["count"]
                if not name.endswith("_seconds"):
                    for bucket in sample["buckets"]:
                        flat[name, labels, bucket["le"]] = bucket["count"]
    return flat


class TestCrossProcessMetrics:
    """What a shard records on a pool thread lands in the active
    registry directly — no reply to ride, nothing to merge — so a
    threaded batch must leave exactly the inline batch's counts.  With
    two threads recording at once this is the thread-safety test of the
    recorders."""

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
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_BACKEND", backend_env)
            registry.reset()
            index.query_batch(queries, K)  # table resolved, unobserved
            sys.setswitchinterval(1e-5)
            try:
                with IndexRuntime(index,
                                  RuntimeConfig(shard_workers=2)) as rt:
                    for name, target in (("in_process", index),
                                         ("pooled", rt)):
                        _, snaps[name] = _observed(
                            lambda: target.query_batch(
                                queries, K, hierarchy_threshold=THRESHOLD,
                                max_batch_rows=2))
            finally:
                sys.setswitchinterval(interval)
        registry.reset()
        want = _deterministic(snaps["in_process"])
        assert _deterministic(snaps["pooled"]) == want
        # Not vacuous: every table looked up, probed, and — on the
        # hierarchy index — something escalated.
        series = [key[0] for key in want if len(key) == 2]
        assert series.count("repro_bucket_lookups_total") == index.n_tables
        assert series.count("repro_probes_total") == index.n_tables
        assert ("repro_escalations_total" in series) \
            == (shape == "e8_hierarchy")
        assert want["repro_shortlist_size", (), "count"] == N_QUERIES
        assert want["repro_stage_seconds", (("stage", "lsh.rank"),),
                    "count"] == -(-N_QUERIES // 2)

    def test_worker_counters_visible_in_parent_snapshot(self, runtime,
                                                        queries,
                                                        reference):
        result, snap = _observed(lambda: runtime.query_batch(
            queries, K, hierarchy_threshold=THRESHOLD, max_batch_rows=8))
        assert_bit_identical(result, reference)
        # Pipeline counters recorded on the shard threads, read from the
        # one registry.
        queries_by_engine = _samples(snap, "repro_queries_total")
        assert queries_by_engine == {(("engine", "lsh"),): N_QUERIES}
        lookups = _samples(snap, "repro_bucket_lookups_total")
        assert sum(lookups.values()) > 0
        n_shards = -(-N_QUERIES // 8)
        assert _samples(snap, "repro_batches_total") == \
            {(("engine", "lsh"),): n_shards}
        # Each shard lapped every stage once, on its own timer.
        stage = {s["labels"]["stage"]: s["count"]
                 for s in snap["repro_stage_seconds"]["samples"]}
        assert {"lsh.hash", "lsh.gather", "lsh.escalate", "lsh.rank"} \
            <= set(stage)
        assert all(stage[name] == n_shards
                   for name in ("lsh.hash", "lsh.gather", "lsh.rank"))

    def test_worker_faults_counted_in_parent(self, runtime, queries):
        plan = FaultPlan((FaultSpec("lsh.gather", max_hits=1),), seed=5)
        with injected_faults(plan):
            _, snap = _observed(lambda: runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD,
                policy=ResiliencePolicy(max_retries=2), max_batch_rows=8))
        faults = _samples(snap, "repro_faults_injected_total")
        assert faults == {(("site", "lsh.gather"),): 1}
        retries = _samples(snap, "repro_retries_total")
        assert retries == {(("site", "lsh.gather"),): 1}

    def test_threaded_shard_traces_carry_their_own_spans(self, index,
                                                         runtime, queries):
        # Each shard times itself on its own StageTimer, from its own
        # thread: at rate 1.0 every query has one trace, with the span
        # names the inline sharded run gives it — the stages, validation
        # first, and the kernel calls beside them.
        def traced(target):
            obs.enable(registry=MetricsRegistry(), trace_sample_rate=1.0,
                       trace_seed=11)
            try:
                target.query_batch(queries, K,
                                   hierarchy_threshold=THRESHOLD,
                                   max_batch_rows=8)
                return obs.recent_traces()
            finally:
                obs.disable()

        inline, threaded = traced(index), traced(runtime)
        assert len(threaded) == len(inline) == N_QUERIES
        assert {t.engine for t in threaded} == {"lsh"}
        names = {frozenset(t.stages) for t in threaded}
        assert names == {frozenset(t.stages) for t in inline}
        for stages in names:
            assert {"lsh.validate", "lsh.hash", "lsh.gather", "lsh.rank",
                    "kernel/rank_topk"} <= stages
        assert set(threaded[0].to_dict()) == {
            "query_index", "engine", "n_candidates", "n_probes",
            "escalated", "stages"}

    def test_two_batches_report_exactly_twice(self, runtime, queries):
        # Nothing is double-counted, nothing dropped between batches.
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            runtime.query_batch(queries, K, hierarchy_threshold=THRESHOLD,
                                max_batch_rows=8)
            once = _deterministic(reg.snapshot())
            runtime.query_batch(queries, K, hierarchy_threshold=THRESHOLD,
                                max_batch_rows=8)
            twice = _deterministic(reg.snapshot())
        finally:
            obs.disable()
        assert once["repro_queries_total", (("engine", "lsh"),)] \
            == N_QUERIES
        assert twice == {key: 2 * count for key, count in once.items()}
