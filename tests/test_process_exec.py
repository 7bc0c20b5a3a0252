"""Sharded execution through the runtime at every P: parity, errors,
deadlines, telemetry.

(The file keeps the name it had when these shards ran in worker
processes, and later on a runtime-owned thread pool; some class and
test names are the ones that survived.)

The contract under test (DESIGN.md §11): an
:class:`~repro.runtime.IndexRuntime` runs the query path's own shard loop,
in turn, over the live index, and the compiled kernels hand their work
to P threads inside each call, so

1. **Byte-equal** — answers, every :class:`QueryStats` field and the
   recorded telemetry equal the inline sharded run at the same shard
   size, at every P, for pinned *and* fitted (``None``)
   thresholds, on in-memory, memmapped, overlaid and tombstoned indexes.
2. **Errors as inline** — a bad row is refused before any shard runs;
   an exception inside a shard propagates from the first shard that
   met it, and the runtime keeps serving.
3. **One absolute deadline** — a shard checks it when it *starts*; one
   whose turn comes too late keeps its padded rows, flagged
   ``exhausted_budget``.
4. **Nothing to go stale, leak or die** — a write is visible to the next
   read, and every kernel thread is joined before its call returns.

The query path sizes its shards from the plan, far above these batches;
``tests.shards.shard_rows`` patches that size down, and
``tests.stall.stalled_stage`` slows a stage to spend a budget.  All
datasets are seeded; CI's ``chaos`` job runs this file.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.lsh.index import StandardLSH
from repro.lsh.query import _LSHPlan
from repro.obs.registry import MetricsRegistry
from repro.resilience import Deadline, QueryValidationError
from repro.runtime import IndexRuntime, QueryRequest
from tests.shards import shard_rows
from tests.stall import stalled_stage
from tests.threads import THREADS, native_threads

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
    with IndexRuntime(index) as rt:
        yield rt


def stats_fields(stats):
    """Every ``QueryStats`` field as plain values, ``None``-ness kept."""
    def listed(mask):
        return None if mask is None else mask.tolist()

    return {"n_candidates": stats.n_candidates.tolist(),
            "escalated": stats.escalated.tolist(),
            "exhausted_budget": listed(stats.exhausted_budget)}


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
        # A batch the query path does not split runs inline.
        result = runtime.query_batch(queries, K,
                                     hierarchy_threshold=THRESHOLD)
        assert_bit_identical(result, reference)
        assert result[2].exhausted_budget is None

    @pytest.mark.parametrize("rows", [1, 5, N_QUERIES])
    def test_sharded_is_bit_identical(self, runtime, queries, reference,
                                      rows):
        with shard_rows(runtime.index, rows):
            result = runtime.query_batch(queries, K,
                                         hierarchy_threshold=THRESHOLD)
        assert_bit_identical(result, reference)

    def test_self_match_distance_is_zero(self, runtime, queries):
        with shard_rows(runtime.index, 5):
            ids, dists, _ = runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD)
        assert ids[3, 0] == 41
        assert dists[3, 0] == 0.0

    @pytest.mark.filterwarnings(
        "ignore:native kernels unavailable:RuntimeWarning")
    def test_workers_on_the_numpy_table_are_bit_identical(
            self, runtime, queries, reference):
        # The shard threads run whatever table the process resolved;
        # ``reference`` is inline on the one this module started with.
        from repro.native import registry

        with pytest.MonkeyPatch.context() as patch, \
                shard_rows(runtime.index, 8):
            patch.setenv("REPRO_NATIVE_BACKEND", "none")
            registry.reset()
            result, snap = _observed(lambda: runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD))
        registry.reset()
        assert_bit_identical(result, reference)
        assert set(_samples(snap, "repro_native_batches_total")) \
            == {(("backend", "numpy"),)}

    def test_median_threshold_single_shard(self, index, runtime, queries):
        # The default threshold is the index's fitted median, not one
        # taken over a shard's rows: one shard, several shards, threaded
        # or not, all answer as the whole batch does.
        whole = index.query_batch(queries, K)
        assert whole[2].escalated.any()
        assert_bit_identical(runtime.query_batch(queries, K), whole)
        with shard_rows(index, 5):
            base = index.query_batch(queries, K)
            result = runtime.query_batch(queries, K)
        assert_bit_identical(result, base)
        assert stats_fields(result[2]) == stats_fields(base[2])
        assert_bit_identical(base, whole)


@pytest.fixture(scope="module")
def front_ends(dataset, queries):
    fronts = {
        "zm": StandardLSH(n_tables=4, bucket_width=6.0, seed=9),
        "zm_probes": StandardLSH(n_tables=4, bucket_width=6.0, seed=9,
                                 n_probes=4),
        "e8_hierarchy": StandardLSH(n_tables=6, bucket_width=6.0, seed=9,
                                    lattice="e8", hierarchy=True),
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
    """P, the kernel threads, never changes an answer, a stat or a count
    of the runtime's sharded run."""

    # ``median``: no pinned threshold, the index's fitted median.
    @pytest.mark.parametrize("threshold", [pytest.param(None, id="median"),
                                           32])
    @pytest.mark.parametrize("rows", [None, 1, 7, N_QUERIES])
    @pytest.mark.parametrize("front", ["zm", "zm_probes", "e8_hierarchy"])
    def test_equals_inline_at_the_same_max_batch_rows(
            self, front_ends, queries, front, rows, threshold):
        index = front_ends[front]
        options = dict(hierarchy_threshold=threshold, deadline_ms=60_000.0)
        with shard_rows(index, rows):
            want, want_snap = _observed(
                lambda: index.query_batch(queries, K, **options))
        for p in THREADS:
            with native_threads(p), shard_rows(index, rows), \
                    IndexRuntime(index) as rt:
                got, snap = _observed(
                    lambda: rt.query_batch(queries, K, **options))
            assert_bit_identical(got, want)
            assert stats_fields(got[2]) == stats_fields(want[2])
            assert _deterministic(snap) == _deterministic(want_snap)


class TestInputsThePoolRefused:
    """What the old process pool could not take, the shard loop can."""

    def test_memmap_index_is_byte_equal(self, tmp_path, dataset, queries):
        from repro.core.outofcore import fit_standard_chunked

        path = tmp_path / "data.npy"
        np.save(path, dataset)
        index = fit_standard_chunked(
            StandardLSH(n_tables=3, bucket_width=6.0, seed=9),
            np.load(path, mmap_mode="r"), chunk_size=128)
        assert isinstance(index._data, np.memmap)
        with shard_rows(index, 5):
            base = index.query_batch(queries, K)
            with native_threads(2), IndexRuntime(index) as rt:
                result = rt.query_batch(queries, K)
        assert_bit_identical(result, base)
        assert stats_fields(result[2]) == stats_fields(base[2])

    @pytest.mark.parametrize("threshold", [pytest.param(None, id="median"),
                                           THRESHOLD])
    def test_overlay_and_tombstones_need_no_fold(self, dataset, queries,
                                                 threshold):
        index = StandardLSH(n_tables=6, bucket_width=6.0, seed=9,
                            lattice="e8", n_probes=2,
                            hierarchy=True).fit(dataset)
        extra = np.random.default_rng(7).standard_normal((20, DIM))
        with native_threads(2), shard_rows(index, 5), \
                IndexRuntime(index) as rt:
            new_ids = rt.insert(extra)
            assert rt.delete(np.array([41, int(new_ids[0])])) == 2
            tables = index._tables
            assert all(table.n_extra for table in tables)
            assert index._deleted is not None and index._deleted.sum() == 2
            probe = np.vstack([queries, extra[1:4]])
            result = rt.query_batch(probe, K, hierarchy_threshold=threshold)
            # Still the overlaid tables: nothing was rebuilt to serve it.
            assert index._tables is tables
            assert all(table.n_extra for table in tables)
        with shard_rows(index, 5):
            base = index.query_batch(probe, K,
                                     hierarchy_threshold=threshold)
        assert_bit_identical(result, base)
        assert stats_fields(result[2]) == stats_fields(base[2])
        # The overlay rows answer, the tombstoned ones never do.
        assert result[0][N_QUERIES, 0] == new_ids[1]
        assert not np.isin(result[0], [41, new_ids[0]]).any()


# ------------------------------------------------------------- validation


class TestValidation:
    def test_nonfinite_rows_are_refused_before_any_shard(
            self, runtime, queries, reference):
        # Row 21 sits in the last of five shards; a zero stall only
        # counts the hash stages that ran: none may.
        bad = queries.copy()
        bad[21, 0] = np.nan
        with shard_rows(runtime.index, 5), \
                stalled_stage("hash", 0.0, max_hits=N_QUERIES) as stall:
            with pytest.raises(QueryValidationError) as err:
                runtime.query_batch(bad, K, hierarchy_threshold=THRESHOLD)
            assert err.value.field == "queries"
            assert stall.hits == 0
            result = runtime.query_batch(queries, K,
                                         hierarchy_threshold=THRESHOLD)
        assert_bit_identical(result, reference)


# ----------------------------------------------------------------- chaos


class TestChaos:
    def test_unsupervised_fault_propagates(self, runtime, queries,
                                           reference):
        # Nothing softens an error in a stage: the first shard's gather
        # raises out of the batch.
        gather = _LSHPlan._stage_gather

        def failing(plan, batch):
            raise _Boom(0)

        with shard_rows(runtime.index, 5):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_LSHPlan, "_stage_gather", failing)
                with pytest.raises(_Boom):
                    runtime.query_batch(queries, K,
                                        hierarchy_threshold=THRESHOLD)
            assert _LSHPlan._stage_gather is gather
            # Nothing of the failed batch is left behind, and the runtime
            # is not wedged by it.
            result = runtime.query_batch(queries, K,
                                         hierarchy_threshold=THRESHOLD)
        assert_bit_identical(result, reference)

    def test_exception_surfaces_in_shard_order(self, dataset):
        # Shards 1 and 3 would both raise; the caller sees shard 1's, and
        # no shard after it starts.  A row's first coordinate names its
        # shard.
        index = StandardLSH(n_tables=4, bucket_width=6.0,
                            seed=9).fit(dataset)
        rows = np.zeros((20, DIM))
        rows[:, 0] = np.arange(20.0)
        started, ended = [], []
        hash_stage = _LSHPlan._stage_hash

        def stage(plan, batch):
            shard = int(batch.queries[0, 0]) // 5
            started.append(shard)
            try:
                if shard in (1, 3):
                    raise _Boom(shard)
                hash_stage(plan, batch)
            finally:
                ended.append(shard)

        with shard_rows(index, 5), pytest.MonkeyPatch.context() as patch:
            patch.setattr(_LSHPlan, "_stage_hash", stage)
            with pytest.raises(_Boom) as caught:
                index.query_batch(rows, K)
        assert caught.value.args == (1,)
        assert started == ended == [0, 1]


class _Boom(Exception):
    pass


# -------------------------------------------------------------- deadlines


class TestDeadline:
    def test_expired_deadline_pads_and_flags(self, runtime, queries):
        deadline = Deadline.from_ms(0.001)
        time.sleep(0.01)
        with shard_rows(runtime.index, 5):
            ids, dists, stats = runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD,
                deadline=deadline)
        assert stats.exhausted_budget is not None
        assert stats.exhausted_budget.all()
        assert np.all(ids == -1)
        assert np.all(np.isinf(dists))

    def test_generous_deadline_changes_nothing(self, runtime, queries,
                                               reference):
        with shard_rows(runtime.index, 5):
            result = runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD,
                deadline_ms=60_000)
        assert_bit_identical(result, reference)
        assert not result[2].exhausted_budget.any()

    def test_expiry_after_the_first_wave_flags_the_shards_not_started(
            self, dataset, queries):
        # Five shards; the first two stall 150 ms in their gather, the
        # budget is 250 ms: the second starts in budget, after it the
        # deadline has passed, so shards 2-4 never start.  A started
        # shard is not cut short here (no hierarchy: no stage of this
        # plan reads the deadline).
        index = StandardLSH(n_tables=4, bucket_width=6.0,
                            seed=9).fit(dataset)
        base = index.query_batch(queries, K)
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with native_threads(2), IndexRuntime(index) as rt, \
                    stalled_stage("gather", 150.0, max_hits=2) as stall, \
                    shard_rows(index, 5):
                ids, dists, stats = rt.query_batch(
                    queries, K, deadline_ms=250.0)
        finally:
            obs.disable()
        assert stall.hits == 2
        assert stats.exhausted_budget.tolist() == \
            [False] * 10 + [True] * (N_QUERIES - 10)
        assert np.array_equal(ids[:10], base[0][:10])
        assert np.array_equal(dists[:10], base[1][:10])
        assert np.all(ids[10:] == -1) and np.all(np.isinf(dists[10:]))
        exhausted = _samples(reg.snapshot(), "repro_deadline_exhausted_total")
        assert exhausted == {(("stage", "lsh.shard"),): N_QUERIES - 10}


# -------------------------------------------------------------- lifecycle


def _n_os_threads():
    return len(os.listdir("/proc/self/task"))


@pytest.mark.concurrency
class TestKernelThreadLifecycle:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc to count the process's threads")
    def test_close_joins_every_thread_it_started(self, dataset, queries):
        # The kernel threads live inside one call: none is left once it
        # returns, at any P, and the runtime starts none of its own.
        # Wide buckets: every call is past both inline thresholds.
        dense = StandardLSH(n_tables=16, bucket_width=40.0,
                            seed=9).fit(dataset)
        batch = np.vstack([queries] * 3)
        for p in THREADS:
            with native_threads(p):
                before = _n_os_threads()
                runtime = IndexRuntime(dense)
                runtime.query_batch(batch, K)
                assert _n_os_threads() == before
                runtime.close()
                runtime.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            runtime.query_batch(queries, K)

    def test_concurrent_submits_share_the_pool(self, index, queries,
                                               reference):
        # More callers than cores, each with its own kernel threads under
        # a shortened switch interval: every caller returns, with its own
        # rows.
        n_callers = 4
        barrier = threading.Barrier(n_callers)
        results, errors = [None] * n_callers, []

        def call(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    results[i] = runtime.submit(QueryRequest(
                        queries=queries[i:], k=K,
                        hierarchy_threshold=THRESHOLD))
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with native_threads(2), shard_rows(index, 3), \
                    IndexRuntime(index) as runtime:
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


# ---------------------------------------------------------- observability


class TestObservability:
    def test_worker_events_and_shards_are_counted(self, index, queries,
                                                  reference):
        with IndexRuntime(index) as rt, shard_rows(index, 8):
            result, snap = _observed(lambda: rt.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD))
        assert_bit_identical(result, reference)
        assert _samples(snap, "repro_exec_shards_total") == \
            {(("site", "lsh"),): -(-N_QUERIES // 8)}
        # No pool, no pool lifecycle series.
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


class TestShardTelemetry:
    """What a shard records lands in the active registry directly — no
    reply to ride, nothing to merge — so a runtime batch at P = 2 must
    leave exactly the library batch's counts at P = 1."""

    @pytest.mark.filterwarnings(
        "ignore:native kernels unavailable:RuntimeWarning")
    @pytest.mark.parametrize("backend_env", ["auto", "none"])
    @pytest.mark.parametrize("shape", ["zm_probes", "e8_hierarchy"])
    def test_threaded_snapshot_equals_inline(self, dataset, index,
                                             queries, shape, backend_env):
        from repro.native import registry

        snaps = {}
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("REPRO_NATIVE_BACKEND", backend_env)
                registry.reset()
                # Built on the pinned table: the compiled one searches
                # only layouts whose cells it built.
                index = (StandardLSH(n_tables=4, bucket_width=6.0, seed=9,
                                     n_probes=4).fit(dataset)
                         if shape == "zm_probes"
                         else StandardLSH.from_state(*index.state()))
                for name, p in (("inline", 1), ("threaded", 2)):
                    with native_threads(p), IndexRuntime(index) as rt:
                        index.query_batch(queries, K)  # resolved, unobserved
                        target = index if name == "inline" else rt
                        with shard_rows(index, 2):
                            _, snaps[name] = _observed(
                                lambda: target.query_batch(
                                    queries, K,
                                    hierarchy_threshold=THRESHOLD))
        finally:
            # native_threads re-resolved under the pin: forget it, or the
            # next test fits on the numpy table.
            registry.reset()
        want = _deterministic(snaps["inline"])
        assert _deterministic(snaps["threaded"]) == want
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

    def test_shard_counters_land_in_the_one_registry(self, runtime,
                                                     queries, reference):
        with shard_rows(runtime.index, 8):
            result, snap = _observed(lambda: runtime.query_batch(
                queries, K, hierarchy_threshold=THRESHOLD))
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
                with shard_rows(index, 8):
                    target.query_batch(queries, K,
                                       hierarchy_threshold=THRESHOLD)
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
            with shard_rows(runtime.index, 8):
                runtime.query_batch(queries, K,
                                    hierarchy_threshold=THRESHOLD)
                once = _deterministic(reg.snapshot())
                runtime.query_batch(queries, K,
                                    hierarchy_threshold=THRESHOLD)
                twice = _deterministic(reg.snapshot())
        finally:
            obs.disable()
        assert once["repro_queries_total", (("engine", "lsh"),)] \
            == N_QUERIES
        assert twice == {key: 2 * count for key, count in once.items()}
