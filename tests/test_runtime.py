"""Tests for the runtime/session layer (:mod:`repro.runtime`).

Four areas:

- the request model: :class:`RuntimeConfig` resolution/validation
  (including the shared ``from_args`` CLI seam), :class:`QueryRequest`
  deadline materialization, shed-response shape, and
  :meth:`IndexRuntime.submit` / :meth:`IndexRuntime.resolve`
  bit-identity with the index's own ``query_batch``;
- :class:`IndexRuntime` lifecycle: attachment wiring, ``open`` with WAL
  recovery, close ordering/idempotence, readiness introspection, and
  the shard thread pool;
- :class:`MicroBatcher` correctness: merged batches must be
  **bit-identical** to solo execution across engines, policies and
  deadline modes, with hierarchy-sensitive requests executed solo;
- serving concurrency (``concurrency`` marker): queries riding merged
  batches while a WAL-attached writer inserts/deletes, with zero wrong
  answers, and ``checkpoint()`` during serving never dropping an
  acknowledged record.
"""

import argparse
import asyncio
import json
import threading
import warnings

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH, oracle_query_batch
from repro.maintenance import WriteAheadLog, recover_index
from repro.persistence import save_index
from repro.resilience.deadline import Deadline
from repro.resilience.policy import ResiliencePolicy
from repro.runtime import (
    AdmissionController,
    AdmissionError,
    IndexRuntime,
    MicroBatcher,
    QueryRequest,
    RuntimeConfig,
    merge_key,
    shed_response,
)

DIM = 16


@pytest.fixture(scope="module")
def base_data():
    return np.random.default_rng(42).standard_normal((400, DIM))


@pytest.fixture(scope="module")
def queries():
    return np.random.default_rng(43).standard_normal((24, DIM))


@pytest.fixture(scope="module")
def standard_index(base_data):
    return StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                       seed=5).fit(base_data)


def _assert_stats_equal(got, want):
    np.testing.assert_array_equal(got.n_candidates, want.n_candidates)
    np.testing.assert_array_equal(got.escalated, want.escalated)
    assert (got.degraded is None) == (want.degraded is None)
    if got.degraded is not None:
        np.testing.assert_array_equal(got.degraded, want.degraded)
    assert (got.exhausted_budget is None) == (want.exhausted_budget is None)
    if got.exhausted_budget is not None:
        np.testing.assert_array_equal(got.exhausted_budget,
                                      want.exhausted_budget)


def _assert_response_equals_tuple(response, triple):
    ids, dists, stats = triple
    np.testing.assert_array_equal(response.ids, ids)
    # Bit-identical, not merely close: == on the raw float arrays.
    assert np.array_equal(response.distances, dists, equal_nan=True)
    _assert_stats_equal(response.stats, stats)


class TestRuntimeConfig:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.shard_workers == 0
        assert cfg.batch_window_ms == 2.0
        assert cfg.max_queue_depth == 64

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RuntimeConfig(engine="bogus")
        # The inert keyword is name-checked and not stored.
        assert RuntimeConfig(engine="native") == RuntimeConfig()

    @pytest.mark.parametrize("kwargs", [
        {"deadline_ms": 0.0},
        {"deadline_ms": -5.0},
        {"max_batch_rows": 0},
        {"shard_workers": -1},
        {"batch_window_ms": -0.1},
        {"batch_max_rows": 0},
        {"max_queue_depth": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_from_args_full(self):
        args = argparse.Namespace(
            engine="vectorized", deadline_ms=25.0, resilient=True,
            max_batch_rows=128, shard_workers=2, hierarchy_threshold=40,
            batch_window_ms=1.5, batch_max_rows=64, max_queue_depth=8)
        cfg = RuntimeConfig.from_args(args)
        assert cfg.deadline_ms == 25.0
        assert isinstance(cfg.policy, ResiliencePolicy)
        assert cfg.max_batch_rows == 128
        assert cfg.shard_workers == 2
        assert cfg.hierarchy_threshold == 40
        assert cfg.batch_window_ms == 1.5
        assert cfg.batch_max_rows == 64
        assert cfg.max_queue_depth == 8

    def test_from_args_sparse_namespace_uses_defaults(self):
        # A parser without the serving flags (e.g. `query`) still
        # resolves: missing attributes fall back to dataclass defaults.
        cfg = RuntimeConfig.from_args(argparse.Namespace(engine=None))
        assert cfg == RuntimeConfig()

    def test_from_args_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="oracle_query_batch"):
            RuntimeConfig.from_args(argparse.Namespace(engine="warp"))


class TestQueryRequest:
    def test_with_deadline_started_materializes_once(self, queries):
        request = QueryRequest(queries=queries, k=3, deadline_ms=50.0)
        started = request.with_deadline_started()
        assert isinstance(started.deadline, Deadline)
        assert started.deadline_ms is None
        assert started.with_deadline_started() is started

    def test_no_budget_is_identity(self, queries):
        request = QueryRequest(queries=queries, k=3)
        assert request.with_deadline_started() is request

    def test_n_rows(self, queries):
        assert QueryRequest(queries=queries, k=3).n_rows() == len(queries)


class TestShedResponse:
    def test_shape_and_flags(self, queries):
        request = QueryRequest(queries=queries, k=7)
        response = shed_response(request)
        assert response.shed is True
        assert response.ids.shape == (len(queries), 7)
        assert (response.ids == -1).all()
        assert np.isinf(response.distances).all()
        assert response.stats.exhausted_budget.all()
        assert (response.stats.n_candidates == 0).all()


class TestExecuteRequest:
    """A request through the runtime's one entry (``submit``, which
    resolves it against the session config) against the index's own
    ``query_batch``."""

    def test_matches_thin_adapter(self, standard_index, queries):
        response = IndexRuntime(standard_index).submit(
            QueryRequest(queries=queries, k=5))
        _assert_response_equals_tuple(
            response, standard_index.query_batch(queries, 5))

    def test_config_fills_unset_fields(self, standard_index, queries):
        cfg = RuntimeConfig(deadline_ms=10_000.0)
        response = IndexRuntime(standard_index, cfg).submit(
            QueryRequest(queries=queries, k=5))
        # The config deadline reached the executor: the mask is
        # materialized (all-False under a generous budget).
        assert response.stats.exhausted_budget is not None
        assert not response.stats.exhausted_budget.any()

    def test_request_fields_win_over_config(self, standard_index, queries):
        # The config's budget is spent before the second 4-row shard
        # starts; a request carrying its own generous one is not cut.
        runtime = IndexRuntime(
            standard_index, RuntimeConfig(deadline_ms=1e-6, max_batch_rows=4))
        cut = runtime.submit(QueryRequest(queries=queries, k=5))
        assert cut.stats.exhausted_budget.any()
        response = runtime.submit(
            QueryRequest(queries=queries, k=5, deadline_ms=60_000.0))
        assert not response.stats.exhausted_budget.any()
        np.testing.assert_array_equal(
            response.ids, standard_index.query_batch(queries, 5)[0])

    def test_resolve_fills_from_config_and_is_idempotent(self, standard_index,
                                                         queries):
        policy = ResiliencePolicy()
        runtime = IndexRuntime(standard_index, RuntimeConfig(
            hierarchy_threshold=50, deadline_ms=60_000.0, policy=policy,
            max_batch_rows=8))
        resolved = runtime.resolve(QueryRequest(queries=queries, k=5))
        assert resolved.hierarchy_threshold == 50
        assert isinstance(resolved.deadline, Deadline)
        assert resolved.deadline_ms is None
        assert resolved.policy is policy
        assert resolved.max_batch_rows == 8
        assert runtime.resolve(resolved) is resolved
        # Request fields win; nothing to fill leaves the object alone.
        own = QueryRequest(queries=queries, k=5, hierarchy_threshold=7,
                           deadline=Deadline(5.0), policy=ResiliencePolicy(),
                           max_batch_rows=2)
        assert runtime.resolve(own) is own
        bare = QueryRequest(queries=queries, k=5)
        assert IndexRuntime(standard_index).resolve(bare) is bare


class TestIndexRuntime:
    def test_submit_matches_query_batch(self, standard_index, queries):
        with IndexRuntime(standard_index) as runtime:
            response = runtime.submit(QueryRequest(queries=queries, k=5))
            _assert_response_equals_tuple(
                response, standard_index.query_batch(queries, 5))

    def test_config_engine_is_inert(self, standard_index, queries):
        with IndexRuntime(standard_index,
                          RuntimeConfig(engine="native")) as runtime:
            response = runtime.submit(QueryRequest(queries=queries, k=5))
            _assert_response_equals_tuple(
                response, standard_index.query_batch(queries, 5))

    def test_query_batch_convenience(self, standard_index, queries):
        with IndexRuntime(standard_index) as runtime:
            got = runtime.query_batch(queries, 5)
            want = standard_index.query_batch(queries, 5)
            np.testing.assert_array_equal(got[0], want[0])

    def test_shard_workers_requires_standard_index(self, base_data):
        bilevel = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                           seed=3)).fit(base_data)
        with pytest.raises(ValueError, match=r"BiLevelConfig\.n_jobs"):
            IndexRuntime(bilevel, RuntimeConfig(shard_workers=2))
        # The rule is the plan's, not the class's: anything the executor
        # shards at the top level is served.
        from repro.lsh.forest import LSHForest

        forest = LSHForest(n_trees=3, max_depth=10, seed=3).fit(base_data)
        with IndexRuntime(forest, RuntimeConfig(shard_workers=2)) as runtime:
            got = runtime.query_batch(base_data[:9], 3, max_batch_rows=2)
        want = forest.query_batch(base_data[:9], 3, max_batch_rows=2)
        np.testing.assert_array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_close_is_idempotent_and_final(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        runtime.close()
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            runtime.submit(QueryRequest(queries=queries, k=3))
        with pytest.raises(RuntimeError, match="closed"):
            runtime.insert(queries)

    def test_info_and_ready(self, standard_index):
        with IndexRuntime(standard_index) as runtime:
            info = runtime.info()
            assert info.ready and runtime.ready()
            assert info.n_points == 400
            assert info.wal_attached is False
            payload = info.to_dict()
            assert payload["ready"] is True
            assert payload["n_points"] == 400

    def test_unfitted_index_not_ready(self):
        runtime = IndexRuntime(StandardLSH(n_hashes=4, n_tables=3,
                                           bucket_width=4.0, seed=5))
        info = runtime.info()
        assert not info.ready
        assert "empty" in info.detail

    def test_hierarchy_sensitive_detection(self, base_data):
        flat = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        seed=3)).fit(base_data)
        assert IndexRuntime(flat).hierarchy_sensitive is False
        deep = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        seed=3, hierarchy=True)).fit(base_data)
        assert IndexRuntime(deep).hierarchy_sensitive is True
        # A property of the index alone: whether a request's threshold
        # is the batch-dependent spelling is read off the (resolved)
        # request, by ``RuntimeServer._needs_solo``.
        pinned = IndexRuntime(deep, RuntimeConfig(hierarchy_threshold=32))
        assert pinned.hierarchy_sensitive is True

    def test_attach_maintenance_and_close_detach(self, standard_index,
                                                 base_data, tmp_path):
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=5).fit(base_data)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        runtime = IndexRuntime(index)
        runtime.attach_maintenance(wal=wal)
        assert runtime.wal is wal
        assert runtime.info().wal_attached
        runtime.insert(np.random.default_rng(1).standard_normal((2, DIM)),
                       ids=np.array([9001, 9002]))
        runtime.close()
        assert runtime.wal is None

    def test_dead_compactor_reported_not_ready(self, base_data):
        from repro.maintenance import Compactor

        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=5).fit(base_data)
        runtime = IndexRuntime(index)
        compactor = Compactor()
        runtime.attach_maintenance(compactor=compactor)
        assert compactor.is_alive()
        assert runtime.info().ready
        # Kill the drain thread out from under the runtime: readiness
        # must notice through the public liveness probe.
        compactor.close()
        assert not compactor.is_alive()
        info = runtime.info()
        assert not info.ready
        assert info.detail == "compactor thread dead"
        runtime.close()

    def test_open_recovers_from_wal(self, base_data, tmp_path):
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=5).fit(base_data)
        snap = str(tmp_path / "snap.npz")
        save_index(index, snap)
        wal_path = str(tmp_path / "wal.bin")
        with WriteAheadLog(wal_path) as wal:
            index.attach_wal(wal)
            extra = np.random.default_rng(2).standard_normal((3, DIM))
            index.insert(extra, ids=np.array([7001, 7002, 7003]))
        runtime = IndexRuntime.open(snap, wal_path=wal_path)
        try:
            assert runtime.recovery_report is not None
            assert runtime.recovery_report.applied == 1
            assert runtime.index.n_points == 403
            assert runtime.info().wal_attached
            # The re-attached WAL accepts new durable writes.
            runtime.insert(extra[:1], ids=np.array([7004]))
            assert runtime.index.n_points == 404
        finally:
            runtime.close()


class TestMergeKey:
    def test_identical_options_merge(self, queries):
        a = QueryRequest(queries=queries[:2], k=5)
        b = QueryRequest(queries=queries[2:4], k=5)
        assert merge_key(a) == merge_key(b)

    def test_different_k_split(self, queries):
        assert merge_key(QueryRequest(queries=queries, k=5)) != \
            merge_key(QueryRequest(queries=queries, k=6))

    def test_policy_identity_splits(self, queries):
        pol_a, pol_b = ResiliencePolicy(), ResiliencePolicy()
        a = QueryRequest(queries=queries, k=5, policy=pol_a)
        b = QueryRequest(queries=queries, k=5, policy=pol_b)
        assert merge_key(a) != merge_key(b)
        assert merge_key(a) == merge_key(
            QueryRequest(queries=queries, k=5, policy=pol_a))

    def test_deadline_presence_splits(self, queries):
        with_budget = QueryRequest(queries=queries, k=5, deadline_ms=100.0)
        without = QueryRequest(queries=queries, k=5)
        assert merge_key(with_budget) != merge_key(without)

    def test_deadline_proximity_buckets_split(self, queries):
        # A nearly-expired request must not merge with a generous one:
        # the merged batch would run under the near-due expiry and
        # could exhaust the generous member's budget.
        near = QueryRequest(queries=queries, k=5, deadline_ms=10.0)
        generous = QueryRequest(queries=queries, k=5, deadline_ms=30_000.0)
        assert merge_key(near) != merge_key(generous)

    def test_similar_deadlines_share_bucket(self, queries):
        a = QueryRequest(queries=queries, k=5, deadline_ms=10_000.0)
        b = QueryRequest(queries=queries, k=5, deadline_ms=10_010.0)
        assert merge_key(a) == merge_key(b)

    def test_materialized_deadline_uses_remaining_budget(self, queries):
        # A started deadline is bucketed by what is left, not by the
        # original budget — the number the merged batch actually runs
        # under.  Mid-bucket values (wide buckets) keep the comparison
        # robust against the few microseconds that elapse between
        # materialization and keying.
        started = QueryRequest(queries=queries, k=5,
                               deadline=Deadline(30_500.0))
        unstarted = QueryRequest(queries=queries, k=5,
                                 deadline_ms=30_500.0)
        near = QueryRequest(queries=queries, k=5, deadline=Deadline(10.0))
        assert merge_key(started, deadline_bucket_ms=1000.0) == \
            merge_key(unstarted, deadline_bucket_ms=1000.0)
        assert merge_key(started, deadline_bucket_ms=1000.0) != \
            merge_key(near, deadline_bucket_ms=1000.0)


class TestAdmissionController:
    def test_counts_and_bound(self):
        gate = AdmissionController(max_depth=2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        snap = gate.snapshot()
        assert snap["admitted"] == 2 and snap["shed"] == 1
        assert snap["depth"] == 2 and snap["peak_depth"] == 2
        gate.release()
        assert gate.try_acquire()
        gate.release()
        gate.release()
        assert gate.depth == 0

    def test_admit_contextmanager(self):
        gate = AdmissionController(max_depth=1)
        with gate.admit():
            with pytest.raises(AdmissionError):
                with gate.admit():
                    pass  # pragma: no cover - never admitted
        assert gate.depth == 0
        assert gate.snapshot()["shed"] == 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)


def _submit_concurrently(batcher, requests):
    """Drive one submit per thread through a start barrier; return
    responses in request order."""
    barrier = threading.Barrier(len(requests))
    responses = [None] * len(requests)
    errors = []

    def run(i):
        barrier.wait()
        try:
            responses[i] = batcher.submit(requests[i])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(requests))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert all(r is not None for r in responses)
    return responses


@pytest.mark.concurrency
class TestMicroBatcher:
    # The split-back answers against the same request run solo, bit for
    # bit (``vectorized``), and against the scalar oracle (``scalar``).
    @pytest.mark.parametrize("reference,resilient", [
        ("vectorized", False),
        ("vectorized", True),
        ("scalar", False),
    ])
    def test_merged_results_bit_identical_to_solo(self, standard_index,
                                                  queries, reference,
                                                  resilient):
        policy = ResiliencePolicy() if resilient else None
        runtime = IndexRuntime(standard_index)
        requests = [
            QueryRequest(queries=queries[i:i + 3], k=5, policy=policy)
            for i in range(0, 12, 3)
        ]
        with MicroBatcher(runtime.submit, window_ms=200.0,
                          max_rows=256) as batcher:
            responses = _submit_concurrently(batcher, requests)
        merged_batches, merged_requests = batcher.merge_counts
        assert merged_requests >= 2  # coalescing actually happened
        for request, response in zip(requests, responses):
            if reference == "vectorized":
                solo = runtime.submit(request)
                _assert_response_equals_tuple(response, solo.as_tuple())
            else:
                ids, dists, stats = oracle_query_batch(
                    standard_index, request.queries, 5)
                np.testing.assert_array_equal(response.ids, ids)
                np.testing.assert_allclose(response.distances, dists)
                np.testing.assert_array_equal(response.stats.n_candidates,
                                              stats.n_candidates)
            assert response.shed is False
        assert merged_batches >= 1

    def test_merged_with_deadline_bit_identical(self, standard_index,
                                                queries):
        runtime = IndexRuntime(standard_index)
        requests = [
            QueryRequest(queries=queries[i:i + 2], k=5, deadline_ms=30_000.0)
            for i in range(0, 8, 2)
        ]
        with MicroBatcher(runtime.submit, window_ms=200.0,
                          max_rows=256) as batcher:
            responses = _submit_concurrently(batcher, requests)
        for request, response in zip(requests, responses):
            # A solo run with a deadline materializes exhausted_budget;
            # the split must too (all-False under a generous budget).
            assert response.stats.exhausted_budget is not None
            assert not response.stats.exhausted_budget.any()
            solo = runtime.submit(request)
            np.testing.assert_array_equal(response.ids, solo.ids)
            assert np.array_equal(response.distances, solo.distances)

    @pytest.mark.parametrize("door", ["resolve", "http"])
    def test_session_defaults_merge_like_spelled_options(self, base_data,
                                                         queries, door):
        # Regression (PR 21): the batcher used to key and split on the
        # request as it arrived and only afterwards did ``submit`` fill
        # in the session defaults — so under a session ``deadline_ms`` a
        # merged read lost its ``exhausted_budget`` mask (solo: a mask),
        # and a request spelling ``hierarchy_threshold=50`` never merged
        # with one inheriting 50.  Resolved at the door — by
        # ``IndexRuntime.resolve``, which the HTTP door calls — merged
        # must equal solo on every field, ``None``-ness included.
        from repro.runtime.server import RuntimeServer

        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        runtime = IndexRuntime(index, RuntimeConfig(
            deadline_ms=60_000.0, hierarchy_threshold=50,
            batch_window_ms=500.0))
        server = RuntimeServer(runtime)  # never started: door + batcher
        try:
            if door == "http":
                requests = [
                    server._build_request(
                        {"queries": queries[0].tolist(), "k": 5}),
                    server._build_request(
                        {"queries": queries[1].tolist(), "k": 5,
                         "hierarchy_threshold": 50})]
            else:
                requests = [
                    runtime.resolve(QueryRequest(queries=queries[:1], k=5)),
                    runtime.resolve(QueryRequest(queries=queries[1:2], k=5,
                                                 hierarchy_threshold=50))]
            # The budget clock started at the door, not after the window.
            assert all(isinstance(r.deadline, Deadline) for r in requests)
            assert not server._needs_solo(requests[0])
            responses = _submit_concurrently(server.batcher, requests)
        finally:
            server.close()
        for i, response in enumerate(responses):
            assert response.batched == 2 and not response.shed
            solo = runtime.submit(QueryRequest(queries=queries[i:i + 1], k=5))
            _assert_response_equals_tuple(response, solo.as_tuple())
            assert response.stats.exhausted_budget is not None
            assert response.stats.failures is None is solo.stats.failures

    def test_explicit_median_runs_solo_under_integer_session_threshold(
            self, queries):
        # Regression (PR 22): the solo rule used to re-read the session
        # default for a request that spelled ``"median"`` itself, so
        # under ``--hierarchy-threshold 50`` two such reads merged and
        # each got a median taken over the other's rows.  It reads the
        # resolved request and the index, nothing else.
        from repro.runtime.server import RuntimeServer

        rng = np.random.default_rng(22)
        index = StandardLSH(n_tables=4, bucket_width=8.0, lattice="e8",
                            hierarchy=True, seed=5).fit(
                                rng.standard_normal((4000, DIM)))
        rows = rng.standard_normal((43, DIM))
        runtime = IndexRuntime(index, RuntimeConfig(
            hierarchy_threshold=50, batch_window_ms=500.0))
        server = RuntimeServer(runtime)  # never started: door + batcher
        try:
            requests = [server._build_request(
                {"queries": part.tolist(), "k": 5,
                 "hierarchy_threshold": "median"})
                for part in (rows[:3], rows[3:])]
            assert all(server._needs_solo(r) for r in requests)
            # Inheriting (or spelling) the session's integer still merges.
            assert not server._needs_solo(server._build_request(
                {"queries": rows[:1].tolist(), "k": 5}))
            responses = _submit_concurrently(server.batcher, requests)
        finally:
            server.close()
        for part, response in zip((rows[:3], rows[3:]), responses):
            assert response.batched == 1 and not response.shed
            solo = index.query_batch(part, 5, hierarchy_threshold="median")
            _assert_response_equals_tuple(response, solo)
            assert response.stats.failures is None
        # Not vacuous: merged, the short request's median would have been
        # the long one's.
        merged = index.query_batch(rows, 5, hierarchy_threshold="median")
        assert not np.array_equal(merged[2].escalated[:3],
                                  responses[0].stats.escalated)

    def test_spent_session_deadline_is_flagged_not_dropped(self, base_data,
                                                           queries):
        # The reproduction in ISSUE 21: a session budget too small to
        # survive the trip.  Solo, the read comes back flagged
        # ``exhausted_budget=[True]``; batched it came back ``None``.
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        runtime = IndexRuntime(index, RuntimeConfig(
            deadline_ms=1e-6, hierarchy_threshold=50))
        requests = [QueryRequest(queries=queries[i:i + 1], k=5)
                    for i in range(2)]
        for request in requests:
            solo = runtime.submit(request)
            assert solo.stats.exhausted_budget is not None
            assert solo.stats.exhausted_budget.all()
        with MicroBatcher(runtime.submit, window_ms=200.0) as batcher:
            responses = _submit_concurrently(
                batcher, [runtime.resolve(r) for r in requests])
        for response in responses:
            assert response.stats.exhausted_budget is not None
            assert response.stats.exhausted_budget.all()

    def test_past_due_request_is_shed_immediately(self, standard_index,
                                                  queries):
        runtime = IndexRuntime(standard_index)
        expired = Deadline(0.000001)
        while not expired.expired():
            pass
        request = QueryRequest(queries=queries[:2], k=5, deadline=expired)
        with MicroBatcher(runtime.submit, window_ms=50.0) as batcher:
            response = batcher.submit(request)
        assert response.shed is True
        assert (response.ids == -1).all()
        assert response.stats.exhausted_budget.all()

    def test_hierarchy_sensitive_requests_run_solo(self, base_data, queries):
        deep = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        seed=3, hierarchy=True)).fit(base_data)
        runtime = IndexRuntime(deep)
        assert runtime.hierarchy_sensitive
        requests = [QueryRequest(queries=queries[i:i + 2], k=3)
                    for i in range(0, 8, 2)]
        with MicroBatcher(runtime.submit, window_ms=100.0,
                          solo_fn=lambda r: runtime.hierarchy_sensitive,
                          ) as batcher:
            responses = _submit_concurrently(batcher, requests)
        assert batcher.merge_counts == (0, 0)  # nothing merged
        for request, response in zip(requests, responses):
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_pinned_threshold_allows_hierarchy_merge(self, base_data,
                                                     queries):
        deep = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        seed=3, hierarchy=True)).fit(base_data)
        runtime = IndexRuntime(deep, RuntimeConfig(hierarchy_threshold=32))
        requests = [
            QueryRequest(queries=queries[i:i + 2], k=3,
                         hierarchy_threshold=32)
            for i in range(0, 8, 2)
        ]
        with MicroBatcher(runtime.submit, window_ms=200.0) as batcher:
            responses = _submit_concurrently(batcher, requests)
        assert batcher.merge_counts[1] >= 2
        for request, response in zip(requests, responses):
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_mismatched_deadlines_do_not_share_a_batch(self, standard_index,
                                                       queries):
        # A near-due request in the same window as a generous one must
        # not drag it under the earliest-expiry rule: they land in
        # different deadline-proximity buckets, so the generous request
        # never reports exhausted_budget it would not produce solo.
        runtime = IndexRuntime(standard_index)
        near = QueryRequest(queries=queries[:2], k=5, deadline_ms=40.0)
        generous = QueryRequest(queries=queries[2:4], k=5,
                                deadline_ms=30_000.0)
        with MicroBatcher(runtime.submit, window_ms=100.0) as batcher:
            responses = _submit_concurrently(batcher, [near, generous])
        assert batcher.merge_counts == (0, 0)  # two solo leaders
        gen_response = responses[1]
        assert gen_response.stats.exhausted_budget is not None
        assert not gen_response.stats.exhausted_budget.any()
        solo = runtime.submit(QueryRequest(queries=queries[2:4], k=5,
                                           deadline_ms=30_000.0))
        np.testing.assert_array_equal(gen_response.ids, solo.ids)
        assert np.array_equal(gen_response.distances, solo.distances)

    def test_heterogeneous_k_never_merges(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        requests = [QueryRequest(queries=queries[i:i + 2], k=3 + i)
                    for i in range(4)]
        with MicroBatcher(runtime.submit, window_ms=100.0) as batcher:
            responses = _submit_concurrently(batcher, requests)
        for request, response in zip(requests, responses):
            assert response.ids.shape == (2, request.k)
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_zero_window_runs_everything_solo(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        with MicroBatcher(runtime.submit, window_ms=0.0) as batcher:
            response = batcher.submit(QueryRequest(queries=queries, k=5))
        assert response.batched == 1
        assert batcher.merge_counts == (0, 0)

    def test_max_rows_dispatches_early(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        # Window long enough that only the row cap can release the batch
        # quickly; 4 requests x 3 rows reach max_rows=12 at once.
        requests = [QueryRequest(queries=queries[i:i + 3], k=5)
                    for i in range(0, 12, 3)]
        with MicroBatcher(runtime.submit, window_ms=10_000.0,
                          max_rows=12) as batcher:
            responses = _submit_concurrently(batcher, requests)
        assert batcher.merge_counts[1] == 4
        for request, response in zip(requests, responses):
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_executor_error_propagates_to_all_members(self, queries):
        def explode(request):
            raise RuntimeError("executor down")

        with MicroBatcher(explode, window_ms=100.0) as batcher:
            barrier = threading.Barrier(3)
            errors = []

            def run(i):
                barrier.wait()
                try:
                    batcher.submit(QueryRequest(queries=queries[i:i + 1], k=3))
                except RuntimeError as exc:
                    errors.append(str(exc))

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert errors == ["executor down"] * 3

    def test_closed_batcher_refuses_work(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        batcher = MicroBatcher(runtime.submit, window_ms=50.0)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(QueryRequest(queries=queries, k=3))


@pytest.mark.concurrency
class TestServingWithLiveWrites:
    """Concurrent micro-batched reads against a WAL-attached writer."""

    N_BASE = 300
    N_READERS = 4
    N_ROUNDS = 12

    def _build(self, tmp_path):
        rng = np.random.default_rng(77)
        base = rng.standard_normal((self.N_BASE, DIM))
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=9).fit(base)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        runtime = IndexRuntime(index)
        runtime.attach_maintenance(wal=wal)
        return base, runtime

    def test_no_wrong_answers_under_live_writes(self, tmp_path):
        base, runtime = self._build(tmp_path)
        rng = np.random.default_rng(78)
        queries = rng.standard_normal((self.N_READERS * 2, DIM))
        # Every vector the index can ever hold, keyed by id: points are
        # immutable once inserted, so any returned (id, distance) pair
        # must match the true distance — even mid-mutation.
        vectors = {i: base[i] for i in range(self.N_BASE)}
        insert_batches = []
        next_id = 10_000
        for _ in range(self.N_ROUNDS):
            pts = rng.standard_normal((5, DIM))
            ids = np.arange(next_id, next_id + 5, dtype=np.int64)
            next_id += 5
            insert_batches.append((pts, ids))
            for j, point in zip(ids, pts):
                vectors[int(j)] = point

        stop = threading.Event()
        collected = []
        collect_mutex = threading.Lock()

        def writer():
            for pts, ids in insert_batches:
                runtime.insert(pts, ids=ids)
                runtime.delete(ids[:1])  # churn: delete one per batch
            stop.set()

        def reader(offset):
            rows = queries[offset * 2:offset * 2 + 2]
            while not stop.is_set():
                response = batcher.submit(QueryRequest(queries=rows, k=5))
                with collect_mutex:
                    collected.append((rows, response))

        with MicroBatcher(runtime.submit, window_ms=2.0,
                          max_rows=64) as batcher:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(self.N_READERS)]
            wthread = threading.Thread(target=writer)
            for t in threads:
                t.start()
            wthread.start()
            wthread.join(timeout=120)
            stop.set()
            for t in threads:
                t.join(timeout=60)

            # Quiesced rerun (writer joined, batcher still open):
            # batched answers are bit-identical to direct execution.
            final_queries = queries[:4]
            requests = [QueryRequest(queries=final_queries[i:i + 1], k=5)
                        for i in range(4)]
            responses = _submit_concurrently(batcher, requests)
            want_ids, want_dists, _ = runtime.index.query_batch(
                final_queries, 5)
            got_ids = np.concatenate([r.ids for r in responses], axis=0)
            got_dists = np.concatenate(
                [r.distances for r in responses], axis=0)
            np.testing.assert_array_equal(got_ids, want_ids)
            assert np.array_equal(got_dists, want_dists)

        assert collected, "readers never completed a query"
        wrong = 0
        for rows, response in collected:
            assert response.shed is False
            for r, (row_ids, row_dists) in enumerate(
                    zip(response.ids, response.distances)):
                for j, dist in zip(row_ids, row_dists):
                    if j < 0:
                        continue
                    truth = float(np.linalg.norm(rows[r] - vectors[int(j)]))
                    if abs(truth - float(dist)) > 1e-6:
                        wrong += 1
        assert wrong == 0
        runtime.close()

    def test_checkpoint_during_serving_drops_no_acked_record(self, tmp_path):
        base, runtime = self._build(tmp_path)
        rng = np.random.default_rng(79)
        acked = {}
        acked_mutex = threading.Lock()

        def writer():
            next_id = 50_000
            for _ in range(20):
                pts = rng.standard_normal((3, DIM))
                ids = np.arange(next_id, next_id + 3, dtype=np.int64)
                next_id += 3
                runtime.insert(pts, ids=ids)
                with acked_mutex:
                    for j, point in zip(ids, pts):
                        acked[int(j)] = point

        snap = str(tmp_path / "snap.npz")
        wthread = threading.Thread(target=writer)
        wthread.start()
        # Checkpoints race the writer: each snapshot+WAL-reset pair must
        # keep covering every write acknowledged so far.
        lsns = [runtime.checkpoint(snap) for _ in range(5)]
        wthread.join(timeout=120)
        final_lsn = runtime.checkpoint(snap)
        assert final_lsn >= max(lsns)
        runtime.close()

        recovered, report = recover_index(snap, str(tmp_path / "wal.bin"))
        assert report.torn_bytes == 0
        assert recovered.n_points == self.N_BASE + len(acked)
        # Every acknowledged insert survives snapshot + replay: querying
        # an inserted point's own vector returns its id at distance 0
        # (the point hashes into its own buckets, so it is always a
        # candidate for itself).
        sample = sorted(acked)[:: max(1, len(acked) // 12)]
        for want in sample:
            ids, dists, _ = recovered.query_batch(
                acked[want][None, :], 1)
            assert int(ids[0, 0]) == want
            assert float(dists[0, 0]) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.concurrency
class TestRuntimeServerErrors:
    def test_unexpected_exception_maps_to_500(self, standard_index):
        """Any exception escaping a handler still yields an HTTP answer.

        The typed handlers cover _HTTPError/ValueError/RuntimeError;
        everything else (numpy errors, arbitrary executor failures)
        must fall through to the catch-all 500 instead of a closed
        connection with no status line.
        """
        from repro.runtime.server import RuntimeServer

        runtime = IndexRuntime(standard_index)
        server = RuntimeServer(runtime)

        def boom(request):
            raise ZeroDivisionError("boom")

        server.batcher._execute = boom

        async def drive():
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                body = json.dumps(
                    {"queries": [[0.0] * DIM], "k": 3}).encode("utf-8")
                writer.write(
                    b"POST /query HTTP/1.1\r\n"
                    b"Content-Length: " + str(len(body)).encode() +
                    b"\r\n\r\n" + body)
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=30)
                writer.close()
                return raw
            finally:
                await server.stop()

        raw = asyncio.run(drive())
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"500" in status_line
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert "ZeroDivisionError" in payload["error"]
        runtime.close()


    def test_insert_on_served_bilevel_index(self, base_data):
        """``/insert`` on a Bi-level index: 200 without ids, 400 with.

        ``IndexRuntime.insert`` used to pass ``ids`` positionally to
        ``BiLevelLSH.insert(points)``, so every served insert answered
        400 with an arity ``TypeError``.
        """
        from repro.runtime.server import RuntimeServer

        index = BiLevelLSH(BiLevelConfig(n_groups=4, n_tables=4,
                                         bucket_width=4.0,
                                         seed=5)).fit(base_data)
        runtime = IndexRuntime(index)
        server = RuntimeServer(runtime)
        point = np.random.default_rng(12).standard_normal(DIM).tolist()

        async def post(path, payload):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            body = json.dumps(payload).encode("utf-8")
            writer.write(
                b"POST " + path + b" HTTP/1.1\r\nContent-Length: " +
                str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            head, _, rest = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(rest)

        async def drive():
            await server.start()
            try:
                return (await post(b"/insert", {"points": [point]}),
                        await post(b"/query", {"queries": [point], "k": 1}),
                        await post(b"/insert", {"points": [point],
                                                "ids": [4242]}))
            finally:
                await server.stop()

        try:
            inserted, queried, refused = asyncio.run(drive())
        finally:
            runtime.close()
        assert inserted == (200, {"ids": [base_data.shape[0]], "count": 1})
        assert queried[0] == 200
        assert queried[1]["ids"][0][0] == base_data.shape[0]
        assert queried[1]["distances"][0][0] == 0.0
        assert refused[0] == 400
        assert "assigns ids by row position" in refused[1]["error"]


    def test_readyz_reports_the_table_that_runs(self, standard_index):
        """``/readyz`` names the kernel table answering queries, not the
        engine someone asked for: a server started with ``engine="native"``
        where nothing compiled used to answer ``"engine": "native"``
        while serving numpy (and ``null`` when started without the flag).
        """
        from repro.native import registry
        from repro.runtime.server import RuntimeServer

        runtime = IndexRuntime(standard_index, RuntimeConfig(engine="native"))
        server = RuntimeServer(runtime)
        query = {"queries": [[0.0] * DIM], "k": 3}

        async def call(method, path, payload=None):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            body = b"" if payload is None else json.dumps(payload).encode()
            writer.write(
                method + b" " + path + b" HTTP/1.1\r\nContent-Length: " +
                str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            head, _, rest = raw.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(rest)

        async def drive():
            await server.start()
            try:
                return (await call(b"GET", b"/readyz"),
                        await call(b"POST", b"/query",
                                   dict(query, engine="native")),
                        await call(b"POST", b"/query",
                                   dict(query, engine="scalar")))
            finally:
                await server.stop()

        with pytest.MonkeyPatch.context() as patch, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            patch.setenv("REPRO_NATIVE_BACKEND", "none")
            registry.reset()
            try:
                ready, answered, refused = asyncio.run(drive())
            finally:
                runtime.close()
        registry.reset()
        assert ready[0] == 200 and ready[1]["ready"] is True
        assert ready[1]["kernels"] == "numpy"
        assert "engine" not in ready[1]
        assert answered[0] == 200 and len(answered[1]["ids"][0]) == 3
        assert refused[0] == 400
        assert "oracle_query_batch" in refused[1]["error"]


@pytest.mark.concurrency
class TestShardPoolRuntime:
    def test_submit_shards_on_the_thread_pool(self, base_data, queries):
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        cfg = RuntimeConfig(shard_workers=2, max_batch_rows=5)
        with IndexRuntime(index, cfg) as runtime:
            payload = runtime.info().to_dict()
            assert payload["shard_workers"] == 2 and payload["ready"]
            # The pool's keys left ``/readyz`` with the pool.
            assert not {"worker_pids", "executor_stale"} & set(payload)
            response = runtime.submit(QueryRequest(queries=queries, k=5))
            # ``"median"`` included: the shards are the index's own.
            want = index.query_batch(queries, 5, max_batch_rows=5)
            _assert_response_equals_tuple(response, want)
        # After close the pool is gone and submits are refused.
        with pytest.raises(RuntimeError, match="closed"):
            runtime.submit(QueryRequest(queries=queries, k=5))

    def test_writes_are_visible_to_the_next_threaded_read(self, base_data,
                                                          tmp_path):
        # The inverse of the stale-pool protocol: there is no snapshot,
        # so a write through the runtime *and* one behind its back are
        # both seen by the very next read, whose rows run on the pool.
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=5).fit(base_data)
        cfg = RuntimeConfig(shard_workers=2, max_batch_rows=1)
        rng = np.random.default_rng(11)
        points = rng.standard_normal((2, DIM))
        with IndexRuntime(index, cfg) as runtime:
            runtime.insert(points[:1], ids=np.array([4242]))
            behind = runtime.index.insert(points[1:])
            response = runtime.submit(QueryRequest(queries=points, k=1))
            assert response.ids[:, 0].tolist() == [4242, int(behind[0])]
            assert response.distances[:, 0].tolist() == [0.0, 0.0]
            # A deleted point never comes back, checkpoint or not.
            assert runtime.delete(np.array([0, 4242])) == 2
            runtime.checkpoint(str(tmp_path / "snap.npz"))
            response = runtime.submit(QueryRequest(
                queries=np.vstack([base_data[:1], points]), k=3))
            assert not np.isin(response.ids, [0, 4242]).any()
            assert int(response.ids[2, 0]) == int(behind[0])
            assert runtime.info().ready
