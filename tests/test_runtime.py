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
  **bit-identical** to solo execution across engines and deadline
  modes, and a request the door refused never fails the reads queued
  beside it; and
  its single-flight turn order: never two executes at once, queued
  requests merging into the next batch, FIFO turns across keys, the
  row cap, and writes taking turns of their own;
- serving concurrency (``concurrency`` marker): queries riding merged
  batches while a WAL-attached writer inserts/deletes, with zero wrong
  answers, and ``checkpoint()`` during serving never dropping an
  acknowledged record; the HTTP server's error mapping, its GET routes
  (probes and the metrics scrape) and its persistent connections, and
  ``repro-knn serve`` end to end in a subprocess.
"""

import argparse
import asyncio
import functools
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.request
import warnings

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH, oracle_query_batch
from repro.maintenance import WriteAheadLog, recover_index
from repro.obs.registry import MetricsRegistry
from repro.persistence import save_index
from repro.resilience import QueryValidationError
from repro.resilience.deadline import Deadline
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
from tests.shards import shard_rows
from tests.threads import THREADS, native_threads

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
        assert not hasattr(cfg, "max_batch_rows")  # the executor's own
        assert cfg.batch_max_rows == 256
        assert cfg.max_queue_depth == 64

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RuntimeConfig(engine="bogus")
        # The inert keyword is name-checked and not stored.
        assert RuntimeConfig(engine="native") == RuntimeConfig()

    @pytest.mark.parametrize("kwargs", [
        {"deadline_ms": 0.0},
        {"deadline_ms": -5.0},
        {"batch_max_rows": -1},
        {"max_queue_depth": -3},
        {"batch_max_rows": 0},
        {"max_queue_depth": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)

    def test_from_args_full(self):
        args = argparse.Namespace(
            engine="vectorized", deadline_ms=25.0,
            batch_max_rows=64, max_queue_depth=8)
        cfg = RuntimeConfig.from_args(args)
        assert cfg.deadline_ms == 25.0
        assert not hasattr(cfg, "policy")  # a query has nothing to degrade
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
        runtime = IndexRuntime(standard_index, RuntimeConfig(deadline_ms=1e-6))
        with shard_rows(standard_index, 4):
            cut = runtime.submit(QueryRequest(queries=queries, k=5))
        assert cut.stats.exhausted_budget.any()
        response = runtime.submit(
            QueryRequest(queries=queries, k=5, deadline_ms=60_000.0))
        assert not response.stats.exhausted_budget.any()
        np.testing.assert_array_equal(
            response.ids, standard_index.query_batch(queries, 5)[0])

    def test_resolve_fills_from_config_and_is_idempotent(self, standard_index,
                                                         queries):
        runtime = IndexRuntime(standard_index, RuntimeConfig(
            deadline_ms=60_000.0))
        resolved = runtime.resolve(QueryRequest(queries=queries, k=5))
        # No session threshold: unset means the index's fitted one.
        assert resolved.hierarchy_threshold is None
        assert isinstance(resolved.deadline, Deadline)
        assert resolved.deadline_ms is None
        assert runtime.resolve(resolved) is resolved
        # Request fields win; nothing to fill leaves the object alone.
        own = QueryRequest(queries=queries, k=5, hierarchy_threshold=7,
                           deadline=Deadline(5.0))
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

    def test_shard_workers_serve_every_front_end(self, base_data):
        # A bi-level batch reaches a second core the way any other does,
        # inside the kernels: the runtime's shards at every P are
        # byte-equal to the library's at P = 1 — spill 2, an E8 hierarchy
        # and an integer threshold included.
        bilevel = BiLevelLSH(BiLevelConfig(
            n_groups=4, bucket_width=4.0, lattice="e8", hierarchy=True,
            multi_assign=2, seed=3)).fit(base_data)
        options = dict(hierarchy_threshold=12)
        with native_threads(1), shard_rows(bilevel, 4):
            want = bilevel.query_batch(base_data[:23], 5, **options)
        assert want[2].escalated.any()
        for p in THREADS:
            with native_threads(p), shard_rows(bilevel, 4), \
                    IndexRuntime(bilevel) as rt:
                got = rt.query_batch(base_data[:23], 5, **options)
            for a, b in zip(
                    got[:2] + (got[2].n_candidates, got[2].escalated),
                    want[:2] + (want[2].n_candidates, want[2].escalated)):
                assert a.tobytes() == b.tobytes()

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


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _queued(batcher):
    with batcher._cond:
        return sum(len(queue) for queue in batcher._queues.values())


class _Held:
    """Keeps ``batcher`` busy executing ``holder`` until :meth:`release`:
    what is sent meanwhile queues, and then runs as the batches the
    batcher forms from the queue — how load merges requests, without
    timing.  The holder's answer is dropped."""

    def __init__(self, batcher, holder):
        inner = batcher._execute
        self._gate = threading.Event()

        def held(request):
            batcher._execute = inner  # only the holder's batch waits
            assert self._gate.wait(60)
            return inner(request)

        batcher._execute = held
        self._batcher = batcher
        self._threads = [threading.Thread(target=batcher.submit,
                                          args=(holder,))]
        self._threads[0].start()
        _wait_until(lambda: batcher._execute is inner)
        self.answers = []
        self.errors = []

    def send(self, item):
        """Queue ``item``: a request, or a callable for ``run_in_turn``."""
        i = len(self.answers)
        self.answers.append(None)

        def run():
            try:
                self.answers[i] = (self._batcher.run_in_turn(item)
                                   if callable(item)
                                   else self._batcher.submit(item))
            except BaseException as exc:  # noqa: BLE001 - surfaced by caller
                self.errors.append(exc)

        self._threads.append(threading.Thread(target=run))
        self._threads[-1].start()
        _wait_until(lambda: _queued(self._batcher) == i + 1)

    def release(self):
        """Let the holder finish; the answers, in the order sent."""
        self._gate.set()
        for t in self._threads:
            t.join(timeout=60)
            assert not t.is_alive()
        return self.answers


def _submit_queued(batcher, requests, holder=None):
    """Queue ``requests`` in order behind a held ``holder`` request
    (default: ``requests[0]``), then release it (see :class:`_Held`).
    Returns the answers in request order."""
    held = _Held(batcher, requests[0] if holder is None else holder)
    for item in requests:
        held.send(item)
    answers = held.release()
    assert not held.errors, held.errors
    assert all(a is not None for a in answers)
    return answers


def _recording(execute, log):
    """``execute`` that appends each executed batch's request to ``log``."""
    def run(request):
        log.append(request)
        return execute(request)
    return run


@pytest.mark.concurrency
class TestMicroBatcher:
    # The split-back answers against the same request run solo, bit for
    # bit (``vectorized``), and against the scalar oracle (``scalar``).
    @pytest.mark.parametrize("reference,budgeted", [
        ("vectorized", False),
        ("vectorized", True),
        ("scalar", False),
    ])
    def test_merged_results_bit_identical_to_solo(self, standard_index,
                                                  queries, reference,
                                                  budgeted):
        # ``budgeted``: every request carries a generous deadline, so the
        # split must hand each its own ``exhausted_budget`` mask.
        runtime = IndexRuntime(standard_index)
        budget = 60_000.0 if budgeted else None
        requests = [
            QueryRequest(queries=queries[i:i + 3], k=5, deadline_ms=budget)
            for i in range(0, 12, 3)
        ]
        with MicroBatcher(runtime.submit, max_rows=256) as batcher:
            responses = _submit_queued(batcher, requests)
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

    @pytest.mark.parametrize("row", [[float("nan")] * DIM, [0.5] * 8],
                             ids=["nan", "width"])
    def test_a_refused_request_never_fails_its_neighbours(
            self, standard_index, queries, row):
        # Before the door validated, a NaN row (``json.loads`` takes
        # ``NaN``) or a row of the wrong width joined the merge queue,
        # and the merged batch's error reached every member: the good
        # read beside it failed too.  Refused at the door, it never
        # queues, and the good read answers as it does solo.
        from repro.runtime.server import RuntimeServer

        def through_the_door(payload):
            try:
                return server._build_request(payload)
            except QueryValidationError as error:
                assert error.field == "queries"
                return None

        runtime = IndexRuntime(standard_index)
        server = RuntimeServer(runtime)  # never started: door + batcher
        try:
            good = through_the_door({"queries": queries[:3].tolist(),
                                     "k": 5})
            bad = through_the_door({"queries": [row], "k": 5})
            holder = through_the_door({"queries": queries[5:6].tolist(),
                                       "k": 5})
            [answer] = _submit_queued(
                server.batcher, [r for r in (good, bad) if r is not None],
                holder=holder)
        finally:
            server.close()
        assert bad is None
        solo = runtime.submit(QueryRequest(queries=queries[:3], k=5))
        _assert_response_equals_tuple(answer, solo.as_tuple())

    def test_merged_with_deadline_bit_identical(self, standard_index,
                                                queries):
        runtime = IndexRuntime(standard_index)
        requests = [
            QueryRequest(queries=queries[i:i + 2], k=5, deadline_ms=30_000.0)
            for i in range(0, 8, 2)
        ]
        with MicroBatcher(runtime.submit, max_rows=256) as batcher:
            responses = _submit_queued(batcher, requests)
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
        # and a request spelling a session option never merged with one
        # inheriting it.  Resolved at the door — by
        # ``IndexRuntime.resolve``, which the HTTP door calls — merged
        # must equal solo on every field, ``None``-ness included.  The
        # HTTP body's ``max_batch_rows`` is a retired key: ignored.
        from repro.runtime.server import RuntimeServer

        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        runtime = IndexRuntime(index, RuntimeConfig(deadline_ms=60_000.0))
        server = RuntimeServer(runtime)  # never started: door + batcher
        try:
            if door == "http":
                requests = [
                    server._build_request(
                        {"queries": queries[0].tolist(), "k": 5}),
                    server._build_request(
                        {"queries": queries[1].tolist(), "k": 5,
                         "max_batch_rows": 4})]
            else:
                requests = [
                    runtime.resolve(QueryRequest(queries=queries[:1], k=5)),
                    runtime.resolve(QueryRequest(queries=queries[1:2], k=5,
                                                 deadline_ms=60_000.0))]
            # The budget clock started at the door, not after the window.
            assert all(isinstance(r.deadline, Deadline) for r in requests)
            responses = _submit_queued(server.batcher, requests)
        finally:
            server.close()
        for i, response in enumerate(responses):
            assert response.batched == 2 and not response.shed
            solo = runtime.submit(QueryRequest(queries=queries[i:i + 1], k=5))
            _assert_response_equals_tuple(response, solo.as_tuple())
            assert response.stats.exhausted_budget is not None

    def test_spent_session_deadline_is_flagged_not_dropped(self, base_data,
                                                           queries):
        # The reproduction in ISSUE 21: a session budget too small to
        # survive the trip.  Solo, the read comes back flagged
        # ``exhausted_budget=[True]``; batched it came back ``None``.
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        runtime = IndexRuntime(index, RuntimeConfig(deadline_ms=1e-6))
        # A threshold every row escalates by: the budget is checked
        # between escalation rounds, so a spent one shows.
        requests = [QueryRequest(queries=queries[i:i + 1], k=5,
                                 hierarchy_threshold=50)
                    for i in range(2)]
        for request in requests:
            solo = runtime.submit(request)
            assert solo.stats.exhausted_budget is not None
            assert solo.stats.exhausted_budget.all()
        with MicroBatcher(runtime.submit) as batcher:
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
        with MicroBatcher(runtime.submit) as batcher:
            response = batcher.submit(request)
        assert response.shed is True
        assert (response.ids == -1).all()
        assert response.stats.exhausted_budget.all()

    def test_hierarchy_reads_merge_and_equal_solo(self, base_data, queries):
        # An E8 hierarchy escalates by each group's fitted threshold, not
        # by the batch's median: concurrent reads merge like any others,
        # and every merged answer is its solo run's, escalation included.
        deep = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        lattice="e8", seed=3,
                                        hierarchy=True)).fit(base_data)
        runtime = IndexRuntime(deep)
        requests = [QueryRequest(queries=queries[i:i + 3], k=3)
                    for i in range(0, 24, 3)]
        with MicroBatcher(runtime.submit) as batcher:
            responses = _submit_queued(batcher, requests)
        assert batcher.merge_counts[0] > 0
        assert any(r.batched > 1 for r in responses)
        escalated = 0
        for request, response in zip(requests, responses):
            solo = runtime.submit(request)
            _assert_response_equals_tuple(response, solo.as_tuple())
            escalated += int(solo.stats.escalated.sum())
        assert escalated > 0  # not vacuous: the hierarchy answered some

    def test_pinned_threshold_allows_hierarchy_merge(self, base_data,
                                                     queries):
        deep = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        seed=3, hierarchy=True)).fit(base_data)
        runtime = IndexRuntime(deep)
        requests = [
            QueryRequest(queries=queries[i:i + 2], k=3,
                         hierarchy_threshold=32)
            for i in range(0, 8, 2)
        ]
        with MicroBatcher(runtime.submit) as batcher:
            responses = _submit_queued(batcher, requests)
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
        with MicroBatcher(runtime.submit) as batcher:
            responses = _submit_queued(batcher, [near, generous])
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
        with MicroBatcher(runtime.submit) as batcher:
            responses = _submit_queued(batcher, requests)
        for request, response in zip(requests, responses):
            assert response.ids.shape == (2, request.k)
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_never_two_executes_at_once(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        running, peak, mutex = [0], [0], threading.Lock()

        def counting(request):
            with mutex:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                return runtime.submit(request)
            finally:
                with mutex:
                    running[0] -= 1

        responses = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MicroBatcher(counting, max_rows=8) as batcher:
                def client(t):
                    for i in range(t, 200, 16):
                        row = i % len(queries)
                        responses[i] = batcher.submit(QueryRequest(
                            queries=queries[row:row + 1], k=5))

                threads = [threading.Thread(target=client, args=(t,))
                           for t in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert peak[0] == 1
        assert sorted(responses) == list(range(200))
        for i, response in responses.items():
            row = i % len(queries)
            _assert_response_equals_tuple(response, runtime.submit(
                QueryRequest(queries=queries[row:row + 1], k=5)).as_tuple())

    def test_queued_requests_run_as_one_next_batch(self, standard_index,
                                                   queries):
        runtime = IndexRuntime(standard_index)
        log = []
        requests = [QueryRequest(queries=queries[i:i + 1], k=5)
                    for i in range(6)]
        with MicroBatcher(_recording(runtime.submit, log)) as batcher:
            responses = _submit_queued(batcher, requests)
        # The held holder, then all six queued requests as one batch.
        assert [r.n_rows() for r in log] == [1, 6]
        assert batcher.merge_counts == (1, 6)
        for request, response in zip(requests, responses):
            assert response.batched == 6
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_turns_follow_the_oldest_request_of_each_key(self,
                                                         standard_index,
                                                         queries):
        runtime = IndexRuntime(standard_index)
        log = []
        ks = [3, 4, 3, 5, 4, 3]
        requests = [QueryRequest(queries=queries[i:i + 1], k=k)
                    for i, k in enumerate(ks)]
        with MicroBatcher(_recording(runtime.submit, log)) as batcher:
            responses = _submit_queued(
                batcher, requests,
                holder=QueryRequest(queries=queries[:1], k=9))
        # k=3 queued first, then k=4, then k=5: each key's requests merge
        # and the keys take their turns in that order.
        assert [(r.k, r.n_rows()) for r in log] == [
            (9, 1), (3, 3), (4, 2), (5, 1)]
        for request, response in zip(requests, responses):
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_max_rows_caps_a_batch_and_the_remainder_runs_next(
            self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        log = []
        requests = ([QueryRequest(queries=queries[i:i + 3], k=5)
                     for i in range(0, 15, 3)]
                    + [QueryRequest(queries=queries[:2], k=6),
                       QueryRequest(queries=queries[:10], k=5)])
        with MicroBatcher(_recording(runtime.submit, log),
                          max_rows=7) as batcher:
            responses = _submit_queued(
                batcher, requests,
                holder=QueryRequest(queries=queries[:1], k=9))
        # k=5 holds 5 x 3 rows, then 10 rows: 6 + 6 under the cap, the
        # remainder (3 rows, older than k=6) goes next, k=6 then comes
        # before the 10-row request, which, larger than the cap, runs
        # alone.
        assert [(r.k, r.n_rows()) for r in log] == [
            (9, 1), (5, 6), (5, 6), (5, 3), (6, 2), (5, 10)]
        for request, response in zip(requests, responses):
            _assert_response_equals_tuple(
                response, runtime.submit(request).as_tuple())

    def test_a_key_over_the_cap_does_not_keep_the_turn(self, standard_index,
                                                       queries):
        runtime = IndexRuntime(standard_index)
        log = []

        def write():
            log.append("write")
            return "written"

        requests = [QueryRequest(queries=queries[0:2], k=5),
                    QueryRequest(queries=queries[2:4], k=5),
                    QueryRequest(queries=queries[4:5], k=6), write,
                    QueryRequest(queries=queries[5:7], k=5),
                    QueryRequest(queries=queries[7:9], k=5)]
        with MicroBatcher(_recording(runtime.submit, log),
                          max_rows=2) as batcher:
            answers = _submit_queued(
                batcher, requests,
                holder=QueryRequest(queries=queries[:1], k=9))
        # k=5 always has more rows waiting than the cap; once its requests
        # older than the k=6 read and the write have run, those two go
        # before the k=5 requests that arrived after them.
        assert [e if e == "write" else (e.k, e.n_rows()) for e in log] == [
            (9, 1), (5, 2), (5, 2), (6, 1), "write", (5, 2), (5, 2)]
        assert answers[3] == "written"
        for request, response in zip(requests, answers):
            if not callable(request):
                _assert_response_equals_tuple(
                    response, runtime.submit(request).as_tuple())

    def test_equal_budgets_arriving_apart_do_not_share_a_batch(
            self, base_data, queries):
        # The same session budget, arriving 300 ms apart: one proximity
        # bucket at arrival, expiries far apart.  By the time the queue
        # runs the older read's budget is spent; merged, the newer read
        # would run under that expiry and come back exhausted.  Solo it
        # has budget left.  (A hierarchy checks its deadline between
        # escalation rounds, so a spent budget shows — under a threshold
        # every row escalates by.)
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        runtime = IndexRuntime(index, RuntimeConfig(deadline_ms=600.0))
        read = functools.partial(QueryRequest, k=5, hierarchy_threshold=50)
        log = []
        with MicroBatcher(_recording(runtime.submit, log)) as batcher:
            held = _Held(batcher, QueryRequest(queries=queries[:1], k=9))
            requests = [runtime.resolve(read(queries[:2]))]
            held.send(requests[0])
            time.sleep(0.3)
            requests.append(runtime.resolve(read(queries[2:4])))
            held.send(requests[1])
            assert len(batcher._queues) == 1  # both keyed alike
            while not requests[0].deadline.expired():
                time.sleep(0.005)
            older, newer = held.release()
        assert not held.errors, held.errors
        assert [r.n_rows() for r in log] == [1, 2, 2]
        assert older.stats.exhausted_budget.all()
        solo = runtime.submit(read(queries[2:4]))
        assert not solo.stats.exhausted_budget.any()
        _assert_response_equals_tuple(newer, solo.as_tuple())

    def test_write_takes_a_turn_of_its_own(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        log = []

        def write():
            log.append("write")
            return "written"

        requests = [QueryRequest(queries=queries[:1], k=5), write,
                    QueryRequest(queries=queries[1:2], k=6),
                    QueryRequest(queries=queries[2:3], k=5)]
        with MicroBatcher(_recording(runtime.submit, log)) as batcher:
            answers = _submit_queued(
                batcher, requests,
                holder=QueryRequest(queries=queries[:1], k=9))
        # The write waits for the running batch, runs alone in its
        # arrival turn, and the reads queued after it wait for it.
        assert [e if e == "write" else (e.k, e.n_rows()) for e in log] == [
            (9, 1), (5, 2), "write", (6, 1)]
        assert answers[1] == "written"
        assert batcher.merge_counts == (1, 2)

    def test_pinned_and_fitted_reads_key_apart(self, queries):
        # A threshold is part of the merge key: reads pinning one merge
        # with each other, reads taking the fitted one with each other,
        # and each answers as it would alone.
        from repro.runtime.server import RuntimeServer

        rng = np.random.default_rng(30)
        index = StandardLSH(n_tables=4, bucket_width=8.0, lattice="e8",
                            hierarchy=True, seed=5).fit(
                                rng.standard_normal((3000, DIM)))
        rows = rng.standard_normal((12, DIM))
        runtime = IndexRuntime(index)
        server = RuntimeServer(runtime)  # never started: door + batcher
        log = []
        server.batcher._execute = _recording(runtime.submit, log)
        try:
            spelled = [{"queries": rows[i:i + 3].tolist(), "k": 5}
                       for i in range(0, 12, 3)]
            spelled[1]["hierarchy_threshold"] = 40
            spelled[3]["hierarchy_threshold"] = 40.0  # an integral float
            requests = [server._build_request(p) for p in spelled]
            responses = _submit_queued(
                server.batcher, requests,
                holder=server._build_request(
                    {"queries": rows[:1].tolist(), "k": 2}))
        finally:
            server.close()
        # Fitted reads merge under the first one's turn, pinned ones under
        # the second's.
        assert [(r.hierarchy_threshold, r.n_rows()) for r in log] == [
            (None, 1), (None, 6), (40, 6)]
        for i, threshold in enumerate((None, 40, None, 40)):
            assert responses[i].batched == 2
            _assert_response_equals_tuple(responses[i], index.query_batch(
                rows[3 * i:3 * i + 3], 5, hierarchy_threshold=threshold))

    def test_a_failed_merged_batch_is_rerun_member_by_member(
            self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        rows = []

        def execute(request):
            rows.append(request.n_rows())
            if request.n_rows() > 1:
                raise RuntimeError("executor down")
            return runtime.submit(request)

        with MicroBatcher(execute) as batcher:
            held = _Held(batcher, QueryRequest(queries=queries[:1], k=3))
            for i in range(3):
                held.send(QueryRequest(queries=queries[i:i + 1], k=3))
            answers = held.release()
        # The three queued requests ran as one batch, which raised; each
        # then ran alone and got its own answer.
        assert rows == [1, 3, 1, 1, 1]
        assert held.errors == []
        for i, answer in enumerate(answers):
            solo = runtime.submit(QueryRequest(queries=queries[i:i + 1], k=3))
            _assert_response_equals_tuple(answer, solo.as_tuple())
        assert batcher.merge_counts == (0, 0)

    def test_a_bad_request_fails_alone_beside_a_good_one(
            self, standard_index, queries):
        # Driven through submit directly, not the HTTP door: an all-NaN
        # row merges with a good read, the merged batch is refused, and
        # only the bad request sees the error.
        runtime = IndexRuntime(standard_index)
        good = QueryRequest(queries=queries[:3], k=5)
        bad = QueryRequest(queries=np.full((1, DIM), np.nan), k=5)
        with MicroBatcher(runtime.submit) as batcher:
            held = _Held(batcher, QueryRequest(queries=queries[5:6], k=5))
            held.send(good)
            held.send(bad)
            answer, refused = held.release()
        assert refused is None
        [error] = held.errors
        assert isinstance(error, QueryValidationError)
        solo = runtime.submit(good)
        _assert_response_equals_tuple(answer, solo.as_tuple())

    def test_closed_batcher_refuses_work(self, standard_index, queries):
        runtime = IndexRuntime(standard_index)
        batcher = MicroBatcher(runtime.submit)
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

        with MicroBatcher(runtime.submit, max_rows=64) as batcher:
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


def _serve(runtime, client):
    """Run ``client(server)`` against a started server; its result."""
    from repro.runtime.server import RuntimeServer

    server = RuntimeServer(runtime)

    async def drive():
        await server.start()
        try:
            return await client(server)
        finally:
            await server.stop()

    return asyncio.run(drive())


async def _exchange(reader, writer, head, payload=None, length=None):
    """Send one request (``head`` is its request line plus any headers;
    ``length`` overrides the Content-Length value) and read exactly one
    response, framed by its Content-Length: ``(status, headers, body)``,
    the body decoded from JSON when it is JSON, else text."""
    body = b"" if payload is None else json.dumps(payload).encode()
    if length is None:
        length = str(len(body)).encode()
    writer.write(head + b"\r\nContent-Length: " + length
                 + b"\r\n\r\n" + body)
    await writer.drain()
    raw = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
    lines = raw.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    data = await asyncio.wait_for(
        reader.readexactly(int(headers["content-length"])), 30)
    text = data.decode("utf-8")
    if headers["content-type"].startswith("application/json"):
        return int(lines[0].split()[1]), headers, json.loads(text)
    return int(lines[0].split()[1]), headers, text


async def _call(server, method, path, payload=None):
    """One request on a fresh connection that asks to be closed after
    it; :func:`_exchange`'s ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        return await _exchange(
            reader, writer,
            method + b" " + path + b" HTTP/1.1\r\nConnection: close",
            payload)
    finally:
        writer.close()


@pytest.mark.concurrency
class TestRuntimeServerErrors:
    def test_unexpected_exception_maps_to_500(self, standard_index):
        """Any exception escaping a handler still yields an HTTP answer.

        The typed handlers cover _HTTPError/ValueError/RuntimeError;
        everything else (numpy errors, arbitrary executor failures)
        must fall through to the catch-all 500 instead of a closed
        connection with no status line.
        """
        def boom(request):
            raise ZeroDivisionError("boom")

        async def client(server):
            server.batcher._execute = boom
            return await _call(server, b"POST", b"/query",
                               {"queries": [[0.0] * DIM], "k": 3})

        with IndexRuntime(standard_index) as runtime:
            status, _, payload = _serve(runtime, client)
        assert status == 500
        assert "ZeroDivisionError" in payload["error"]


    @pytest.mark.parametrize("row", [[float("nan")] * DIM, [0.5] * 8],
                             ids=["nan", "width"])
    def test_a_bad_row_is_a_400_before_any_queue(self, standard_index, row):
        # Refused at the door: the batcher never sees the request.
        executed = []

        async def client(server):
            server.batcher._execute = _recording(server.batcher._execute,
                                                 executed)
            return await _call(server, b"POST", b"/query",
                               {"queries": [row], "k": 3})

        with IndexRuntime(standard_index) as runtime:
            status, _, body = _serve(runtime, client)
        assert status == 400
        assert "queries" in body["error"]
        assert executed == []

    def test_bad_hierarchy_threshold_is_a_400_naming_it(self, base_data):
        # Validated at the door, on a hierarchy index and a flat one
        # alike; an integral JSON float is still an integer.
        query = {"queries": [[0.0] * DIM], "k": 3}
        bad = ["foo", "median", True, -5, 2.5]

        async def client(server):
            return [await _call(server, b"POST", b"/query",
                                dict(query, hierarchy_threshold=value))
                    for value in bad + [40.0, None]]

        for hierarchy in (False, True):
            index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                                hierarchy=hierarchy, seed=5).fit(base_data)
            with IndexRuntime(index) as runtime:
                answers = _serve(runtime, client)
            for status, _, body in answers[:len(bad)]:
                assert status == 400
                assert "hierarchy_threshold" in body["error"]
            assert [status for status, _, _ in answers[len(bad):]] == [
                200, 200]

    def test_bad_integers_are_a_400_naming_the_field(self, base_data):
        # The door used to truncate without complaint: ``/delete`` of id
        # 1.7 deleted id 1, ``k`` 2.5 answered 2 columns and ``true`` 1,
        # and a ``deadline_ms`` of ``true`` ran under a 1 ms budget.  An
        # integral float is still an integer; the retired
        # ``max_batch_rows`` key is ignored, whatever it holds.
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=5).fit(base_data)
        query = {"queries": [base_data[1].tolist()]}
        point = [0.5] * DIM
        bad = [(b"/query", dict(query, k=2.5), "k"),
               (b"/query", dict(query, k=True), "k"),
               (b"/query", dict(query, k="3"), "k"),
               (b"/query", dict(query, k=3, deadline_ms=True), "deadline_ms"),
               (b"/query", dict(query, k=3, deadline_ms="5"), "deadline_ms"),
               (b"/delete", {"ids": [1.7]}, "ids"),
               (b"/delete", {"ids": [True]}, "ids"),
               (b"/insert", {"points": [point], "ids": [4242.5]}, "ids")]
        good = [(b"/query", dict(query, k=3.0, deadline_ms=60_000)),
                (b"/query", dict(query, k=3, max_batch_rows="junk")),
                (b"/delete", {"ids": [1.0]}),
                (b"/insert", {"points": [point], "ids": [4242.0]})]

        async def client(server):
            return [await _call(server, b"POST", path, body)
                    for path, body, _ in bad] + [
                await _call(server, b"POST", path, body)
                for path, body in good]

        with IndexRuntime(index) as runtime:
            answers = _serve(runtime, client)
        for (status, _, body), (_, _, field) in zip(answers, bad):
            assert status == 400
            assert field in body["error"]
        query_a, query_b, deleted, inserted = [
            (status, body) for status, _, body in answers[len(bad):]]
        assert query_a[0] == query_b[0] == 200
        assert len(query_a[1]["ids"][0]) == 3
        assert query_a[1]["ids"] == query_b[1]["ids"]
        assert query_a[1]["ids"][0][0] == 1
        # Id 1 was still there to delete, and 4242 still free to take.
        assert deleted == (200, {"deleted": 1})
        assert inserted == (200, {"ids": [4242], "count": 1})

    def test_insert_on_served_bilevel_index(self, base_data):
        """``/insert`` on a Bi-level index: 200 without ids, 400 with.

        ``IndexRuntime.insert`` used to pass ``ids`` positionally to
        ``BiLevelLSH.insert(points)``, so every served insert answered
        400 with an arity ``TypeError``.
        """
        index = BiLevelLSH(BiLevelConfig(n_groups=4, n_tables=4,
                                         bucket_width=4.0,
                                         seed=5)).fit(base_data)
        point = np.random.default_rng(12).standard_normal(DIM).tolist()

        async def client(server):
            return [(status, body) for status, _, body in [
                await _call(server, b"POST", b"/insert", {"points": [point]}),
                await _call(server, b"POST", b"/query",
                            {"queries": [point], "k": 1}),
                await _call(server, b"POST", b"/insert",
                            {"points": [point], "ids": [4242]})]]

        with IndexRuntime(index) as runtime:
            inserted, queried, refused = _serve(runtime, client)
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

        query = {"queries": [[0.0] * DIM], "k": 3}

        async def client(server):
            return [(status, body) for status, _, body in [
                await _call(server, b"GET", b"/readyz"),
                await _call(server, b"POST", b"/query",
                            dict(query, engine="native")),
                await _call(server, b"POST", b"/query",
                            dict(query, engine="scalar"))]]

        with pytest.MonkeyPatch.context() as patch, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            patch.setenv("REPRO_NATIVE_BACKEND", "none")
            registry.reset()
            with IndexRuntime(standard_index,
                              RuntimeConfig(engine="native")) as runtime:
                ready, answered, refused = _serve(runtime, client)
        registry.reset()
        assert ready[0] == 200 and ready[1]["ready"] is True
        assert ready[1]["kernels"] == "numpy"
        assert "engine" not in ready[1]
        assert answered[0] == 200 and len(answered[1]["ids"][0]) == 3
        assert refused[0] == 400
        assert "oracle_query_batch" in refused[1]["error"]


# Prometheus text exposition: every non-comment line is
# ``name{labels} value`` with a float-parseable value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")


def _assert_prometheus_text(text):
    """Every sample line is well formed; at least one is present."""
    samples = [line for line in text.splitlines()
               if line and not line.startswith("#")]
    assert samples
    for line in samples:
        assert _SAMPLE_RE.match(line), line
        float(line.rsplit(" ", 1)[1])  # value parses


@pytest.mark.concurrency
class TestServerRoutes:
    """The GET routes on ``RuntimeServer``: probes and the metrics scrape."""

    @pytest.fixture()
    def runtime(self, standard_index):
        with IndexRuntime(standard_index,
                          registry=MetricsRegistry()) as runtime:
            yield runtime

    def test_ephemeral_port_bound(self, runtime):
        async def client(server):
            return server.host, server.port

        host, port = _serve(runtime, client)
        assert host == "127.0.0.1" and port > 0

    def test_stop_releases_port(self, runtime):
        async def client(server):
            return server.port

        port = _serve(runtime, client)
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=5)

    def test_healthz_is_ok(self, runtime):
        async def client(server):
            return await _call(server, b"GET", b"/healthz")

        status, headers, body = _serve(runtime, client)
        assert (status, body) == (200, {"ok": True})
        assert headers["content-type"] == "application/json"

    def test_readyz_payload_drives_status(self, runtime):
        async def client(server):
            return await _call(server, b"GET", b"/readyz")

        status, _, body = _serve(runtime, client)
        assert status == 200 and body["ready"] is True
        with IndexRuntime(StandardLSH(n_hashes=4, n_tables=3,
                                      bucket_width=4.0, seed=5)) as empty:
            status, _, body = _serve(empty, client)
        assert status == 503 and body["ready"] is False
        assert "empty" in body["detail"]

    def test_metrics_endpoint_is_prometheus_text(self, runtime, queries):
        async def client(server):
            await _call(server, b"POST", b"/query",
                        {"queries": [queries[0].tolist()], "k": 5})
            return await _call(server, b"GET", b"/metrics")

        status, headers, text = _serve(runtime, client)
        assert status == 200
        assert headers["content-type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        _assert_prometheus_text(text)
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_requests_total{route="query"} 1' in text

    def test_metrics_json_endpoint(self, runtime):
        async def client(server):
            return await _call(server, b"GET", b"/metrics.json")

        status, headers, body = _serve(runtime, client)
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert set(body) == {"metrics", "derived"}
        assert "serve_max_queue_depth" in body["metrics"]

    def test_scrapes_see_registry_updates(self, runtime):
        counter = runtime.registry.counter("repro_probe_total", "probes")

        async def client(server):
            counter.labels(engine="lsh").inc(7)
            _, _, before = await _call(server, b"GET", b"/metrics")
            counter.labels(engine="lsh").inc(3)
            _, _, after = await _call(server, b"GET", b"/metrics")
            return before, after

        before, after = _serve(runtime, client)
        assert 'repro_probe_total{engine="lsh"} 7' in before
        assert 'repro_probe_total{engine="lsh"} 10' in after

    def test_unknown_path_is_404(self, runtime):
        async def client(server):
            return [await _call(server, method, b"/nope")
                    for method in (b"GET", b"POST")]

        for status, _, body in _serve(runtime, client):
            assert status == 404 and "/nope" in body["error"]

    def test_metrics_404_without_registry(self, standard_index):
        async def client(server):
            return [await _call(server, b"GET", path)
                    for path in (b"/metrics", b"/metrics.json")]

        with IndexRuntime(standard_index) as runtime:
            answers = _serve(runtime, client)
        assert [status for status, _, _ in answers] == [404, 404]

    def test_query_string_is_not_part_of_the_route(self, runtime):
        async def client(server):
            return [await _call(server, b"GET", path)
                    for path in (b"/healthz?x=1", b"/metrics?x=1")]

        (health, _, ok), (metrics, _, text) = _serve(runtime, client)
        assert (health, ok) == (200, {"ok": True})
        assert metrics == 200
        _assert_prometheus_text(text)

    def test_over_100_headers_get_431_and_close(self, runtime):
        def head(n_headers):  # _exchange adds Content-Length as the last
            return b"GET /healthz HTTP/1.1" + b"".join(
                b"\r\nX-Pad-%d: 1" % i for i in range(n_headers - 1))

        async def client(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            try:
                at_cap = await _exchange(reader, writer, head(100))
                over = await _exchange(reader, writer, head(101))
                return at_cap, over, await asyncio.wait_for(reader.read(), 30)
            finally:
                writer.close()

        at_cap, (status, headers, body), rest = _serve(runtime, client)
        assert at_cap[0] == 200 and at_cap[1]["connection"] == "keep-alive"
        assert status == 431 and "more than 100 headers" in body["error"]
        assert headers["connection"] == "close" and rest == b""


@pytest.mark.concurrency
class TestServerConnections:
    """HTTP/1.1 persistent connections on ``RuntimeServer``."""

    def test_one_socket_carries_three_queries(self, standard_index,
                                              queries):
        async def client(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            answers = [await _exchange(
                reader, writer, b"POST /query HTTP/1.1",
                {"queries": [queries[i].tolist()], "k": 5})
                for i in range(3)]
            writer.close()
            return answers

        from repro.runtime.server import serialize_response

        with IndexRuntime(standard_index) as runtime:
            answers = _serve(runtime, client)
            for i, (status, headers, body) in enumerate(answers):
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert body == serialize_response(runtime.submit(
                    QueryRequest(queries=queries[i:i + 1], k=5)))

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.1\r\nConnection: close",
        b"GET /healthz HTTP/1.0",
    ], ids=["connection-close", "http-1.0"])
    def test_close_is_answered_then_eof(self, standard_index, head):
        async def client(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            answer = await _exchange(reader, writer, head)
            rest = await asyncio.wait_for(reader.read(), 30)
            writer.close()
            return answer, rest

        with IndexRuntime(standard_index) as runtime:
            (status, headers, body), rest = _serve(runtime, client)
        assert (status, body) == (200, {"ok": True})
        assert headers["connection"] == "close"
        assert rest == b""

    @pytest.mark.parametrize("head,length,why", [
        (b"NONSENSE", None, "malformed request line"),
        (b"GET /healthz HTTP/1.1", b"-3", "bad Content-Length"),
    ], ids=["request-line", "content-length"])
    def test_unframeable_request_gets_400_and_close(self, standard_index,
                                                    head, length, why):
        async def client(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            answer = await _exchange(reader, writer, head, length=length)
            rest = await asyncio.wait_for(reader.read(), 30)
            writer.close()
            return answer, rest

        with IndexRuntime(standard_index) as runtime:
            (status, headers, body), rest = _serve(runtime, client)
        assert status == 400 and why in body["error"]
        assert headers["connection"] == "close"
        assert rest == b""

    def test_stop_returns_with_an_idle_connection_open(self,
                                                       standard_index):
        from repro.runtime.server import RuntimeServer

        runtime = IndexRuntime(standard_index)
        server = RuntimeServer(runtime)

        async def drive():
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            status, headers, _ = await _exchange(
                reader, writer, b"GET /healthz HTTP/1.1")
            assert headers["connection"] == "keep-alive"
            await asyncio.sleep(0.05)  # idle: the server awaits a request
            began = time.monotonic()
            await asyncio.wait_for(server.stop(), 5)
            took = time.monotonic() - began
            rest = await asyncio.wait_for(reader.read(), 5)
            writer.close()
            return status, took, rest

        try:
            status, took, rest = asyncio.run(drive())
        finally:
            runtime.close()
        assert status == 200 and took < 5
        assert rest == b""  # the server closed the idle connection

    def test_stop_lets_a_busy_connection_answer(self, standard_index,
                                                queries):
        from repro.runtime.server import RuntimeServer, serialize_response

        runtime = IndexRuntime(standard_index)
        server = RuntimeServer(runtime)
        executing, release = threading.Event(), threading.Event()

        def held(request):
            executing.set()
            assert release.wait(30)
            return runtime.submit(request)

        server.batcher._execute = held

        async def drive():
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            exchange = asyncio.ensure_future(_exchange(
                reader, writer, b"POST /query HTTP/1.1",
                {"queries": [queries[0].tolist()], "k": 5}))
            while not executing.is_set():
                await asyncio.sleep(0.001)
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0.05)  # stop() has closed the idle ones
            release.set()
            answer = await exchange
            rest = await asyncio.wait_for(reader.read(), 5)
            await asyncio.wait_for(stopping, 5)
            writer.close()
            return answer, rest

        try:
            (status, headers, body), rest = asyncio.run(drive())
            solo = runtime.submit(QueryRequest(queries=queries[:1], k=5))
        finally:
            runtime.close()
        # The read running when stop() began still gets its answer, as
        # the connection's last.
        assert status == 200 and headers["connection"] == "close"
        assert body == serialize_response(solo)
        assert rest == b""


@pytest.mark.concurrency
class TestShardPoolRuntime:
    def test_submit_shards_on_the_thread_pool(self, base_data, queries):
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            hierarchy=True, seed=5).fit(base_data)
        with native_threads(2), shard_rows(index, 5), \
                IndexRuntime(index) as runtime:
            payload = runtime.info().to_dict()
            assert payload["threads"] == 2 and payload["ready"]
            # No pool, no pool keys on ``/readyz``.
            assert not {"worker_pids", "executor_stale",
                        "shard_workers"} & set(payload)
            response = runtime.submit(QueryRequest(queries=queries, k=5))
            # The fitted threshold included: the shards are the index's own.
            want = index.query_batch(queries, 5)
            _assert_response_equals_tuple(response, want)
        # After close submits are refused.
        with pytest.raises(RuntimeError, match="closed"):
            runtime.submit(QueryRequest(queries=queries, k=5))

    def test_writes_are_visible_to_the_next_threaded_read(self, base_data,
                                                          tmp_path):
        # There is no snapshot, so a write through the runtime *and* one
        # behind its back are both seen by the very next read.
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            seed=5).fit(base_data)
        rng = np.random.default_rng(11)
        points = rng.standard_normal((2, DIM))
        with shard_rows(index, 1), IndexRuntime(index) as runtime:
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


def _get(url):
    """``(status, content type, body text)`` of one GET."""
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return (resp.status, resp.headers.get("Content-Type", ""),
                resp.read().decode("utf-8"))


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestKnnServeSmoke:
    """``repro-knn serve`` in a subprocess: every route on the one port
    its banner prints."""

    def test_serve_query_and_readiness_end_to_end(self, tmp_path):
        rng = np.random.default_rng(19)
        features = str(tmp_path / "features.npy")
        np.save(features, rng.normal(size=(250, 12)))
        index_path = str(tmp_path / "index.npz")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + env.get("PYTHONPATH", "").split(os.pathsep))
        build = subprocess.run(
            [sys.executable, "-m", "repro.cli", "build", features,
             index_path, "--index-type", "standard", "--tables", "3",
             "--width", "8.0", "--seed", "11"],
            env=env, capture_output=True, text=True, timeout=120)
        assert build.returncode == 0, build.stderr

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", index_path,
             "--port", "0", "--serve-seconds", "30"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = proc.stdout.readline()
            match = re.match(r"serving knn on http://([\d.]+):(\d+) \(",
                             banner)
            assert match is not None, (banner, proc.stderr.read())
            url = f"http://{match.group(1)}:{match.group(2)}"

            status, _, body = _get(f"{url}/healthz")
            assert status == 200 and json.loads(body) == {"ok": True}
            status, _, body = _get(f"{url}/readyz")
            ready = json.loads(body)
            assert status == 200 and ready["ready"] is True
            assert ready["n_points"] == 250

            status, payload = _post(f"{url}/query", {
                "queries": [rng.normal(size=12).tolist()], "k": 5})
            assert status == 200 and payload["shed"] is False
            assert len(payload["ids"][0]) == len(payload["distances"][0]) \
                == 5
            assert "n_candidates" in payload["stats"]
            assert _post(f"{url}/insert", {
                "points": [rng.normal(size=12).tolist()]})[1]["count"] == 1
            assert _post(f"{url}/delete", {"ids": [0]}) == (
                200, {"deleted": 1})
            status, payload = _post(f"{url}/checkpoint", {
                "path": str(tmp_path / "snap.npz")})
            assert status == 200 and "lsn" in payload

            status, _, body = _get(f"{url}/stats")
            assert status == 200
            assert json.loads(body)["admission"]["admitted"] == 1

            status, ctype, text = _get(f"{url}/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            _assert_prometheus_text(text)
            assert 'serve_requests_total{route="query"} 1' in text
            status, _, body = _get(f"{url}/metrics.json")
            assert status == 200
            assert "serve_requests_total" in json.loads(body)["metrics"]
        finally:
            proc.terminate()
            proc.wait(timeout=10)
