"""Concurrency audit: hammer insert/delete/query_batch from threads.

The update path promises two things (see DESIGN.md "Invariants", R3):
writers (``insert``/``delete``/rebuilds) serialize on an internal lock,
and queries are lock-free but only ever observe immutable snapshots —
published arrays are swapped atomically, never mutated in place.

These tests exercise that contract three ways:

1. read-only parallelism: identical concurrent batches must reproduce
   the serial answer bit-for-bit;
2. crash/consistency safety: queries racing a stream of inserts and
   deletes must stay well-formed (no exceptions, no out-of-range ids,
   no non-finite distances for real neighbors);
3. serial parity: across many randomized interleavings of writer and
   reader threads, the *final* index state must answer queries exactly
   like a serial replay of the same operations.
"""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from repro.analysis.sanitizer import InterleavingDriver
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh import index as index_module
from repro.lsh.index import StandardLSH
from repro.lsh.table import LSHTable
from repro.native import registry
from repro.native.ref import tree_rowdot
from repro.exec import executor
from repro.runtime import IndexRuntime
from tests.shards import shard_rows
from tests.threads import native_threads

pytestmark = pytest.mark.concurrency

N_TRIALS = 100  # randomized interleavings in the parity sweep


def _bilevel(seed: int) -> BiLevelLSH:
    return BiLevelLSH(BiLevelConfig(
        n_groups=4, n_tables=2, n_hashes=4, bucket_width=8.0, seed=seed))


class TestConcurrentQueries:
    def test_parallel_query_batches_match_serial(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((400, 16))
        queries = rng.standard_normal((20, 16))
        index = _bilevel(seed=0).fit(data)
        ids0, dists0, _ = index.query_batch(queries, 5)
        # Half the batches ask the index, half a runtime; every batch runs
        # as 3-row shards and the kernels run on two threads.
        with native_threads(2), ThreadPoolExecutor(max_workers=8) as pool, \
                shard_rows(index, 3), IndexRuntime(index) as rt:
            futures = [pool.submit(ask, queries, 5)
                       for ask in [index.query_batch, rt.query_batch] * 8]
            for future in futures:
                ids, dists, _ = future.result()
                np.testing.assert_array_equal(ids, ids0)
                np.testing.assert_allclose(dists, dists0)

    def test_queries_during_mutation_are_well_formed(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((300, 8))
        extra = rng.standard_normal((120, 8))
        queries = rng.standard_normal((10, 8))
        index = _bilevel(seed=1).fit(data)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    ids, dists, _ = index.query_batch(queries, 5)
                    assert ids.shape == (10, 5)
                    assert dists.shape == (10, 5)
                    valid = ids >= 0
                    assert np.all(ids[valid] < data.shape[0] + extra.shape[0])
                    assert np.all(np.isfinite(dists[valid]))
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(0, extra.shape[0], 10):
                index.insert(extra[i:i + 10])
            index.delete(np.arange(0, 50, dtype=np.int64))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert errors == []
        # Quiesced index agrees with itself and respects the tombstones.
        ids, _, _ = index.query_batch(data[:4], 5)
        assert not np.any((ids >= 0) & (ids < 50))


class TestSerialParity:
    """Final state after a threaded hammer == a serial replay of the ops.

    Inserts land in thread order, so global ids differ run to run; the
    replay applies the recorded blocks sorted by their assigned ids,
    which reconstructs the exact final data layout.  Deletes only touch
    base ids (alive from the start), so they commute with everything.
    """

    def _run_trial(self, trial: int) -> None:
        rng = np.random.default_rng(1000 + trial)
        base = rng.standard_normal((160, 6))
        queries = rng.standard_normal((8, 6))
        blocks = [rng.standard_normal((4, 6)) for _ in range(4)]
        deletions = [np.arange(10 * i, 10 * i + 5, dtype=np.int64)
                     for i in range(2)]

        hammered = _bilevel(seed=trial).fit(base)
        threaded = IndexRuntime(hammered)
        recorded = []

        def do_insert(block):
            recorded.append((hammered.insert(block), block))

        ops = ([lambda b=b: do_insert(b) for b in blocks] +
               [lambda d=d: hammered.delete(d) for d in deletions] +
               [lambda: threaded.query_batch(queries, 5)] * 2)
        order = rng.permutation(len(ops))
        with ThreadPoolExecutor(max_workers=4) as pool, threaded, \
                shard_rows(hammered, 3):
            done, _ = wait([pool.submit(ops[i]) for i in order])
        for future in done:
            future.result()  # re-raise anything a thread swallowed

        replay = _bilevel(seed=trial).fit(base)
        for ids, block in sorted(recorded, key=lambda r: int(r[0][0])):
            got = replay.insert(block)
            np.testing.assert_array_equal(got, ids)
        for dead in deletions:
            replay.delete(dead)

        ids_h, dists_h, _ = hammered.query_batch(queries, 5)
        ids_r, dists_r, _ = replay.query_batch(queries, 5)
        np.testing.assert_array_equal(ids_h, ids_r,
                                      err_msg=f"trial {trial}: id mismatch")
        np.testing.assert_allclose(dists_h, dists_r,
                                   err_msg=f"trial {trial}: distance mismatch")

    def test_randomized_interleavings_match_serial_replay(self):
        for trial in range(N_TRIALS):
            self._run_trial(trial)


class TestInsertsRacingReads:
    """``insert`` appends behind what readers hold and publishes in an
    order they can rely on: norms, ids and mask, then the rows, then the
    layout snapshot.  A batched read takes the snapshot first and the row
    count after, so every id ``rank_topk`` meets is a row it may read."""

    @staticmethod
    def _checked_union(monkeypatch):
        """Make every ``rank_topk`` call assert what it was handed."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            kernels = registry.load_kernels()
        rank, calls = kernels.rank_topk, []

        def checked(data, sq_norms, queries, spans, n_rows, deleted, k):
            top = max((int(ids.max()) for ids in spans.arrays if ids.size),
                      default=-1)
            calls.append((top, n_rows))
            assert top < n_rows, f"id {top} handed to a {n_rows}-row rank"
            return rank(data, sq_norms, queries, spans, n_rows, deleted, k)

        monkeypatch.setattr(kernels, "rank_topk", checked, raising=False)
        return calls

    def test_insert_between_the_layouts_and_the_row_count(self, monkeypatch):
        # Deterministic schedule: an insert lands after the batch took the
        # layout snapshot and before it read the row count.
        rng = np.random.default_rng(3)
        data = rng.standard_normal((220, 8))
        index = StandardLSH(bucket_width=8.0, n_tables=3,
                            seed=3).fit(data[:200])
        want_ids, want_dists, _ = StandardLSH(
            bucket_width=8.0, n_tables=3, seed=3).fit(data[:200]).query_batch(
                data[200:], 1)
        calls = self._checked_union(monkeypatch)
        probe_rows = index_module._LSHPlan._probe_rows
        pending = [data[200:]]

        def probe_after_insert(plan, *args, **kwargs):
            if pending:
                index.insert(pending.pop())
            return probe_rows(plan, *args, **kwargs)

        monkeypatch.setattr(index_module._LSHPlan, "_probe_rows",
                            probe_after_insert)
        ids, dists, _ = index.query_batch(data[200:], 1)
        # Every table's layouts came from one publication, all before the
        # insert; the row count was read after it.  The read is the
        # pre-insert index's, row for row.
        assert calls == [(199, 220)]
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dists, want_dists)
        # The next read takes the insert's publication.
        ids, dists, _ = index.query_batch(data[200:], 1)
        assert calls[1:] == [(219, 220)]
        np.testing.assert_array_equal(ids[:, 0], np.arange(200, 220))
        assert not dists[:, 0].any()

    def test_inserts_racing_batched_reads_stay_inside_the_bitmap(
            self, monkeypatch):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((750, 8))
        queries = points[rng.integers(0, 750, size=24)]
        index = StandardLSH(bucket_width=8.0, n_tables=4,
                            seed=4).fit(points[:300])
        index.query_batch(queries, 5)             # norms cached from here on
        calls = self._checked_union(monkeypatch)
        stop, errors = threading.Event(), []
        # Half the readers ask the index, half a runtime, every batch as
        # 5-row shards: each shard takes its own layouts-then-row-count
        # snapshot.
        monkeypatch.setattr(executor, "SHARD_LOOKUP_ROWS",
                            5 * index.execution_plan().lookups_per_row())
        threaded = IndexRuntime(index)

        def reader(ask):
            try:
                while not stop.is_set():
                    ids, dists, _ = ask(queries, 5)
                    for row in range(queries.shape[0]):
                        hit = ids[row] >= 0
                        # An answer's distance is the true one: the rows
                        # it ranked were complete when it saw them.
                        np.testing.assert_allclose(
                            dists[row, hit], np.linalg.norm(
                                points[ids[row, hit]] - queries[row], axis=1),
                            atol=1e-9)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader, args=(ask,))
                   for ask in (index.query_batch, threaded.query_batch) * 2]
        try:
            for thread in readers:
                thread.start()
            # Three rows at a time crosses every reallocation of the spare
            # capacity and several overlay rebuilds.
            for start in range(300, 750, 3):
                index.insert(points[start:start + 3])
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
            threaded.close()
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert len(calls) > 1 and calls[-1][1] <= 750
        # Quiesced, the index answers like one fitted on everything.
        ids, dists, _ = index.query_batch(points[740:], 1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(740, 750))
        assert not dists[:, 0].any()

    def test_read_racing_insert_keeps_one_norm_per_row(self, monkeypatch):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((502, 8))
        index = StandardLSH(bucket_width=8.0, n_tables=2,
                            seed=5).fit(data[:500])
        index.query_batch(data[:3], 2)            # fills the norm cache
        full_passes = []
        rowdot = index_module.tree_rowdot

        def counting_rowdot(a, b):
            if a.shape[0] >= 500:
                full_passes.append(a.shape[0])
            return rowdot(a, b)

        monkeypatch.setattr(index_module, "tree_rowdot", counting_rowdot)
        store = index._store
        lock = store._lock

        class InsertFirst:
            """The store lock, with an ``insert`` scheduled after a
            reader took its snapshot of the rows and before it gets the
            lock."""

            def __enter__(self):
                store._lock = lock
                index.insert(data[500:])
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        store._lock = InsertFirst()
        norms = store.point_sq_norms()
        # The reader saw 500 rows and found the norms already two longer
        # — accepted as they are.  Nobody summed the whole matrix again.
        assert store.data.shape[0] == 502 and norms.shape == (502,)
        index.query_batch(data[:3], 2)
        assert full_passes == []
        assert store.sq_norms.shape == (502,)
        assert np.array_equal(store.sq_norms.view(np.int64),
                              tree_rowdot(data, data).view(np.int64))


class TestTableOverlayRaces:
    """LSHTable.add_all (re-sorting the overlay) racing gather_batch."""

    def test_concurrent_add_and_gather(self):
        rng = np.random.default_rng(7)
        base_codes = rng.integers(-3, 4, size=(200, 3))
        extra_codes = rng.integers(-3, 4, size=(160, 3))
        extra_ids = np.arange(200, 360, dtype=np.int64)
        probe = np.unique(np.vstack([base_codes, extra_codes]), axis=0)

        table = LSHTable(base_codes)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    ids, counts = table.gather_batch(probe)
                    assert ids.size == int(counts.sum())
                    assert np.all((ids >= 0) & (ids < 360))
            except Exception as exc:
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        try:
            chunks = [(extra_codes[i:i + 10], extra_ids[i:i + 10])
                      for i in range(0, 160, 10)]
            with ThreadPoolExecutor(max_workers=4) as pool:
                done, _ = wait([pool.submit(LSHTable.add_all, [table], [c], i)
                                for c, i in chunks])
            for future in done:
                future.result()
        finally:
            stop.set()
            for t in readers:
                t.join()
        assert errors == []

        reference = LSHTable(
            np.vstack([base_codes, extra_codes]),
            np.concatenate([np.arange(200, dtype=np.int64), extra_ids]))
        got_ids, got_counts = table.gather_batch(probe)
        ref_ids, ref_counts = reference.gather_batch(probe)
        np.testing.assert_array_equal(got_counts, ref_counts)
        offsets = np.concatenate(([0], np.cumsum(got_counts)))
        for row in range(probe.shape[0]):
            lo, hi = offsets[row], offsets[row + 1]
            assert set(got_ids[lo:hi]) == set(ref_ids[lo:hi])


class TestSeededInterleavings:
    """The same overlay-sort/query race, but on *deterministic* schedules.

    The stress test above relies on the OS scheduler to find a bad
    interleaving; :class:`InterleavingDriver` instead replays a
    seed-determined global order of writer ``add``s and reader
    ``gather_batch``es, so every schedule — including a failing one — is
    exactly reproducible from its seed.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_overlay_merge_query_race(self, seed):
        rng = np.random.default_rng(40 + seed)
        base_codes = rng.integers(-3, 4, size=(60, 3))
        extra_codes = rng.integers(-3, 4, size=(40, 3))
        extra_ids = np.arange(60, 100, dtype=np.int64)
        probe = np.unique(np.vstack([base_codes, extra_codes]), axis=0)

        table = LSHTable(base_codes)
        chunks = [(extra_codes[i:i + 10], extra_ids[i:i + 10])
                  for i in range(0, 40, 10)]
        writer_ops = [lambda c=c, i=i: LSHTable.add_all([table], [c], i)
                      for c, i in chunks]

        def gather():
            ids, counts = table.gather_batch(probe)
            assert ids.size == int(counts.sum())
            assert np.all((ids >= 0) & (ids < 100))
            return int(counts.sum())

        reader_ops = [gather] * 6
        InterleavingDriver(seed=seed).run(
            [writer_ops, list(reader_ops), list(reader_ops)])

        reference = LSHTable(
            np.vstack([base_codes, extra_codes]),
            np.concatenate([np.arange(60, dtype=np.int64), extra_ids]))
        got_ids, got_counts = table.gather_batch(probe)
        ref_ids, ref_counts = reference.gather_batch(probe)
        np.testing.assert_array_equal(got_counts, ref_counts)
        offsets = np.concatenate(([0], np.cumsum(got_counts)))
        for row in range(probe.shape[0]):
            lo, hi = offsets[row], offsets[row + 1]
            assert set(got_ids[lo:hi]) == set(ref_ids[lo:hi])

    def test_same_seed_replays_same_schedule(self):
        def record(tag, log):
            return lambda: log.append(tag)

        logs = []
        for _ in range(2):
            log = []
            InterleavingDriver(seed=5).run([
                [record(f"a{i}", log) for i in range(4)],
                [record(f"b{i}", log) for i in range(4)],
            ])
            logs.append(log)
        assert logs[0] == logs[1]
