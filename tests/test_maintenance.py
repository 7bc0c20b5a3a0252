"""Unit tests for repro.maintenance: WAL, compactor, drift, recovery."""

import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from repro.maintenance import (
    FSYNC_POLICIES,
    Compactor,
    DriftDetector,
    RecoveryError,
    WriteAheadLog,
    checkpoint,
    read_wal,
    recover_index,
    replay_records,
)
from repro.persistence import load_index, save_index
from repro.resilience import FaultPlan, FaultSpec, injected_faults


@pytest.fixture
def points():
    rng = np.random.default_rng(7)
    return rng.standard_normal((250, 12))


def _fitted(points, **kw):
    kw.setdefault("n_hashes", 4)
    kw.setdefault("n_tables", 3)
    kw.setdefault("bucket_width", 4.0)
    kw.setdefault("seed", 1)
    return StandardLSH(**kw).fit(points)


def _same_answers(a, b, queries, k=5):
    ra = a.query_batch(queries, k)
    rb = b.query_batch(queries, k)
    np.testing.assert_array_equal(ra[0], rb[0])
    np.testing.assert_allclose(ra[1], rb[1])


def _qb_ids(index, queries, k):
    return index.query_batch(queries, k)[0]


class TestWalFraming:
    def test_round_trip_insert_delete(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        with WriteAheadLog(path) as wal:
            pts = np.arange(6, dtype=np.float64).reshape(2, 3)
            ids = np.array([10, 11], dtype=np.int64)
            assert wal.append_insert(pts, ids) == 1
            assert wal.append_delete(np.array([10], dtype=np.int64)) == 2
        records, info = read_wal(path)
        assert [r.kind for r in records] == ["insert", "delete"]
        assert [r.lsn for r in records] == [1, 2]
        np.testing.assert_array_equal(records[0].ids, ids)
        np.testing.assert_allclose(records[0].points, pts)
        np.testing.assert_array_equal(records[1].ids, [10])
        assert records[1].points is None
        assert info.last_lsn == 2
        assert info.n_records == 2
        assert info.torn_bytes == 0

    def test_missing_file_reads_empty(self, tmp_path):
        records, info = read_wal(str(tmp_path / "absent.bin"))
        assert records == []
        assert info.n_records == 0
        assert info.last_lsn == 0

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_fsync_policies_accepted(self, tmp_path, fsync):
        path = str(tmp_path / f"wal-{fsync}.bin")
        with WriteAheadLog(path, fsync=fsync) as wal:
            for i in range(40):
                wal.append_delete(np.array([i], dtype=np.int64))
        records, info = read_wal(path)
        assert info.n_records == 40
        assert records[-1].lsn == 40

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(str(tmp_path / "w.bin"), fsync="yolo")

    def test_torn_tail_truncated_and_appendable(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        with WriteAheadLog(path) as wal:
            wal.append_delete(np.array([1], dtype=np.int64))
            wal.append_delete(np.array([2], dtype=np.int64))
        good = os.path.getsize(path)
        with open(path, "ab") as fh:  # torn partial frame from a crash
            fh.write(b"WREC\x99\x00")
        records, info = read_wal(path)
        assert info.n_records == 2
        assert info.torn_bytes == os.path.getsize(path) - good
        # Reopening truncates the torn tail and resumes the LSN sequence.
        with WriteAheadLog(path) as wal:
            assert wal.append_delete(np.array([3], dtype=np.int64)) == 3
        records, info = read_wal(path)
        assert [r.lsn for r in records] == [1, 2, 3]
        assert info.torn_bytes == 0

    def test_corrupted_record_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        with WriteAheadLog(path) as wal:
            wal.append_delete(np.array([1], dtype=np.int64))
            wal.append_delete(np.array([2], dtype=np.int64))
        raw = bytearray(open(path, "rb").read())
        raw[-1] ^= 0xFF  # flip a payload byte of the last record
        open(path, "wb").write(bytes(raw))
        records, info = read_wal(path)
        assert [r.lsn for r in records] == [1]
        assert info.torn_bytes > 0

    def test_reset_drops_covered_prefix_only(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        wal = WriteAheadLog(path)
        for i in range(1, 6):
            wal.append_delete(np.array([i], dtype=np.int64))
        wal.reset(3)
        records, info = read_wal(path)
        assert [r.lsn for r in records] == [4, 5]
        assert info.base_lsn == 3
        # LSNs never rewind after a reset.
        assert wal.append_delete(np.array([9], dtype=np.int64)) == 6
        wal.close()

    def test_closed_wal_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(ValueError):
            wal.append_delete(np.array([1], dtype=np.int64))

    def test_append_fault_injects_torn_record(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        wal = WriteAheadLog(path)
        wal.append_delete(np.array([1], dtype=np.int64))
        plan = FaultPlan([FaultSpec(site="maintenance.append",
                                    kind="corruption", max_hits=1)], seed=0)
        with injected_faults(plan):
            with pytest.raises(OSError):
                wal.append_delete(np.array([2], dtype=np.int64))
        # The injected torn frame is invisible to replay and healed by
        # reopening, exactly like a real crash mid-append.
        records, info = read_wal(path)
        assert [r.lsn for r in records] == [1]
        assert info.torn_bytes > 0
        wal.close()


class TestIndexWalHooks:
    def test_standard_recovery_round_trip(self, tmp_path, points):
        idx = _fitted(points)
        snap = str(tmp_path / "snap.npz")
        save_index(idx, snap)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        rng = np.random.default_rng(3)
        new_ids = idx.insert(rng.standard_normal((30, 12)))
        idx.delete(new_ids[:8])
        idx.insert(rng.standard_normal((4, 12)))
        wal.close()
        recovered, report = recover_index(snap, str(tmp_path / "wal.bin"))
        assert report.applied == 3
        assert report.skipped == 0
        _same_answers(idx, recovered, rng.standard_normal((16, 12)))

    def test_replay_skips_snapshot_covered_records(self, tmp_path, points):
        idx = _fitted(points)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        rng = np.random.default_rng(4)
        idx.insert(rng.standard_normal((10, 12)))
        snap = str(tmp_path / "mid.npz")
        save_index(idx, snap)  # snapshot at LSN 1, WAL not truncated
        ids = idx.insert(rng.standard_normal((5, 12)))
        idx.delete(ids[:2])
        wal.close()
        recovered, report = recover_index(snap, str(tmp_path / "wal.bin"))
        assert report.snapshot_lsn == 1
        assert report.skipped == 1  # the pre-snapshot insert is not re-applied
        assert report.applied == 2
        assert recovered.n_points == idx.n_points  # no duplicate rows
        _same_answers(idx, recovered, rng.standard_normal((16, 12)))

    def test_delete_without_matches_logs_nothing(self, tmp_path, points):
        idx = _fitted(points)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        assert idx.delete(np.array([10_000], dtype=np.int64)) == 0
        wal.close()
        records, _ = read_wal(str(tmp_path / "wal.bin"))
        assert records == []

    def test_bilevel_recovery_round_trip(self, tmp_path, points):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                       seed=0)).fit(points)
        snap = str(tmp_path / "snap.npz")
        save_index(idx, snap)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        rng = np.random.default_rng(5)
        ids = idx.insert(rng.standard_normal((25, 12)))
        idx.delete(ids[:6])
        wal.close()
        recovered, report = recover_index(snap, str(tmp_path / "wal.bin"))
        assert report.applied == 2
        assert recovered.n_points == idx.n_points
        _same_answers(idx, recovered, rng.standard_normal((16, 12)))

    def test_bilevel_id_mismatch_raises(self, tmp_path, points):
        idx = BiLevelLSH(BiLevelConfig(n_groups=3, bucket_width=4.0,
                                       seed=0)).fit(points)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        idx.insert(np.zeros((2, 12)))
        wal.close()
        records, _ = read_wal(str(tmp_path / "wal.bin"))
        # Replaying onto an index whose id counter is elsewhere must fail
        # loudly instead of silently renumbering acknowledged points.
        fresh = BiLevelLSH(BiLevelConfig(n_groups=3, bucket_width=4.0,
                                         seed=0)).fit(points)
        fresh.insert(np.ones((1, 12)))  # shifts the next assigned id
        with pytest.raises(RecoveryError):
            replay_records(fresh, records, 0)

    def test_checkpoint_truncates_and_resumes(self, tmp_path, points):
        idx = _fitted(points)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        rng = np.random.default_rng(6)
        idx.insert(rng.standard_normal((8, 12)))
        ck = str(tmp_path / "ck.npz")
        lsn = checkpoint(idx, wal, ck)
        assert lsn == 1
        _, info = read_wal(str(tmp_path / "wal.bin"))
        assert info.n_records == 0
        assert info.base_lsn == 1
        ids = idx.insert(rng.standard_normal((3, 12)))
        idx.delete(ids[:1])
        wal.close()
        recovered, report = recover_index(ck, str(tmp_path / "wal.bin"))
        assert report.applied == 2
        _same_answers(idx, recovered, rng.standard_normal((16, 12)))


class TestReviewRegressions:
    """Regressions for the durability review findings."""

    def test_checkpoint_keeps_record_acked_during_save(
            self, tmp_path, points, monkeypatch):
        # save_index captures (snapshot, LSN) under the writer lock but
        # compresses off-lock; a mutation acknowledged in that window
        # advances _applied_lsn past the capture.  The checkpoint must
        # truncate the WAL at the *captured* LSN so the racing record
        # survives into recovery instead of being silently dropped.
        import repro.maintenance.recovery as recovery_mod
        idx = _fitted(points)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        rng = np.random.default_rng(11)
        idx.insert(rng.standard_normal((6, 12)))          # lsn 1
        racing = rng.standard_normal((3, 12))
        real_save = recovery_mod.save_index

        def save_then_race(index, path):
            lsn = real_save(index, path)
            index.insert(racing)                          # lsn 2, acked
            return lsn

        monkeypatch.setattr(recovery_mod, "save_index", save_then_race)
        ck = str(tmp_path / "ck.npz")
        assert recovery_mod.checkpoint(idx, wal, ck) == 1
        assert [r.lsn for r in wal.records()] == [2]
        wal.close()
        recovered, report = recover_index(ck, str(tmp_path / "wal.bin"))
        assert report.applied == 1
        _same_answers(idx, recovered, rng.standard_normal((16, 12)))

    def test_failed_append_rolls_back_to_clean_prefix(
            self, tmp_path, monkeypatch):
        # A real append failure (e.g. ENOSPC during the fsync) must not
        # leave the handle positioned past garbage bytes: the next
        # append has to extend a clean prefix, or every later acked
        # record would be invisible to replay.
        from repro.maintenance import wal as wal_mod
        path = str(tmp_path / "wal.bin")
        wal = WriteAheadLog(path, fsync="always")
        wal.append_delete(np.array([1], dtype=np.int64))

        def failing_fsync(fd):
            raise OSError("injected ENOSPC")

        monkeypatch.setattr(wal_mod.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="ENOSPC"):
            wal.append_delete(np.array([2], dtype=np.int64))
        monkeypatch.undo()
        # The failed record was rolled back, so its LSN is reused and
        # the file decodes end to end with no torn bytes.
        assert wal.append_delete(np.array([3], dtype=np.int64)) == 2
        wal.close()
        records, info = read_wal(path)
        assert [r.lsn for r in records] == [1, 2]
        np.testing.assert_array_equal(records[1].ids, [3])
        assert info.torn_bytes == 0

    def test_injected_torn_append_poisons_handle(self, tmp_path):
        # The injected fault leaves garbage on disk (modelling a crash
        # mid-append); the surviving handle must refuse further appends
        # — a record written past the garbage would be acknowledged yet
        # unreachable by replay.  Reopening heals the tail as usual.
        path = str(tmp_path / "wal.bin")
        wal = WriteAheadLog(path)
        wal.append_delete(np.array([1], dtype=np.int64))
        plan = FaultPlan([FaultSpec(site="maintenance.append",
                                    kind="corruption", max_hits=1)], seed=0)
        with injected_faults(plan):
            with pytest.raises(OSError):
                wal.append_delete(np.array([2], dtype=np.int64))
        with pytest.raises(ValueError, match="torn"):
            wal.append_delete(np.array([3], dtype=np.int64))
        wal.close()
        with WriteAheadLog(path) as healed:
            assert healed.append_delete(np.array([3], dtype=np.int64)) == 2
        records, info = read_wal(path)
        assert [r.lsn for r in records] == [1, 2]
        assert info.torn_bytes == 0

    def test_fresh_wal_attached_to_restored_index_advances_lsns(
            self, tmp_path, points):
        # Attaching a brand-new WAL to an index restored from a
        # snapshot at LSN n must hand out LSNs above n — a record at
        # LSN <= n reads as snapshot-covered and replay would silently
        # drop the acknowledged write.
        idx = _fitted(points)
        with WriteAheadLog(str(tmp_path / "wal1.bin")) as wal1:
            idx.attach_wal(wal1)
            rng = np.random.default_rng(12)
            idx.insert(rng.standard_normal((5, 12)))      # lsn 1
            idx.delete(np.array([0], dtype=np.int64))     # lsn 2
            snap = str(tmp_path / "snap.npz")
            save_index(idx, snap)                         # wal_lsn 2
        restored = load_index(snap)
        wal2 = WriteAheadLog(str(tmp_path / "wal2.bin"))  # fresh log
        restored.attach_wal(wal2)
        restored.insert(rng.standard_normal((4, 12)))
        wal2.close()
        records, _ = read_wal(str(tmp_path / "wal2.bin"))
        assert [r.lsn for r in records] == [3]
        recovered, report = recover_index(snap, str(tmp_path / "wal2.bin"))
        assert report.applied == 1
        assert recovered.n_points == restored.n_points
        _same_answers(restored, recovered, rng.standard_normal((16, 12)))


class TestDeleteMaskRegression:
    def test_delete_after_insert_after_delete(self, points):
        # Regression: the tombstone mask must grow to the current row
        # count, not stay sized to the snapshot of the first delete.
        idx = _fitted(points)
        first = idx.delete(np.array([0], dtype=np.int64))
        assert first == 1
        new_ids = idx.insert(points[:10] + 100.0)
        assert idx.delete(new_ids[-1:]) == 1
        assert idx._deleted.shape[0] == idx._ids.shape[0]
        ids = _qb_ids(idx, points[:1] + 100.0, 3)
        assert 0 not in ids[0]
        assert new_ids[-1] not in ids[0]
        # The surviving re-inserted rows stay findable.
        ids2, dists2 = idx.query(points[1] + 100.0, 1)
        assert ids2[0] == new_ids[1]
        assert dists2[0] == 0.0

    def test_shorter_stale_mask_is_grown(self, points):
        idx = _fitted(points)
        idx.delete(np.array([3], dtype=np.int64))
        # Simulate a mask restored from an older snapshot (shorter than
        # the current row count after an insert).
        idx._store.deleted = idx._deleted[:100].copy()
        idx.insert(points[:5] + 50.0)
        assert idx.delete(np.array([4], dtype=np.int64)) == 1
        assert idx._deleted.shape[0] == idx._ids.shape[0]
        assert bool(idx._deleted[4])


class TestCompactor:
    def test_is_alive_tracks_drain_thread(self):
        compactor = Compactor()
        assert compactor.is_alive()
        compactor.close()
        assert not compactor.is_alive()

    def test_compact_folds_overlay_and_tombstones(self, points):
        idx = _fitted(points)
        rng = np.random.default_rng(8)
        extra = rng.standard_normal((20, 12))
        ids = idx.insert(extra)
        idx.delete(ids[:5])
        before = idx.query_batch(points[:16], k=5)
        assert idx.compact() is True
        assert all(t.n_extra == 0 for t in idx._tables)
        # Tombstoned rows are physically absent from the new tables.
        assert all(t.n_points == idx._ids.shape[0] - 5 for t in idx._tables)
        after = idx.query_batch(points[:16], k=5)
        np.testing.assert_array_equal(before[0], after[0])

    def test_background_hint_replaces_synchronous_rebuild(self, points):
        idx = _fitted(points[:100])
        with Compactor() as compactor:
            idx.attach_compactor(compactor)
            idx.insert(points[100:220])  # overlay debt over the trigger
            # The writer did not stall on a rebuild: overlay still live
            # until the background task lands.
            compactor.drain()
            assert compactor.stats()["installed"] >= 1
            assert all(t.n_extra == 0 for t in idx._tables)
            ids, dists = idx.query(points[150], 1)
            assert dists[0] == 0.0

    def test_stale_build_not_installed(self, points, monkeypatch):
        idx = _fitted(points)
        idx.insert(points[:5] + 2.0)
        before_tables = list(idx._tables)
        original = idx._tables[0].compacted
        raced = {"done": False}

        def racing_compacted(drop=None):
            # A writer lands between the snapshot and the install.
            if not raced["done"]:
                raced["done"] = True
                idx.insert(points[5:6] + 3.0)
            return original(drop=drop)

        monkeypatch.setattr(idx._tables[0], "compacted", racing_compacted)
        assert idx._compact_once() is False
        assert idx._tables[0] is before_tables[0]  # stale build discarded
        # The retry loop absorbs the race: the final attempt holds the
        # writer lock, so compact() always lands.
        assert idx.compact() is True
        assert all(t.n_extra == 0 for t in idx._tables)

    def test_compactor_records_failures_without_dying(self, points):
        class Exploding:
            def compact(self, max_retries: int = 4) -> bool:
                raise RuntimeError("boom")

        with Compactor() as compactor:
            assert compactor.request_compaction(Exploding())
            compactor.drain()
            assert compactor.stats()["failed"] == 1
            assert len(compactor.errors) == 1
            # The thread survived: a follow-up task still executes.
            idx = _fitted(points)
            rng = np.random.default_rng(9)
            idx.insert(rng.standard_normal((5, 12)))
            assert compactor.request_compaction(idx)
            compactor.drain()
            assert compactor.stats()["installed"] == 1

    def test_compact_fault_aborts_task(self, points):
        idx = _fitted(points)
        idx.insert(points[:5] + 1.0)
        plan = FaultPlan([FaultSpec(site="maintenance.compact",
                                    kind="corruption", max_hits=1)], seed=0)
        with injected_faults(plan):
            with Compactor() as compactor:
                assert compactor.request_compaction(idx)
                compactor.drain()
                stats = compactor.stats()
        assert stats["aborted"] == 1
        assert stats["installed"] == 0
        assert any(t.n_extra for t in idx._tables)  # nothing was swapped

    def test_pending_dedupe(self, points):
        idx = _fitted(points)

        class Blocking:
            def __init__(self):
                self.gate = threading.Event()

            def compact(self, max_retries: int = 4) -> bool:
                self.gate.wait(timeout=10.0)
                return True

        blocker = Blocking()
        with Compactor() as compactor:
            assert compactor.request_compaction(blocker)
            # Second hint for an index whose task is queued is a no-op...
            assert compactor.request_compaction(idx)
            assert not compactor.request_compaction(idx)
            blocker.gate.set()
            compactor.drain()
        assert not compactor.request_compaction(idx)  # closed


class TestDriftDetector:
    def _bilevel(self, points):
        return BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                        seed=0)).fit(points)

    def test_occupancy_drift_schedules_group_rebuild(self, points):
        idx = self._bilevel(points)
        # Overload one group with inserts routed to its region.
        g0 = idx.group_indexes[0]
        heavy = np.repeat(g0._data[:1], 600, axis=0)
        idx.insert(heavy + np.linspace(0, 0.01, 600)[:, None])
        with Compactor() as compactor:
            detector = DriftDetector(idx, compactor, occupancy_threshold=2.0)
            signals = detector.survey()
            assert any(s.drifted for s in signals)
            drifted = detector.check()
            assert drifted
            compactor.drain()
            assert compactor.stats()["installed"] >= 1

    def test_escalation_drift_uses_obs_counters(self, points):
        idx = self._bilevel(points)
        registry = obs.MetricsRegistry()
        registry.counter(obs.GROUP_QUERIES_TOTAL, "q").labels(group=1).inc(80)
        registry.counter(obs.GROUP_ESCALATIONS_TOTAL, "e").labels(
            group=1).inc(60)
        with Compactor() as compactor:
            detector = DriftDetector(idx, compactor, min_queries=50,
                                     escalation_threshold=0.5)
            signals = detector.survey(registry)
            assert signals[1].drifted
            assert not signals[0].drifted
            assert detector.check(registry) == [1]

    def test_threshold_validation(self, points):
        idx = self._bilevel(points)
        with Compactor() as compactor:
            with pytest.raises(ValueError):
                DriftDetector(idx, compactor, escalation_threshold=0.0)
            with pytest.raises(ValueError):
                DriftDetector(idx, compactor, occupancy_threshold=1.0)


class TestSaveRacingCompaction:
    def test_save_during_background_compaction_is_consistent(
            self, tmp_path, points):
        idx = _fitted(points[:120])
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        rng = np.random.default_rng(11)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                ids = idx.insert(rng.standard_normal((4, 12)))
                idx.delete(ids[:1])

        with Compactor() as compactor:
            idx.attach_compactor(compactor)
            writer = threading.Thread(target=hammer)
            writer.start()
            try:
                for i in range(5):
                    path = str(tmp_path / f"racy{i}.npz")
                    save_index(idx, path)
                    # Every racing snapshot verifies clean and replays to
                    # a queryable index.
                    loaded = load_index(path)
                    assert loaded.n_points <= idx.n_points
                    loaded.query_batch(points[:4], k=3)
            finally:
                stop.set()
                writer.join(timeout=10.0)
        wal.close()

    @pytest.mark.concurrency
    def test_writers_queries_and_compaction_interleave(self, points):
        idx = _fitted(points[:150])
        rng = np.random.default_rng(12)
        stop = threading.Event()
        errors = []

        def writer():
            try:
                while not stop.is_set():
                    ids = idx.insert(rng.standard_normal((3, 12)))
                    idx.delete(ids[:1])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                while not stop.is_set():
                    out = idx.query_batch(points[:8], k=3)
                    assert out[0].shape == (8, 3)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with Compactor() as compactor:
            idx.attach_compactor(compactor)
            threads = [threading.Thread(target=writer),
                       threading.Thread(target=reader),
                       threading.Thread(target=reader)]
            for t in threads:
                t.start()
            for _ in range(10):
                idx.compact()
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert errors == []


class TestPersistedTombstones:
    def test_deleted_mask_round_trips(self, tmp_path, points):
        idx = _fitted(points)
        idx.delete(np.arange(5, dtype=np.int64))
        path = str(tmp_path / "tomb.npz")
        save_index(idx, path)
        loaded = load_index(path)
        np.testing.assert_array_equal(loaded._deleted, idx._deleted)
        ids = _qb_ids(loaded, points[:5], 3)
        assert not np.isin(np.arange(5), ids).any()

    def test_wal_lsn_round_trips(self, tmp_path, points):
        idx = _fitted(points)
        wal = WriteAheadLog(str(tmp_path / "wal.bin"))
        idx.attach_wal(wal)
        idx.insert(points[:3] + 1.0)
        path = str(tmp_path / "lsn.npz")
        save_index(idx, path)
        wal.close()
        loaded = load_index(path)
        assert loaded._applied_lsn == 1
