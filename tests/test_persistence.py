"""Unit tests for index persistence (round trips, checksums, atomicity)."""

import json
import os

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.forest import LSHForest
from repro.lsh.index import StandardLSH
from repro.persistence import load_index, save_index, verify_index
from repro.resilience import (
    CorruptIndexError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    injected_faults,
)


def _roundtrip(index, tmp_path, name="index.npz"):
    path = str(tmp_path / name)
    save_index(index, path)
    return load_index(path)


def _same_results(a, b, queries, k=5):
    ids_a, dists_a, stats_a = a.query_batch(queries, k)
    ids_b, dists_b, stats_b = b.query_batch(queries, k)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_allclose(dists_a, dists_b)
    np.testing.assert_array_equal(stats_a.n_candidates, stats_b.n_candidates)


class TestStandardRoundtrip:
    def test_plain(self, gaussian_data, gaussian_queries, tmp_path):
        index = StandardLSH(bucket_width=8.0, n_tables=4, seed=0).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        _same_results(index, loaded, gaussian_queries)

    def test_with_multiprobe_and_hierarchy(self, gaussian_data,
                                           gaussian_queries, tmp_path):
        index = StandardLSH(bucket_width=4.0, n_tables=3, n_probes=8,
                            hierarchy=True, seed=1).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        assert loaded.use_hierarchy and loaded.n_probes == 8
        _same_results(index, loaded, gaussian_queries)

    def test_e8_lattice(self, gaussian_data, gaussian_queries, tmp_path):
        index = StandardLSH(bucket_width=8.0, n_tables=2, lattice="e8",
                            seed=2).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        assert loaded.lattice_kind == "e8"
        _same_results(index, loaded, gaussian_queries)

    def test_adaptive_probing_preserved(self, gaussian_data,
                                        gaussian_queries, tmp_path):
        index = StandardLSH(bucket_width=4.0, n_tables=2, n_probes=10,
                            adaptive_probing=True, probe_confidence=0.7,
                            seed=11).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        assert loaded.adaptive_probing
        assert loaded.probe_confidence == 0.7
        _same_results(index, loaded, gaussian_queries)

    def test_external_ids_preserved(self, gaussian_data, tmp_path):
        ids_ext = np.arange(gaussian_data.shape[0]) + 777
        index = StandardLSH(bucket_width=8.0, seed=3).fit(gaussian_data,
                                                          ids=ids_ext)
        loaded = _roundtrip(index, tmp_path)
        got, _ = loaded.query(gaussian_data[0], 1)
        assert got[0] == 777


class TestBilevelRoundtrip:
    def test_rptree_partitioner(self, gaussian_data, gaussian_queries,
                                tmp_path):
        index = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                         seed=4)).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        # Routing must be identical after restore.
        np.testing.assert_array_equal(
            index.partitioner.assign(gaussian_queries),
            loaded.partitioner.assign(gaussian_queries))
        _same_results(index, loaded, gaussian_queries)

    def test_kmeans_partitioner(self, gaussian_data, gaussian_queries,
                                tmp_path):
        index = BiLevelLSH(BiLevelConfig(n_groups=4, partitioner="kmeans",
                                         bucket_width=8.0,
                                         seed=5)).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        _same_results(index, loaded, gaussian_queries)

    def test_all_features_enabled(self, gaussian_data, gaussian_queries,
                                  tmp_path):
        cfg = BiLevelConfig(n_groups=4, bucket_width=4.0, n_tables=3,
                            lattice="e8", n_probes=6, hierarchy=True,
                            scale_widths=True, n_jobs=2, max_batch_rows=128,
                            seed=6)
        index = BiLevelLSH(cfg).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        assert loaded.config == cfg  # every field, n_jobs and the row bound too
        assert loaded.group_widths == index.group_widths
        _same_results(index, loaded, gaussian_queries)

    def test_archive_without_newer_config_fields_loads_defaults(
            self, gaussian_data, gaussian_queries, tmp_path):
        # Archives written before the config was stored whole carry no
        # n_jobs / max_batch_rows; they load with the dataclass defaults.
        cfg = BiLevelConfig(n_groups=2, bucket_width=8.0, n_tables=2, seed=9)
        index = BiLevelLSH(cfg).fit(gaussian_data)
        path = str(tmp_path / "old.npz")
        save_index(index, path)

        def strip(meta, arrays):
            del meta["body"]["config"]["n_jobs"]
            del meta["body"]["config"]["max_batch_rows"]

        _rewrite_archive(path, strip)
        loaded = load_index(path)
        assert loaded.config == cfg
        _same_results(index, loaded, gaussian_queries)

    def test_mean_rule_distance_splits_roundtrip(self, tmp_path):
        # Force a distance split (core + far shell) and verify routing.
        rng = np.random.default_rng(7)
        core = rng.standard_normal((400, 8)) * 0.01
        shell = rng.standard_normal((40, 8))
        shell = 300.0 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
        data = np.vstack([core, shell])
        index = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                         seed=8)).fit(data)
        loaded = _roundtrip(index, tmp_path)
        np.testing.assert_array_equal(index.partitioner.assign(data),
                                      loaded.partitioner.assign(data))


class TestForestRoundtrip:
    def test_roundtrip(self, gaussian_data, gaussian_queries, tmp_path):
        forest = LSHForest(n_trees=4, max_depth=16, seed=9).fit(gaussian_data)
        loaded = _roundtrip(forest, tmp_path)
        _same_results(forest, loaded, gaussian_queries)


class TestArchiveKeys:
    """The v2 format is these keys, written out literally: a change to
    ``StandardLSH.state()`` must not rename what is on disk."""

    def _keys(self, index, tmp_path):
        path = str(tmp_path / "keys.npz")
        save_index(index, path)
        with np.load(path) as archive:
            return sorted(archive.files)

    def test_standard_two_tables(self, gaussian_data, tmp_path):
        index = StandardLSH(bucket_width=8.0, n_tables=2, hierarchy=True,
                            seed=20).fit(gaussian_data)
        live = ["__meta__", "index/data",
                "index/family0/directions", "index/family0/offsets_unit",
                "index/family1/directions", "index/family1/offsets_unit",
                "index/ids"]
        assert self._keys(index, tmp_path) == live
        index.delete([1, 2])
        assert self._keys(index, tmp_path) == sorted(live + ["index/deleted"])

    def test_bilevel_two_groups(self, gaussian_data, tmp_path):
        index = BiLevelLSH(BiLevelConfig(n_groups=2, bucket_width=8.0,
                                         n_tables=2, seed=21)
                           ).fit(gaussian_data)
        index.delete(index.group_indexes[1]._ids[:3])
        assert self._keys(index, tmp_path) == [
            "__meta__", "data",
            "group0/family0/directions", "group0/family0/offsets_unit",
            "group0/family1/directions", "group0/family1/offsets_unit",
            "group0/ids",
            "group1/deleted",
            "group1/family0/directions", "group1/family0/offsets_unit",
            "group1/family1/directions", "group1/family1/offsets_unit",
            "group1/ids",
            "tree/leaf_concat", "tree/leaf_sizes", "tree/vectors"]


class TestErrors:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_index(StandardLSH(), str(tmp_path / "x.npz"))

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_index(object(), str(tmp_path / "x.npz"))

    def test_version_check(self, gaussian_data, tmp_path):
        import json

        path = str(tmp_path / "x.npz")
        index = StandardLSH(bucket_width=8.0, seed=10).fit(gaussian_data)
        save_index(index, path)
        # Corrupt the version field.
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        meta["version"] = 999
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_index(path)


def _rewrite_archive(path, mutate):
    """Load every entry, apply ``mutate(meta, arrays)``, write back."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
    mutate(meta, arrays)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


class TestVerifiedPersistence:
    @pytest.fixture()
    def saved(self, gaussian_data, tmp_path):
        path = str(tmp_path / "x.npz")
        index = StandardLSH(bucket_width=8.0, n_tables=2,
                            seed=12).fit(gaussian_data)
        save_index(index, path)
        return path, index

    def test_verify_index_report(self, saved):
        path, _ = saved
        report = verify_index(path)
        assert report["path"] == path and report["version"] == 2
        assert report["checksummed"] is True
        assert report["n_verified"] == report["n_arrays"] > 0

    def test_flipped_bytes_are_caught(self, saved):
        path, _ = saved

        def corrupt(meta, arrays):
            damaged = arrays["index/data"].copy()
            damaged.flat[0] += 1.0
            arrays["index/data"] = damaged

        _rewrite_archive(path, corrupt)
        with pytest.raises(CorruptIndexError) as err:
            load_index(path)
        assert err.value.key == "index/data"
        with pytest.raises(CorruptIndexError):
            verify_index(path)

    def test_missing_array_is_caught(self, saved):
        path, _ = saved
        _rewrite_archive(path, lambda meta, arrays: arrays.pop("index/ids"))
        with pytest.raises(CorruptIndexError) as err:
            load_index(path)
        assert err.value.key == "index/ids"

    def test_dtype_drift_is_caught(self, saved):
        path, _ = saved

        def retype(meta, arrays):
            arrays["index/ids"] = arrays["index/ids"].astype(np.int32)

        _rewrite_archive(path, retype)
        with pytest.raises(CorruptIndexError, match="index/ids"):
            load_index(path)

    def test_v1_archive_loads_without_checksums(self, saved, gaussian_data,
                                                gaussian_queries):
        path, index = saved

        def downgrade(meta, arrays):
            meta["version"] = 1
            meta.pop("checksums", None)

        _rewrite_archive(path, downgrade)
        loaded = load_index(path)
        _same_results(index, loaded, gaussian_queries)
        report = verify_index(path)
        assert report["checksummed"] is False and report["n_verified"] == 0

    def test_save_normalizes_missing_suffix(self, gaussian_data, tmp_path):
        index = StandardLSH(bucket_width=8.0, n_tables=2,
                            seed=13).fit(gaussian_data)
        save_index(index, str(tmp_path / "noext"))
        assert (tmp_path / "noext.npz").exists()
        assert not (tmp_path / "noext").exists()

    def test_injected_load_corruption_is_caught(self, saved):
        path, _ = saved
        plan = FaultPlan([FaultSpec(site="persistence.load",
                                    kind="corruption", max_hits=1)], seed=0)
        with injected_faults(plan):
            with pytest.raises(CorruptIndexError):
                load_index(path)
        # The plan is exhausted: the very next load is clean.
        load_index(path)

    def test_crashed_save_preserves_previous_file(self, saved, gaussian_data,
                                                  gaussian_queries,
                                                  tmp_path):
        path, index = saved
        before = open(path, "rb").read()
        replacement = StandardLSH(bucket_width=4.0, n_tables=3,
                                  seed=14).fit(gaussian_data)
        plan = FaultPlan([FaultSpec(site="persistence.save",
                                    max_hits=1)], seed=0)
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                save_index(replacement, path)
        assert open(path, "rb").read() == before
        assert not os.path.exists(path + ".tmp")
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []
        _same_results(index, load_index(path), gaussian_queries)

    def test_save_after_crash_succeeds(self, saved, gaussian_data,
                                       gaussian_queries):
        path, _ = saved
        replacement = StandardLSH(bucket_width=4.0, n_tables=3,
                                  seed=14).fit(gaussian_data)
        plan = FaultPlan([FaultSpec(site="persistence.save",
                                    max_hits=1)], seed=0)
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                save_index(replacement, path)
            save_index(replacement, path)  # plan exhausted: commit goes through
        _same_results(replacement, load_index(path), gaussian_queries)


def test_loaded_arrays_own_their_data(gaussian_data, tmp_path):
    """Regression for the buffer-ownership rule in ``_read_archive``.

    Every array handed out of the (closed) npz archive must own its
    data — none may be a view over a buffer whose lifetime is managed
    elsewhere (the ``np.frombuffer``-over-a-closed-buffer dangling-view
    pattern).  If ``_read_archive``
    ever switched to an mmap-backed load, these assertions fail before
    any user sees a torn read.
    """
    from repro.persistence import _read_archive

    index = StandardLSH(n_tables=4, bucket_width=6.0, seed=3).fit(
        gaussian_data)
    path = str(tmp_path / "own.npz")
    save_index(index, path)
    _, arrays = _read_archive(path)
    assert arrays, "archive should contain index arrays"
    for key, arr in arrays.items():
        base = arr
        while base.base is not None:
            base = base.base
        assert not isinstance(base, np.memmap), \
            f"{key} is mmap-backed; it will not survive the closed archive"
        assert base.flags.owndata, \
            f"{key} does not own its data (dangling-buffer hazard)"
    # The archive context is closed: a full reload must still read clean.
    loaded = load_index(path)
    np.testing.assert_array_equal(loaded._data, index._data)


@pytest.mark.parametrize("arr", [
    np.arange(24, dtype=np.float64).reshape(4, 6),
    np.zeros((0, 3)), np.zeros((3, 0), dtype=np.int64), np.array(5.0),
    np.array([True, False, True]), np.arange(7, dtype=np.uint8),
], ids=["matrix", "no-rows", "no-cols", "0-d", "bool", "uint8"])
def test_in_place_checksum_matches_the_stored_one(arr):
    """``_crc32`` reads the array in place; archives written when the
    checksum was taken over ``tobytes()`` must keep verifying."""
    import zlib

    from repro.persistence import _crc32

    arr = np.ascontiguousarray(arr)
    assert _crc32(arr) == zlib.crc32(arr.tobytes())
