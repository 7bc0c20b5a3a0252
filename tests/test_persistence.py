"""Unit tests for index persistence (round trips, checksums, atomicity)."""

import json
import os

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
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
                            scale_widths=True, seed=6)
        index = BiLevelLSH(cfg).fit(gaussian_data)
        loaded = _roundtrip(index, tmp_path)
        assert loaded.config == cfg  # every field
        assert loaded.group_widths == index.group_widths
        _same_results(index, loaded, gaussian_queries)

    def test_archive_without_newer_config_fields_loads_defaults(
            self, gaussian_data, gaussian_queries, tmp_path):
        # An archive written before a config field existed (here
        # ``tree_seed``) loads with the dataclass default.
        cfg = BiLevelConfig(n_groups=2, bucket_width=8.0, n_tables=2, seed=9)
        index = BiLevelLSH(cfg).fit(gaussian_data)
        path = str(tmp_path / "old.npz")
        save_index(index, path)

        def strip(meta, arrays):
            del meta["body"]["config"]["tree_seed"]

        _rewrite_archive(path, strip)
        loaded = load_index(path)
        assert loaded.config == cfg
        _same_results(index, loaded, gaussian_queries)

    def test_archive_with_retired_config_field_loads(
            self, gaussian_data, gaussian_queries, tmp_path):
        # Archives written while the config had a group thread count
        # (``n_jobs``) still load: the retired key is ignored.
        cfg = BiLevelConfig(n_groups=2, bucket_width=8.0, n_tables=2, seed=9)
        index = BiLevelLSH(cfg).fit(gaussian_data)
        path = str(tmp_path / "old.npz")
        save_index(index, path)

        def add(meta, arrays):
            meta["body"]["config"]["n_jobs"] = 4

        _rewrite_archive(path, add)
        loaded = load_index(path)
        assert loaded.config == cfg
        _same_results(index, loaded, gaussian_queries)

    def test_archive_with_a_row_bound_loads_and_answers_alike(
            self, gaussian_data, gaussian_queries, tmp_path):
        # Archives written while the config had a shard row bound
        # (``max_batch_rows``) load as one without it and answer alike;
        # the executor sizes its shards itself now.
        cfg = BiLevelConfig(n_groups=2, bucket_width=8.0, n_tables=2,
                            lattice="e8", hierarchy=True, seed=9)
        index = BiLevelLSH(cfg).fit(gaussian_data)
        path = str(tmp_path / "old.npz")
        save_index(index, path)

        def add(meta, arrays):
            meta["body"]["config"]["max_batch_rows"] = 3

        _rewrite_archive(path, add)
        loaded = load_index(path)
        assert loaded.config == cfg
        _same_results(index, loaded, gaussian_queries)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_groups_share_the_loaded_matrix(self, gaussian_data,
                                            gaussian_queries, tmp_path,
                                            mmap):
        # One corpus: every group of the fitted index (in memory, or over
        # a memmapped matrix fitted out of core) and of the loaded one
        # reads its owner's matrix, and the answers are byte-equal.
        from repro.core.outofcore import fit_bilevel_chunked
        from repro.datasets.loaders import load_matrix

        cfg = BiLevelConfig(n_groups=4, bucket_width=4.0, n_tables=3,
                            hierarchy=True, multi_assign=2, seed=12)
        if mmap:
            np.save(tmp_path / "data.npy", gaussian_data)
            data = load_matrix(str(tmp_path / "data.npy"), mmap=True)
            index = fit_bilevel_chunked(cfg, data, sample_size=300,
                                        chunk_size=100)
        else:
            index = BiLevelLSH(cfg).fit(gaussian_data)
        index.delete(np.arange(0, 50, 3))
        loaded = _roundtrip(index, tmp_path)
        for owner in (index, loaded):
            assert all(np.shares_memory(group._data, owner._data)
                       for group in owner.group_indexes)
        want = index.query_batch(gaussian_queries, 5, hierarchy_threshold=9)
        got = loaded.query_batch(gaussian_queries, 5, hierarchy_threshold=9)
        for a, b in zip(got[:2] + (got[2].n_candidates, got[2].escalated),
                        want[:2] + (want[2].n_candidates,
                                    want[2].escalated)):
            assert a.tobytes() == b.tobytes()

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


class TestArchiveKeys:
    """The v3 format is these keys, written out literally: a change to
    ``StandardLSH.state()`` must not rename what is on disk."""

    def _keys(self, index, tmp_path):
        path = str(tmp_path / "keys.npz")
        save_index(index, path)
        with np.load(path) as archive:
            return sorted(archive.files)

    def test_standard_two_tables(self, gaussian_data, tmp_path):
        index = StandardLSH(bucket_width=8.0, n_tables=2, hierarchy=True,
                            seed=20).fit(gaussian_data)
        layout = ["bucket_codes", "ends", "sorted_ids", "starts"]
        live = ["__meta__", "index/data"] + [
            f"index/derived/table{t}/{name}" for t in (0, 1)
            for name in layout] + [
            "index/family0/directions", "index/family0/offsets_unit",
            "index/family1/directions", "index/family1/offsets_unit",
            "index/ids"]
        assert self._keys(index, tmp_path) == live
        index.delete([1, 2])
        index.query_batch(gaussian_data[:2], 1)  # caches the norms
        assert self._keys(index, tmp_path) == sorted(
            live + ["index/deleted", "index/derived/sq_norms"])

    def test_bilevel_two_groups(self, gaussian_data, tmp_path):
        index = BiLevelLSH(BiLevelConfig(n_groups=2, bucket_width=8.0,
                                         n_tables=2, seed=21)
                           ).fit(gaussian_data)
        index.delete(index.partitioner.leaf_indices()[1][:3])

        def group(g, deleted):
            return ([f"group{g}/deleted"] if deleted else []) + [
                f"group{g}/derived/table{t}/{name}" for t in (0, 1)
                for name in ("bucket_codes", "ends", "sorted_ids",
                             "starts")] + [
                f"group{g}/family0/directions",
                f"group{g}/family0/offsets_unit",
                f"group{g}/family1/directions",
                f"group{g}/family1/offsets_unit",
                f"group{g}/rows"]

        assert self._keys(index, tmp_path) == (
            ["__meta__", "data"] + group(0, False) + group(1, True)
            + ["ids", "tree/leaf_concat", "tree/leaf_sizes",
               "tree/vectors"])


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


#: Where an archive names an index option: a standalone index's scalars,
#: a Bi-level group's, and the Bi-level config.
OPTION_SITES = {
    "standard": lambda meta: [meta["body"]],
    "group": lambda meta: meta["body"]["groups"],
    "config": lambda meta: [meta["body"]["config"]],
}


class TestRetiredOptions:
    """``D_M`` quantization and adaptive probe budgets left the index: an
    archive that used one is refused by name (serving it otherwise would
    change its answers), and one that carries only their inert keys
    loads and answers byte for byte as before."""

    @pytest.fixture()
    def saved(self, gaussian_data, tmp_path):
        def save(site):
            path = str(tmp_path / f"{site}.npz")
            if site == "standard":
                index = StandardLSH(bucket_width=4.0, n_tables=3, n_probes=6,
                                    seed=11).fit(gaussian_data)
            else:
                index = BiLevelLSH(BiLevelConfig(
                    n_groups=4, bucket_width=4.0, n_tables=3, n_probes=6,
                    seed=11)).fit(gaussian_data)
            save_index(index, path)
            return path, index

        return save

    @pytest.mark.parametrize("site", sorted(OPTION_SITES))
    @pytest.mark.parametrize("option, named", [
        ({"lattice": "dm"}, "lattice 'dm'"),
        ({"adaptive_probing": True, "probe_confidence": 0.7},
         "adaptive_probing"),
    ], ids=["dm", "adaptive"])
    def test_an_archive_that_used_one_is_refused(self, saved, site, option,
                                                 named):
        path, _ = saved(site)

        def use(meta, arrays):
            for options in OPTION_SITES[site](meta):
                options.update(option)

        _rewrite_archive(path, use)
        with pytest.raises(ValueError, match=named):
            load_index(path)

    @pytest.mark.parametrize("site", sorted(OPTION_SITES))
    def test_inert_keys_are_dropped(self, saved, site, gaussian_queries):
        path, index = saved(site)

        def carry(meta, arrays):
            for options in OPTION_SITES[site](meta):
                options.update(adaptive_probing=False, probe_confidence=0.9)

        _rewrite_archive(path, carry)
        loaded = load_index(path)
        ids, dists, stats = loaded.query_batch(gaussian_queries, 5)
        want_ids, want_dists, want = index.query_batch(gaussian_queries, 5)
        np.testing.assert_array_equal(ids, want_ids)
        assert np.array_equal(dists.view(np.int64), want_dists.view(np.int64))
        np.testing.assert_array_equal(stats.n_candidates, want.n_candidates)


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
        assert report["path"] == path and report["version"] == 4
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


# ------------------------------------------------------- format 3: adoption

def _answers(index, queries, k=5, threshold=None):
    """Every byte of a batch's answer: ids, distance bits, candidate
    counts and escalation flags."""
    ids, dists, stats = index.query_batch(queries, k,
                                          hierarchy_threshold=threshold)
    return [ids.tobytes(), dists.tobytes(), stats.n_candidates.tobytes(),
            stats.escalated.tobytes()]


def _members(index):
    return getattr(index, "group_indexes", [index])


def _assert_byte_equal(index, loaded, queries):
    for k, threshold in ((1, 0), (5, None), (5, 10 ** 6)):
        assert _answers(loaded, queries, k, threshold) \
            == _answers(index, queries, k, threshold)
    assert [m.escalation_threshold for m in _members(loaded)] \
        == [m.escalation_threshold for m in _members(index)]


def _no_rebuild(monkeypatch):
    """Make a table rebuild fail: a load that adopts never calls it."""
    def refuse(self, chunk_size=None):
        raise AssertionError("the tables were rebuilt, not adopted")

    monkeypatch.setattr(StandardLSH, "_rebuild_tables", refuse)


def _fit(kind, data, lattice="zm", hierarchy=False, seed=30):
    if kind == "standard":
        return StandardLSH(bucket_width=4.0, n_tables=3, lattice=lattice,
                           hierarchy=hierarchy, seed=seed).fit(data)
    return BiLevelLSH(BiLevelConfig(
        n_groups=4, bucket_width=4.0, n_tables=3, lattice=lattice,
        hierarchy=hierarchy, seed=seed)).fit(data)


def _write_v2(index, path):
    """What ``save_index`` wrote in format 2: the source arrays only, a
    Bi-level matrix in id order with each group's ids, compressed."""
    from repro.persistence import _array_checksums

    arrays = {}

    def standard(prefix, member):
        scalars, source, _ = member.state()
        if "rows" in source:
            source["ids"] = member._store.ids[source.pop("rows")]
        arrays.update({f"{prefix}/{key}": value
                       for key, value in source.items()})
        return dict(scalars, families=[{"bucket_width": member.bucket_width}]
                    * member.n_tables)

    if isinstance(index, BiLevelLSH):
        # The partitioner and config go through the current writer.
        save_index(index, path)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"].tobytes()).decode())
            arrays.update({key: archive[key] for key in archive.files
                           if key.startswith("tree/")})
        store = index._store
        arrays["data"] = store.data[np.argsort(store.ids, kind="stable")]
        meta["body"]["groups"] = [
            standard(f"group{g}", member)
            for g, member in enumerate(index.group_indexes)]
    else:
        meta = {"type": "standard",
                "body": standard("index", index), "wal_lsn": 0}
    meta["version"] = 2
    meta["checksums"] = _array_checksums(arrays)
    np.savez_compressed(path, __meta__=np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _write_v3(index, path):
    """What ``save_index`` wrote in format 3: every table layout with its
    buckets in lexicographic order, ids sharing a code in fitted order."""
    from repro.persistence import _array_checksums

    names = ("bucket_codes", "starts", "ends", "sorted_ids")

    def lexicographic(meta, arrays):
        for key in [key for key in arrays if key.endswith("/bucket_codes")]:
            prefix = key[:-len(names[0])]
            codes, starts, ends, ids = (arrays[prefix + name]
                                        for name in names)
            rows = np.repeat(codes, ends - starts, axis=0)
            order = np.lexsort(rows.T[::-1])
            rows = rows[order]
            head = np.flatnonzero(np.concatenate((
                [True], (rows[1:] != rows[:-1]).any(axis=1))))[:rows.shape[0]]
            arrays.update(zip([prefix + name for name in names], [
                rows[head], head, np.append(head[1:], rows.shape[0]),
                ids[order]]))
        meta["version"] = 3
        meta["checksums"] = _array_checksums(
            {key: arr for key, arr in arrays.items() if key != "__meta__"})

    save_index(index, path)
    _rewrite_archive(path, lexicographic)


KINDS = [(kind, lattice, hierarchy) for kind in ("standard", "bilevel")
         for lattice in ("zm", "e8") for hierarchy in (False, True)]
KIND_IDS = [f"{kind}-{lattice}-{'hier' if hierarchy else 'flat'}"
            for kind, lattice, hierarchy in KINDS]


class TestAdoptedRoundtrip:
    """Format 3 stores every table's sorted layout and load adopts it:
    the loaded index answers byte for byte as the saved one, and no
    table is sorted again."""

    @pytest.mark.parametrize("kind, lattice, hierarchy", KINDS,
                             ids=KIND_IDS)
    def test_fresh_fit(self, gaussian_data, gaussian_queries, tmp_path,
                       monkeypatch, kind, lattice, hierarchy):
        index = _fit(kind, gaussian_data, lattice, hierarchy)
        path = str(tmp_path / "fresh.npz")
        save_index(index, path)
        _no_rebuild(monkeypatch)
        loaded = load_index(path)
        _assert_byte_equal(index, loaded, gaussian_queries)
        for a, b in zip(_members(index), _members(loaded)):
            for want, got in zip(a._tables, b._tables):
                np.testing.assert_array_equal(got.sorted_ids,
                                              want.sorted_ids)
                # The bucket index is derived at load, bit for bit.
                np.testing.assert_array_equal(got.layouts()[0].cells,
                                              want.layouts()[0].cells)
            for want, got in zip(a._hierarchies, b._hierarchies):
                for x, y in zip(getattr(want, "level_cells", ()),
                                getattr(got, "level_cells", ())):
                    np.testing.assert_array_equal(x, y)
        with np.load(path) as archive:  # and never stored
            assert not [key for key in archive.files if "cells" in key]

    @pytest.mark.parametrize("kind, lattice, hierarchy", KINDS,
                             ids=KIND_IDS)
    def test_after_folds_deletes_and_compact(
            self, gaussian_data, gaussian_queries, tmp_path, monkeypatch,
            kind, lattice, hierarchy):
        # Inserts past the fold trigger append rows behind the fitted
        # ones, so a group's rows are no longer what regrouping the
        # matrix in id order gives: its layouts name the store's rows.
        index = _fit(kind, gaussian_data[:500], lattice, hierarchy)
        for step in range(10):
            index.insert(gaussian_data[500 + 30 * step:530 + 30 * step])
        index.delete(np.arange(0, 800, 16))
        index.compact()
        assert not any(table.n_extra for m in _members(index)
                       for table in m._tables)
        path = str(tmp_path / "folded.npz")
        save_index(index, path)
        _no_rebuild(monkeypatch)
        loaded = load_index(path)
        _assert_byte_equal(index, loaded, gaussian_queries)
        _assert_byte_equal(index, loaded, gaussian_data[::40])
        np.testing.assert_array_equal(loaded._data, index._data)
        # The loaded index keeps mutating alike.
        for copy in (index, loaded):
            copy.insert(gaussian_queries[:5])
            copy.delete([3, 4])
        _assert_byte_equal(index, loaded, gaussian_queries)

    @pytest.mark.parametrize("kind", ["standard", "bilevel"])
    def test_a_live_overlay_is_rebuilt(self, gaussian_data,
                                       gaussian_queries, tmp_path, kind):
        index = _fit(kind, gaussian_data[:700])
        index.insert(gaussian_data[700:720])  # below the fold trigger
        index.delete([5, 710])
        assert any(table.n_extra for m in _members(index)
                   for table in m._tables)
        path = str(tmp_path / "overlay.npz")
        save_index(index, path)
        with np.load(path) as archive:
            stored = [key for key in archive.files if "/table" in key]
        live = [m for m in _members(index)
                if any(table.n_extra for table in m._tables)]
        assert len(stored) == 4 * 3 * (len(_members(index)) - len(live))
        loaded = load_index(path)
        assert not any(table.n_extra for m in _members(loaded)
                       for table in m._tables)
        _assert_byte_equal(index, loaded, gaussian_queries)

    @pytest.mark.parametrize("kind", ["standard", "bilevel"])
    def test_a_version_2_archive_loads_by_rebuilding(
            self, gaussian_data, gaussian_queries, tmp_path, kind):
        index = _fit(kind, gaussian_data, hierarchy=True)
        index.delete(np.arange(0, 800, 9))
        path = str(tmp_path / "v2.npz")
        _write_v2(index, path)
        assert verify_index(path)["version"] == 2
        _assert_byte_equal(index, load_index(path), gaussian_queries)

    @pytest.mark.parametrize("kind, lattice, hierarchy", KINDS,
                             ids=KIND_IDS)
    def test_a_version_3_archive_loads_by_resorting(
            self, gaussian_data, gaussian_queries, tmp_path, monkeypatch,
            kind, lattice, hierarchy):
        # Format 3 stored lexicographic layouts: load re-sorts each along
        # the curve from its own row codes, and no table is rebuilt.
        index = _fit(kind, gaussian_data, lattice, hierarchy)
        index.delete(np.arange(0, 800, 9))
        path = str(tmp_path / "v3.npz")
        _write_v3(index, path)
        assert verify_index(path)["version"] == 3
        _no_rebuild(monkeypatch)
        loaded = load_index(path)
        _assert_byte_equal(index, loaded, gaussian_queries)
        for a, b in zip(_members(index), _members(loaded)):
            for want, got in zip(a._tables, b._tables):
                for x, y in zip(want.layouts()[0][:4], got.layouts()[0][:4]):
                    assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("version", [2, 3])
    def test_recover_rewrites_an_old_archive_as_version_4(
            self, gaussian_data, gaussian_queries, tmp_path, capsys,
            version):
        from repro.cli import main
        from repro.maintenance import WriteAheadLog

        index = _fit("bilevel", gaussian_data[:700])
        old, wal_path = str(tmp_path / "old.npz"), str(tmp_path / "tail.wal")
        (_write_v2 if version == 2 else _write_v3)(index, old)
        with WriteAheadLog(wal_path) as wal:
            wal.append_insert(gaussian_data[700:710],
                              np.arange(700, 710, dtype=np.int64))
            wal.append_delete(np.array([1, 702], dtype=np.int64))
        new = str(tmp_path / "new.npz")
        assert main(["recover", old, "--wal", wal_path, "--out", new]) == 0
        assert json.loads(capsys.readouterr().out)["applied"] == 2
        assert main(["verify-index", new]) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 4
        index.insert(gaussian_data[700:710])
        index.delete([1, 702])
        _assert_byte_equal(index, load_index(new), gaussian_queries)


def test_a_folded_hierarchy_index_answers_alike_once_loaded(tmp_path):
    """A hierarchy index folded after a delete answers as before once
    saved and loaded: the archive carries the folded layouts, so the
    loaded hierarchies do not count the tombstoned rows that a rebuild
    from ``data`` puts back into the tables (what formats 1-2 did)."""
    differ = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=3.0,
                            hierarchy=True, seed=seed).fit(
            rng.standard_normal((120, 8)))
        index.delete([int(rng.integers(120))])
        index.insert(rng.standard_normal((30, 8)))  # past the trigger
        index.compact()
        loaded = _roundtrip(index, tmp_path)
        queries = rng.standard_normal((16, 8))
        for k, threshold in ((1, 0), (3, 0), (5, None)):
            if _answers(loaded, queries, k, threshold) \
                    != _answers(index, queries, k, threshold):
                differ.append((seed, k, threshold))
    assert differ == []


def _rechecksum(path, mutate):
    """:func:`_rewrite_archive` with the checksums recomputed: damage the
    CRCs cannot see, as a writer with a bug would leave it."""
    from repro.persistence import _array_checksums

    def apply(meta, arrays):
        mutate(arrays)
        meta["checksums"] = _array_checksums(
            {key: arr for key, arr in arrays.items() if key != "__meta__"})

    _rewrite_archive(path, apply)


class TestAdoptionRefusesBadLayouts:
    """A stored layout is adopted only after the checks a rebuild made
    unnecessary: a bad one is refused naming its key, never answered
    from."""

    PREFIX = "index/derived/table1/"

    @pytest.fixture()
    def saved(self, gaussian_data, tmp_path):
        path = str(tmp_path / "adopt.npz")
        save_index(StandardLSH(bucket_width=4.0, n_tables=2,
                               seed=31).fit(gaussian_data), path)
        return path

    def test_a_flipped_byte_is_caught_by_its_checksum(self, saved):
        key = self.PREFIX + "sorted_ids"

        def flip(meta, arrays):
            damaged = arrays[key].copy()
            damaged.view(np.uint8)[3] ^= 0x10
            arrays[key] = damaged

        _rewrite_archive(saved, flip)
        with pytest.raises(CorruptIndexError, match="checksum") as err:
            load_index(saved)
        assert err.value.key == key

    @pytest.mark.parametrize("name, damage", [
        ("bucket_codes", lambda a: a["bucket_codes"][[1, 0]]),
        ("ends", lambda a: a["ends"][-1] - 1),
        ("sorted_ids", lambda a: 800),
    ], ids=["codes-out-of-order", "ends-short", "id-past-the-rows"])
    def test_a_rechecksummed_bad_layout_is_refused(self, saved, name,
                                                   damage):
        def spoil(arrays):
            layout = {key[len(self.PREFIX):]: arrays[key].copy()
                      for key in arrays if key.startswith(self.PREFIX)}
            target = layout[name]
            if name == "bucket_codes":
                target[:2] = damage(layout)
            else:
                target[-1] = damage(layout)
            arrays[self.PREFIX + name] = target

        _rechecksum(saved, spoil)
        verify_index(saved)  # every checksum holds
        with pytest.raises(CorruptIndexError) as err:
            load_index(saved)
        assert err.value.key == self.PREFIX + name

    def test_two_swapped_buckets_are_refused(self, saved):
        # Buckets b and b + 1 trade places, ids and all: the layout still
        # tiles its ids, but its codes no longer ascend along the curve.
        def swap(arrays):
            codes, starts, ends, ids = (
                arrays[self.PREFIX + name].copy() for name in
                ("bucket_codes", "starts", "ends", "sorted_ids"))
            b = codes.shape[0] // 2
            first, second = ids[starts[b]:ends[b]], ids[starts[b + 1]:ends[b + 1]]
            ids[starts[b]:ends[b + 1]] = np.concatenate([second, first])
            ends[b] = starts[b] + second.size
            starts[b + 1] = ends[b]
            codes[[b, b + 1]] = codes[[b + 1, b]]
            arrays.update({self.PREFIX + "bucket_codes": codes,
                           self.PREFIX + "starts": starts,
                           self.PREFIX + "ends": ends,
                           self.PREFIX + "sorted_ids": ids})

        _rechecksum(saved, swap)
        verify_index(saved)
        with pytest.raises(CorruptIndexError, match="ascending") as err:
            load_index(saved)
        assert err.value.key == self.PREFIX + "bucket_codes"
