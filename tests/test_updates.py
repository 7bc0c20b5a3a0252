"""Unit tests for incremental index updates (insert / delete)."""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH, oracle_query_batch
from repro.lsh.table import LSHTable
from repro.persistence import save_index


class TestTableOverlay:
    def test_add_merges_with_base(self):
        table = LSHTable(np.array([[0, 0], [1, 1]]))
        table.add(np.array([[0, 0]]), np.array([7]))
        got = set(table.lookup(np.array([0, 0])).tolist())
        assert got == {0, 7}
        assert table.n_extra == 1
        assert table.n_points == 3

    def test_add_new_code(self):
        table = LSHTable(np.array([[0, 0]]))
        table.add(np.array([[5, 5]]), np.array([9]))
        np.testing.assert_array_equal(table.lookup(np.array([5, 5])), [9])

    def test_add_shape_checks(self):
        table = LSHTable(np.array([[0, 0]]))
        with pytest.raises(ValueError):
            table.add(np.array([[1, 2, 3]]), np.array([1]))
        with pytest.raises(ValueError):
            table.add(np.array([[1, 2]]), np.array([1, 2]))


class TestStandardInsert:
    def test_inserted_point_findable(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, n_tables=4, seed=0).fit(gaussian_data)
        new_point = gaussian_data[5] + 0.001
        new_ids = idx.insert(new_point.reshape(1, -1))
        ids, dists = idx.query(new_point, 1)
        assert ids[0] == new_ids[0]
        assert dists[0] == 0.0

    def test_ids_assigned_sequentially(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=1).fit(gaussian_data)
        n = gaussian_data.shape[0]
        new_ids = idx.insert(gaussian_data[:3])
        np.testing.assert_array_equal(new_ids, [n, n + 1, n + 2])

    def test_custom_ids(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=2).fit(gaussian_data)
        new_ids = idx.insert(gaussian_data[:2], ids=np.array([5000, 5001]))
        np.testing.assert_array_equal(new_ids, [5000, 5001])

    def test_auto_ids_continue_past_explicit_ones(self, gaussian_data):
        # The next free id is index state: explicit ids above it move it,
        # ids below it do not, and from_state recomputes it once.
        idx = StandardLSH(bucket_width=8.0, seed=2).fit(
            gaussian_data[:100], ids=np.arange(100) * 3)
        np.testing.assert_array_equal(idx.insert(gaussian_data[100:102]),
                                      [298, 299])
        idx.insert(gaussian_data[102:104], ids=np.array([1000, 640]))
        np.testing.assert_array_equal(idx.insert(gaussian_data[104:105]),
                                      [1001])
        idx.insert(gaussian_data[105:107], ids=np.array([7, 500]))
        np.testing.assert_array_equal(idx.insert(gaussian_data[107:108]),
                                      [1002])
        restored = StandardLSH.from_state(*idx.state())
        np.testing.assert_array_equal(
            restored.insert(gaussian_data[108:110]), [1003, 1004])
        np.testing.assert_array_equal(idx.insert(gaussian_data[108:110]),
                                      [1003, 1004])
        ids, dists = restored.query(gaussian_data[104], 1)
        assert ids[0] == 1001 and dists[0] == 0.0

    def test_rebuild_after_many_inserts(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, n_tables=2, seed=3).fit(
            gaussian_data[:100])
        idx.insert(gaussian_data[100:200])  # 100% overlay -> rebuild
        assert idx._tables[0].n_extra == 0  # overlay flushed into CSR
        ids, dists = idx.query(gaussian_data[150], 1)
        assert dists[0] == 0.0

    def test_insert_dim_mismatch(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=4).fit(gaussian_data)
        with pytest.raises(ValueError, match="dim"):
            idx.insert(np.zeros((1, 5)))

    def test_insert_unfitted(self):
        with pytest.raises(RuntimeError):
            StandardLSH().insert(np.zeros((1, 2)))

    def test_insert_with_hierarchy(self, gaussian_data):
        idx = StandardLSH(bucket_width=4.0, n_tables=2, hierarchy=True,
                          seed=5).fit(gaussian_data[:200])
        idx.insert(gaussian_data[200:300])
        ids, _, stats = idx.query_batch(gaussian_data[250:255], 5)
        assert (ids >= 0).any()


class TestStandardDelete:
    def test_deleted_point_not_returned(self, gaussian_data):
        idx = StandardLSH(bucket_width=1e6, n_tables=2, seed=6).fit(gaussian_data)
        found = idx.delete(np.array([17]))
        assert found == 1
        ids, _ = idx.query(gaussian_data[17], 5)
        assert 17 not in ids

    def test_unknown_ids_ignored(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=7).fit(gaussian_data)
        assert idx.delete(np.array([10_000_000])) == 0

    def test_delete_then_insert(self, gaussian_data):
        idx = StandardLSH(bucket_width=1e6, n_tables=2, seed=8).fit(gaussian_data)
        idx.delete(np.array([3]))
        new_ids = idx.insert(gaussian_data[3].reshape(1, -1))
        ids, dists = idx.query(gaussian_data[3], 1)
        assert ids[0] == new_ids[0] and dists[0] == 0.0

    def test_delete_affects_candidate_counts(self, gaussian_data):
        idx = StandardLSH(bucket_width=1e6, n_tables=1, seed=9).fit(gaussian_data)
        _, _, before = idx.query_batch(gaussian_data[:1], 3)
        idx.delete(np.arange(100))
        _, _, after = idx.query_batch(gaussian_data[:1], 3)
        assert after.n_candidates[0] == before.n_candidates[0] - 100


class TestPublishedLayouts:
    """A query searches the one :class:`TableLayouts` snapshot the index
    last published — every table's layouts behind one pointer table.
    Each write that changes a table publishes a new one; the next query
    must answer exactly as the per-query oracle over the live tables."""

    @staticmethod
    def _published(index):
        """Whether the snapshot holds exactly the tables' layouts now."""
        current = [table.layouts() for table in index._tables]
        snapshot = index._layouts
        words = [layout.pointers for layouts in current for layout in layouts]
        return (len(snapshot.per_table) == len(current)
                and all(len(mine) == len(theirs)
                        and all(a is b for a, b in zip(mine, theirs))
                        for mine, theirs in zip(snapshot.per_table, current))
                and snapshot.n_layouts.tolist() == [len(x) for x in current]
                and np.array_equal(snapshot.pointers, np.array(words)))

    @staticmethod
    def _answers_like_the_oracle(index, queries, step):
        ids, dists, stats = index.query_batch(queries, 5)
        want_ids, want_dists, want = oracle_query_batch(index, queries, 5)
        np.testing.assert_array_equal(ids, want_ids, err_msg=step)
        np.testing.assert_allclose(dists, want_dists, err_msg=step)
        np.testing.assert_array_equal(stats.n_candidates, want.n_candidates,
                                      err_msg=step)

    @pytest.mark.parametrize("n_probes", [0, 4])
    def test_every_publication_reaches_the_next_query(
            self, gaussian_data, gaussian_queries, n_probes):
        idx = StandardLSH(bucket_width=6.0, n_tables=3, n_probes=n_probes,
                          seed=31).fit(gaussian_data[:500])
        # Half the queries are rows about to be inserted.
        queries = np.vstack([gaussian_queries[:10], gaussian_data[500:510],
                             gaussian_data[600:610]])
        seen = [idx._layouts]

        def check(step, republished=True, index=idx):
            assert self._published(index), step
            assert (index._layouts is not seen[-1]) == republished, step
            seen.append(index._layouts)
            self._answers_like_the_oracle(index, queries, step)

        check("fit", republished=False)
        idx.insert(gaussian_data[500:505])
        assert idx._layouts.n_layouts.tolist() == [2, 2, 2]
        check("first insert: the overlay appears")
        idx.insert(gaussian_data[505:515])
        check("second insert: the overlay is re-sorted")
        idx.delete(np.arange(0, 515, 7))
        check("delete: tombstones, no table changed", republished=False)
        assert idx.compact()
        assert idx._layouts.n_layouts.tolist() == [1, 1, 1]
        check("compact")
        idx.insert(gaussian_data[515:520])
        check("insert after compact")
        idx.insert(gaussian_data[520:700])
        assert idx._layouts.n_layouts.tolist() == [1, 1, 1]
        check("the rebuild trigger")
        idx.insert(gaussian_data[700:705])
        check("insert into the rebuilt tables")
        check("from_state", index=StandardLSH.from_state(*idx.state()))


class TestBilevelUpdates:
    def test_insert_routes_to_group(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=10)).fit(gaussian_data)
        p = gaussian_data[42] + 0.0005
        new_ids = idx.insert(p.reshape(1, -1))
        ids, dists = idx.query(p, 1)
        assert ids[0] == new_ids[0]
        assert dists[0] == 0.0

    def test_insert_many(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=11)).fit(gaussian_data[:600])
        new_ids = idx.insert(gaussian_data[600:700])
        assert new_ids.shape == (100,)
        assert idx.n_points == 700

    def test_delete(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=1e6,
                                       n_tables=2, seed=12)).fit(gaussian_data)
        found = idx.delete(np.array([10, 20, 30]))
        assert found == 3
        ids, _ = idx.query(gaussian_data[10], 5)
        assert 10 not in ids

    def test_insert_unfitted(self):
        with pytest.raises(RuntimeError):
            BiLevelLSH().insert(np.zeros((1, 2)))


class TestInsertCostsItsOwnRows:
    """``insert`` appends into spare capacity; what the index exports is
    the live prefix only — identical to an index whose arrays are exact,
    freshly allocated copies after every insert (what ``np.vstack`` gave)."""

    @staticmethod
    def _exact(index):
        for part in [index] + list(getattr(index, "group_indexes", [])):
            for name in ("_data", "_ids", "_sq_norms", "_deleted"):
                value = getattr(part, name, None)
                if value is not None:
                    setattr(part, name, value.copy())

    @staticmethod
    def _members(path):
        with np.load(path) as archive:
            return {key: (archive[key].dtype.str, archive[key].shape,
                          archive[key].tobytes()) for key in archive.files}

    @pytest.mark.parametrize("kind", ["standard", "bilevel"])
    def test_state_and_snapshot_equal_a_vstack_built_twin(
            self, gaussian_data, tmp_path, kind):
        def build():
            if kind == "standard":
                return StandardLSH(bucket_width=8.0, n_tables=3,
                                   seed=4).fit(gaussian_data[:400])
            return BiLevelLSH(BiLevelConfig(
                n_groups=4, n_tables=3, bucket_width=8.0,
                seed=4)).fit(gaussian_data[:400])

        grown, twin = build(), build()
        rng = np.random.default_rng(9)
        for step in range(100):
            rows = rng.standard_normal((2, gaussian_data.shape[1]))
            for index in (grown, twin):
                index.insert(rows)
                if step % 10 == 0:       # caches norms, then tombstones
                    index.query_batch(rows, 3)
                    index.delete(np.array([step, 400 + step]))
            self._exact(twin)
        parts = list(zip([grown] + list(getattr(grown, "group_indexes", [])),
                         [twin] + list(getattr(twin, "group_indexes", []))))
        for a, b in parts:
            assert a._data.shape == b._data.shape
            np.testing.assert_array_equal(a._data, b._data)
        for a, b in parts[1:] if kind == "bilevel" else parts:
            # Spare capacity is really in use, and never exported.
            assert a._data.base is not None and b._data.base is None
            (_, source, derived), (_, want_source, want_derived) = \
                a.state(), b.state()
            assert (list(source), list(derived)) \
                == (list(want_source), list(want_derived))
            for key, want in {**want_source, **want_derived}.items():
                got = source.get(key, derived.get(key))
                assert got.shape == want.shape and got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        save_index(grown, str(tmp_path / "grown.npz"))
        save_index(twin, str(tmp_path / "twin.npz"))
        assert self._members(tmp_path / "grown.npz") \
            == self._members(tmp_path / "twin.npz")
