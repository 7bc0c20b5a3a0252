"""Unit tests for the Morton-curve hierarchy over Z^M buckets."""

import numpy as np
import pytest

from repro.hierarchy.morton import MortonHierarchy, morton_encode
from repro.lsh.table import LSHTable


class TestMortonEncode:
    def test_single_dim_is_identity(self):
        codes = np.array([[0], [1], [5], [7]])
        assert morton_encode(codes, bits=3) == [0, 1, 5, 7]

    def test_interleaving_2d(self):
        # (x, y) with bits interleaved: x contributes the higher bit of
        # each plane.  (1, 0) -> 0b10 = 2, (0, 1) -> 0b01 = 1, (1,1) -> 3.
        codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert morton_encode(codes, bits=1) == [0, 1, 2, 3]

    def test_known_values_2bit(self):
        # (3, 0) with 2 bits: planes (1,0),(1,0) -> 0b1010 = 10.
        assert morton_encode(np.array([[3, 0]]), bits=2) == [10]
        # (0, 3): 0b0101 = 5.
        assert morton_encode(np.array([[0, 3]]), bits=2) == [5]

    def test_distinct_codes_distinct_mortons(self):
        rng = np.random.default_rng(0)
        codes = np.unique(rng.integers(0, 16, size=(100, 3)), axis=0)
        mortons = morton_encode(codes, bits=4)
        assert len(set(mortons)) == codes.shape[0]

    def test_locality(self):
        # Adjacent cells in one coordinate differ less in Morton value on
        # average than cells far apart (coarse locality property).
        codes = np.array([[i] for i in range(64)])
        mortons = morton_encode(codes, bits=6)
        near = abs(mortons[10] - mortons[11])
        far = abs(mortons[10] - mortons[60])
        assert near < far

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([[-1]]), bits=3)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([[8]]), bits=3)


def _build_hierarchy(codes):
    table = LSHTable(np.asarray(codes, dtype=np.int64))
    return table, MortonHierarchy(table)


class TestMortonHierarchy:
    def test_candidates_include_own_bucket(self):
        codes = [[0, 0], [0, 1], [5, 5], [0, 0]]
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([0, 0]), min_count=1)
        own = set(table.gather_batch(np.array([0, 0]))[0].tolist())
        assert own.issubset(set(got.tolist()))

    def test_escalation_reaches_min_count(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 8, size=(100, 2))
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([0, 0]), min_count=50)
        assert got.size >= 50

    def test_full_escalation_returns_everything(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(-4, 4, size=(60, 3))
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([0, 0, 0]), min_count=10_000)
        assert got.size == 60

    def test_query_outside_range_is_clamped(self):
        codes = [[0, 0], [1, 1], [2, 2]]
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([1000, 1000]), min_count=1)
        assert got.size >= 1  # nearest curve neighbor still probed

    def test_negative_codes_supported(self):
        codes = [[-5, -5], [-5, -4], [3, 3]]
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([-5, -5]), min_count=1)
        own = set(table.gather_batch(np.array([-5, -5]))[0].tolist())
        assert own.issubset(set(got.tolist()))

    def test_window_size_consistency(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=(40, 2))
        table, hier = _build_hierarchy(codes)
        assert hier.window_size(0, hier.n_buckets) == 40

    def test_min_count_one_small_window(self):
        # With a populated home bucket, min_count=1 should not escalate to
        # the whole dataset.
        rng = np.random.default_rng(4)
        codes = np.vstack([np.zeros((5, 2), dtype=np.int64),
                           rng.integers(0, 16, size=(200, 2))])
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([0, 0]), min_count=1)
        assert got.size < 205


class TestCandidatesBatch:
    @staticmethod
    def _ids_bucket_by_bucket(table, hier, code, min_count):
        """The window's ids gathered one bucket lookup at a time."""
        lo, hi, _ = hier._window(hier._encode_query(code)[0], min_count)
        shifted = table.bucket_codes - hier.offset
        mortons = morton_encode(shifted, hier.bits)
        curve = sorted(range(len(mortons)), key=mortons.__getitem__)
        parts = [table.gather_batch(table.bucket_codes[b])[0] for b in curve[lo:hi]]
        return np.unique(np.concatenate(parts)) if parts else np.empty(0)

    @pytest.mark.parametrize("m,span", [(1, 40), (2, 8), (3, 4), (8, 3),
                                        (12, 2000)])  # last: > 62 bits
    @pytest.mark.parametrize("min_count", [1, 25, 10_000])
    def test_batch_rows_equal_single_calls(self, m, span, min_count):
        rng = np.random.default_rng(m * 1000 + span)
        codes = rng.integers(-span, span, size=(150, m))
        table, hier = _build_hierarchy(codes)
        # Indexed codes plus rogue ones outside the bounding box.
        rows = np.vstack([codes[:10],
                          rng.integers(-3 * span, 3 * span, size=(10, m))])
        start, counts, _ = hier.walk([hier], rows[None], min_count)
        counts = counts[0]
        for row, at, n in zip(rows, start[0], counts):
            want = hier.candidates(row, min_count)
            np.testing.assert_array_equal(np.sort(hier.ids[at:at + n]), want)
            np.testing.assert_array_equal(
                want, self._ids_bucket_by_bucket(table, hier, row, min_count))
        if min_count == 10_000:
            assert np.all(counts == 150)


class TestEmptyHierarchy:
    """Deleting every row and compacting leaves a ``Z^M`` table with no
    bucket; its hierarchy walks every query to an empty window."""

    def test_empty_table_walks_to_empty_windows(self):
        _, hier = _build_hierarchy(np.empty((0, 3), dtype=np.int64))
        assert hier.n_buckets == 0
        start, size, _ = MortonHierarchy.walk(
            [hier], np.array([[[1, -2, 3], [0, 0, 0]]]), 5)
        assert size.tolist() == [[0, 0]]
        assert hier.candidates(np.array([4, 4, 4]), 5).size == 0

    def _check_empty_answers(self, index, queries):
        ids, dists, _ = index.query_batch(queries, 3,
                                          hierarchy_threshold=5)
        assert (ids == -1).all() and np.isinf(dists).all()

    def test_standard_index_with_every_row_deleted(self):
        from repro.lsh.index import StandardLSH

        data = np.random.default_rng(3).standard_normal((120, 8))
        index = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                            lattice="zm", hierarchy=True, seed=0).fit(data)
        index.delete(np.arange(120))
        assert index.compact()
        self._check_empty_answers(index, data[:6])
        fresh = index.insert(data[:2])
        ids, dists = index.query(data[1], 1)
        assert ids[0] == fresh[1] and dists[0] == 0.0

    def test_bilevel_group_with_every_row_deleted(self):
        from repro.core.bilevel import BiLevelLSH
        from repro.core.config import BiLevelConfig

        data = np.random.default_rng(4).standard_normal((300, 8))
        index = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                         hierarchy=True, seed=0)).fit(data)
        group = index.group_indexes[0]
        victims = index._store.ids[group._rows]
        index.delete(victims)
        assert index.compact()
        assert all(t.n_points == 0 for t in group._tables)
        ids, _, _ = index.query_batch(data, 3, hierarchy_threshold=5)
        assert not np.isin(ids, victims).any()
        self._check_empty_answers(index, index._data[group._rows[:4]])
