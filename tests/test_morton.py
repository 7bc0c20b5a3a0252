"""Unit tests for the Morton-curve hierarchy over Z^M buckets.

The walk is held to the Python-int rule of ``tests.oracle`` — the
interleave (:func:`morton_encode`) and the window (:class:`ZmCurve`) —
which sorts the table's buckets itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.morton import MortonHierarchy
from repro.lsh.table import LSHTable, morton_keys
from tests.oracle import ZmCurve, morton_encode


class TestMortonEncode:
    """The oracle's interleave, and the index's keys against it."""

    def test_single_dim_is_identity(self):
        codes = np.array([[0], [1], [5], [7]])
        assert morton_encode(codes, bits=3) == [0, 1, 5, 7]
        # Left-aligned in one 64-bit word.
        assert (morton_keys(codes)[0] >> np.uint64(61)).tolist() == [0, 1, 5, 7]

    def test_interleaving_2d(self):
        # (x, y) with bits interleaved: x contributes the higher bit of
        # each plane.  (1, 0) -> 0b10 = 2, (0, 1) -> 0b01 = 1, (1,1) -> 3.
        codes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert morton_encode(codes, bits=1) == [0, 1, 2, 3]
        assert (morton_keys(codes)[0] >> np.uint64(62)).tolist() == [0, 1, 2, 3]

    def test_known_values_2bit(self):
        # (3, 0) with 2 bits: planes (1,0),(1,0) -> 0b1010 = 10.
        assert morton_encode(np.array([[3, 0]]), bits=2) == [10]
        # (0, 3): 0b0101 = 5.
        assert morton_encode(np.array([[0, 3]]), bits=2) == [5]
        keys = morton_keys(np.array([[3, 0], [0, 3]]))[0] >> np.uint64(60)
        assert keys.tolist() == [10, 5]

    def test_distinct_codes_distinct_mortons(self):
        rng = np.random.default_rng(0)
        codes = np.unique(rng.integers(0, 16, size=(100, 3)), axis=0)
        mortons = morton_encode(codes, bits=4)
        assert len(set(mortons)) == codes.shape[0]
        assert len(set(morton_keys(codes)[0].tolist())) == codes.shape[0]

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
        # The hierarchy is the table: its ids are the layout's, and the
        # widest window is all of them.
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 4, size=(40, 2))
        table, hier = _build_hierarchy(codes)
        assert hier.ids is table.layouts()[0].sorted_ids
        start, size, _ = hier.walk([hier], codes[None, :1], 10_000)
        assert (start[0, 0], size[0, 0]) == (0, 40)

    def test_min_count_one_small_window(self):
        # With a populated home bucket, min_count=1 should not escalate to
        # the whole dataset.
        rng = np.random.default_rng(4)
        codes = np.vstack([np.zeros((5, 2), dtype=np.int64),
                           rng.integers(0, 16, size=(200, 2))])
        table, hier = _build_hierarchy(codes)
        got = hier.candidates(np.array([0, 0]), min_count=1)
        assert got.size < 205


def _assert_walks_as_the_oracle(table, hier, rows, min_count):
    """Every row's window, its size and the bits it dropped are the
    oracle's, bucket for bucket."""
    curve = ZmCurve(table)
    start, size, dropped = hier.walk([hier], rows[None], min_count)
    for row, at, n, bits in zip(rows, start[0], size[0], dropped[0]):
        lo, hi, want_bits = curve.window(row, min_count)
        assert (n, bits) == (curve.cum[hi] - curve.cum[lo], want_bits)
        np.testing.assert_array_equal(np.sort(hier.ids[at:at + n]),
                                      curve.candidates(row, min_count))
        np.testing.assert_array_equal(hier.candidates(row, min_count),
                                      curve.candidates(row, min_count))


class TestCandidatesBatch:
    @pytest.mark.parametrize("m,span", [(1, 40), (2, 8), (3, 4), (8, 3),
                                        (12, 2000)])  # last: > 64 bits
    @pytest.mark.parametrize("min_count", [1, 25, 10_000])
    def test_batch_rows_equal_single_calls(self, m, span, min_count):
        rng = np.random.default_rng(m * 1000 + span)
        codes = rng.integers(-span, span, size=(150, m))
        table, hier = _build_hierarchy(codes)
        # Indexed codes plus rogue ones outside the bounding box.
        rows = np.vstack([codes[:10],
                          rng.integers(-3 * span, 3 * span, size=(10, m))])
        _assert_walks_as_the_oracle(table, hier, rows, min_count)
        if min_count == 10_000:
            assert np.all(hier.walk([hier], rows[None], min_count)[1] == 150)


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 12),
       span=st.sampled_from([1, 2, 5, 40, 2000, 2 ** 40]),
       n=st.integers(0, 120),
       min_count=st.sampled_from([0, 1, 5, 25, 10 ** 4]))
@settings(max_examples=60, deadline=None)
def test_the_walk_is_the_python_int_rule(seed, m, span, n, min_count):
    # One to eight key words; queries inside and far outside the box.
    rng = np.random.default_rng(seed)
    table, hier = _build_hierarchy(rng.integers(-span, span, size=(n, m)))
    rows = np.vstack([table.bucket_codes[:6],
                      rng.integers(-3 * span, 3 * span, size=(6, m))])
    _assert_walks_as_the_oracle(table, hier, rows, min_count)


class TestEmptyHierarchy:
    """Deleting every row and compacting leaves a ``Z^M`` table with no
    bucket; its hierarchy walks every query to an empty window."""

    def test_empty_table_walks_to_empty_windows(self):
        _, hier = _build_hierarchy(np.empty((0, 3), dtype=np.int64))
        assert hier.ids.size == 0
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
