"""Unit tests for the bucketed LSH hash table."""

import numpy as np
import pytest

from repro.lsh.table import LSHTable
from repro.native.registry import NUMPY_KERNELS


class TestBuild:
    def test_groups_equal_codes(self):
        codes = np.array([[0, 0], [1, 1], [0, 0], [2, 2], [1, 1]])
        table = LSHTable(codes)
        assert table.n_buckets == 3
        assert sorted(table.bucket_sizes().tolist()) == [1, 2, 2]

    def test_single_point(self):
        table = LSHTable(np.array([[5, -3]]))
        assert table.n_buckets == 1
        np.testing.assert_array_equal(table.gather_batch(np.array([5, -3]))[0], [0])

    def test_custom_ids(self):
        codes = np.array([[1], [1], [2]])
        ids = np.array([10, 20, 30])
        table = LSHTable(codes, ids=ids)
        got = set(table.gather_batch(np.array([1]))[0].tolist())
        assert got == {10, 20}

    def test_bad_ids_shape(self):
        with pytest.raises(ValueError):
            LSHTable(np.array([[1], [2]]), ids=np.array([1]))

    def test_all_same_code(self):
        codes = np.zeros((10, 3), dtype=np.int64)
        table = LSHTable(codes)
        assert table.n_buckets == 1
        assert table.gather_batch(np.zeros(3, dtype=np.int64))[0].size == 10


class TestLookup:
    def test_missing_code_empty(self):
        table = LSHTable(np.array([[0, 0]]))
        assert table.gather_batch(np.array([9, 9]))[0].size == 0

    def test_lookup_returns_members_exactly(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-3, 3, size=(200, 4))
        table = LSHTable(codes)
        for probe in rng.integers(-3, 3, size=(20, 4)):
            expected = np.nonzero(np.all(codes == probe, axis=1))[0]
            got = np.sort(table.gather_batch(probe)[0])
            np.testing.assert_array_equal(got, expected)

    def test_lookup_many_dedupes(self):
        codes = np.array([[0], [0], [1]])
        table = LSHTable(codes)
        out = np.unique(table.gather_batch(np.array([[0], [0], [1]]))[0])
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_bucket_index_and_bounds(self):
        codes = np.array([[0], [1], [0]])
        table = LSHTable(codes)
        lookup = NUMPY_KERNELS.lookup_codes
        idx = int(lookup(table.bucket_codes, np.array([[0]]))[0])
        s, e = table.layouts()[0].starts[idx], table.layouts()[0].ends[idx]
        assert e - s == 2
        assert lookup(table.bucket_codes, np.array([[7]])).tolist() == [-1]

    def test_negative_codes(self):
        codes = np.array([[-5, 3], [-5, 3], [0, 0]])
        table = LSHTable(codes)
        assert table.gather_batch(np.array([-5, 3]))[0].size == 2


class TestInvariants:
    def test_sorted_ids_partition(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=(100, 3))
        table = LSHTable(codes)
        # Buckets partition all ids.
        np.testing.assert_array_equal(np.sort(table.sorted_ids), np.arange(100))
        assert table.bucket_sizes().sum() == 100

    def test_bucket_codes_unique_and_sorted(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(-2, 2, size=(60, 2))
        table = LSHTable(codes)
        bc = table.bucket_codes
        assert np.unique(bc, axis=0).shape[0] == bc.shape[0]
        # Lexicographic sorting.
        for i in range(bc.shape[0] - 1):
            assert tuple(bc[i]) < tuple(bc[i + 1])

