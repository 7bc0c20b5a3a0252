"""Property tests (hypothesis) for the Morton keys of lsh/table.py.

Every sorted code array, the numpy lookup and the ``Z^M`` walk depend on
one invariant: the order of :func:`morton_keys` equals the order of the
Python-int Morton interleave of the codes less their coordinate-wise
minimum (``tests.oracle``), across the *entire* signed range and for
keys of one to four words.  These tests pin that down, including the
extreme values a uniform float pipeline never hits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.lsh.index import StandardLSH
from repro.lsh.table import LSHTable, SortedLayout, morton_keys
from repro.native.ref import lookup_codes_ref
from tests.oracle import morton_interleave, morton_order

int64_full = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
code_arrays = arrays(
    np.int64,
    st.tuples(st.integers(min_value=1, max_value=24),
              st.integers(min_value=1, max_value=4)),
    elements=int64_full,
)


@given(code_arrays)
@settings(max_examples=200, deadline=None)
def test_key_order_matches_morton_order(codes):
    keys = morton_keys(codes)[0]
    np.testing.assert_array_equal(np.argsort(keys, kind="stable"),
                                  morton_order(codes))


@given(code_arrays)
@settings(max_examples=200, deadline=None)
def test_keys_are_injective_on_distinct_rows(codes):
    keys = morton_keys(codes)[0]
    n_unique_rows = np.unique(codes, axis=0).shape[0]
    assert len(set(keys.tolist())) == n_unique_rows


@given(arrays(np.int64, (2, 3), elements=int64_full))
@settings(max_examples=200, deadline=None)
def test_pairwise_comparison_is_preserved(codes):
    a, b = morton_keys(codes)[0]
    x, y = morton_interleave(codes)
    assert (a < b) == (x < y)
    assert (a == b) == (x == y)


@given(code_arrays)
@settings(max_examples=100, deadline=None)
def test_table_lookup_agrees_with_linear_scan(codes):
    table = LSHTable(codes)
    for row in (0, codes.shape[0] - 1):
        expected = np.nonzero(np.all(codes == codes[row], axis=1))[0]
        got = np.sort(table.gather_batch(codes[row])[0])
        np.testing.assert_array_equal(got, expected)


def test_sign_flip_extremes():
    # The shift by the minimum is exact in uint64 across the signed range.
    lo, hi = np.int64(-(2 ** 63)), np.int64(2 ** 63 - 1)
    codes = np.array([[hi], [0], [-1], [lo]], dtype=np.int64)
    keys = morton_keys(codes)[0]
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, [3, 2, 1, 0])


@given(st.integers(2, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_keys_of_65_to_256_bits_are_words_in_curve_order(m, data):
    bits = data.draw(st.integers(-(-65 // m), min(64, 256 // m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    low = data.draw(st.integers(-(2 ** 63), 2 ** 63 - 2 ** bits))
    span = np.uint64(2 ** bits - 1)
    # Rows at both corners of the box fix its bit length at ``bits``.
    shifted = np.vstack([np.zeros((1, m), np.uint64), np.full((1, m), span),
                         rng.integers(0, span, size=(30, m), dtype=np.uint64,
                                      endpoint=True)])
    codes = (shifted + np.uint64(low % 2 ** 64)).view(np.int64)
    keys, offset, got_bits = morton_keys(codes)
    assert got_bits == bits and offset.tolist() == [low] * m
    assert keys.dtype == np.dtype(f"S{8 * -(-m * bits // 64)}")
    np.testing.assert_array_equal(np.argsort(keys, kind="stable"),
                                  morton_order(codes))
    table = LSHTable(codes)
    np.testing.assert_array_equal(
        lookup_codes_ref(table.bucket_codes, codes[::-1]),
        [int(np.flatnonzero((table.bucket_codes == row).all(axis=1))[0])
         for row in codes[::-1]])


@given(arrays(np.int64, (1, 3), elements=int64_full),
       st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_a_single_bucket_is_one_zero_key(row, n):
    codes = np.repeat(row, n, axis=0)
    keys, offset, bits = morton_keys(codes)
    assert bits == 0 and keys.dtype == np.uint64 and not keys.any()
    table = LSHTable(codes)
    assert table.n_buckets == 1
    np.testing.assert_array_equal(table.sorted_ids, np.arange(n))
    assert lookup_codes_ref(table.bucket_codes, row).tolist() == [0]
    assert lookup_codes_ref(table.bucket_codes, row + 1).tolist() == [-1]


def test_an_emptied_table_has_no_keys():
    data = np.random.default_rng(5).standard_normal((80, 6))
    index = StandardLSH(n_hashes=4, n_tables=2, bucket_width=3.0,
                        seed=1).fit(data)
    index.delete(np.arange(80))
    assert index.compact()
    for table in index._tables:
        codes = table.bucket_codes
        keys, offset, bits = morton_keys(codes)
        assert keys.shape == (0,) and offset.tolist() == [0] * 4
        assert SortedLayout.flaw(80, **table.arrays()) is None
        assert lookup_codes_ref(codes, np.zeros((2, 4), np.int64)).tolist() \
            == [-1, -1]
