"""Property tests (hypothesis) for the packed bucket keys of lsh/table.py.

The batch lookup path depends on one invariant: the byte order of
:func:`pack_codes` keys equals the lexicographic order of the int64 code
tuples, across the *entire* signed range (the sign-bit flip is what makes
negative coordinates sort below positive ones).  These tests pin that
down, including the extreme values a uniform float pipeline never hits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.lsh.table import LSHTable, pack_codes

int64_full = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
code_arrays = arrays(
    np.int64,
    st.tuples(st.integers(min_value=1, max_value=24),
              st.integers(min_value=1, max_value=4)),
    elements=int64_full,
)


@given(code_arrays)
@settings(max_examples=200, deadline=None)
def test_key_order_matches_lexicographic_code_order(codes):
    keys = pack_codes(codes)
    by_key = np.argsort(keys, kind="stable")
    by_code = np.lexsort(codes.T[::-1])
    np.testing.assert_array_equal(by_key, by_code)


@given(code_arrays)
@settings(max_examples=200, deadline=None)
def test_keys_are_injective_on_distinct_rows(codes):
    keys = pack_codes(codes)
    n_unique_rows = np.unique(codes, axis=0).shape[0]
    assert len(set(keys.tolist())) == n_unique_rows


@given(arrays(np.int64, (2, 3), elements=int64_full))
@settings(max_examples=200, deadline=None)
def test_pairwise_comparison_is_preserved(codes):
    a, b = pack_codes(codes)
    assert (a < b) == (tuple(codes[0]) < tuple(codes[1]))
    assert (a == b) == bool(np.all(codes[0] == codes[1]))


@given(code_arrays)
@settings(max_examples=100, deadline=None)
def test_table_lookup_agrees_with_linear_scan(codes):
    table = LSHTable(codes)
    for row in (0, codes.shape[0] - 1):
        expected = np.nonzero(np.all(codes == codes[row], axis=1))[0]
        got = np.sort(table.gather_batch(codes[row])[0])
        np.testing.assert_array_equal(got, expected)


def test_sign_flip_extremes():
    lo, hi = np.int64(-(2 ** 63)), np.int64(2 ** 63 - 1)
    codes = np.array([[hi], [0], [-1], [lo]], dtype=np.int64)
    keys = pack_codes(codes)
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, [3, 2, 1, 0])
