"""Property-based tests (hypothesis) for the extended substrates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.evaluation.variance import decompose_variance
from repro.exact.kdtree import KDTree
from repro.lattice.e8 import E8Lattice, decode_d8

coords = st.floats(min_value=-20.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)


class TestKDTreeProperties:
    @given(st.integers(0, 1000), st.integers(2, 6), st.integers(10, 60),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, dim, n, k):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1, 1, (n, dim))
        queries = rng.uniform(-1, 1, (3, dim))
        tree = KDTree(leaf_size=4).fit(data)
        _, dists = tree.query(queries, k)
        from repro.evaluation.groundtruth import brute_force_knn

        _, exact = brute_force_knn(data, queries, k)
        np.testing.assert_allclose(dists, exact, atol=1e-6)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_first_neighbor_of_data_point_is_itself(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((40, 3))
        tree = KDTree(leaf_size=4).fit(data)
        ids, dists = tree.query(data[:5], 1)
        assert np.allclose(dists[:, 0], 0.0, atol=1e-9)


class TestD8Properties:
    @given(arrays(np.float64, (8,), elements=coords))
    @settings(max_examples=150, deadline=None)
    def test_decode_is_d8_point(self, x):
        out = decode_d8(x.reshape(1, -1))[0]
        assert np.allclose(out, np.round(out))
        assert int(round(out.sum())) % 2 == 0

    @given(arrays(np.float64, (8,), elements=coords))
    @settings(max_examples=100, deadline=None)
    def test_decode_within_unit_ball(self, x):
        # The worst-case decode distance of D8 is bounded: rounding moves
        # each coordinate at most 0.5 and the parity fix adds at most 1.
        out = decode_d8(x.reshape(1, -1))[0]
        assert np.sum((x - out) ** 2) <= 8 * 0.25 + 1.0 + 1e-9

    @given(arrays(np.float64, (8,), elements=coords),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_e8_ancestor_is_scaled_point(self, y, k):
        # Eq. (10) climbs by the D8 decoder inside E8: a level-k ancestor
        # is a point of the 2^k-scaled lattice (codes are half units).
        lat = E8Lattice(8)
        code = lat.quantize(y.reshape(1, -1))
        scaled = lat.ancestor(code, k)[0] / 2.0 / (2 ** k)
        doubled = 2.0 * scaled
        assert np.allclose(doubled, np.round(doubled))
        coset = scaled - 0.5 if doubled[0] % 2 else scaled
        assert np.allclose(coset, np.round(coset))
        assert int(round(coset.sum())) % 2 == 0


class TestVarianceProperties:
    @given(st.integers(2, 8), st.integers(2, 12), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_law_of_total_variance_bound(self, rows, cols, seed):
        # Both decomposed stds are bounded by the total std of the matrix.
        rng = np.random.default_rng(seed)
        m = rng.uniform(0, 1, (rows, cols))
        out = decompose_variance(m)
        total = m.std()
        assert out.std_projections <= total + 1e-12
        assert out.std_queries <= total + 1e-12

    @given(st.integers(2, 6), st.integers(2, 8), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_constant_shift(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0, 1, (rows, cols))
        a = decompose_variance(m)
        b = decompose_variance(m + 5.0)
        assert abs(a.std_projections - b.std_projections) < 1e-9
        assert abs(a.std_queries - b.std_queries) < 1e-9
