"""Property-based tests (hypothesis) for the extended substrates."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.evaluation.variance import decompose_variance
from repro.exact.kdtree import KDTree
from repro.lattice.dm import DMLattice, decode_dm
from repro.lsh.multiprobe import adaptive_probes, query_directed_probes

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


class TestDMProperties:
    @given(arrays(np.float64, (6,), elements=coords))
    @settings(max_examples=150, deadline=None)
    def test_decode_is_dm_point(self, x):
        out = decode_dm(x.reshape(1, -1))[0]
        assert np.allclose(out, np.round(out))
        assert int(round(out.sum())) % 2 == 0

    @given(arrays(np.float64, (6,), elements=coords))
    @settings(max_examples=100, deadline=None)
    def test_decode_within_unit_ball(self, x):
        # The worst-case decode distance of D_M is bounded: rounding moves
        # each coordinate at most 0.5 and the parity fix adds at most 1.
        out = decode_dm(x.reshape(1, -1))[0]
        assert np.sum((x - out) ** 2) <= 6 * 0.25 + 1.0 + 1e-9

    @given(arrays(np.float64, (4,), elements=coords),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_ancestor_is_scaled_point(self, y, k):
        lat = DMLattice(4)
        code = lat.quantize(y.reshape(1, -1))
        anc = lat.ancestor(code, k)[0]
        scaled = anc / (2 ** k)
        assert np.allclose(scaled, np.round(scaled))
        assert int(round(scaled.sum())) % 2 == 0


class TestAdaptiveProbeProperties:
    @given(arrays(np.float64, (5,),
                  elements=st.floats(min_value=-5, max_value=5,
                                     allow_nan=False)),
           st.integers(1, 30),
           st.floats(min_value=0.05, max_value=1.0))
    # Full confidence over weights whose cumulative sum rounds below 1.0
    # once returned budget + 1 rows, the last uninitialised.
    @example(np.array([1.5, 0.0, 0.0, 0.0, 0.0]), 24, 1.0)
    @settings(max_examples=80, deadline=None)
    def test_prefix_of_fixed_sequence(self, y, budget, confidence):
        code = np.floor(y).astype(np.int64)
        adaptive = adaptive_probes(y, code, budget, confidence=confidence)
        fixed = query_directed_probes(y, code, budget)
        assert adaptive.shape[0] <= fixed.shape[0]
        if adaptive.shape[0]:
            np.testing.assert_array_equal(adaptive,
                                          fixed[: adaptive.shape[0]])

    @given(arrays(np.float64, (4,),
                  elements=st.floats(min_value=-5, max_value=5,
                                     allow_nan=False)),
           st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_confidence(self, y, budget):
        code = np.floor(y).astype(np.int64)
        low = adaptive_probes(y, code, budget, confidence=0.3).shape[0]
        high = adaptive_probes(y, code, budget, confidence=0.95).shape[0]
        assert high >= low


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
