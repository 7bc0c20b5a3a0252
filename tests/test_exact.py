"""Unit tests for the exact tree baseline (Kd-tree)."""

import numpy as np
import pytest

from repro.evaluation.groundtruth import brute_force_knn
from repro.exact.kdtree import KDTree


def _distances_match(tree, data, queries, k):
    """The tree's distances must equal brute force (ties may permute ids).

    Tolerance 1e-6: brute force computes squared distances via the
    ``a^2 + b^2 - 2ab`` expansion, which carries more rounding error than
    the trees' direct differences.
    """
    ids, dists = tree.query(queries, k)
    _, exact_dists = brute_force_knn(data, queries, k)
    np.testing.assert_allclose(dists, exact_dists, atol=1e-6)
    # Returned ids must actually realize the returned distances.
    for qi in range(queries.shape[0]):
        for rank in range(k):
            row = ids[qi, rank]
            assert row >= 0
            d = np.linalg.norm(data[row] - queries[qi])
            assert d == pytest.approx(dists[qi, rank], abs=1e-7)


class TestKDTree:
    def test_exactness_low_dim(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, (500, 3))
        queries = rng.uniform(-1, 1, (40, 3))
        tree = KDTree(leaf_size=8).fit(data)
        _distances_match(tree, data, queries, 5)

    def test_exactness_high_dim(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((300, 24))
        queries = rng.standard_normal((20, 24))
        tree = KDTree().fit(data)
        _distances_match(tree, data, queries, 7)

    def test_exactness_clustered(self, clustered_split):
        train, queries = clustered_split
        tree = KDTree().fit(train)
        _distances_match(tree, train, queries, 10)

    def test_self_query(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((100, 4))
        tree = KDTree(leaf_size=4).fit(data)
        ids, dists = tree.query(data[:10], 1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(10))
        np.testing.assert_allclose(dists[:, 0], 0.0, atol=1e-9)

    def test_duplicate_points(self):
        data = np.vstack([np.zeros((20, 3)), np.ones((20, 3))])
        tree = KDTree(leaf_size=4).fit(data)
        ids, dists = tree.query(np.zeros((1, 3)), 5)
        assert np.allclose(dists[0], 0.0)

    def test_prunes_in_low_dim(self):
        # The motivation claim, half 1: strong pruning at low dimension.
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, (2000, 2))
        queries = rng.uniform(-1, 1, (20, 2))
        tree = KDTree(leaf_size=8).fit(data)
        tree.query(queries, 5)
        evals_per_query = tree.last_distance_evals / 20
        assert evals_per_query < 0.25 * data.shape[0]

    def test_degenerates_in_high_dim(self):
        # Half 2: pruning collapses in high dimension (evals -> ~n).
        rng = np.random.default_rng(4)
        data = rng.standard_normal((1000, 64))
        queries = rng.standard_normal((10, 64))
        tree = KDTree(leaf_size=8).fit(data)
        tree.query(queries, 5)
        evals_per_query = tree.last_distance_evals / 10
        assert evals_per_query > 0.5 * data.shape[0]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            KDTree().query(np.zeros((1, 2)), 1)

    def test_dim_mismatch(self):
        tree = KDTree().fit(np.ones((10, 3)) + np.arange(30).reshape(10, 3))
        with pytest.raises(ValueError, match="dim"):
            tree.query(np.zeros((1, 4)), 1)

    def test_k_too_large(self):
        tree = KDTree().fit(np.arange(12, dtype=float).reshape(4, 3))
        with pytest.raises(ValueError):
            tree.query(np.zeros((1, 3)), 5)

