"""Unit tests for the RP-tree partitioner."""

import numpy as np
import pytest

from repro.rptree import rules
from repro.rptree.tree import RPTree
from repro.utils.rng import ensure_rng
from tests.test_rptree_diameter import full_matrix_diameter, sweep_cases


def full_matrix_split_mean(points, seed=None, diameter_sweeps=20,
                           c=rules.MEAN_RULE_C):
    """``split_mean`` as it was, an ``(n, D)`` difference matrix for the
    distances to the mean and for every sweep (the oracle)."""
    rng = ensure_rng(seed)
    center = points.mean(axis=0)
    diffs = points - center
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    avg_sq_interpoint = 2.0 * float(np.mean(dists ** 2))
    delta, _ = full_matrix_diameter(points, diameter_sweeps, rng)
    if delta ** 2 <= c * avg_sq_interpoint or avg_sq_interpoint == 0.0:
        direction = rules._random_unit_direction(points.shape[1], rng)
        return rules._median_projection_split(points, direction, jitter=0.0)
    threshold = float(np.median(dists))
    left = dists <= threshold
    if left.all() or not left.any():
        left = np.zeros(points.shape[0], dtype=bool)
        left[: points.shape[0] // 2] = True
    return rules.SplitResult("distance", left, threshold, center=center)


def full_matrix_split_max(points, seed=None, diameter_sweeps=20):
    """``split_max`` as it was, with the full-matrix sweeps (the oracle)."""
    rng = ensure_rng(seed)
    dim = points.shape[1]
    direction = rules._random_unit_direction(dim, rng)
    delta, _ = full_matrix_diameter(points, diameter_sweeps, rng)
    jitter = float(rng.uniform(-1.0, 1.0)
                   * rules.MAX_RULE_JITTER * delta / np.sqrt(dim))
    return rules._median_projection_split(points, direction, jitter)


class TestBlockedSweepOracle:
    @pytest.mark.parametrize("name,points", sweep_cases(),
                             ids=[name for name, _ in sweep_cases()])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_splits_equal_the_full_matrix_splits(self, name, points, seed):
        for split, oracle in ((rules.split_mean, full_matrix_split_mean),
                              (rules.split_max, full_matrix_split_max)):
            got, want = split(points, seed=seed), oracle(points, seed=seed)
            assert (got.kind, got.threshold) == (want.kind, want.threshold)
            np.testing.assert_array_equal(got.left_mask, want.left_mask)
            for attr in ("direction", "center"):
                np.testing.assert_array_equal(getattr(got, attr),
                                              getattr(want, attr))

    @pytest.mark.parametrize("name,points", sweep_cases(),
                             ids=[name for name, _ in sweep_cases()])
    @pytest.mark.parametrize("rule", ["mean", "max"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_leaves_equal_the_full_matrix_tree(self, monkeypatch, name,
                                               points, rule, seed):
        got = RPTree(n_groups=8, rule=rule, seed=seed).fit(points)
        monkeypatch.setattr("repro.rptree.tree.split_mean",
                            full_matrix_split_mean)
        monkeypatch.setattr("repro.rptree.tree.split_max",
                            full_matrix_split_max)
        want = RPTree(n_groups=8, rule=rule, seed=seed).fit(points)
        assert len(got.leaf_indices()) == len(want.leaf_indices())
        for a, b in zip(got.leaf_indices(), want.leaf_indices()):
            np.testing.assert_array_equal(a, b)


class TestFit:
    def test_leaf_count(self, gaussian_data):
        tree = RPTree(n_groups=8, seed=0).fit(gaussian_data)
        assert tree.n_leaves == 8

    def test_non_power_of_two_groups(self, gaussian_data):
        tree = RPTree(n_groups=5, seed=0).fit(gaussian_data)
        assert tree.n_leaves == 5

    def test_single_group(self, gaussian_data):
        tree = RPTree(n_groups=1, seed=0).fit(gaussian_data)
        assert tree.n_leaves == 1
        assert tree.leaf_indices()[0].size == gaussian_data.shape[0]

    def test_leaves_partition_data(self, gaussian_data):
        tree = RPTree(n_groups=16, seed=1).fit(gaussian_data)
        all_idx = np.concatenate(tree.leaf_indices())
        np.testing.assert_array_equal(np.sort(all_idx),
                                      np.arange(gaussian_data.shape[0]))

    def test_roughly_balanced_leaves(self, gaussian_data):
        tree = RPTree(n_groups=8, rule="mean", seed=2).fit(gaussian_data)
        sizes = tree.leaf_sizes()
        n = gaussian_data.shape[0]
        assert sizes.min() > n / 8 / 4  # median splits keep balance loose

    def test_max_rule(self, gaussian_data):
        tree = RPTree(n_groups=4, rule="max", seed=3).fit(gaussian_data)
        assert tree.n_leaves == 4

    def test_invalid_rule(self):
        with pytest.raises(ValueError):
            RPTree(rule="median")

    def test_more_groups_than_points(self):
        data = np.random.default_rng(0).standard_normal((5, 3))
        tree = RPTree(n_groups=50, seed=0).fit(data)
        assert 1 <= tree.n_leaves <= 5
        all_idx = np.concatenate(tree.leaf_indices())
        assert np.sort(all_idx).tolist() == [0, 1, 2, 3, 4]

    def test_deterministic_with_seed(self, gaussian_data):
        a = RPTree(n_groups=8, seed=9).fit(gaussian_data)
        b = RPTree(n_groups=8, seed=9).fit(gaussian_data)
        np.testing.assert_array_equal(a.assign(gaussian_data),
                                      b.assign(gaussian_data))


class TestAssign:
    def test_training_points_route_to_their_leaf(self, gaussian_data):
        tree = RPTree(n_groups=8, seed=4).fit(gaussian_data)
        assigned = tree.assign(gaussian_data)
        for leaf_id, idx in enumerate(tree.leaf_indices()):
            np.testing.assert_array_equal(assigned[idx], leaf_id)

    def test_assign_one_matches_batch(self, gaussian_data, gaussian_queries):
        tree = RPTree(n_groups=8, seed=5).fit(gaussian_data)
        batch = tree.assign(gaussian_queries)
        single = np.array([tree.assign_one(q) for q in gaussian_queries])
        np.testing.assert_array_equal(batch, single)

    def test_assign_range(self, gaussian_data, gaussian_queries):
        tree = RPTree(n_groups=6, seed=6).fit(gaussian_data)
        out = tree.assign(gaussian_queries)
        assert np.all((out >= 0) & (out < tree.n_leaves))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RPTree().assign(np.zeros((2, 3)))

    def test_dim_mismatch_raises(self, gaussian_data):
        tree = RPTree(n_groups=4, seed=7).fit(gaussian_data)
        with pytest.raises(ValueError, match="dim"):
            tree.assign(np.zeros((2, 5)))


class TestStructure:
    def test_depth_close_to_log(self, gaussian_data):
        tree = RPTree(n_groups=16, seed=8).fit(gaussian_data)
        # Balanced median splits: depth should be near log2(16) = 4.
        assert 4 <= tree.depth() <= 8

    def test_clustered_data_separated(self, clustered_data):
        # Well-separated clusters should rarely be split across leaves more
        # than necessary: most leaves should be dominated by one cluster.
        from repro.datasets.synthetic import clustered_manifold

        data, labels = clustered_manifold(n_points=600, dim=16, n_clusters=4,
                                          intrinsic_dim=3, anisotropy=2.0,
                                          noise_fraction=0.0, center_spread=40.0,
                                          seed=11, return_labels=True)
        tree = RPTree(n_groups=4, rule="mean", seed=12).fit(data)
        assigned = tree.assign(data)
        purity = []
        for leaf in range(tree.n_leaves):
            members = labels[assigned == leaf]
            if members.size:
                counts = np.bincount(members[members >= 0])
                purity.append(counts.max() / members.size)
        assert np.mean(purity) > 0.7
