"""Failure-injection tests: every public entry point rejects bad input.

A library is adoptable only if garbage in produces a clear error, not a
wrong answer; these tests pin the validation behaviour across the public
API surface.
"""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.datasets.synthetic import clustered_manifold
from repro.evaluation.groundtruth import brute_force_knn
from repro.exact.kdtree import KDTree
from repro.lsh.index import StandardLSH
from repro.rptree.tree import RPTree

NAN_DATA = np.array([[1.0, np.nan], [0.0, 1.0]])
INF_DATA = np.array([[1.0, np.inf], [0.0, 1.0]])


@pytest.mark.parametrize("bad", [NAN_DATA, INF_DATA])
class TestNonFiniteRejection:
    def test_standard_fit(self, bad):
        with pytest.raises(ValueError):
            StandardLSH(seed=0).fit(bad)

    def test_bilevel_fit(self, bad):
        with pytest.raises(ValueError):
            BiLevelLSH(BiLevelConfig(seed=0)).fit(bad)

    def test_kdtree_fit(self, bad):
        with pytest.raises(ValueError):
            KDTree().fit(bad)

    def test_rptree_fit(self, bad):
        with pytest.raises(ValueError):
            RPTree(seed=0).fit(bad)

    def test_brute_force(self, bad):
        with pytest.raises(ValueError):
            brute_force_knn(bad, np.zeros((1, 2)), 1)

    def test_query_rejected(self, bad, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=0).fit(gaussian_data)
        with pytest.raises(ValueError):
            idx.query_batch(np.full((2, 32), np.nan), 1)


class TestEmptyAndDegenerate:
    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            StandardLSH(seed=0).fit(np.zeros((0, 4)))

    def test_empty_query_batch_rejected(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=1).fit(gaussian_data)
        with pytest.raises(ValueError):
            idx.query_batch(np.zeros((0, 32)), 1)

    def test_single_point_dataset(self):
        data = np.array([[1.0, 2.0, 3.0]])
        idx = StandardLSH(bucket_width=8.0, n_tables=2, seed=2).fit(data)
        ids, dists = idx.query(data[0], 1)
        assert ids[0] == 0 and dists[0] == 0.0

    def test_constant_dataset(self):
        data = np.ones((50, 4))
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=1.0,
                                       seed=3)).fit(data)
        ids, dists = idx.query(np.ones(4), 5)
        assert (ids >= 0).sum() == 5
        assert np.allclose(dists, 0.0)

    def test_duplicate_heavy_dataset(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((10, 6))
        data = np.repeat(base, 20, axis=0)
        idx = StandardLSH(bucket_width=4.0, seed=5).fit(data)
        ids, dists = idx.query(base[0], 20)
        assert np.allclose(dists, 0.0)

    def test_tiny_groups_bilevel(self):
        # More groups than sensible for the data size must still work.
        data = np.random.default_rng(6).standard_normal((20, 4))
        idx = BiLevelLSH(BiLevelConfig(n_groups=16, bucket_width=4.0,
                                       seed=7)).fit(data)
        ids, _, _ = idx.query_batch(data[:3], 2)
        assert ids.shape == (3, 2)


class TestKValidation:
    def test_zero_k(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=8).fit(gaussian_data)
        with pytest.raises(ValueError):
            idx.query(gaussian_data[0], 0)

    def test_negative_k(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=2, bucket_width=8.0,
                                       seed=9)).fit(gaussian_data)
        with pytest.raises(ValueError):
            idx.query_batch(gaussian_data[:2], -3)

    def test_float_k(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=10).fit(gaussian_data)
        with pytest.raises(TypeError):
            idx.query(gaussian_data[0], 2.5)

    def test_k_larger_than_dataset_pads(self):
        data = np.random.default_rng(11).standard_normal((5, 3))
        idx = StandardLSH(bucket_width=1e6, n_tables=1, seed=12).fit(data)
        ids, dists = idx.query(data[0], 10)
        assert (ids >= 0).sum() == 5
        assert np.isinf(dists[5:]).all()


class TestAnisotropyExtremes:
    def test_extremely_flat_data(self):
        # The Fig. 2(a) regime taken to an extreme: one dominant axis.
        rng = np.random.default_rng(13)
        data = rng.standard_normal((400, 8))
        data[:, 0] *= 1000.0
        idx = BiLevelLSH(BiLevelConfig(n_groups=8, scale_widths=True,
                                       bucket_width=50.0,
                                       seed=14)).fit(data)
        ids, _, stats = idx.query_batch(data[:10], 3)
        assert ids.shape == (10, 3)

    def test_widely_separated_scales(self):
        # Two clusters whose internal scales differ by 100x: per-group
        # width scaling must keep both queryable.
        rng = np.random.default_rng(15)
        tight = rng.standard_normal((200, 6)) * 0.01
        loose = rng.standard_normal((200, 6)) * 1.0 + 100.0
        data = np.vstack([tight, loose])
        idx = BiLevelLSH(BiLevelConfig(n_groups=2, scale_widths=True,
                                       bucket_width=0.05,
                                       seed=16)).fit(data)
        widths = np.array(idx.group_widths)
        assert widths.max() / widths.min() > 2.0
        ids, dists = idx.query(data[0], 1)
        assert ids[0] == 0
