"""Unit tests for the Bi-level LSH index (the paper's contribution)."""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH, rows_by_group
from repro.core.config import BiLevelConfig
from repro.evaluation.groundtruth import brute_force_knn
from repro.evaluation.metrics import recall_ratio


class TestRowsByGroup:
    @pytest.mark.parametrize("n", [1, 7, 500])
    def test_matches_a_scan_per_group(self, n):
        # Ascending row order within a group is what keeps per-group
        # answers bit-identical to the loop this replaced.
        groups = np.random.default_rng(n).integers(0, 6, n)
        got = rows_by_group(groups, 9)  # groups 6..8: nothing assigned
        assert len(got) == 9
        for g, rows in enumerate(got):
            assert np.array_equal(rows, np.nonzero(groups == g)[0])
            assert rows.dtype == np.int64


class TestConfig:
    def test_defaults_valid(self):
        cfg = BiLevelConfig()
        assert cfg.n_groups == 16 and cfg.lattice == "zm"

    def test_with_override(self):
        cfg = BiLevelConfig().with_(n_groups=4, lattice="e8")
        assert cfg.n_groups == 4 and cfg.lattice == "e8"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            BiLevelConfig(n_groups=0)
        with pytest.raises(ValueError):
            BiLevelConfig(lattice="leech")
        with pytest.raises(ValueError):
            BiLevelConfig(partitioner="dbscan")
        with pytest.raises(ValueError):
            BiLevelConfig(tree_rule="random")
        with pytest.raises(ValueError):
            BiLevelConfig(n_probes=-1)
        with pytest.raises(ValueError):
            BiLevelConfig(target_recall=1.2)

    def test_frozen(self):
        with pytest.raises(Exception):
            BiLevelConfig().n_groups = 3


class TestFitQuery:
    def test_basic_query(self, gaussian_data, gaussian_queries):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=0)).fit(gaussian_data)
        ids, dists, stats = idx.query_batch(gaussian_queries, 5)
        assert ids.shape == (30, 5)
        assert stats.n_candidates.shape == (30,)

    def test_indexed_point_finds_itself(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=1)).fit(gaussian_data)
        ids, dists = idx.query(gaussian_data[42], 1)
        assert ids[0] == 42 and dists[0] == 0.0

    def test_global_ids_across_groups(self, gaussian_data):
        # Every returned id must be a valid global row index.
        idx = BiLevelLSH(BiLevelConfig(n_groups=8, bucket_width=16.0,
                                       seed=2)).fit(gaussian_data)
        ids, _, _ = idx.query_batch(gaussian_data[:50], 5)
        valid = ids[ids >= 0]
        assert np.all(valid < gaussian_data.shape[0])

    def test_wide_bucket_recall_within_group(self, clustered_split):
        # With a huge W, recall is limited only by the level-1 routing;
        # on clearly clustered data it should be near 1.
        train, queries = clustered_split
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=1e6,
                                       n_tables=2, seed=3)).fit(train)
        ids, _, _ = idx.query_batch(queries, 5)
        exact_ids, _ = brute_force_knn(train, queries, 5)
        assert recall_ratio(exact_ids, ids).mean() > 0.8

    def test_single_group_matches_standard_semantics(self, gaussian_data,
                                                     gaussian_queries):
        # n_groups=1 reduces to a single-level index.
        idx = BiLevelLSH(BiLevelConfig(n_groups=1, bucket_width=8.0,
                                       seed=4)).fit(gaussian_data)
        assert idx.n_groups_built == 1
        ids, _, _ = idx.query_batch(gaussian_queries, 3)
        assert ids.shape == (30, 3)

    def test_kmeans_partitioner(self, gaussian_data, gaussian_queries):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, partitioner="kmeans",
                                       bucket_width=8.0, seed=5)).fit(gaussian_data)
        ids, _, _ = idx.query_batch(gaussian_queries, 3)
        assert ids.shape == (30, 3)

    def test_max_rule(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, tree_rule="max",
                                       bucket_width=8.0, seed=6)).fit(gaussian_data)
        assert idx.n_groups_built == 4

    def test_e8_variant(self, gaussian_data, gaussian_queries):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, lattice="e8",
                                       bucket_width=8.0, seed=7)).fit(gaussian_data)
        ids, _, _ = idx.query_batch(gaussian_queries, 3)
        assert ids.shape == (30, 3)

    def test_multiprobe_and_hierarchy_variants(self, gaussian_data,
                                               gaussian_queries):
        for kwargs in ({"n_probes": 10}, {"hierarchy": True},
                       {"n_probes": 10, "hierarchy": True}):
            idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0,
                                           seed=8, **kwargs)).fit(gaussian_data)
            ids, _, stats = idx.query_batch(gaussian_queries, 3)
            assert ids.shape == (30, 3)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BiLevelLSH().query(np.zeros(4), 1)


class TestTuning:
    def test_per_group_widths_differ(self, clustered_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=8, tune_params=True,
                                       tuner_sample_size=80,
                                       seed=9)).fit(clustered_data)
        widths = np.array(idx.group_widths)
        assert widths.size == idx.n_groups_built
        assert np.all(widths > 0)
        # Heterogeneous clusters should generally get different widths.
        assert np.unique(np.round(widths, 6)).size > 1

    def test_scale_widths_differ_per_group(self, clustered_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=8, scale_widths=True,
                                       bucket_width=5.0,
                                       seed=14)).fit(clustered_data)
        widths = np.array(idx.group_widths)
        assert np.all(widths >= 5.0 * 0.25 - 1e-12)
        assert np.all(widths <= 5.0 * 4.0 + 1e-12)
        # Heterogeneous clusters: scales should not all collapse to one.
        assert np.unique(np.round(widths, 9)).size > 1

    def test_scale_widths_proportional_to_base(self, clustered_data):
        a = BiLevelLSH(BiLevelConfig(n_groups=4, scale_widths=True,
                                     bucket_width=2.0, seed=15)).fit(clustered_data)
        b = BiLevelLSH(BiLevelConfig(n_groups=4, scale_widths=True,
                                     bucket_width=4.0, seed=15)).fit(clustered_data)
        np.testing.assert_allclose(np.array(b.group_widths),
                                   2.0 * np.array(a.group_widths))

    def test_tune_params_overrides_scale_widths(self, clustered_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, scale_widths=True,
                                       tune_params=True,
                                       tuner_sample_size=60,
                                       seed=16)).fit(clustered_data)
        assert len(idx.group_widths) == idx.n_groups_built

    def test_tuned_index_answers_queries(self, clustered_split):
        train, queries = clustered_split
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, tune_params=True,
                                       tuner_sample_size=60,
                                       seed=10)).fit(train)
        ids, _, _ = idx.query_batch(queries, 5)
        assert ids.shape == (queries.shape[0], 5)


class TestBilevelCodes:
    def test_code_layout(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=11)).fit(gaussian_data)
        codes = idx.bilevel_codes(gaussian_data[:20])
        assert codes.shape == (20, 1 + 8)
        assert np.all((codes[:, 0] >= 0) & (codes[:, 0] < idx.n_groups_built))

    def test_group_column_matches_assign(self, gaussian_data):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=12)).fit(gaussian_data)
        codes = idx.bilevel_codes(gaussian_data[:20])
        np.testing.assert_array_equal(
            codes[:, 0], idx.partitioner.assign(gaussian_data[:20]))

    def test_candidate_sets_shape(self, gaussian_data, gaussian_queries):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=13)).fit(gaussian_data)
        sets = idx.candidate_sets(gaussian_queries)
        assert len(sets) == gaussian_queries.shape[0]

    @pytest.mark.parametrize("spill", [1, 2])
    def test_candidate_sets_are_the_short_lists(self, gaussian_data,
                                                gaussian_queries, spill):
        # The sets query_batch ranks: a spilled query's set spans every
        # group it routes to, without repeats.
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       multi_assign=spill,
                                       seed=13)).fit(gaussian_data)
        sets = idx.candidate_sets(gaussian_queries)
        _, _, stats = idx.query_batch(gaussian_queries, 5)
        assert [len(c) for c in sets] == stats.n_candidates.tolist()
        assert all(np.unique(c).size == c.size for c in sets)
