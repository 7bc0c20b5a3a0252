"""Gap-filling tests: index internals, overlay semantics, determinism."""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from repro.lsh.table import LSHTable


class TestTableOverlaySemantics:
    def test_lookup_many_sees_overlay(self):
        table = LSHTable(np.array([[0, 0], [1, 1]]))
        LSHTable.add_all([table], [np.array([[0, 0], [2, 2]])],
                         np.array([5, 6]))
        got = table.gather_batch(np.array([[0, 0], [2, 2]]))[0]
        assert set(got.tolist()) == {0, 5, 6}

    def test_bucket_sizes_reflect_base_only(self):
        # The CSR statistics describe the sorted base layout; the overlay
        # is counted separately via n_extra.
        table = LSHTable(np.array([[0], [0], [1]]))
        base_total = table.bucket_sizes().sum()
        LSHTable.add_all([table], [np.array([[0]])], np.array([9]))
        assert table.bucket_sizes().sum() == base_total
        assert table.n_extra == 1
        assert table.n_points == 4

    def test_overlay_cleared_by_rebuild(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, n_tables=2, seed=0).fit(
            gaussian_data[:50])
        idx.insert(gaussian_data[50:100])  # triggers rebuild (>20%)
        for table in idx._tables:
            assert table.n_extra == 0


class TestQueryStatsSelectivity:
    def test_selectivity_method(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=8.0, seed=1).fit(gaussian_data)
        _, _, stats = idx.query_batch(gaussian_queries, 5)
        sel = stats.selectivity(gaussian_data.shape[0])
        np.testing.assert_allclose(
            sel, stats.n_candidates / gaussian_data.shape[0])

    def test_selectivity_validates_size(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=8.0, seed=2).fit(gaussian_data)
        _, _, stats = idx.query_batch(gaussian_queries, 5)
        with pytest.raises(ValueError):
            stats.selectivity(0)


class TestDeterminism:
    def test_standard_fit_deterministic(self, gaussian_data, gaussian_queries):
        a = StandardLSH(bucket_width=8.0, n_tables=3, seed=7).fit(gaussian_data)
        b = StandardLSH(bucket_width=8.0, n_tables=3, seed=7).fit(gaussian_data)
        ids_a, dists_a, _ = a.query_batch(gaussian_queries, 5)
        ids_b, dists_b, _ = b.query_batch(gaussian_queries, 5)
        np.testing.assert_array_equal(ids_a, ids_b)

    def test_bilevel_fit_deterministic(self, gaussian_data, gaussian_queries):
        cfg = BiLevelConfig(n_groups=4, bucket_width=8.0, seed=8)
        a = BiLevelLSH(cfg).fit(gaussian_data)
        b = BiLevelLSH(cfg).fit(gaussian_data)
        ids_a, _, _ = a.query_batch(gaussian_queries, 5)
        ids_b, _, _ = b.query_batch(gaussian_queries, 5)
        np.testing.assert_array_equal(ids_a, ids_b)

    def test_different_seeds_differ(self, gaussian_data):
        a = StandardLSH(bucket_width=2.0, n_tables=1, seed=9).fit(gaussian_data)
        b = StandardLSH(bucket_width=2.0, n_tables=1, seed=10).fit(gaussian_data)
        assert not np.array_equal(a._families[0].directions,
                                  b._families[0].directions)


class TestDoctest:
    def test_bilevel_docstring_example(self):
        import doctest

        import repro.core.bilevel as module

        failures, _ = doctest.testmod(module, raise_on_error=False).counted \
            if False else (doctest.testmod(module).failed, None)
        assert failures == 0


class TestRunnerFormatting:
    def test_empty_results_table(self):
        from repro.evaluation.runner import format_results_table

        text = format_results_table([], title="empty")
        assert "empty" in text and "method" in text

    def test_missing_w_renders_nan(self, gaussian_data, gaussian_queries):
        from repro.evaluation.runner import (MethodSpec, format_results_table,
                                             run_method)

        spec = MethodSpec("x", lambda seed: StandardLSH(bucket_width=8.0,
                                                        seed=seed))
        res = run_method(spec, gaussian_data, gaussian_queries, 5, n_runs=1)
        text = format_results_table([res])
        assert "nan" in text
