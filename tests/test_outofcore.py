"""Unit tests for out-of-core index construction."""

import numpy as np
import pytest

from repro.core.config import BiLevelConfig
from repro.core.outofcore import (
    chunked_codes,
    fit_bilevel_chunked,
    fit_standard_chunked,
)
from repro.lsh.functions import PStableHashFamily
from repro.lsh.index import StandardLSH, make_lattice


@pytest.fixture()
def memmap_data(tmp_path, gaussian_data):
    path = str(tmp_path / "data.bin")
    gaussian_data.astype(np.float64).tofile(path)
    return np.memmap(path, dtype=np.float64, mode="r",
                     shape=gaussian_data.shape)


class TestChunkedCodes:
    def test_matches_single_pass(self, gaussian_data):
        family = PStableHashFamily(32, 8, 4.0, seed=0)
        lattice = make_lattice("zm", 8)
        full = lattice.quantize(family.project(gaussian_data))
        chunked = chunked_codes(family, lattice, gaussian_data, chunk_size=37)
        np.testing.assert_array_equal(full, chunked)

    def test_e8_codes(self, gaussian_data):
        family = PStableHashFamily(32, 8, 4.0, seed=1)
        lattice = make_lattice("e8", 8)
        full = lattice.quantize(family.project(gaussian_data))
        chunked = chunked_codes(family, lattice, gaussian_data, chunk_size=100)
        np.testing.assert_array_equal(full, chunked)

    def test_invalid_chunk(self, gaussian_data):
        family = PStableHashFamily(32, 8, 4.0, seed=2)
        with pytest.raises(ValueError):
            chunked_codes(family, make_lattice("zm", 8), gaussian_data,
                          chunk_size=0)


class TestFitStandardChunked:
    def test_same_results_as_in_memory(self, gaussian_data, gaussian_queries,
                                       memmap_data):
        mem = StandardLSH(bucket_width=8.0, n_tables=3, seed=3).fit(gaussian_data)
        ooc = fit_standard_chunked(
            StandardLSH(bucket_width=8.0, n_tables=3, seed=3),
            memmap_data, chunk_size=64)
        ids_a, dists_a, _ = mem.query_batch(gaussian_queries, 5)
        ids_b, dists_b, _ = ooc.query_batch(gaussian_queries, 5)
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(dists_a, dists_b)

    def test_data_kept_by_reference(self, memmap_data):
        index = fit_standard_chunked(
            StandardLSH(bucket_width=8.0, seed=4), memmap_data)
        assert index._data is memmap_data
        # ... and an adopter of its state keeps the memmap a memmap.
        assert StandardLSH.from_state(*index.state())._data is memmap_data

    def test_hierarchy_supported(self, gaussian_queries, memmap_data):
        index = fit_standard_chunked(
            StandardLSH(bucket_width=4.0, n_tables=2, hierarchy=True, seed=5),
            memmap_data)
        ids, _, stats = index.query_batch(gaussian_queries, 5)
        assert ids.shape == (30, 5)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            fit_standard_chunked(StandardLSH(seed=0), np.zeros(10))


class TestFitBilevelChunked:
    def test_answers_queries(self, gaussian_queries, memmap_data):
        cfg = BiLevelConfig(n_groups=4, bucket_width=8.0, n_tables=3, seed=6)
        index = fit_bilevel_chunked(cfg, memmap_data, sample_size=300,
                                    chunk_size=128)
        ids, dists, stats = index.query_batch(gaussian_queries, 5)
        assert ids.shape == (30, 5)
        assert stats.n_candidates.sum() > 0

    def test_indexed_point_findable(self, gaussian_data, memmap_data):
        cfg = BiLevelConfig(n_groups=4, bucket_width=8.0, n_tables=3, seed=7)
        index = fit_bilevel_chunked(cfg, memmap_data, sample_size=300)
        ids, dists = index.query(gaussian_data[33], 1)
        assert ids[0] == 33 and dists[0] == 0.0

    def test_leaf_indices_cover_full_dataset(self, memmap_data):
        cfg = BiLevelConfig(n_groups=4, bucket_width=8.0, seed=8)
        index = fit_bilevel_chunked(cfg, memmap_data, sample_size=200)
        all_rows = np.concatenate(index.partitioner.leaf_indices())
        np.testing.assert_array_equal(np.sort(all_rows),
                                      np.arange(memmap_data.shape[0]))

    def test_quality_close_to_in_memory(self, gaussian_data,
                                        gaussian_queries, memmap_data):
        from repro.core.bilevel import BiLevelLSH
        from repro.evaluation.groundtruth import brute_force_knn
        from repro.evaluation.metrics import recall_ratio

        cfg = BiLevelConfig(n_groups=4, bucket_width=16.0, n_tables=4, seed=9)
        exact_ids, _ = brute_force_knn(gaussian_data, gaussian_queries, 5)
        mem_ids, _, _ = BiLevelLSH(cfg).fit(gaussian_data).query_batch(
            gaussian_queries, 5)
        ooc_ids, _, _ = fit_bilevel_chunked(
            cfg, memmap_data, sample_size=400).query_batch(gaussian_queries, 5)
        rec_mem = recall_ratio(exact_ids, mem_ids).mean()
        rec_ooc = recall_ratio(exact_ids, ooc_ids).mean()
        assert rec_ooc > rec_mem - 0.25  # sample-fitted tree: allow slack

    def test_every_config_field_reaches_the_groups(self, gaussian_data,
                                                   memmap_data):
        # One group-building loop: what the in-memory fit honours, the
        # out-of-core fit honours.
        from repro.core.bilevel import BiLevelLSH

        cfg = BiLevelConfig(n_groups=4, bucket_width=4.0, n_tables=2,
                            n_probes=4, adaptive_probing=True,
                            probe_confidence=0.7, scale_widths=True, seed=11)
        ooc = fit_bilevel_chunked(cfg, memmap_data, sample_size=300)
        mem = BiLevelLSH(cfg).fit(gaussian_data)
        for a, b in zip(ooc.group_indexes, mem.group_indexes):
            assert (a.adaptive_probing, a.probe_confidence) \
                == (b.adaptive_probing, b.probe_confidence) == (True, 0.7)
        assert ooc.group_widths != [cfg.bucket_width] * 4
        assert [sub.bucket_width for sub in ooc.group_indexes] \
            == ooc.group_widths

    def test_tuned_widths(self, memmap_data):
        cfg = BiLevelConfig(n_groups=4, tune_params=True,
                            tuner_sample_size=60, seed=10)
        index = fit_bilevel_chunked(cfg, memmap_data, sample_size=300)
        assert len(index.group_widths) == index.n_groups_built
        assert all(w > 0 for w in index.group_widths)
