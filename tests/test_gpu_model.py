"""The Fig. 4 cost model: pinned seconds and behaviour over real indexes.

``PINNED`` holds the seconds the earlier simulated implementation (which
really ran the serial, per-thread and work-queue short-list searches and
charged each step) reported for these count vectors.  The count model
must reproduce them for every mode.
"""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.gpu.pipeline import (MODES, QUEUE_CAPACITY, PipelineTiming,
                                price_counts, price_query_batch)
from repro.lsh.index import StandardLSH


def _zero_counts():
    counts = (np.arange(40) * 53) % 300
    counts[[0, 3, 4, 17, 31, 39]] = 0
    counts[8:16] = 0
    return counts


# name: (counts, (k, dim, n_tables, n_lookups_per_query, n_hashes),
#        {mode: (lookup_seconds, shortlist_seconds)})
PINNED = {
    "one_round": (1 + (np.arange(64) * 37) % 400, (10, 24, 4, 4, 8), {
        "cpu_lshkit": (5.472e-05, 0.0010736220520517104),
        "cpu_shortlist": (6.034285714285714e-07, 0.0010736220520517104),
        "gpu": (6.034285714285714e-07, 9.8263587955832e-05),
        "gpu_workqueue": (6.034285714285714e-07, 4.5070705606893e-05),
    }),
    # 306 768 candidates: two fill rounds, one query split across them.
    "multi_round": ((np.arange(300) * 7919) % 2031, (100, 16, 10, 10, 8), {
        "cpu_lshkit": (0.00052125, 0.020961669443794),
        "cpu_shortlist": (6.5e-06, 0.020961669443794),
        "gpu": (6.5e-06, 0.0032868967871987572),
        "gpu_workqueue": (6.5e-06, 0.0009076573522831407),
    }),
    "zero_counts": (_zero_counts(), (20, 48, 6, 102, 8), {
        "cpu_lshkit": (0.0004401, 0.000492964150315123),
        "cpu_shortlist": (7.56e-06, 0.000492964150315123),
        "gpu": (7.56e-06, 0.00010916162259697293),
        "gpu_workqueue": (7.56e-06, 1.9581905799018346e-05),
    }),
    # 37 queries: the last warp holds five.
    "ragged_warp": (1 + (np.arange(37) * 613) % 900, (50, 32, 3, 33, 6), {
        "cpu_lshkit": (0.00012778875, 0.0016375447502533238),
        "cpu_shortlist": (2.2437857142857145e-06, 0.0016375447502533238),
        "gpu": (2.2437857142857145e-06, 0.0003102117111782698),
        "gpu_workqueue": (2.2437857142857145e-06, 6.661640994708904e-05),
    }),
}


class TestPinnedSeconds:
    def test_multi_round_case_overflows_the_queue(self):
        assert PINNED["multi_round"][0].sum() > QUEUE_CAPACITY

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_pinned(self, name):
        counts, args, expected = PINNED[name]
        timings = price_counts(counts, *args)
        assert set(timings) == set(MODES)
        for mode, (lookup, shortlist) in expected.items():
            assert timings[mode].lookup_seconds == pytest.approx(
                lookup, rel=1e-12, abs=0), mode
            assert timings[mode].shortlist_seconds == pytest.approx(
                shortlist, rel=1e-12, abs=0), mode

    def test_no_candidates_costs_only_lookups(self):
        timings = price_counts(np.zeros(5, dtype=np.int64), 10, 8, 2, 2, 4)
        for t in timings.values():
            assert t.shortlist_seconds == 0.0
            assert t.lookup_seconds > 0.0

    def test_k_beyond_the_queue_rejected(self):
        with pytest.raises(ValueError, match="work queue"):
            price_counts(np.ones(3, dtype=np.int64), QUEUE_CAPACITY, 8, 2, 2, 4)


@pytest.fixture(scope="module")
def fitted_standard():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((1500, 24))
    queries = rng.standard_normal((40, 24))
    idx = StandardLSH(bucket_width=15.0, n_tables=4, seed=1).fit(data)
    return data, queries, idx


class TestPriceQueryBatch:
    def test_every_mode_prices(self, fitted_standard):
        _, queries, idx = fitted_standard
        (ids, _, _), timings = price_query_batch(idx, queries, 10)
        assert ids.shape == (40, 10)
        assert set(timings) == set(MODES)
        for t in timings.values():
            assert isinstance(t, PipelineTiming)
            assert t.total_seconds > 0

    def test_unknown_mode_raises(self, fitted_standard):
        _, queries, idx = fitted_standard
        _, timings = price_query_batch(idx, queries, 5)
        with pytest.raises(KeyError):
            timings["tpu"]

    def test_answer_is_the_index_answer(self, fitted_standard):
        _, queries, idx = fitted_standard
        (ids, dists, stats), _ = price_query_batch(idx, queries, 10)
        ref_ids, ref_dists, ref_stats = idx.query_batch(queries, 10)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(dists, ref_dists)
        np.testing.assert_array_equal(stats.n_candidates,
                                      ref_stats.n_candidates)

    def test_parallel_lookup_faster(self, fitted_standard):
        _, queries, idx = fitted_standard
        _, timings = price_query_batch(idx, queries, 10)
        assert (timings["cpu_shortlist"].lookup_seconds
                < timings["cpu_lshkit"].lookup_seconds)

    def test_gpu_modes_beat_cpu_lshkit_at_scale(self, fitted_standard):
        _, queries, idx = fitted_standard
        _, timings = price_query_batch(idx, queries, 50)
        assert timings["gpu"].total_seconds < timings["cpu_lshkit"].total_seconds
        assert (timings["gpu_workqueue"].total_seconds
                < timings["cpu_lshkit"].total_seconds)

    def test_bilevel_index_prices(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((800, 16))
        queries = rng.standard_normal((10, 16))
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=15.0,
                                       n_tables=3, seed=3)).fit(data)
        (ids, _, stats), timings = price_query_batch(idx, queries, 5)
        assert ids.shape == (10, 5)
        assert stats.n_candidates.sum() > 0
        assert timings["gpu_workqueue"].shortlist_seconds > 0

    def test_more_probes_more_lookup_seconds(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((500, 16))
        queries = rng.standard_normal((10, 16))
        plain = StandardLSH(bucket_width=10.0, n_tables=3, seed=4).fit(data)
        probed = StandardLSH(bucket_width=10.0, n_tables=3, n_probes=10,
                             seed=4).fit(data)
        t_plain = price_query_batch(plain, queries, 5)[1]["cpu_lshkit"]
        t_probed = price_query_batch(probed, queries, 5)[1]["cpu_lshkit"]
        # More probes -> more lookups -> strictly more hash-phase time.
        assert t_probed.lookup_seconds > t_plain.lookup_seconds

    def test_total_is_lookup_plus_shortlist(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((300, 8))
        idx = StandardLSH(bucket_width=10.0, n_tables=2, seed=6).fit(data)
        _, timings = price_query_batch(idx, data[:5], 3)
        for t in timings.values():
            assert t.total_seconds == pytest.approx(
                t.lookup_seconds + t.shortlist_seconds)
