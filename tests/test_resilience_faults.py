"""Deadlines end to end: a spent budget pads, a generous one changes
nothing, on a Bi-level index and a StandardLSH alike.

A query has no fault site and nothing to degrade (a bad row is refused
by validation), so a budget is the one thing that can cut a batch
short: the rows it cut come back padded and flagged
``exhausted_budget``, every other row bit-identical to the unbudgeted
run.  The CI ``chaos`` job runs this file beside the disk fault
matrices.
"""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from tests.shards import shard_rows

N_QUERIES = 40


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(2024)
    return rng.standard_normal((900, 24))


@pytest.fixture(scope="module")
def queries(dataset):
    return np.random.default_rng(2025).standard_normal((N_QUERIES, 24))


@pytest.fixture(scope="module")
def bilevel_cache(dataset, queries):
    """spill -> (index, baseline ids, baseline dists)."""
    cache = {}

    def get(spill):
        if spill not in cache:
            cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=8.0,
                                multi_assign=spill, seed=5)
            index = BiLevelLSH(cfg).fit(dataset)
            ids, dists, _ = index.query_batch(queries, 10)
            cache[spill] = (index, ids, dists)
        return cache[spill]

    return get


class TestTimeoutsAndDeadlines:
    def test_expired_deadline_returns_best_effort(self, bilevel_cache,
                                                  queries):
        # The budget is checked between shards (and escalation chunks),
        # as for a StandardLSH: shards starting past it are padded.
        index, _, _ = bilevel_cache(1)
        with shard_rows(index, 10):
            ids, dists, stats = index.query_batch(queries, 10,
                                                  deadline_ms=1e-6)
        assert stats.exhausted_budget is not None
        assert stats.exhausted_budget.all()
        assert ids.shape == (N_QUERIES, 10)

    def test_generous_deadline_changes_nothing(self, bilevel_cache, queries):
        index, base_ids, base_dists = bilevel_cache(1)
        ids, dists, stats = index.query_batch(queries, 10,
                                              deadline_ms=60_000.0)
        assert not stats.exhausted_mask().any()
        assert np.array_equal(ids, base_ids)
        assert np.array_equal(dists, base_dists)

    def test_standard_lsh_deadline_skips_escalation(self, dataset, queries):
        index = StandardLSH(n_tables=6, bucket_width=2.0, hierarchy=True,
                            seed=5).fit(dataset)
        ids, _, stats = index.query_batch(queries, 10, deadline_ms=1e-6)
        assert stats.exhausted_budget is not None
        assert ids.shape == (N_QUERIES, 10)
