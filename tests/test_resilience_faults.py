"""The chaos matrix: seeded faults x shard threads x spill, end to end.

Acceptance properties (the CI ``chaos`` job runs this file):

1. **No crashed batches** — under a policy, every faulted
   ``query_batch`` returns a full result set.
2. **No silently wrong answers** — every query is either bit-identical
   to the fault-free run or flagged in ``stats.degraded`` /
   ``stats.exhausted_budget``, with the failure recorded.
3. **Faults really fire** — the same plans crash an *unsupervised*
   batch, so the recovery above is doing real work.

All plans are seeded: a failure here reproduces with
``PYTHONHASHSEED=0`` and no flakes.
"""

import copy

import numpy as np
import pytest

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH, oracle_query_batch
from repro.obs.registry import MetricsRegistry
from repro.runtime import IndexRuntime
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResiliencePolicy,
    injected_faults,
)
from tests.shards import shard_rows
from tests.threads import native_threads

N_QUERIES = 40
VICTIM_GROUP = 1


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


def run(index, workers, queries, **options):
    """``index.query_batch`` (``workers == 1``), or shards of ten rows
    through a runtime with ``workers`` kernel threads."""
    if workers == 1:
        return index.query_batch(queries, 10, **options)
    with native_threads(workers), shard_rows(index, 10), \
            IndexRuntime(index) as rt:
        return rt.query_batch(queries, 10, **options)


def dispatch_plan(**kwargs):
    return FaultPlan([FaultSpec(site="bilevel.dispatch",
                                match={"group": VICTIM_GROUP}, **kwargs)],
                     seed=11)


def gather_plan(**kwargs):
    return FaultPlan([FaultSpec(site="lsh.gather", match={"table": 0},
                                **kwargs)], seed=11)


PLAN_MAKERS = {"bilevel.dispatch": dispatch_plan, "lsh.gather": gather_plan}


def without_first_table(index):
    """``index`` as if table 0 were gone — its hierarchy too: the oracle
    of a dropped table."""
    survivors = copy.copy(index)
    survivors.n_tables = index.n_tables - 1
    survivors._families = index._families[1:]
    survivors._tables = index._tables[1:]
    survivors._hierarchies = index._hierarchies[1:]
    return survivors


def exact_in_group(index, group, queries, k):
    """Each query's exact ``k`` nearest among ``group``'s live rows: what
    a failed group's stand-in ranks."""
    rows = index.group_indexes[group]._live_rows()
    diffs = index._data[rows][None, :, :] - queries[:, None, :]
    dists = np.sqrt(np.einsum("qnd,qnd->qn", diffs, diffs))
    top = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return index._store.ids[rows][top], np.take_along_axis(dists, top, 1)


class TestFaultMatrix:
    @pytest.mark.parametrize("site", sorted(PLAN_MAKERS))
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("spill", [1, 2])
    def test_supervised_batch_survives(self, bilevel_cache, queries,
                                       site, workers, spill):
        index, base_ids, base_dists = bilevel_cache(spill)
        # max_hits=1: exactly one victim (one group's dispatch, or one
        # group's table-0 gather); every other query must be untouched.
        plan = PLAN_MAKERS[site](max_hits=1)
        pol = ResiliencePolicy()
        with injected_faults(plan):
            ids, dists, stats = run(index, workers, queries, policy=pol)
        assert plan.hits()[site] == 1
        assert ids.shape == base_ids.shape
        assert stats.degraded is not None and stats.degraded.any()
        ok = ~stats.degraded
        assert ok.any(), "fault should not degrade the whole batch"
        assert np.array_equal(ids[ok], base_ids[ok])
        assert np.array_equal(dists[ok], base_dists[ok])
        # Degraded rows still carry well-formed (possibly padded) results.
        assert ids[stats.degraded].max() < index.n_points
        assert stats.failures and any(r.site == site for r in stats.failures)

    @pytest.mark.parametrize("site", sorted(PLAN_MAKERS))
    def test_unsupervised_batch_crashes(self, bilevel_cache, queries, site):
        # Same plans, no policy: the fault must escape, proving the
        # supervised run above recovered from a real failure.
        index, _, _ = bilevel_cache(1)
        with injected_faults(PLAN_MAKERS[site](max_hits=1)):
            with pytest.raises(InjectedFault):
                index.query_batch(queries, 10)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_dispatch_hit_answers_by_exact_scan(self, bilevel_cache,
                                                queries, workers):
        # One hit at the victim group's check, inline or on a shard
        # thread alike: the rows it covers (all of the group's inline,
        # one shard's on threads) get the exact scan of the group's live
        # rows, flagged; every other row is untouched.
        index, base_ids, base_dists = bilevel_cache(1)
        pol = ResiliencePolicy()
        with injected_faults(dispatch_plan(max_hits=1)):
            ids, dists, stats = run(index, workers, queries, policy=pol)
        in_group = index.partitioner.assign(queries) == VICTIM_GROUP
        hit = stats.degraded_mask()
        assert hit.any() and not (hit & ~in_group).any()
        if workers == 1:
            assert np.array_equal(hit, in_group)
        assert np.array_equal(ids[~hit], base_ids[~hit])
        assert np.array_equal(dists[~hit], base_dists[~hit])
        want_ids, want_dists = exact_in_group(index, VICTIM_GROUP,
                                              queries[hit], 10)
        np.testing.assert_array_equal(ids[hit], want_ids)
        np.testing.assert_allclose(dists[hit], want_dists)
        assert [r.action for r in stats.failures] == ["fallback:bruteforce"]

    def test_gather_fault_in_standard_lsh(self, dataset, queries):
        index = StandardLSH(n_tables=6, bucket_width=8.0, seed=5).fit(dataset)
        base_ids, _, _ = index.query_batch(queries, 10)
        pol = ResiliencePolicy()
        with injected_faults(gather_plan()):
            ids, _, stats = index.query_batch(queries, 10, policy=pol)
        # One dropped table degrades the whole batch (any query may have
        # lost candidates) but the batch still answers from the other 5.
        assert stats.degraded is not None and stats.degraded.all()
        assert ids.shape == base_ids.shape
        assert any(r.site == "lsh.gather" for r in stats.failures)

    @pytest.mark.parametrize("lattice", ["zm", "e8"])
    def test_dropped_table_takes_its_probe_rows_along(self, dataset, queries,
                                                      lattice):
        # One probe call covers every table's rows; a table dropped at
        # lsh.gather must leave out exactly its self rows and probe rows:
        # the answer is the oracle's over the other five tables.
        index = StandardLSH(n_tables=6, bucket_width=8.0, lattice=lattice,
                            n_probes=8, seed=5).fit(dataset)
        _, _, full = index.query_batch(queries, 10)
        pol = ResiliencePolicy()
        with injected_faults(gather_plan()):
            ids, dists, stats = index.query_batch(queries, 10, policy=pol)
        want_ids, want_dists, want = oracle_query_batch(
            without_first_table(index), queries, 10)
        assert stats.degraded is not None and stats.degraded.all()
        assert [r.label for r in stats.failures] == ["table=0"]
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_allclose(dists, want_dists)
        np.testing.assert_array_equal(stats.n_candidates, want.n_candidates)
        assert (stats.n_candidates < full.n_candidates).any()

    @pytest.mark.parametrize("lattice, hierarchy", [
        ("zm", False), ("zm", True), ("e8", True)],
        ids=["plain", "morton", "e8-hier"])
    def test_one_gather_hit_degrades_one_batch(self, dataset, queries,
                                               lattice, hierarchy):
        # max_hits=1: the first batch answers from the five surviving
        # tables, all of it flagged — escalation included: a dropped
        # table's hierarchy is dropped with it; the next one runs healthy
        # again.
        index = StandardLSH(n_tables=6, bucket_width=8.0, lattice=lattice,
                            hierarchy=hierarchy, seed=5).fit(dataset)
        base_ids, base_dists, _ = index.query_batch(queries, 10)
        pol = ResiliencePolicy()
        with injected_faults(gather_plan(max_hits=1)):
            ids, dists, stats = index.query_batch(queries, 10, policy=pol)
            again = index.query_batch(queries, 10, policy=pol)
        want_ids, want_dists, want = oracle_query_batch(
            without_first_table(index), queries, 10)
        assert stats.degraded is not None and stats.degraded.all()
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_allclose(dists, want_dists)
        np.testing.assert_array_equal(stats.n_candidates, want.n_candidates)
        np.testing.assert_array_equal(stats.escalated, want.escalated)
        assert stats.escalated.any() == hierarchy
        assert [r.action for r in pol.failures()] == ["gave_up"]
        assert not again[2].degraded_mask().any()
        assert np.array_equal(again[0], base_ids)
        assert np.array_equal(again[1], base_dists)


class TestChaosSweep:
    @pytest.mark.parametrize("workers,spill", [(1, 1), (4, 2)])
    def test_random_faults_never_crash_or_lie(self, bilevel_cache, queries,
                                              workers, spill):
        # Sub-unit rates at both compute sites, several batches: every
        # batch returns, and every row is bit-identical or flagged.
        index, base_ids, base_dists = bilevel_cache(spill)
        plan = FaultPlan([
            FaultSpec(site="bilevel.dispatch", rate=0.3),
            FaultSpec(site="lsh.gather", rate=0.05),
        ], seed=99)
        pol = ResiliencePolicy()
        with injected_faults(plan):
            for _ in range(4):
                ids, dists, stats = run(index, workers, queries,
                                        policy=pol)
                ok = ~stats.degraded_mask()
                assert np.array_equal(ids[ok], base_ids[ok])
                assert np.array_equal(dists[ok], base_dists[ok])
        assert sum(plan.hits().values()) > 0
        assert pol.failures(), "sweep should have recorded failures"


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
        # Budget exhaustion is not degradation: nothing failed.
        assert not stats.degraded_mask().any()

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


class TestObsIntegration:
    def test_fallbacks_and_degradation_are_metered(self, bilevel_cache,
                                                   queries):
        index, _, _ = bilevel_cache(1)
        registry = MetricsRegistry()
        obs.enable(registry=registry)
        try:
            with injected_faults(dispatch_plan()):
                index.query_batch(queries, 10, policy=ResiliencePolicy())
        finally:
            obs.disable()
        snap = registry.snapshot()
        n_victims = int(np.sum(
            index.partitioner.assign(queries) == VICTIM_GROUP))
        [fallback] = snap[obs.FALLBACKS_TOTAL]["samples"]
        assert fallback["labels"] == {"site": "bilevel.dispatch",
                                      "kind": "bruteforce"}
        assert fallback["value"] == 1
        [degraded] = snap[obs.DEGRADED_QUERIES_TOTAL]["samples"]
        assert degraded["labels"] == {"reason": "dispatch"}
        assert degraded["value"] == n_victims
