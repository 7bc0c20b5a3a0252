"""Execution-core tests: sharding parity, cross-shard deadlines, chaos.

The contract under test (see DESIGN.md "Execution core"):

1. **Shard parity** — ``max_batch_rows`` is a memory knob, not a
   semantics knob: for every front-end and supervision mode the sharded
   batch is bit-identical to the unsharded one (and still the scalar
   oracle's neighbours).
2. **One deadline across shards** — the budget is a single absolute
   expiry; shards that start after it return padded answers flagged
   ``exhausted_budget`` while earlier shards stay untouched.
3. **Faults compose with sharding** — a supervised fault inside one
   shard degrades exactly its rows; every other row (in every shard)
   stays bit-identical to the fault-free run.

All fault plans and datasets are seeded; the CI ``chaos`` job runs this
file with ``PYTHONHASHSEED=0``.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.groundtruth import GroundTruth
from repro.evaluation.runner import evaluate_index
from repro.exec import ExecutionContext, QueryStats
from repro.lsh.index import StandardLSH, oracle_query_batch
from repro.obs.registry import MetricsRegistry
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    QueryValidationError,
    ResiliencePolicy,
    injected_faults,
)
from repro.runtime import IndexRuntime, RuntimeConfig
from tests.threads import THREADS, native_threads

N_QUERIES = 23  # deliberately not a multiple of any shard size below
DIM = 16
K = 10


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(2024).standard_normal((700, DIM))


@pytest.fixture(scope="module")
def queries(dataset):
    return np.random.default_rng(2025).standard_normal((N_QUERIES, DIM))


@pytest.fixture(scope="module")
def standard(dataset):
    return StandardLSH(n_tables=6, bucket_width=8.0, seed=5).fit(dataset)


@pytest.fixture(scope="module")
def bilevel(dataset):
    cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=8.0, seed=5)
    return BiLevelLSH(cfg).fit(dataset)


def assert_same_results(a, b):
    ids_a, dists_a, stats_a = a
    ids_b, dists_b, stats_b = b
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(dists_a, dists_b)
    assert np.array_equal(stats_a.n_candidates, stats_b.n_candidates)
    assert np.array_equal(stats_a.escalated, stats_b.escalated)
    assert np.array_equal(stats_a.degraded_mask(), stats_b.degraded_mask())


# ---------------------------------------------------------------- parity

SHARD_SIZES = [1, 7, N_QUERIES]


class TestShardParity:
    @pytest.mark.parametrize("rows", SHARD_SIZES)
    @pytest.mark.parametrize("reference", ["vectorized", "scalar"])
    def test_standard_lsh(self, standard, queries, rows, reference):
        # Against the unsharded plan bit for bit; against the scalar
        # oracle to its tolerance.
        sharded = standard.query_batch(queries, K, max_batch_rows=rows)
        if reference == "vectorized":
            assert_same_results(standard.query_batch(queries, K), sharded)
        else:
            ids, dists, stats = oracle_query_batch(standard, queries, K)
            assert np.array_equal(ids, sharded[0])
            np.testing.assert_allclose(dists, sharded[1])
            assert np.array_equal(stats.n_candidates,
                                  sharded[2].n_candidates)

    @pytest.mark.parametrize("rows", SHARD_SIZES)
    @pytest.mark.parametrize("supervised", [False, True])
    def test_standard_lsh_hierarchy(self, dataset, queries, rows,
                                    supervised):
        # A pinned threshold, as the fitted one, is shard-invariant.
        index = StandardLSH(n_tables=6, bucket_width=8.0, seed=5,
                            hierarchy=True).fit(dataset)
        kwargs = {"hierarchy_threshold": 12}
        if supervised:
            kwargs["policy"] = ResiliencePolicy()
        base = index.query_batch(queries, K, **kwargs)
        sharded = index.query_batch(queries, K, max_batch_rows=rows,
                                    **kwargs)
        assert base[2].escalated.any(), "threshold should escalate someone"
        assert_same_results(base, sharded)

    @pytest.mark.parametrize("rows", SHARD_SIZES)
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("supervised", [False, True])
    def test_bilevel(self, bilevel, queries, rows, threads, supervised):
        # Library shards, and the same shards through a runtime at P.
        kwargs = {}
        if supervised:
            kwargs["policy"] = ResiliencePolicy()
        base = bilevel.query_batch(queries, K, **kwargs)
        sharded = bilevel.query_batch(queries, K, max_batch_rows=rows,
                                      **kwargs)
        assert_same_results(base, sharded)
        with native_threads(threads), IndexRuntime(
                bilevel, RuntimeConfig(max_batch_rows=rows)) as rt:
            assert_same_results(base, rt.query_batch(queries, K, **kwargs))

    def test_config_default_is_used(self, dataset, queries):
        # config.max_batch_rows shards every batch without the kwarg;
        # the obs shard counter proves the split actually happened: the
        # executor slices the batch, as for every other front-end.
        rows = 3
        cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=8.0,
                            seed=5, max_batch_rows=rows)
        index = BiLevelLSH(cfg).fit(dataset)
        plain = BiLevelLSH(BiLevelConfig(
            n_groups=4, n_tables=6, bucket_width=8.0, seed=5)).fit(dataset)
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            sharded = index.query_batch(queries, K)
        finally:
            obs.disable()
        assert_same_results(plain.query_batch(queries, K), sharded)
        shard_counts = {dict(c.label_items)["site"]: c.value
                       for c in reg.get(obs.EXEC_SHARDS_TOTAL).children()}
        assert shard_counts == {"bilevel": -(-N_QUERIES // rows)}

    def test_record_shards_counter(self, standard, queries):
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            standard.query_batch(queries, K, max_batch_rows=7)
            standard.query_batch(queries, K)  # unsharded: not counted
        finally:
            obs.disable()
        counter = reg.get(obs.EXEC_SHARDS_TOTAL)
        assert counter.total() == -(-N_QUERIES // 7)
        assert {dict(c.label_items)["site"]
                for c in counter.children()} == {"lsh"}


class TestMaxBatchRowsValidation:
    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "7"])
    def test_rejects_non_positive_ints(self, standard, queries, bad):
        with pytest.raises(QueryValidationError) as excinfo:
            standard.query_batch(queries, K, max_batch_rows=bad)
        assert excinfo.value.field == "max_batch_rows"

    def test_numpy_integer_is_accepted(self, standard, queries):
        base = standard.query_batch(queries, K)
        sharded = standard.query_batch(queries, K,
                                       max_batch_rows=np.int64(7))
        assert_same_results(base, sharded)


class TestHierarchyThresholdValidation:
    """``hierarchy_threshold`` is ``None`` or an integer ``>= 0`` on every
    index, checked before anything runs — not a bare ``int()`` deep in
    the escalate stage, and not coerced."""

    @pytest.fixture(scope="class")
    def hierarchy(self, dataset):
        return BiLevelLSH(BiLevelConfig(n_groups=4, n_tables=6,
                                        bucket_width=8.0, lattice="e8",
                                        hierarchy=True, seed=5)).fit(dataset)

    @pytest.mark.parametrize("bad", ["foo", "median", True, -5, 2.5, 12.0])
    @pytest.mark.parametrize("kind", ["standard", "bilevel", "hierarchy"])
    def test_rejected_on_every_index(self, request, queries, kind, bad):
        index = request.getfixturevalue(kind)
        with pytest.raises(QueryValidationError) as excinfo:
            index.query_batch(queries, K, hierarchy_threshold=bad)
        assert excinfo.value.field == "hierarchy_threshold"
        with pytest.raises(QueryValidationError):
            index.execution_plan(bad)

    def test_none_zero_and_numpy_integers_pass(self, hierarchy, queries):
        fitted = hierarchy.query_batch(queries, K)
        assert_same_results(fitted, hierarchy.query_batch(
            queries, K, hierarchy_threshold=None))
        assert_same_results(
            hierarchy.query_batch(queries, K, hierarchy_threshold=12),
            hierarchy.query_batch(queries, K,
                                  hierarchy_threshold=np.int64(12)))
        # Below k, a threshold is k: 0 is as good as any value up to it.
        assert_same_results(
            hierarchy.query_batch(queries, K, hierarchy_threshold=0),
            hierarchy.query_batch(queries, K, hierarchy_threshold=K))


# ------------------------------------------------------------- deadlines


class TestDeadlineAcrossShards:
    def test_later_shards_exhaust_earlier_untouched(self, standard,
                                                    queries):
        # One absolute expiry for the whole batch: a delay burns the
        # budget inside shard 1, which still completes (StandardLSH
        # checks the budget between escalation rounds, not mid-stage);
        # shards 2 and 3 then start past the deadline and must return
        # padded rows flagged exhausted without running their stages.
        base_ids, base_dists, _ = standard.query_batch(queries, K)
        plan = FaultPlan([FaultSpec(site="lsh.gather", kind="delay",
                                    delay_ms=80.0, match={"table": 0},
                                    max_hits=1)], seed=3)
        with injected_faults(plan):
            ids, dists, stats = standard.query_batch(
                queries, K, deadline_ms=25.0, max_batch_rows=8)
        assert plan.hits()["lsh.gather"] == 1
        assert stats.exhausted_budget is not None
        assert not stats.exhausted_budget[:8].any()
        assert stats.exhausted_budget[8:].all()
        assert np.array_equal(ids[:8], base_ids[:8])
        assert np.array_equal(dists[:8], base_dists[:8])
        assert (ids[8:] == -1).all()
        assert np.isinf(dists[8:]).all()
        assert stats.degraded is None

    def test_generous_deadline_changes_nothing(self, standard, queries):
        base = standard.query_batch(queries, K)
        ids, dists, stats = standard.query_batch(
            queries, K, deadline_ms=60_000.0, max_batch_rows=7)
        assert np.array_equal(ids, base[0])
        assert np.array_equal(dists, base[1])
        assert stats.exhausted_budget is not None
        assert not stats.exhausted_budget.any()


# ----------------------------------------------------------------- chaos


class TestShardedFaults:
    def test_bilevel_dispatch_fault_in_one_shard(self, bilevel, queries):
        index = bilevel
        base_ids, base_dists, _ = index.query_batch(queries, K)
        plan = FaultPlan([FaultSpec(site="bilevel.dispatch",
                                    match={"group": 1}, max_hits=1)],
                         seed=11)
        pol = ResiliencePolicy()
        with injected_faults(plan):
            ids, dists, stats = index.query_batch(
                queries, K, policy=pol, max_batch_rows=7)
        assert plan.hits()["bilevel.dispatch"] == 1
        assert stats.degraded is not None and stats.degraded.any()
        ok = ~stats.degraded
        assert ok.any()
        assert np.array_equal(ids[ok], base_ids[ok])
        assert np.array_equal(dists[ok], base_dists[ok])
        assert any(r.site == "bilevel.dispatch" for r in stats.failures)

    def test_nonfinite_rows_sharded_parity(self, standard, queries):
        # Policy-gated NaN handling is per shard; the flagged rows and
        # the failure records must match the unsharded run.
        bad = queries.copy()
        bad[3, 0] = np.nan
        bad[17, 2] = np.inf
        pol = ResiliencePolicy()
        base_ids, base_dists, base_stats = standard.query_batch(
            bad, K, policy=pol)
        ids, dists, stats = standard.query_batch(
            bad, K, policy=pol, max_batch_rows=8)
        assert np.array_equal(ids, base_ids)
        assert np.array_equal(dists, base_dists)
        assert np.array_equal(stats.degraded, base_stats.degraded)
        assert stats.degraded[3] and stats.degraded[17]
        # One validation record per shard containing a bad row (rows 3
        # and 17 land in different shards of 8).
        val = [r for r in stats.failures if r.site == "lsh.validate"]
        assert len(val) == 2


# ------------------------------------------------------------------ fold


class TestAbsorb:
    """``ExecutionContext.absorb`` is the one place a sub-result is put
    into a result: the shard loop, the non-finite split, the bi-level
    merge and the process pool all fold through it."""

    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("exhausted", [False, True])
    def test_lazy_masks(self, degraded, exhausted):
        # A mask the sub-result does not carry leaves the parent's at
        # ``None`` ("never engaged"); one it carries is allocated on
        # first need and OR-ed in, over exactly the absorbed rows.
        rng = np.random.default_rng(7)
        ctx = ExecutionContext.for_batch(rng.standard_normal((6, DIM)), 3)
        rows = np.array([1, 4])
        flag = np.array([True, False])
        record = ResiliencePolicy().note_failure(
            "lsh.gather", "table=0", RuntimeError("boom"), "gave_up")
        stats = QueryStats(
            np.array([5, 9]), np.array([False, True]),
            degraded=flag if degraded else None,
            exhausted_budget=flag if exhausted else None,
            failures=(record,))
        ids = np.array([[10, 11, 12], [20, 21, -1]])
        dists = np.array([[0.1, 0.2, 0.3], [0.5, 0.6, np.inf]])
        ctx.absorb(rows, ids, dists, stats)
        assert np.array_equal(ctx.ids_out[rows], ids)
        assert np.array_equal(ctx.dists_out[rows], dists)
        untouched = np.setdiff1d(np.arange(6), rows)
        assert (ctx.ids_out[untouched] == -1).all()
        assert np.isinf(ctx.dists_out[untouched]).all()
        assert ctx.n_candidates.tolist() == [0, 5, 0, 0, 9, 0]
        assert ctx.escalated.tolist() == [False] * 4 + [True, False]
        want = [False, True] + [False] * 4
        out = ctx.build_stats()
        assert (out.degraded is None) == (not degraded)
        assert (out.exhausted_budget is None) == (not exhausted)
        if degraded:
            assert out.degraded.tolist() == want
        if exhausted:
            assert out.exhausted_budget.tolist() == want
        assert out.failures == (record,)
        # A second sub-result ORs into masks already there: a flag set
        # by one fold is not cleared by the next.
        ctx.absorb(rows, ids, dists, QueryStats(
            np.array([5, 9]), np.array([False, True]),
            degraded=~flag if degraded else None))
        if degraded:
            assert ctx.degraded.tolist() == [False, True, False, False,
                                             True, False]
        assert (ctx.exhausted is None) == (not exhausted)

    def test_every_path_folds_to_the_same_stats(self, dataset, queries):
        # Unsharded == sharded == sharded on a runtime's threads == one
        # NaN row set aside under a policy (on the finite rows), on every
        # QueryStats field — a deadline makes ``exhausted_budget`` one.
        index = StandardLSH(n_tables=6, bucket_width=8.0, hierarchy=True,
                            seed=5).fit(dataset)
        options = dict(hierarchy_threshold=40, deadline_ms=60_000.0)

        def fields(stats, rows=slice(None)):
            return {
                "n_candidates": stats.n_candidates[rows].tolist(),
                "escalated": stats.escalated[rows].tolist(),
                "degraded": (None if stats.degraded is None
                             else stats.degraded[rows].tolist()),
                "exhausted_budget": (
                    None if stats.exhausted_budget is None
                    else stats.exhausted_budget[rows].tolist()),
                "failures": stats.failures,
            }

        base_ids, base_dists, base_stats = index.query_batch(
            queries, K, **options)
        assert base_stats.escalated.any() and not base_stats.escalated.all()
        assert fields(base_stats)["degraded"] is None
        assert fields(base_stats)["exhausted_budget"] == [False] * N_QUERIES

        ids, dists, stats = index.query_batch(queries, K, max_batch_rows=7,
                                              **options)
        assert np.array_equal(ids, base_ids)
        assert np.array_equal(dists, base_dists)
        assert fields(stats) == fields(base_stats)

        for p in THREADS:
            with native_threads(p), IndexRuntime(index) as runtime:
                ids, dists, stats = runtime.query_batch(
                    queries, K, max_batch_rows=7, **options)
            assert np.array_equal(ids, base_ids)
            assert np.array_equal(dists, base_dists)
            assert fields(stats) == fields(base_stats)

        bad = queries.copy()
        bad[5, 1] = np.nan
        finite = np.setdiff1d(np.arange(N_QUERIES), [5])
        ids, dists, stats = index.query_batch(
            bad, K, policy=ResiliencePolicy(), **options)
        assert np.array_equal(ids[finite], base_ids[finite])
        assert np.array_equal(dists[finite], base_dists[finite])
        got, want = fields(stats, finite), fields(base_stats, finite)
        assert got.pop("degraded") == [False] * finite.size
        assert [r.site for r in got.pop("failures")] == ["lsh.validate"]
        assert want.pop("degraded") is None and want.pop("failures") is None
        assert got == want
        assert stats.degraded[5] and (ids[5] == -1).all()


# ------------------------------------------------------------ evaluation


class TestEvaluationThreading:
    def test_sharded_evaluation_matches(self, dataset, queries):
        gt = GroundTruth(dataset, queries, K)
        base = evaluate_index(
            StandardLSH(n_tables=6, bucket_width=8.0, seed=5),
            dataset, queries, K, gt)
        sharded = evaluate_index(
            StandardLSH(n_tables=6, bucket_width=8.0, seed=5),
            dataset, queries, K, gt, max_batch_rows=7)
        assert np.array_equal(sharded.recall, base.recall)
        assert np.array_equal(sharded.error, base.error)
        assert np.array_equal(sharded.selectivity, base.selectivity)

    def test_policy_reaches_the_index(self, dataset, queries):
        # A fault that would crash an unsupervised run is absorbed when
        # the policy enters through evaluate_index.
        gt = GroundTruth(dataset, queries, K)
        plan = FaultPlan([FaultSpec(site="lsh.gather", match={"table": 0},
                                    max_hits=1)], seed=11)
        index = StandardLSH(n_tables=6, bucket_width=8.0, seed=5)
        with injected_faults(plan):
            measurement = evaluate_index(
                index, dataset, queries, K, gt,
                policy=ResiliencePolicy())
        assert plan.hits()["lsh.gather"] == 1
        assert ((measurement.recall >= 0.0)
                & (measurement.recall <= 1.0)).all()

    def test_expired_deadline_degrades_gracefully(self, dataset, queries):
        gt = GroundTruth(dataset, queries, K)
        index = StandardLSH(n_tables=6, bucket_width=8.0, seed=5)
        measurement = evaluate_index(index, dataset, queries, K, gt,
                                     deadline_ms=1e-6, max_batch_rows=7)
        assert (measurement.recall == 0.0).all()
