"""Query-path tests: sharding parity, cross-shard deadlines.

The contract under test (see DESIGN.md §11, "The query path"):

1. **Shard parity** — the query path's shard size (``SHARD_LOOKUP_ROWS``
   over the plan's lookups per row) bounds memory, not semantics: for
   every front-end, supervised (under a generous deadline, whose
   ``exhausted_budget`` mask must fold alike) or not, the sharded batch
   is bit-identical to the unsharded one (and still the scalar oracle's
   neighbours).  ``tests.shards.shard_rows`` patches the size down to
   these small batches.
2. **One deadline across shards** — the budget is a single absolute
   expiry; shards that start after it return padded answers flagged
   ``exhausted_budget`` while earlier shards stay untouched.
   ``tests.stall.stalled_stage`` burns the budget inside a shard.

All datasets are seeded; the CI ``chaos`` job runs this file with
``PYTHONHASHSEED=0``.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.groundtruth import GroundTruth
from repro.evaluation.runner import evaluate_index
from repro.lsh import query as lsh_query
from repro.lsh.index import StandardLSH
from repro.obs.registry import MetricsRegistry
from repro.resilience import Deadline, QueryValidationError
from repro.runtime import IndexRuntime
from tests.oracle import oracle_query_batch
from tests.shards import shard_rows
from tests.stall import stalled_stage
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
    assert (stats_a.exhausted_budget is None) \
        == (stats_b.exhausted_budget is None)
    assert np.array_equal(stats_a.exhausted_mask(), stats_b.exhausted_mask())


#: What a supervised batch runs under: a budget it never spends.
SUPERVISED = {"deadline_ms": 600_000.0}


# ---------------------------------------------------------------- parity

SHARD_SIZES = [1, 7, N_QUERIES]


class TestShardParity:
    @pytest.mark.parametrize("rows", SHARD_SIZES)
    @pytest.mark.parametrize("reference", ["vectorized", "scalar"])
    def test_standard_lsh(self, standard, queries, rows, reference):
        # Against the unsharded plan bit for bit; against the scalar
        # oracle to its tolerance.
        with shard_rows(standard, rows):
            sharded = standard.query_batch(queries, K)
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
            kwargs.update(SUPERVISED)
        base = index.query_batch(queries, K, **kwargs)
        with shard_rows(index, rows):
            sharded = index.query_batch(queries, K, **kwargs)
        assert base[2].escalated.any(), "threshold should escalate someone"
        assert_same_results(base, sharded)

    @pytest.mark.parametrize("rows", SHARD_SIZES)
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("supervised", [False, True])
    def test_bilevel(self, bilevel, queries, rows, threads, supervised):
        # Library shards, and the same shards through a runtime at P.
        kwargs = dict(SUPERVISED) if supervised else {}
        base = bilevel.query_batch(queries, K, **kwargs)
        with shard_rows(bilevel, rows):
            sharded = bilevel.query_batch(queries, K, **kwargs)
            assert_same_results(base, sharded)
            with native_threads(threads), IndexRuntime(bilevel) as rt:
                assert_same_results(base,
                                    rt.query_batch(queries, K, **kwargs))

    def test_config_default_is_used(self, dataset, queries):
        # The query path shards every batch with no option set:
        # ``SHARD_LOOKUP_ROWS`` over the plan's lookups per row, here
        # spill 2 x 6 tables x 5 own-and-probe buckets = 60 per row.  The
        # obs shard counter proves the split actually happened.
        index = BiLevelLSH(BiLevelConfig(
            n_groups=4, n_tables=6, bucket_width=8.0, n_probes=4,
            multi_assign=2, seed=5)).fit(dataset)
        assert index.execution_plan().lookups_per_row() == 60
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lsh_query, "SHARD_LOOKUP_ROWS", 200)
                sharded = index.query_batch(queries, K)
        finally:
            obs.disable()
        assert_same_results(index.query_batch(queries, K), sharded)
        shard_counts = {dict(c.label_items)["site"]: c.value
                       for c in reg.get(obs.EXEC_SHARDS_TOTAL).children()}
        assert shard_counts == {"bilevel": -(-N_QUERIES // (200 // 60))}

    def test_record_shards_counter(self, standard, queries):
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with shard_rows(standard, 7):
                standard.query_batch(queries, K)
            standard.query_batch(queries, K)  # unsharded: not counted
        finally:
            obs.disable()
        counter = reg.get(obs.EXEC_SHARDS_TOTAL)
        assert counter.total() == -(-N_QUERIES // 7)
        assert {dict(c.label_items)["site"]
                for c in counter.children()} == {"lsh"}


def _count_shards(run):
    """``run()`` under a fresh registry: ``(result, shards recorded)``."""
    reg = MetricsRegistry()
    obs.enable(registry=reg)
    try:
        result = run()
    finally:
        obs.disable()
    counter = reg.get(obs.EXEC_SHARDS_TOTAL)
    return result, 0 if counter is None else int(counter.total())


def _answer_bytes(result):
    ids, dists, stats = result
    return [ids.tobytes(), dists.tobytes(), stats.n_candidates.tobytes(),
            stats.escalated.tobytes(), stats.exhausted_mask().tobytes()]


class TestDerivedShardSize:
    """With no option set, the query path shards a batch at
    ``SHARD_LOOKUP_ROWS // plan.lookups_per_row()`` rows, where a row
    costs tables x (1 + probes) x spill lookups: a lookup-heavy batch
    splits, and no call shaped like an e2e workload does."""

    def test_a_lookup_heavy_batch_shards_and_answers_alike(self, dataset):
        # E8 probes at most 240 cells per block: 2 routes x 4 tables x
        # (1 + 240) lookups per row.
        index = BiLevelLSH(BiLevelConfig(
            n_groups=4, n_tables=4, bucket_width=8.0, lattice="e8",
            n_probes=300, hierarchy=True, multi_assign=2,
            seed=5)).fit(dataset)
        per_row = index.execution_plan().lookups_per_row()
        assert per_row == 2 * 4 * 241
        rows = lsh_query.SHARD_LOOKUP_ROWS // per_row
        queries = np.random.default_rng(9).standard_normal((rows + 17, DIM))
        options = dict(deadline_ms=600_000.0)
        sharded, n_shards = _count_shards(
            lambda: index.query_batch(queries, K, **options))
        assert n_shards == -(-queries.shape[0] // rows) == 2
        assert sharded[2].escalated.any()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lsh_query, "SHARD_LOOKUP_ROWS",
                          per_row * queries.shape[0])
            whole, n_whole = _count_shards(
                lambda: index.query_batch(queries, K, **options))
        assert n_whole == 0
        assert _answer_bytes(sharded) == _answer_bytes(whole)

    @pytest.mark.parametrize("shape, n_rows, per_row", [
        ("batch_plain", 2000, 10),          # Z^M, L = 10, spill 1
        ("zm_32_probes", 50, 10 * 33),      # batch_adaptive's probe index
        ("e8_hierarchy", 50, 10),           # batch_adaptive's hierarchy
    ])
    def test_e2e_shaped_calls_run_as_one_shard(self, dataset, shape, n_rows,
                                               per_row):
        options = {"zm_32_probes": dict(n_probes=32),
                   "e8_hierarchy": dict(lattice="e8", hierarchy=True)}
        index = BiLevelLSH(BiLevelConfig(
            n_groups=4, n_tables=10, bucket_width=8.0, seed=5,
            **options.get(shape, {}))).fit(dataset)
        assert index.execution_plan().lookups_per_row() == per_row
        queries = np.random.default_rng(10).standard_normal((n_rows, DIM))
        _, n_shards = _count_shards(lambda: index.query_batch(queries, K))
        assert n_shards == 0


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


class TestCandidateSetsValidation:
    """``candidate_sets`` refuses what ``query_batch`` refuses, with the
    same typed error, on both indexes."""

    @pytest.mark.parametrize("bad", ["narrow", "nan"])
    @pytest.mark.parametrize("kind", ["standard", "bilevel"])
    def test_refused_like_query_batch(self, request, queries, kind, bad):
        index = request.getfixturevalue(kind)
        rows = queries[:, :8] if bad == "narrow" else queries.copy()
        if bad == "nan":
            rows[2, 3] = np.nan
        for call in (lambda: index.query_batch(rows, K),
                     lambda: index.candidate_sets(rows)):
            with pytest.raises(QueryValidationError) as excinfo:
                call()
            assert excinfo.value.field == "queries"


# ------------------------------------------------------------- deadlines


class TestDeadlineAcrossShards:
    def test_later_shards_exhaust_earlier_untouched(self, standard,
                                                    queries):
        # One absolute expiry for the whole batch: a stalled gather burns
        # the budget inside shard 1, which still completes (StandardLSH
        # checks the budget between escalation rounds, not mid-stage);
        # shards 2 and 3 then start past the deadline and must return
        # padded rows flagged exhausted without running their stages.
        base_ids, base_dists, _ = standard.query_batch(queries, K)
        with stalled_stage("gather", 80.0, max_hits=1) as stall, \
                shard_rows(standard, 8):
            ids, dists, stats = standard.query_batch(
                queries, K, deadline_ms=25.0)
        assert stall.hits == 1
        assert stats.exhausted_budget is not None
        assert not stats.exhausted_budget[:8].any()
        assert stats.exhausted_budget[8:].all()
        assert np.array_equal(ids[:8], base_ids[:8])
        assert np.array_equal(dists[:8], base_dists[:8])
        assert (ids[8:] == -1).all()
        assert np.isinf(dists[8:]).all()

    def test_generous_deadline_changes_nothing(self, standard, queries):
        base = standard.query_batch(queries, K)
        with shard_rows(standard, 7):
            ids, dists, stats = standard.query_batch(
                queries, K, deadline_ms=60_000.0)
        assert np.array_equal(ids, base[0])
        assert np.array_equal(dists, base[1])
        assert stats.exhausted_budget is not None
        assert not stats.exhausted_budget.any()


# ------------------------------------------------------------------ fold


class TestAbsorb:
    """A shard is the batch's record over its rows, written in place: the
    only way a shard's answers, counts and flags reach the batch's."""

    @pytest.mark.parametrize("again", [False, True])
    @pytest.mark.parametrize("exhausted", [False, True])
    def test_lazy_masks(self, dataset, queries, again, exhausted):
        # Without a budget the exhausted mask stays ``None`` ("no
        # deadline"), stalled shards or not (``again``).  With one, every
        # shard's flags are OR-ed into the one mask over exactly its
        # rows: the loop's for shards that start late, and with
        # ``again`` also the escalate stage's inside the shard that
        # spent the budget, which keeps its answers.
        index = StandardLSH(n_tables=6, bucket_width=8.0, hierarchy=True,
                            seed=5).fit(dataset)
        options = dict(hierarchy_threshold=10 ** 6)  # every row escalates
        base = index.query_batch(queries, K, **options)
        if exhausted and not again:
            options["deadline"] = Deadline.from_ms(0.001)
            time.sleep(0.01)
        elif exhausted:
            options["deadline_ms"] = 50.0
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            with stalled_stage("gather", 150.0 if again else 0.0,
                               max_hits=1), shard_rows(index, 8):
                ids, dists, stats = index.query_batch(queries, K, **options)
        finally:
            obs.disable()
        counter = reg.get(obs.DEADLINE_EXHAUSTED_TOTAL)
        flagged = {} if counter is None else {
            dict(c.label_items)["stage"]: c.value for c in counter.children()}
        if not exhausted:
            assert stats.exhausted_budget is None
            assert flagged == {}
            assert_same_results(base, (ids, dists, stats))
            return
        assert stats.exhausted_budget.all()
        assert not stats.escalated.any()
        assert (ids[8:] == -1).all() and np.isinf(dists[8:]).all()
        if again:
            assert flagged == {"lsh.escalate": 8, "lsh.shard": N_QUERIES - 8}
            assert (ids[:8, 0] >= 0).all()
        else:
            assert flagged == {"lsh.shard": N_QUERIES}
            assert (ids == -1).all()

    def test_every_path_folds_to_the_same_stats(self, dataset, queries):
        # Unsharded == sharded == sharded on a runtime's threads, on
        # every QueryStats field — a deadline makes ``exhausted_budget``
        # one; and a NaN row anywhere refuses the batch on every path.
        index = StandardLSH(n_tables=6, bucket_width=8.0, hierarchy=True,
                            seed=5).fit(dataset)
        options = dict(hierarchy_threshold=40, deadline_ms=60_000.0)

        def fields(stats, rows=slice(None)):
            return {
                "n_candidates": stats.n_candidates[rows].tolist(),
                "escalated": stats.escalated[rows].tolist(),
                "exhausted_budget": (
                    None if stats.exhausted_budget is None
                    else stats.exhausted_budget[rows].tolist()),
            }

        base_ids, base_dists, base_stats = index.query_batch(
            queries, K, **options)
        assert base_stats.escalated.any() and not base_stats.escalated.all()
        assert fields(base_stats)["exhausted_budget"] == [False] * N_QUERIES

        with shard_rows(index, 7):
            ids, dists, stats = index.query_batch(queries, K, **options)
        assert np.array_equal(ids, base_ids)
        assert np.array_equal(dists, base_dists)
        assert fields(stats) == fields(base_stats)

        for p in THREADS:
            with native_threads(p), shard_rows(index, 7), \
                    IndexRuntime(index) as runtime:
                ids, dists, stats = runtime.query_batch(
                    queries, K, **options)
            assert np.array_equal(ids, base_ids)
            assert np.array_equal(dists, base_dists)
            assert fields(stats) == fields(base_stats)

        bad = queries.copy()
        bad[5, 1] = np.nan
        with pytest.raises(QueryValidationError):
            index.query_batch(bad, K, **options)
        with shard_rows(index, 7), IndexRuntime(index) as runtime, \
                pytest.raises(QueryValidationError):
            runtime.query_batch(bad, K, **options)


# ------------------------------------------------------------ evaluation


class TestEvaluationThreading:
    def test_sharded_evaluation_matches(self, standard, dataset, queries):
        # ``standard`` has the evaluated index's lookups per row.
        gt = GroundTruth(dataset, queries, K)
        base = evaluate_index(
            StandardLSH(n_tables=6, bucket_width=8.0, seed=5),
            dataset, queries, K, gt)
        with shard_rows(standard, 7):
            sharded = evaluate_index(
                StandardLSH(n_tables=6, bucket_width=8.0, seed=5),
                dataset, queries, K, gt)
        assert np.array_equal(sharded.recall, base.recall)
        assert np.array_equal(sharded.error, base.error)
        assert np.array_equal(sharded.selectivity, base.selectivity)

    def test_expired_deadline_degrades_gracefully(self, standard, dataset,
                                                  queries):
        gt = GroundTruth(dataset, queries, K)
        index = StandardLSH(n_tables=6, bucket_width=8.0, seed=5)
        with shard_rows(standard, 7):
            measurement = evaluate_index(index, dataset, queries, K, gt,
                                         deadline_ms=1e-6)
        assert (measurement.recall == 0.0).all()
