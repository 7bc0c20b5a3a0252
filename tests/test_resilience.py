"""Unit tests for the resilience layer: faults, policy, deadlines, validation.

The end-to-end fault matrix (every site x dispatch mode x spill) lives in
``test_resilience_faults.py``; this module pins the building blocks —
:class:`FaultPlan` determinism, :class:`ResiliencePolicy` failure
records, :class:`Deadline` arithmetic, brute-force exactness, and the
typed query validation at the top of ``query_batch``.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from repro.resilience import (
    CorruptIndexError,
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    QueryValidationError,
    ResiliencePolicy,
    clear_faults,
    faults_active,
    injected_faults,
)


# --------------------------------------------------------------------------
# FaultSpec / FaultPlan
# --------------------------------------------------------------------------

class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="lsh.gathr")

    def test_match_key_the_site_never_passes_rejected(self):
        # Such a spec could never fire: the site does not pass that label.
        with pytest.raises(ValueError, match="grup"):
            FaultSpec(site="lsh.gather", match={"grup": 1})
        with pytest.raises(ValueError, match="table"):
            FaultSpec(site="bilevel.dispatch", match={"table": 0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="lsh.gather", kind="segfault")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="lsh.gather", rate=1.5)

    def test_bad_max_hits_rejected(self):
        with pytest.raises(ValueError, match="max_hits"):
            FaultSpec(site="lsh.gather", max_hits=0)

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_ms"):
            FaultSpec(site="lsh.gather", kind="delay", delay_ms=-1.0)


class TestFaultPlan:
    def test_exception_kind_raises_injected_fault(self):
        plan = FaultPlan([FaultSpec(site="lsh.gather")], seed=0)
        with pytest.raises(InjectedFault) as err:
            plan.check("lsh.gather", table=3)
        assert err.value.site == "lsh.gather"
        assert "table=3" in str(err.value)

    def test_unmatched_site_is_free(self):
        plan = FaultPlan([FaultSpec(site="lsh.gather")], seed=0)
        assert plan.check("bilevel.dispatch", group=0) is False
        assert plan.hits() == {"lsh.gather": 0}

    def test_match_pins_the_victim(self):
        plan = FaultPlan(
            [FaultSpec(site="bilevel.dispatch", match={"group": 2})], seed=0)
        assert plan.check("bilevel.dispatch", group=0) is False
        assert plan.check("bilevel.dispatch", group=1) is False
        with pytest.raises(InjectedFault):
            plan.check("bilevel.dispatch", group=2)

    def test_max_hits_bounds_activations(self):
        plan = FaultPlan(
            [FaultSpec(site="lsh.gather", max_hits=2)], seed=0)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.check("lsh.gather", table=0)
        assert plan.check("lsh.gather", table=0) is False
        assert plan.hits() == {"lsh.gather": 2}

    def test_corruption_kind_returns_true(self):
        plan = FaultPlan(
            [FaultSpec(site="persistence.load", kind="corruption",
                       max_hits=1)], seed=0)
        assert plan.check("persistence.load", path="x.npz") is True
        assert plan.check("persistence.load", path="x.npz") is False

    def test_delay_kind_sleeps(self):
        plan = FaultPlan(
            [FaultSpec(site="lsh.gather", kind="delay", delay_ms=30.0,
                       max_hits=1)], seed=0)
        start = time.monotonic()
        assert plan.check("lsh.gather", table=0) is False
        assert time.monotonic() - start >= 0.025

    def test_sub_unit_rate_is_seed_deterministic(self):
        def draw_pattern(seed):
            plan = FaultPlan(
                [FaultSpec(site="lsh.gather", rate=0.5)], seed=seed)
            pattern = []
            for _ in range(32):
                try:
                    plan.check("lsh.gather")
                    pattern.append(0)
                except InjectedFault:
                    pattern.append(1)
            return pattern

        assert draw_pattern(7) == draw_pattern(7)
        assert 0 < sum(draw_pattern(7)) < 32

    def test_max_hits_exact_under_threads(self):
        plan = FaultPlan(
            [FaultSpec(site="lsh.gather", max_hits=5)], seed=0)
        hits = []

        def worker():
            for _ in range(20):
                try:
                    plan.check("lsh.gather")
                except InjectedFault:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 5
        assert plan.hits() == {"lsh.gather": 5}

    def test_gate_installs_and_clears(self):
        assert faults_active() is None
        plan = FaultPlan([FaultSpec(site="lsh.gather")], seed=0)
        with injected_faults(plan) as installed:
            assert installed is plan
            assert faults_active() is plan
        assert faults_active() is None

    def test_gate_clear_is_idempotent(self):
        clear_faults()
        assert faults_active() is None


# --------------------------------------------------------------------------
# Deadline
# --------------------------------------------------------------------------

class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-5.0)

    def test_from_ms_none_passthrough(self):
        assert Deadline.from_ms(None) is None
        deadline = Deadline.from_ms(50.0)
        assert deadline is not None and deadline.budget_ms == 50.0

    def test_expiry(self):
        deadline = Deadline(5.0)
        assert not deadline.expired()
        time.sleep(0.01)
        assert deadline.expired()
        assert deadline.remaining_seconds() == 0.0

    def test_remaining_decreases(self):
        deadline = Deadline(10_000.0)
        first = deadline.remaining_seconds()
        time.sleep(0.005)
        assert deadline.remaining_seconds() < first


# --------------------------------------------------------------------------
# ResiliencePolicy
# --------------------------------------------------------------------------

class TestPolicy:
    def test_success_records_nothing(self):
        assert ResiliencePolicy().failures() == ()

    def test_clear_failures(self):
        pol = ResiliencePolicy()
        pol.note_failure("lsh.gather", "t=0", RuntimeError("x"), "gave_up")
        assert pol.failures()
        pol.clear_failures()
        assert pol.failures() == ()

    def test_record_to_dict_round_trip(self):
        pol = ResiliencePolicy()
        pol.note_failure("lsh.gather", "t=9", ValueError("boom"), "gave_up")
        record = pol.failures()[0].to_dict()
        assert record == {
            "site": "lsh.gather", "label": "t=9",
            "error_type": "ValueError", "message": "boom",
            "action": "gave_up",
        }

    def test_policy_without_plan_runs_no_check(self, gaussian_data,
                                               gaussian_queries,
                                               monkeypatch):
        # No fault plan: no table or group check runs, so a policy can
        # neither change an answer nor record a failure.
        from repro.lsh.index import _LSHPlan

        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=0)).fit(gaussian_data)
        base_ids, base_dists, base = idx.query_batch(gaussian_queries, 5)

        def no_check(*args, **kwargs):
            raise AssertionError("fault check ran without a plan")

        monkeypatch.setattr(_LSHPlan, "_check", staticmethod(no_check))
        pol = ResiliencePolicy()
        ids, dists, stats = idx.query_batch(gaussian_queries, 5, policy=pol)
        assert ids.tobytes() == base_ids.tobytes()
        assert dists.tobytes() == base_dists.tobytes()
        assert np.array_equal(stats.n_candidates, base.n_candidates)
        assert stats.failures is None and pol.failures() == ()
        assert not stats.degraded_mask().any()


# --------------------------------------------------------------------------
# Validation at the top of query_batch
# --------------------------------------------------------------------------

class TestQueryValidation:
    @pytest.fixture(scope="class")
    def index(self, gaussian_data):
        return StandardLSH(n_tables=4, bucket_width=8.0,
                           seed=0).fit(gaussian_data)

    def test_bad_k_typed_error(self, index, gaussian_queries):
        with pytest.raises(QueryValidationError):
            index.query_batch(gaussian_queries, 0)
        err = pytest.raises(QueryValidationError,
                            index.query_batch, gaussian_queries, -3)
        assert err.value.field == "k"

    def test_float_k_still_type_error(self, index, gaussian_queries):
        with pytest.raises(TypeError):
            index.query_batch(gaussian_queries, 2.5)

    def test_dim_mismatch_typed_error(self, index):
        bad = np.zeros((4, 7), dtype=np.float64)
        with pytest.raises(QueryValidationError, match="dim"):
            index.query_batch(bad, 3)

    def test_validation_error_is_a_value_error(self, index):
        # Pre-existing except ValueError callers must keep working.
        with pytest.raises(ValueError):
            index.query_batch(np.zeros((4, 7), dtype=np.float64), 3)

    def test_nan_rejected_without_policy(self, index, gaussian_queries):
        bad = gaussian_queries.copy()
        bad[3, 0] = np.nan
        with pytest.raises(QueryValidationError):
            index.query_batch(bad, 5)

    def test_nan_degrades_under_policy(self, index, gaussian_queries):
        base_ids, base_dists, _ = index.query_batch(gaussian_queries, 5)
        bad = gaussian_queries.copy()
        bad[3, 0] = np.nan
        bad[17, 2] = np.inf
        pol = ResiliencePolicy()
        ids, dists, stats = index.query_batch(bad, 5, policy=pol)
        assert stats.degraded is not None
        assert stats.degraded_mask().tolist() == [
            i in (3, 17) for i in range(30)]
        assert (ids[[3, 17]] == -1).all()
        good = [i for i in range(30) if i not in (3, 17)]
        assert np.array_equal(ids[good], base_ids[good])
        assert np.array_equal(dists[good], base_dists[good])
        assert any(r.site == "lsh.validate" for r in stats.failures)

    def test_nan_degrades_bilevel(self, gaussian_data, gaussian_queries):
        idx = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                       seed=0)).fit(gaussian_data)
        base_ids, _, _ = idx.query_batch(gaussian_queries, 5)
        bad = gaussian_queries.copy()
        bad[0, 0] = np.nan
        ids, _, stats = idx.query_batch(bad, 5, policy=ResiliencePolicy())
        assert stats.degraded_mask()[0]
        assert int(stats.degraded_mask().sum()) == 1
        assert np.array_equal(ids[1:], base_ids[1:])


# --------------------------------------------------------------------------
# Typed error hierarchy
# --------------------------------------------------------------------------

class TestErrorTypes:
    def test_injected_fault_attributes(self):
        err = InjectedFault("lsh.gather", "table=1")
        assert err.site == "lsh.gather" and err.detail == "table=1"

    def test_corrupt_index_attributes(self):
        err = CorruptIndexError("x.npz", "index/data", "crc32 mismatch")
        assert err.key == "index/data" and err.path == "x.npz"
        assert "index/data" in str(err)

    def test_query_validation_field(self):
        err = QueryValidationError("bad k", field="k")
        assert err.field == "k" and isinstance(err, ValueError)
