"""Unit tests for the resilience layer: faults, deadlines, validation.

The end-to-end deadline tests live in ``test_resilience_faults.py``, the
disk fault sites' in ``test_persistence.py`` / ``test_maintenance*.py``;
this module pins the building blocks — :class:`FaultPlan` determinism
(on the disk sites, the only ones there are), :class:`Deadline`
arithmetic, and the typed query validation at the top of
``query_batch``, which refuses a non-finite row on every index.
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
    KNOWN_SITES,
    QueryValidationError,
    clear_faults,
    faults_active,
    injected_faults,
)


# --------------------------------------------------------------------------
# FaultSpec / FaultPlan
# --------------------------------------------------------------------------

class TestFaultSpec:
    def test_unknown_site_rejected(self):
        # The query-path sites went with the policy that softened them: a
        # spec naming one is a typo like any other.
        for site in ("maintenance.compactt", "lsh.gather",
                     "bilevel.dispatch"):
            with pytest.raises(ValueError, match="unknown fault site"):
                FaultSpec(site=site)

    def test_known_sites_are_the_disk_sites(self):
        assert sorted(KNOWN_SITES) == [
            "maintenance.append", "maintenance.compact",
            "persistence.load", "persistence.save"]

    def test_match_key_the_site_never_passes_rejected(self):
        # Such a spec could never fire: the site does not pass that label.
        with pytest.raises(ValueError, match="grup"):
            FaultSpec(site="maintenance.compact", match={"grup": 1})
        with pytest.raises(ValueError, match="group"):
            FaultSpec(site="persistence.load", match={"group": 0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="maintenance.compact", kind="segfault")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="maintenance.compact", rate=1.5)

    def test_bad_max_hits_rejected(self):
        with pytest.raises(ValueError, match="max_hits"):
            FaultSpec(site="maintenance.compact", max_hits=0)

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_ms"):
            FaultSpec(site="maintenance.compact", kind="delay",
                      delay_ms=-1.0)


class TestFaultPlan:
    def test_exception_kind_raises_injected_fault(self):
        plan = FaultPlan([FaultSpec(site="maintenance.compact")], seed=0)
        with pytest.raises(InjectedFault) as err:
            plan.check("maintenance.compact", group=3)
        assert err.value.site == "maintenance.compact"
        assert "group=3" in str(err.value)

    def test_unmatched_site_is_free(self):
        plan = FaultPlan([FaultSpec(site="maintenance.compact")], seed=0)
        assert plan.check("persistence.save", path="x.npz") is False
        assert plan.hits() == {"maintenance.compact": 0}

    def test_match_pins_the_victim(self):
        plan = FaultPlan(
            [FaultSpec(site="maintenance.compact", match={"group": 2})],
            seed=0)
        assert plan.check("maintenance.compact", group=0) is False
        assert plan.check("maintenance.compact", group=1) is False
        with pytest.raises(InjectedFault):
            plan.check("maintenance.compact", group=2)

    def test_max_hits_bounds_activations(self):
        plan = FaultPlan(
            [FaultSpec(site="maintenance.compact", max_hits=2)], seed=0)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.check("maintenance.compact", group=0)
        assert plan.check("maintenance.compact", group=0) is False
        assert plan.hits() == {"maintenance.compact": 2}

    def test_corruption_kind_returns_true(self):
        plan = FaultPlan(
            [FaultSpec(site="persistence.load", kind="corruption",
                       max_hits=1)], seed=0)
        assert plan.check("persistence.load", path="x.npz") is True
        assert plan.check("persistence.load", path="x.npz") is False

    def test_delay_kind_sleeps(self):
        plan = FaultPlan(
            [FaultSpec(site="maintenance.compact", kind="delay",
                       delay_ms=30.0, max_hits=1)], seed=0)
        start = time.monotonic()
        assert plan.check("maintenance.compact", group=0) is False
        assert time.monotonic() - start >= 0.025

    def test_sub_unit_rate_is_seed_deterministic(self):
        def draw_pattern(seed):
            plan = FaultPlan(
                [FaultSpec(site="maintenance.compact", rate=0.5)], seed=seed)
            pattern = []
            for _ in range(32):
                try:
                    plan.check("maintenance.compact")
                    pattern.append(0)
                except InjectedFault:
                    pattern.append(1)
            return pattern

        assert draw_pattern(7) == draw_pattern(7)
        assert 0 < sum(draw_pattern(7)) < 32

    def test_max_hits_exact_under_threads(self):
        plan = FaultPlan(
            [FaultSpec(site="maintenance.compact", max_hits=5)], seed=0)
        hits = []

        def worker():
            for _ in range(20):
                try:
                    plan.check("maintenance.compact")
                except InjectedFault:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 5
        assert plan.hits() == {"maintenance.compact": 5}

    def test_gate_installs_and_clears(self):
        assert faults_active() is None
        plan = FaultPlan([FaultSpec(site="maintenance.compact")], seed=0)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_refused_on_every_index(self, index, gaussian_data,
                                              gaussian_queries, bad):
        # A bad row fails its batch, whichever row and index: there is
        # no degraded answer to give it instead.
        bilevel = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=8.0,
                                           seed=0)).fit(gaussian_data)
        rows = gaussian_queries.copy()
        rows[17, 2] = bad
        for idx in (index, bilevel):
            with pytest.raises(QueryValidationError) as err:
                idx.query_batch(rows, 5)
            assert err.value.field == "queries"
            assert "NaN or infinite" in str(err.value)


# --------------------------------------------------------------------------
# Typed error hierarchy
# --------------------------------------------------------------------------

class TestErrorTypes:
    def test_injected_fault_attributes(self):
        err = InjectedFault("persistence.save", "path=x.npz")
        assert err.site == "persistence.save" and err.detail == "path=x.npz"

    def test_corrupt_index_attributes(self):
        err = CorruptIndexError("x.npz", "index/data", "crc32 mismatch")
        assert err.key == "index/data" and err.path == "x.npz"
        assert "index/data" in str(err)

    def test_query_validation_field(self):
        err = QueryValidationError("bad k", field="k")
        assert err.field == "k" and isinstance(err, ValueError)
