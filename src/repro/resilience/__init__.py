"""Resilience layer: supervised dispatch, deadlines, fault injection.

The serving path built in earlier PRs escalates queries whose short-list
is too small — an *accuracy* fallback.  This package adds the *failure*
fallbacks: supervised tables and groups with retry/timeout/exact-scan
recovery (:mod:`.policy`), wall-clock query budgets (:mod:`.deadline`),
deterministic fault injection for chaos testing (:mod:`.faults`), and
the typed errors the rest of the pipeline raises (:mod:`.errors`).

Everything is gated the same way as :mod:`repro.obs`: one module-global
read per batch when nothing is installed, so the layer is free in
production unless explicitly enabled.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.errors import (CorruptIndexError, InjectedFault,
                                     QueryValidationError, ResilienceError)
from repro.resilience.faults import (FAULT_KINDS, KNOWN_SITES, FaultPlan,
                                     FaultSpec, clear_faults, faults_active,
                                     injected_faults, install_faults)
from repro.resilience.policy import (FailureRecord, ResiliencePolicy,
                                     active_policy, clear_policy, set_policy,
                                     supervised)

__all__ = [
    "Deadline",
    "ResilienceError", "InjectedFault", "CorruptIndexError",
    "QueryValidationError",
    "KNOWN_SITES", "FAULT_KINDS", "FaultSpec", "FaultPlan",
    "faults_active", "install_faults", "clear_faults", "injected_faults",
    "FailureRecord", "ResiliencePolicy",
    "active_policy", "set_policy", "clear_policy", "supervised",
]
