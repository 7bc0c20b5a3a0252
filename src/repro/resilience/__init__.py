"""Resilience layer: degraded answers, deadlines, fault injection.

The serving path built in earlier PRs escalates queries whose short-list
is too small — an *accuracy* fallback.  This package adds the *failure*
side: a policy under which a failing table is dropped and a failing
group is answered by an exact scan, its rows flagged degraded
(:mod:`.policy`), wall-clock query budgets (:mod:`.deadline`),
deterministic fault injection for chaos testing (:mod:`.faults`), and
the typed errors the rest of the pipeline raises (:mod:`.errors`).

The fault plan is gated the same way as :mod:`repro.obs`: one
module-global read per batch when nothing is installed, and no per-table
or per-group check at all.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.errors import (CorruptIndexError, InjectedFault,
                                     QueryValidationError, ResilienceError)
from repro.resilience.faults import (FAULT_KINDS, KNOWN_SITES, FaultPlan,
                                     FaultSpec, clear_faults, faults_active,
                                     injected_faults, install_faults)
from repro.resilience.policy import FailureRecord, ResiliencePolicy

__all__ = [
    "Deadline",
    "ResilienceError", "InjectedFault", "CorruptIndexError",
    "QueryValidationError",
    "KNOWN_SITES", "FAULT_KINDS", "FaultSpec", "FaultPlan",
    "faults_active", "install_faults", "clear_faults", "injected_faults",
    "FailureRecord", "ResiliencePolicy",
]
