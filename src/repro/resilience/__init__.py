"""Resilience layer: deadlines, disk fault injection, typed errors.

A query has nothing to degrade: a bad input row is refused with
:class:`~repro.resilience.errors.QueryValidationError`, and any other
error in the query path propagates.  What this package keeps is what
survives a failure outside one: wall-clock query budgets
(:mod:`.deadline`), deterministic fault injection at the four disk
sites — snapshot load and save, WAL append, table fold — that drive the
kill-9 matrix (:mod:`.faults`), and the typed errors the rest of the
pipeline raises (:mod:`.errors`).

The fault plan is gated the same way as :mod:`repro.obs`: each disk
site reads one module global and does nothing more when no plan is
installed.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.errors import (CorruptIndexError, InjectedFault,
                                     QueryValidationError, ResilienceError)
from repro.resilience.faults import (FAULT_KINDS, KNOWN_SITES, FaultPlan,
                                     FaultSpec, clear_faults, faults_active,
                                     injected_faults, install_faults)

__all__ = [
    "Deadline",
    "ResilienceError", "InjectedFault", "CorruptIndexError",
    "QueryValidationError",
    "KNOWN_SITES", "FAULT_KINDS", "FaultSpec", "FaultPlan",
    "faults_active", "install_faults", "clear_faults", "injected_faults",
]
