"""Seeded violation: R8 (and only R8) must fire on this file.

``query_batch`` re-implements the executor's plumbing inline — reading
the fault gate and building its own deadline — even though it also
delegates to ``run_plan``.  Everything else is fully annotated,
dtype-explicit and exception-clean so no other rule trips.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exec.executor import run_plan
from repro.resilience.deadline import Deadline
from repro.resilience.faults import faults_active


def query_batch(plan: object, queries: np.ndarray, k: int,
                deadline_ms: Optional[float] = None,
                ) -> Tuple[np.ndarray, np.ndarray]:
    if faults_active() is not None:
        deadline_ms = None
    deadline = Deadline.from_ms(deadline_ms)
    ids, dists, _stats = run_plan(plan, queries, k, deadline=deadline)
    return ids, dists
