"""Seeded violation: R8 (and only R8) must fire on this file.

``query_batch`` re-implements the executor's plumbing inline — reading
the policy gate and building its own deadline — even though it also
delegates to ``run_plan``.  Everything else is fully annotated,
dtype-explicit and exception-clean so no other rule trips.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exec.executor import run_plan
from repro.resilience.deadline import Deadline
from repro.resilience.policy import ResiliencePolicy, active_policy


def query_batch(plan: object, queries: np.ndarray, k: int,
                deadline_ms: Optional[float] = None,
                policy: Optional[ResiliencePolicy] = None,
                ) -> Tuple[np.ndarray, np.ndarray]:
    pol = policy if policy is not None else active_policy()
    deadline = Deadline.from_ms(deadline_ms)
    ids, dists, _stats = run_plan(plan, queries, k, deadline=deadline,
                                  policy=pol)
    return ids, dists
