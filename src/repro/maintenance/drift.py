"""Drift detection at the bi-level top: rebuild only the groups that hurt.

The RP-tree first level is static preprocessing (the paper's setting),
so a drifting insert stream can overload one leaf group — its LSH
tables accumulate overlay debt and its queries escalate more often than
its peers' (the points-dispersion effect analyzed for random-projection
forests in rpForests, arXiv:2302.13160).  Rather than rebuilding the
world, :class:`DriftDetector` reads the per-group counters already
collected by :mod:`repro.obs` (``repro_group_queries_total`` /
``repro_group_escalations_total``) plus live occupancy from the index
itself, and schedules *per-leaf-group* table rebuilds through the
shared :class:`~repro.maintenance.compactor.Compactor` queue — keeping
per-group hashing cost bounded in the spirit of "Fast LSH with
Theoretical Guarantee" (arXiv:2309.15479).

A group drifts when either signal trips:

- **escalation**: its escalation fraction reaches
  ``escalation_threshold`` with at least ``min_queries`` routed queries
  (an unlucky group with 3 queries is noise, not drift);
- **occupancy**: its live-point share reaches ``occupancy_threshold``
  times the across-group mean (inserts concentrated on one leaf).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.maintenance.compactor import Compactor
from repro.obs.registry import MetricsRegistry

__all__ = ["GroupDrift", "DriftDetector"]


@dataclass(frozen=True)
class GroupDrift:
    """Per-group drift signals, as of one :meth:`DriftDetector.check`."""

    group: int
    live_points: int
    occupancy_ratio: float
    queries: float
    escalation_fraction: float
    drifted: bool


class DriftDetector:
    """Watches a fitted :class:`~repro.core.bilevel.BiLevelLSH` for drift."""

    def __init__(self, index: object, compactor: Compactor, *,
                 min_queries: int = 50,
                 escalation_threshold: float = 0.5,
                 occupancy_threshold: float = 3.0) -> None:
        if not 0.0 < escalation_threshold <= 1.0:
            raise ValueError(
                f"escalation_threshold must be in (0, 1], got "
                f"{escalation_threshold}")
        if occupancy_threshold <= 1.0:
            raise ValueError(
                f"occupancy_threshold must exceed 1, got "
                f"{occupancy_threshold}")
        self._index = index
        self._compactor = compactor
        self.min_queries = int(min_queries)
        self.escalation_threshold = float(escalation_threshold)
        self.occupancy_threshold = float(occupancy_threshold)

    def survey(self, registry: Optional[MetricsRegistry] = None,
               ) -> List[GroupDrift]:
        """Current drift signals for every leaf group (no scheduling)."""
        groups = list(getattr(self._index, "group_indexes", []))
        if not groups:
            return []
        per_group: Dict[str, Dict[str, float]] = {}
        summary = obs.derived_summary(
            registry if registry is not None else obs.get_registry())
        raw = summary.get("per_group")
        if isinstance(raw, dict):
            per_group = raw
        live = np.array([g.n_live for g in groups], dtype=np.float64)
        mean_live = float(live.mean()) if live.size else 0.0
        out: List[GroupDrift] = []
        for g in range(len(groups)):
            stats = per_group.get(str(g), {})
            queries = float(stats.get("queries", 0.0))
            fraction = float(stats.get("escalation_fraction", 0.0))
            ratio = (float(live[g]) / mean_live) if mean_live > 0 else 0.0
            drifted = (
                (queries >= self.min_queries
                 and fraction >= self.escalation_threshold)
                or ratio >= self.occupancy_threshold
            )
            out.append(GroupDrift(
                group=g, live_points=int(live[g]), occupancy_ratio=ratio,
                queries=queries, escalation_fraction=fraction,
                drifted=drifted))
        return out

    def check(self, registry: Optional[MetricsRegistry] = None) -> List[int]:
        """Survey, schedule a rebuild for every drifted group, return them."""
        drifted: List[int] = []
        groups = list(getattr(self._index, "group_indexes", []))
        for signal in self.survey(registry):
            if not signal.drifted:
                continue
            drifted.append(signal.group)
            self._compactor.request_group_rebuild(
                groups[signal.group], signal.group)
            ob = obs.active()
            if ob is not None:
                ob.record_drift_rebuild(signal.group)
        return drifted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DriftDetector(min_queries={self.min_queries}, "
                f"escalation_threshold={self.escalation_threshold}, "
                f"occupancy_threshold={self.occupancy_threshold})")
