"""RP-tree split rules (Dasgupta & Freund, STOC 2008).

Both rules are randomized and take the subset being split plus an RNG:

- :func:`split_max` — project onto a random unit direction and split at the
  median plus a jitter proportional to ``Delta(S) / sqrt(D)``.  This rule
  guarantees bounded aspect ratio of the leaves (the "roundness" the
  Bi-level analysis relies on).
- :func:`split_mean` — when the squared diameter is small relative to the
  average squared interpoint distance (the set is already round-ish), split
  by a median projection; otherwise split by distance to the mean, which
  peels off the far-away shell and rapidly shrinks the average radius.

Each split returns enough information to *route a query* down the same
test later: the split kind, its direction or center, and its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rptree.diameter import Sweeper
from repro.utils.rng import SeedLike, ensure_rng

#: Constant ``c`` in the mean-rule test ``Delta^2 <= c * Delta_A^2``.
MEAN_RULE_C = 10.0

#: Jitter range factor for the max rule: ``6 * Delta / sqrt(D)``.
MAX_RULE_JITTER = 6.0


@dataclass
class SplitResult:
    """Outcome of one split.

    Attributes
    ----------
    kind:
        ``'projection'`` or ``'distance'``.
    left_mask:
        Boolean mask over the input rows; ``True`` goes to the left child.
    direction:
        Unit projection direction (``projection`` splits only).
    center:
        The subset mean (``distance`` splits only).
    threshold:
        Median projection value (+ jitter) or median distance to the mean.
    """

    kind: str
    left_mask: np.ndarray
    threshold: float
    direction: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None

    def route(self, query: np.ndarray) -> bool:
        """``True`` if ``query`` goes to the left child."""
        if self.kind == "projection":
            return float(query @ self.direction) <= self.threshold
        diff = query - self.center
        return float(np.sqrt(diff @ diff)) <= self.threshold

    def route_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`route` for a ``(q, D)`` batch."""
        if self.kind == "projection":
            return queries @ self.direction <= self.threshold
        diffs = queries - self.center
        return np.sqrt(np.einsum("ij,ij->i", diffs, diffs)) <= self.threshold


def _random_unit_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
    return v / norm


def _median_projection_split(points: np.ndarray, direction: np.ndarray,
                             jitter: float) -> SplitResult:
    proj = points @ direction
    # The raw Dasgupta-Freund jitter 6*Delta/sqrt(D) can exceed the whole
    # projected spread; clamp the threshold into the interquartile range so
    # both children stay non-trivial while the split point remains random.
    lo, hi = np.percentile(proj, [25.0, 75.0])
    threshold = float(np.clip(np.median(proj) + jitter, lo, hi))
    left = proj <= threshold
    # Degenerate data can still push every point to one side; fall back to
    # the unjittered median, and finally to an index split for constant data.
    if left.all() or not left.any():
        threshold = float(np.median(proj))
        left = proj <= threshold
    if left.all() or not left.any():
        left = np.zeros(points.shape[0], dtype=bool)
        left[: points.shape[0] // 2] = True
        threshold = float(np.median(proj))
    return SplitResult("projection", left, threshold, direction=direction)


def split_max(points: np.ndarray, seed: SeedLike = None,
              diameter_sweeps: int = 20) -> SplitResult:
    """The RP-tree *max* rule: jittered median split on a random direction."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, dim = points.shape
    if n < 2:
        raise ValueError("cannot split fewer than 2 points")
    rng = ensure_rng(seed)
    direction = _random_unit_direction(dim, rng)
    delta, _ = Sweeper(points).diameter(diameter_sweeps, rng)
    jitter_scale = MAX_RULE_JITTER * delta / np.sqrt(dim)
    jitter = float(rng.uniform(-1.0, 1.0) * jitter_scale)
    return _median_projection_split(points, direction, jitter)


def split_mean(points: np.ndarray, seed: SeedLike = None,
               diameter_sweeps: int = 20, c: float = MEAN_RULE_C) -> SplitResult:
    """The RP-tree *mean* rule: projection split or distance-to-mean split.

    Chooses the projection split when ``Delta^2 <= c * Delta_A^2`` where
    ``Delta_A^2`` is the average squared interpoint distance (computed as
    ``2 *`` the mean squared distance to the centroid); otherwise splits by
    the median distance to the mean.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, dim = points.shape
    if n < 2:
        raise ValueError("cannot split fewer than 2 points")
    rng = ensure_rng(seed)
    center = points.mean(axis=0)
    sweeper = Sweeper(points)
    dists = np.sqrt(sweeper.sq_dists(center))
    avg_sq_interpoint = 2.0 * float(np.mean(dists ** 2))
    delta, _ = sweeper.diameter(diameter_sweeps, rng)
    if delta ** 2 <= c * avg_sq_interpoint or avg_sq_interpoint == 0.0:
        direction = _random_unit_direction(dim, rng)
        return _median_projection_split(points, direction, jitter=0.0)
    threshold = float(np.median(dists))
    left = dists <= threshold
    if left.all() or not left.any():
        left = np.zeros(n, dtype=bool)
        left[: n // 2] = True
    return SplitResult("distance", left, threshold, center=center)
