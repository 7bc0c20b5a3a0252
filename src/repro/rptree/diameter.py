"""Approximate diameter of a high-dimensional point set.

Computing the exact diameter is as expensive as exact nearest-neighbor
search, so the paper uses the iterative algorithm of Egecioglu & Kalantari
(IPL 1989): a sequence of ``m`` farthest-point sweeps producing values
``r_1 < r_2 < ... < r_m`` with

    r_m <= Delta(S) <= min(sqrt(3) * r_1, sqrt(5 - 2*sqrt(3)) * r_m).

Each sweep costs ``O(|S|)`` distance evaluations, so ``m`` sweeps cost
``O(m |S|)``; the paper reports ``r_m`` is a good estimate already for
``m ~ 40``.
"""

from __future__ import annotations

import math
from typing import List, Tuple, Union

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import as_float_matrix

#: Upper-bound factor from Egecioglu & Kalantari: Delta <= this * r_m.
EK_UPPER_FACTOR = math.sqrt(5.0 - 2.0 * math.sqrt(3.0))


#: Rows per block of a sweep (its differences' reused buffer, never n x D).
SWEEP_ROWS = 2048


class Sweeper:
    """Squared distances from the rows of checked ``points`` to an anchor,
    ``SWEEP_ROWS`` rows at a time into buffers allocated once — bit for
    bit what one ``(n, D)`` difference matrix gives each row."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self._diffs = np.empty((min(len(points), SWEEP_ROWS), points.shape[1]))
        self._d2 = np.empty(len(points))

    def sq_dists(self, anchor: np.ndarray) -> np.ndarray:
        """``||points[i] - anchor||^2`` per row (the next call overwrites it)."""
        for at in range(0, len(self.points), SWEEP_ROWS):
            diffs = np.subtract(self.points[at:at + SWEEP_ROWS], anchor,
                                out=self._diffs[:len(self.points) - at])
            np.einsum("ij,ij->i", diffs, diffs, out=self._d2[at:at + len(diffs)])
        return self._d2

    def diameter(self, m: int, rng: np.random.Generator) -> Tuple[float, List[float]]:
        """``(r_m, [r_1, ..., r_m])`` of :func:`approximate_diameter`'s sweeps."""
        if m <= 0:
            raise ValueError(f"m must be positive, got {m}")
        n = len(self.points)
        if n == 1:
            return 0.0, [0.0]
        anchor_idx = int(rng.integers(n))
        best, sequence = 0.0, []
        # Double-sweep iteration: hop to the farthest point from the current
        # anchor; the chord lengths r_i are non-decreasing and converge to a
        # value within the Egecioglu-Kalantari bounds.
        for _ in range(min(int(m), n)):
            d2 = self.sq_dists(self.points[anchor_idx])
            far_idx = int(np.argmax(d2))
            r = float(math.sqrt(d2[far_idx]))
            sequence.append(max(r, best))
            if r <= best * (1.0 + 1e-12):
                best = max(best, r)
                break
            best = r
            anchor_idx = far_idx
        return best, sequence


def approximate_diameter(points: np.ndarray, m: int = 40,
                         seed: SeedLike = None,
                         return_sequence: bool = False,
                         ) -> Union[float, Tuple[float, List[float]]]:
    """Estimate the diameter of ``points`` with ``m`` farthest-point sweeps.

    Parameters
    ----------
    points:
        Array ``(n, D)``.
    m:
        Maximum number of sweeps (``m <= n`` is enforced internally); the
        sweep stops early once the estimate stops improving.
    seed:
        RNG choosing the initial anchor point.
    return_sequence:
        When true, also return the increasing sequence ``r_1..r_m`` for
        diagnostics (e.g. the ablation bench on ``m``).

    Returns
    -------
    float, or (float, numpy.ndarray)
        The estimate ``r_m`` (a lower bound on the true diameter within a
        factor ``1 / sqrt(3)``), optionally with the whole sequence.
    """
    points = as_float_matrix(points, name="points")
    best, sequence = Sweeper(points).diameter(m, ensure_rng(seed))
    return (best, np.array(sequence)) if return_sequence else best


def diameter_bounds(points: np.ndarray, m: int = 40, seed: SeedLike = None) -> Tuple[float, float]:
    """Lower and upper bounds on the true diameter from the EK sweep."""
    r_m, seq = approximate_diameter(points, m=m, seed=seed, return_sequence=True)
    r_1 = float(seq[0]) if seq.size else 0.0
    upper = min(math.sqrt(3.0) * r_1, EK_UPPER_FACTOR * r_m) if r_1 > 0 else 0.0
    upper = max(upper, r_m)  # bounds must bracket the estimate
    return r_m, upper
