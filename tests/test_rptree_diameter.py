"""Unit tests for the approximate diameter (Egecioglu--Kalantari sweep)."""

import math

import numpy as np
import pytest

from repro.rptree.diameter import (
    EK_UPPER_FACTOR,
    SWEEP_ROWS,
    approximate_diameter,
    diameter_bounds,
)
from repro.utils.rng import ensure_rng


def exact_diameter(points: np.ndarray) -> float:
    sq = np.sum(points ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    return float(np.sqrt(max(d2.max(), 0.0)))


def full_matrix_diameter(points, m=40, seed=None):
    """The sweeps as they were, one ``(n, D)`` difference matrix each —
    the oracle the blocked sweeps match bit for bit: ``(r_m, [r_i])``."""
    n = points.shape[0]
    if n == 1:
        return 0.0, [0.0]
    rng = ensure_rng(seed)
    anchor_idx = int(rng.integers(n))
    best, sequence = 0.0, []
    for _ in range(min(int(m), n)):
        diffs = points - points[anchor_idx]
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        far_idx = int(np.argmax(d2))
        r = float(math.sqrt(d2[far_idx]))
        sequence.append(max(r, best))
        if r <= best * (1.0 + 1e-12):
            best = max(best, r)
            break
        best, anchor_idx = r, far_idx
    return best, sequence


def sweep_cases():
    """``(name, points)`` around the block size: fewer rows than a block,
    one past it, several blocks, duplicate rows, two points."""
    rng = np.random.default_rng(11)
    cases = [("two", rng.standard_normal((2, 5)))]
    for n, dim in ((300, 7), (SWEEP_ROWS, 3), (SWEEP_ROWS + 1, 16),
                   (2 * SWEEP_ROWS + 37, 64)):
        spread = rng.uniform(0.1, 50.0, dim)
        cases.append((f"{n}x{dim}", rng.standard_normal((n, dim)) * spread
                      + rng.uniform(-100, 100, dim)))
    pool = rng.standard_normal((6, 9))
    cases.append(("duplicates", pool[rng.integers(0, 6, SWEEP_ROWS + 500)]))
    return cases


class TestBlockedSweeps:
    @pytest.mark.parametrize("name,points", sweep_cases(),
                             ids=[name for name, _ in sweep_cases()])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 3, 40])
    def test_equal_to_the_full_matrix_sweeps(self, name, points, seed, m):
        best, seq = approximate_diameter(points, m=m, seed=seed,
                                         return_sequence=True)
        want, want_seq = full_matrix_diameter(points, m=m, seed=seed)
        assert best == want
        assert seq.tolist() == want_seq


class TestApproximateDiameter:
    def test_single_point(self):
        assert approximate_diameter(np.zeros((1, 3))) == 0.0

    def test_two_points_exact(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert approximate_diameter(pts, seed=0) == pytest.approx(5.0)

    def test_lower_bound_of_true_diameter(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            pts = rng.standard_normal((200, 10))
            est = approximate_diameter(pts, m=40, seed=trial)
            assert est <= exact_diameter(pts) + 1e-9

    def test_within_sqrt3_factor(self):
        # Even one sweep guarantees r >= Delta / sqrt(3).
        rng = np.random.default_rng(1)
        for trial in range(5):
            pts = rng.standard_normal((150, 8)) * rng.uniform(0.5, 3.0)
            est = approximate_diameter(pts, m=40, seed=trial)
            assert est >= exact_diameter(pts) / np.sqrt(3.0) - 1e-9

    def test_close_in_practice(self):
        # The paper: r_m approximates Delta well for small m already.
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((500, 32))
        est = approximate_diameter(pts, m=40, seed=0)
        assert est >= 0.9 * exact_diameter(pts)

    def test_sequence_nondecreasing(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((300, 16))
        _, seq = approximate_diameter(pts, m=40, seed=0, return_sequence=True)
        assert np.all(np.diff(seq) >= -1e-12)

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((100, 4))
        assert (approximate_diameter(pts, seed=5)
                == approximate_diameter(pts, seed=5))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            approximate_diameter(np.zeros((3, 2)), m=0)

    def test_identical_points(self):
        pts = np.ones((10, 5))
        assert approximate_diameter(pts, seed=0) == 0.0


class TestDiameterBounds:
    def test_bracket_true_diameter(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            pts = rng.standard_normal((120, 6))
            lower, upper = diameter_bounds(pts, m=40, seed=trial)
            true = exact_diameter(pts)
            assert lower <= true + 1e-9
            assert upper >= true - 1e-9 or upper >= lower

    def test_upper_factor_constant(self):
        assert EK_UPPER_FACTOR == pytest.approx(np.sqrt(5 - 2 * np.sqrt(3)))
