"""Unit tests for the Lv et al. query-directed multi-probe sequence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.multiprobe import (
    boundary_distances,
    perturbation_sets,
    query_directed_probes,
)


class TestBoundaryDistances:
    def test_scores_sorted(self):
        y = np.array([0.3, 0.7, 0.05])
        code = np.floor(y).astype(np.int64)
        scores, labels = boundary_distances(y, code)
        assert np.all(np.diff(scores) >= 0)
        assert len(labels) == 6

    def test_labels_cover_all_perturbations(self):
        y = np.array([0.5, 0.5])
        code = np.zeros(2, dtype=np.int64)
        _, labels = boundary_distances(y, code)
        assert set(labels) == {(0, -1), (0, 1), (1, -1), (1, 1)}

    def test_nearest_boundary_first(self):
        y = np.array([0.9, 0.5])  # dim-0 upper boundary at distance 0.1
        code = np.zeros(2, dtype=np.int64)
        _, labels = boundary_distances(y, code)
        assert labels[0] == (0, 1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            boundary_distances(np.zeros(3), np.zeros(2, dtype=np.int64))


class TestPerturbationSets:
    def _sets(self, y, n):
        code = np.floor(y).astype(np.int64)
        scores, labels = boundary_distances(y, code)
        return list(perturbation_sets(scores, labels, n))

    def test_no_dimension_twice(self):
        y = np.array([0.4, 0.6, 0.2, 0.8])
        for pset in self._sets(y, 50):
            dims = [d for d, _ in pset]
            assert len(dims) == len(set(dims))

    def test_scores_nondecreasing(self):
        y = np.array([0.3, 0.45, 0.7])
        code = np.floor(y).astype(np.int64)
        scores, labels = boundary_distances(y, code)
        label_score = dict(zip(labels, scores))
        set_scores = [sum(label_score[p] for p in pset)
                      for pset in perturbation_sets(scores, labels, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(set_scores, set_scores[1:]))

    def test_enumeration_complete_for_small_m(self):
        # For M=2 there are exactly 8 valid non-empty perturbation sets:
        # 4 singletons and 4 pairs touching both dimensions.
        y = np.array([0.3, 0.6])
        sets = self._sets(y, 100)
        canonical = {frozenset(p) for p in sets}
        assert len(canonical) == 8

    def test_exhaustive_min_score_order(self):
        # Compare with brute-force enumeration of all valid sets for M=3.
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 1, 3)
        code = np.zeros(3, dtype=np.int64)
        scores, labels = boundary_distances(y, code)
        label_score = dict(zip(labels, scores))
        all_sets = []
        perturbs = list(label_score)
        for r in range(1, 4):
            for combo in itertools.combinations(perturbs, r):
                dims = [d for d, _ in combo]
                if len(dims) == len(set(dims)):
                    all_sets.append((sum(label_score[p] for p in combo),
                                     frozenset(combo)))
        all_sets.sort(key=lambda t: t[0])
        got = [frozenset(p) for p in perturbation_sets(scores, labels, len(all_sets))]
        got_scores = [sum(label_score[p] for p in s) for s in got]
        expected_scores = [s for s, _ in all_sets]
        np.testing.assert_allclose(got_scores, expected_scores)

    def test_zero_budget(self):
        y = np.array([0.5])
        assert self._sets(y, 0) == []

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           grid=st.sampled_from([None, 2, 4]))
    def test_shift_expand_generates_every_set_exactly_once(self, m, seed,
                                                           grid):
        # Each set has one parent, so the enumeration needs no "seen" set:
        # run to exhaustion it yields all 3^M - 1 valid sets, none twice —
        # also on boundary grids where many scores tie.
        rng = np.random.default_rng(seed)
        y = (rng.uniform(0, 1, m) if grid is None
             else rng.integers(0, grid + 1, m) / grid)
        sets = [frozenset(p) for p in self._sets(y, 10**6)]
        assert len(sets) == len(set(sets)) == 3 ** m - 1


class TestQueryDirectedProbes:
    def test_count_and_dtype(self):
        y = np.random.default_rng(1).uniform(0, 1, 8)
        code = np.floor(y).astype(np.int64)
        probes = query_directed_probes(y, code, 20)
        assert probes.shape == (20, 8)
        assert probes.dtype == np.int64

    def test_home_code_not_included(self):
        y = np.random.default_rng(2).uniform(0, 1, 5)
        code = np.floor(y).astype(np.int64)
        probes = query_directed_probes(y, code, 30)
        assert not np.any(np.all(probes == code, axis=1))

    def test_probes_unique(self):
        y = np.random.default_rng(3).uniform(0, 1, 6)
        code = np.floor(y).astype(np.int64)
        probes = query_directed_probes(y, code, 40)
        assert np.unique(probes, axis=0).shape[0] == probes.shape[0]

    def test_works_with_negative_codes(self):
        y = np.array([-1.7, -0.2, 2.3])
        code = np.floor(y).astype(np.int64)
        probes = query_directed_probes(y, code, 6)
        assert np.all(np.abs(probes - code) <= 1)
