"""Unit tests for the E8 scaled-lattice hierarchy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.e8_hierarchy import E8Hierarchy
from repro.lattice.dm import DMLattice
from repro.lattice.e8 import E8Lattice
from repro.lsh.table import LSHTable
from repro.native import load_kernels
from repro.native.registry import NUMPY_KERNELS


def _make(points_scale=4.0, n=150, seed=0, max_levels=24):
    rng = np.random.default_rng(seed)
    lat = E8Lattice(8)
    y = rng.uniform(-points_scale, points_scale, size=(n, 8))
    codes = lat.quantize(y)
    table = LSHTable(codes)
    return y, codes, lat, table, E8Hierarchy(table, lat, max_levels=max_levels)


class TestConstruction:
    def test_level_zero_is_buckets(self):
        _, codes, lat, table, hier = _make()
        assert len(hier.level_codes[0]) == table.n_buckets

    def test_levels_coarsen(self):
        _, _, _, _, hier = _make()
        sizes = [len(level) for level in hier.level_codes]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_terminates_at_single_root_or_cap(self):
        _, _, _, _, hier = _make(points_scale=2.0, n=80)
        assert len(hier.level_codes[-1]) == 1 or hier.n_levels == 24

    def test_max_levels_respected(self):
        _, _, _, _, hier = _make(max_levels=3)
        assert hier.n_levels <= 3

    def test_invalid_max_levels(self):
        _, codes, lat, table, _ = _make()
        with pytest.raises(ValueError):
            E8Hierarchy(table, lat, max_levels=0)

    def test_every_level_partitions_buckets(self):
        # Each level's node runs tile the tree-ordered id array, which
        # holds every point of the table exactly once.
        _, _, _, table, hier = _make()
        np.testing.assert_array_equal(np.sort(hier.ids),
                                      np.sort(table.sorted_ids))
        for starts, ends in zip(hier.level_starts, hier.level_ends):
            order = np.argsort(starts)
            assert starts[order][0] == 0 and ends[order][-1] == hier.ids.size
            np.testing.assert_array_equal(ends[order][:-1], starts[order][1:])
            assert np.all(ends > starts)

    @pytest.mark.parametrize("lattice", [E8Lattice(8), E8Lattice(12),
                                         DMLattice(5)])
    def test_levels_nest_and_carry_their_ancestor_code(self, lattice):
        # The layout relies on nesting: every node is a union of nodes of
        # the level below, and holds exactly the points whose level-k
        # ancestor (computed from scratch) is the node's code.
        rng = np.random.default_rng(3)
        codes = lattice.quantize(rng.uniform(-6, 6, size=(300, lattice.dim)))
        hier = E8Hierarchy(LSHTable(codes), lattice)
        assert hier.n_levels > 2
        for k in range(hier.n_levels):
            anc = lattice.ancestor(codes, k)
            for code, s, e in zip(hier.level_codes[k], hier.level_starts[k],
                                  hier.level_ends[k]):
                members = np.nonzero(np.all(anc == code, axis=1))[0]
                np.testing.assert_array_equal(np.sort(hier.ids[s:e]), members)
            if k:
                assert set(hier.level_starts[k]) <= set(hier.level_starts[k - 1])
                assert set(hier.level_ends[k]) <= set(hier.level_ends[k - 1])


def _reference_candidates(table, lattice, n_levels, code, min_count):
    """The per-row dict walk the array layout replaced, kept as the oracle:
    every level visited, ids gathered bucket by bucket."""
    levels = []
    for _, anc in lattice.ancestor_chain(table.bucket_codes, n_levels):
        groups = {}
        for b, row in enumerate(anc):
            groups.setdefault(row.tobytes(), []).append(b)
        levels.append(groups)
    best = np.empty(0, dtype=np.int64)
    code = np.asarray(code, dtype=np.int64).reshape(1, -1)
    for level, anc in lattice.ancestor_chain(code, n_levels):
        buckets = levels[level].get(anc[0].tobytes())
        if buckets is None:
            continue
        ids = np.concatenate([table.sorted_ids[slice(*table.bucket_bounds(b))]
                              for b in buckets])
        if ids.size >= min_count:
            return np.unique(ids)
        if ids.size > best.size:
            best = ids
    return np.unique(best)


class TestCandidatesBatch:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lattice=st.sampled_from([E8Lattice(8), E8Lattice(11),
                                    DMLattice(6)]),
           scale=st.sampled_from([0.5, 3.0, 40.0]),
           min_count=st.sampled_from([1, 7, 60, 10**6]),
           compiled=st.booleans())
    def test_matches_per_row_reference(self, seed, lattice, scale, min_count,
                                       compiled):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 250))
        codes = lattice.quantize(rng.normal(0, scale, (n, lattice.dim)))
        table = LSHTable(codes)
        hier = E8Hierarchy(table, lattice)
        # Indexed codes, unseen codes nearby, and rogue codes far outside
        # the data that match no level at all.
        rows = np.concatenate([
            codes[:12],
            lattice.quantize(rng.normal(0, 2 * scale, (12, lattice.dim))),
            lattice.quantize(np.full((2, lattice.dim), 1e4))])
        kernels = NUMPY_KERNELS
        if compiled:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                kernels = load_kernels()
        ids, counts = hier.candidates_batch(rows, min_count, kernels)
        assert counts.sum() == ids.size
        bounds = np.cumsum(counts)[:-1]
        for row, got in zip(rows, np.split(ids, bounds)):
            want = _reference_candidates(table, lattice, hier.n_levels, row,
                                         min_count)
            np.testing.assert_array_equal(np.sort(got), want)
            np.testing.assert_array_equal(hier.candidates(row, min_count),
                                          want)

    def test_min_count_above_table_size_returns_largest_node(self):
        _, codes, _, table, hier = _make(n=60)
        ids, counts = hier.candidates_batch(codes[:5], 10_000)
        assert np.all(counts <= 60) and np.all(counts >= 1)


class TestQueries:
    def test_exact_bucket_at_level_zero(self):
        y, codes, lat, table, hier = _make()
        ids = hier.ids_at_level(codes[0], 0)
        own = table.lookup(codes[0])
        np.testing.assert_array_equal(np.sort(ids), np.sort(own))

    def test_candidates_meet_min_count_when_possible(self):
        y, codes, lat, table, hier = _make(points_scale=2.0, n=200)
        got = hier.candidates(codes[0], min_count=50)
        assert got.size >= 50 or got.size == 200

    def test_candidates_grow_with_level(self):
        y, codes, lat, table, hier = _make()
        prev_size = 0
        for level in range(hier.n_levels):
            ids = hier.ids_at_level(codes[0], level)
            if ids is not None:
                assert ids.size >= prev_size
                prev_size = ids.size

    def test_candidate_supersets_across_levels(self):
        # Level k+1's group must contain level k's group for the same code.
        y, codes, lat, table, hier = _make()
        prev = None
        for level in range(hier.n_levels):
            ids = hier.ids_at_level(codes[3], level)
            if ids is None:
                continue
            cur = set(ids.tolist())
            if prev is not None:
                assert prev.issubset(cur)
            prev = cur

    def test_deepest_match_for_indexed_code(self):
        y, codes, lat, table, hier = _make()
        assert hier.deepest_match(codes[0]) == 0

    def test_level_out_of_range(self):
        _, codes, _, _, hier = _make()
        with pytest.raises(ValueError):
            hier.ids_at_level(codes[0], hier.n_levels)

    def test_unseen_code_escalates(self):
        # A code far outside the data may match only coarse levels (or
        # none); candidates() must not crash and returns an array.
        _, codes, lat, _, hier = _make()
        rogue = lat.quantize(np.full((1, 8), 1e4))[0]
        got = hier.candidates(rogue, min_count=5)
        assert isinstance(got, np.ndarray)
