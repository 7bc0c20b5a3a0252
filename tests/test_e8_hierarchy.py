"""Unit tests for the E8 scaled-lattice hierarchy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.e8_hierarchy import E8Hierarchy
from repro.lattice.e8 import E8Lattice, e8_decode
from repro.lsh.table import LSHTable, sort_runs
from repro.native import load_kernels
from repro.native.ref import hierarchy_walk_ref
from repro.native.registry import NUMPY_KERNELS
from tests.oracle import morton_order


@pytest.fixture(scope="module")
def compiled():
    """The compiled kernel table — as resolved, the portable build or a
    sanitized one, whichever the environment builds — or a skip."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        kernels = load_kernels()
    if kernels.backend != "cext":
        pytest.skip("no compiled kernel table")
    return kernels


def _make(points_scale=4.0, n=150, seed=0, max_levels=24):
    rng = np.random.default_rng(seed)
    lat = E8Lattice(8)
    y = rng.uniform(-points_scale, points_scale, size=(n, 8))
    codes = lat.quantize(y)
    table = LSHTable(codes)
    return y, codes, lat, table, E8Hierarchy(table, lat, max_levels=max_levels)


def _ids_at_level(hier, code, level):
    """Point ids under the node matching ``code``'s ancestor at
    ``level``, ``None`` when no bucket shares that ancestor."""
    if not 0 <= level < hier.n_levels:
        raise ValueError(f"level must be in [0, {hier.n_levels}), got {level}")
    node = int(NUMPY_KERNELS.lookup_codes(
        hier.level_codes[level], hier.lattice.ancestor(code, level))[0])
    if node < 0:
        return None
    return hier.ids[hier.level_starts[level][node]:
                    hier.level_ends[level][node]]

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

    def test_level_words_name_the_level_arrays(self):
        # What the compiled walk reads: width, levels, settled, the id
        # array, then per level its codes, count, starts, ends and cells.
        _, _, lat, table, hier = _make()
        words = hier.words.tolist()
        assert words[:5] == [8, hier.n_levels, hier.settled,
                             hier.ids.ctypes.data, hier.ids.size]
        for level in range(hier.n_levels):
            codes = hier.level_codes[level]
            assert words[5 + 5 * level:10 + 5 * level] == [
                codes.ctypes.data, codes.shape[0],
                hier.level_starts[level].ctypes.data,
                hier.level_ends[level].ctypes.data,
                hier.level_cells[level].ctypes.data]
        # Level 0 is the table's buckets, and searched through its index.
        assert hier.level_cells[0] is table.layouts()[0].cells

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
                                         E8Lattice(16)])
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


def _float_chain(codes, max_k):
    """Eq. (10) as the hierarchy first climbed it: real-unit points
    halved and re-decoded, scaled back to half-integer codes per level."""
    current = codes.astype(np.float64) / 2.0
    for k in range(max_k):
        if k > 0:
            current = e8_decode(current / 2.0) / 2.0
        yield k, np.round(current * float(2 ** k) * 2.0).astype(np.int64)


def _chain_built(table, max_levels=24):
    """The build loop the node-code decode replaced, kept as the oracle:
    every bucket climbs the float chain, a node's parent is its first
    bucket's, and ``np.unique(axis=0)`` dedups each level.  Returns the
    arrays an :class:`E8Hierarchy` keeps."""
    codes = table.bucket_codes
    level_codes, groups = [codes], [np.arange(codes.shape[0])]
    chain = _float_chain(codes, max_levels)
    next(chain)
    settled = max_levels
    while len(groups) < max_levels and level_codes[-1].shape[0] > 1:
        uniq, group = 2 * level_codes[-1], groups[-1]
        if settled == max_levels:
            first = np.unique(group, return_index=True)[1]
            uniq, inverse = np.unique(next(chain)[1][first], axis=0,
                                      return_inverse=True)
            # A level's codes lie along the Morton curve, as a table's do.
            curve = np.array(morton_order(uniq), dtype=np.int64)
            uniq, rank = uniq[curve], np.argsort(curve)
            group = rank[inverse.ravel()][group]
            if np.array_equal(uniq, 2 * level_codes[-1]):
                settled = len(groups) - 1
        level_codes.append(uniq)
        groups.append(group)
    n_levels = len(groups)
    groups = groups[:settled + 1]
    order = np.lexsort(groups)
    sizes = table.bucket_sizes()[order]
    ids = np.concatenate([table.sorted_ids[s:s + n] for s, n in
                          zip(table._starts[order], sizes)])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    runs = [np.unique(group[order], return_index=True, return_counts=True)
            for group in groups]
    starts = [offsets[head] for _, head, _ in runs]
    ends = [offsets[head + length] for _, head, length in runs]
    starts += starts[-1:] * (n_levels - len(runs))
    ends += ends[-1:] * (n_levels - len(runs))
    return dict(level_codes=level_codes, level_starts=starts,
                level_ends=ends, ids=ids, settled=settled)


def _built_with(kernels, table, lattice):
    """``E8Hierarchy(table, lattice)`` climbing through ``kernels``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.hierarchy.e8_hierarchy.resolved_kernels",
                      lambda: kernels)
        return E8Hierarchy(table, lattice)


def assert_same_hierarchy(hier, want):
    """Every array ``hier`` keeps equals ``want``'s (an E8Hierarchy or
    the :func:`_chain_built` dict), byte for byte."""
    get = want.get if isinstance(want, dict) else want.__dict__.get
    assert hier.settled == get("settled")
    assert hier.n_levels == len(get("level_codes"))
    assert hier.ids.tobytes() == np.asarray(get("ids"), np.int64).tobytes()
    for name in ("level_codes", "level_starts", "level_ends"):
        for got, exp in zip(getattr(hier, name), get(name)):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, exp)


class TestLevelOrder:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.3, 3.0, 40.0, 5000.0]),
           n=st.sampled_from([1, 2, 40, 400]))
    def test_doubling_a_level_keeps_its_order(self, seed, scale, n):
        # Past the settled level a level is the one below doubled: the
        # build tells it by comparing the sorted parents with the doubled
        # codes, so the sort must keep a doubled level in its order.
        _, _, _, _, hier = _make(points_scale=scale, n=n, seed=seed)
        for codes in hier.level_codes:
            doubled, _, _, order = sort_runs(2 * codes,
                                             np.arange(codes.shape[0]))
            np.testing.assert_array_equal(doubled, 2 * codes)
            np.testing.assert_array_equal(order, np.arange(codes.shape[0]))


class TestBuildOracle:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lattice=st.sampled_from([E8Lattice(8), E8Lattice(11),
                                    E8Lattice(16)]),
           scale=st.sampled_from([0.3, 3.0, 40.0, 5000.0]),
           n=st.sampled_from([1, 2, 40, 400]))
    def test_node_decode_builds_what_the_bucket_chain_built(
            self, seed, lattice, scale, n):
        rng = np.random.default_rng(seed)
        codes = lattice.quantize(rng.normal(0, scale, (n, lattice.dim)))
        table = LSHTable(codes)
        assert_same_hierarchy(_built_with(NUMPY_KERNELS, table, lattice),
                              _chain_built(table))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lattice=st.sampled_from([E8Lattice(8), E8Lattice(11),
                                    E8Lattice(16)]),
           scale=st.sampled_from([0.3, 3.0, 40.0, 5000.0]))
    def test_compiled_and_numpy_tables_build_alike(self, compiled, seed,
                                                   lattice, scale):
        rng = np.random.default_rng(seed)
        codes = lattice.quantize(rng.normal(0, scale, (300, lattice.dim)))
        table = LSHTable(codes)
        assert_same_hierarchy(_built_with(compiled, table, lattice),
                              _built_with(NUMPY_KERNELS, table, lattice))

    @pytest.mark.parametrize("scale", [0.3, 3.0, 40.0, 5000.0])
    def test_ancestor_chain_is_the_float_chain(self, scale):
        lattice = E8Lattice(16)
        codes = lattice.quantize(
            np.random.default_rng(5).normal(0, scale, (200, 16)))
        for (_, got), (_, want) in zip(lattice.ancestor_chain(codes, 24),
                                       _float_chain(codes, 24)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


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
        base = table.layouts()[0]
        ids = np.concatenate([table.sorted_ids[base.starts[b]:base.ends[b]]
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
                                    E8Lattice(16)]),
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
        start, size, _ = hier.walk([hier], rows[None], min_count, kernels)
        for row, at, n in zip(rows, start[0], size[0]):
            want = _reference_candidates(table, lattice, hier.n_levels, row,
                                         min_count)
            np.testing.assert_array_equal(np.sort(hier.ids[at:at + n]), want)
            np.testing.assert_array_equal(hier.candidates(row, min_count),
                                          want)

    def test_min_count_above_table_size_returns_largest_node(self):
        _, codes, _, table, hier = _make(n=60)
        _, size, _ = hier.walk([hier], codes[None, :5], 10_000)
        assert np.all(size <= 60) and np.all(size >= 1)


def _walk_case(rng, lattice, scale, n_tables):
    """``n_tables`` hierarchies over fresh codes and the ``(L, 26, width)``
    rows walked in them: indexed codes, unseen codes nearby, and rogue
    codes far outside the data that match no level at all."""
    hiers, rows = [], []
    for _ in range(n_tables):
        n = int(rng.integers(1, 250))
        codes = lattice.quantize(rng.normal(0, scale, (n, lattice.dim)))
        hiers.append(E8Hierarchy(LSHTable(codes), lattice))
        rows.append(np.concatenate([
            codes[rng.integers(0, n, size=12)],
            lattice.quantize(rng.normal(0, 2 * scale, (12, lattice.dim))),
            lattice.quantize(np.full((2, lattice.dim), 1e4))]))
    return hiers, np.stack(rows)


def _assert_walks_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


class TestWalkKernel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           lattice=st.sampled_from([E8Lattice(8), E8Lattice(11),
                                    E8Lattice(16)]),
           scale=st.sampled_from([0.5, 3.0, 40.0]),
           min_count=st.sampled_from([1, 7, 60, 10**6]),
           n_tables=st.integers(1, 3))
    def test_compiled_walk_equals_reference(self, compiled, seed, lattice,
                                            scale, min_count, n_tables):
        hiers, rows = _walk_case(np.random.default_rng(seed), lattice,
                                 scale, n_tables)
        _assert_walks_equal(compiled.hierarchy_walk(hiers, rows, min_count),
                            hierarchy_walk_ref(hiers, rows, min_count))

    @pytest.mark.parametrize("lattice", [E8Lattice(8), E8Lattice(11),
                                         E8Lattice(16)])
    def test_rows_climb_into_the_settled_levels(self, compiled, lattice):
        # A budget no node meets sends every row up until the settled
        # cut-off stops it: the doubling test and the matched-row stop.
        hiers, rows = _walk_case(np.random.default_rng(5), lattice, 40.0, 3)
        got = compiled.hierarchy_walk(hiers, rows, 10**6)
        _assert_walks_equal(got, hierarchy_walk_ref(hiers, rows, 10**6))
        settled = np.array([h.settled for h in hiers])
        assert (settled < np.array([h.n_levels for h in hiers])).all()
        assert (got[2] >= settled[:, None]).any()

    def test_refuses_what_it_cannot_walk(self, compiled):
        hiers, rows = _walk_case(np.random.default_rng(1), E8Lattice(8),
                                 3.0, 2)
        with pytest.raises(ValueError, match="hierarchies"):
            compiled.hierarchy_walk(hiers[:1], rows, 5)
        with pytest.raises(ValueError, match="level table"):
            compiled.hierarchy_walk(hiers, rows[:, :, :4], 5)

    def test_other_lattices_are_refused(self):
        from repro.lattice.zm import ZMLattice

        table = LSHTable(np.zeros((3, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="E8 lattice"):
            E8Hierarchy(table, ZMLattice(4))


class TestQueries:
    def test_exact_bucket_at_level_zero(self):
        y, codes, lat, table, hier = _make()
        ids = _ids_at_level(hier, codes[0], 0)
        own = table.gather_batch(codes[0])[0]
        np.testing.assert_array_equal(np.sort(ids), np.sort(own))

    def test_candidates_meet_min_count_when_possible(self):
        y, codes, lat, table, hier = _make(points_scale=2.0, n=200)
        got = hier.candidates(codes[0], min_count=50)
        assert got.size >= 50 or got.size == 200

    def test_candidates_grow_with_level(self):
        y, codes, lat, table, hier = _make()
        prev_size = 0
        for level in range(hier.n_levels):
            ids = _ids_at_level(hier, codes[0], level)
            if ids is not None:
                assert ids.size >= prev_size
                prev_size = ids.size

    def test_candidate_supersets_across_levels(self):
        # Level k+1's group must contain level k's group for the same code.
        y, codes, lat, table, hier = _make()
        prev = None
        for level in range(hier.n_levels):
            ids = _ids_at_level(hier, codes[3], level)
            if ids is None:
                continue
            cur = set(ids.tolist())
            if prev is not None:
                assert prev.issubset(cur)
            prev = cur

    def test_level_out_of_range(self):
        _, codes, _, _, hier = _make()
        with pytest.raises(ValueError):
            _ids_at_level(hier, codes[0], hier.n_levels)

    def test_unseen_code_escalates(self):
        # A code far outside the data may match only coarse levels (or
        # none); candidates() must not crash and returns an array.
        _, codes, lat, _, hier = _make()
        rogue = lat.quantize(np.full((1, 8), 1e4))[0]
        got = hier.candidates(rogue, min_count=5)
        assert isinstance(got, np.ndarray)
