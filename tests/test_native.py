"""Kernel-table tests (DESIGN.md §12): parity matrix, kernels, fallback.

Four contracts:

1. **Bit-parity matrix** — the one staged plan returns *identical*
   indices and distances on the compiled kernel table and on the numpy
   one, and the scalar oracle's neighbours, across lattices × multiprobe
   × hierarchy × tombstones × live overlay × memmap ×
   ``max_batch_rows`` × shard threads × spill.  The numpy side is pinned
   through the ``REPRO_NATIVE_BACKEND`` + ``registry.reset()`` seam; the
   other side is whatever the environment resolves (the CI ``native``
   job requires that to be ``cext``, and reruns everything under
   ``none``).
2. **Kernel properties** — ``dedup_candidates``, ``rank_topk`` and
   ``bucket_union`` equal their ``repro.native.ref`` twins on drawn
   inputs that reach both dedup paths, both union paths and every
   ``tree_dot`` shape, on the build the toolchain resolves *and* on the
   portable build a failed SIMD compile falls back to (``bucket_union``
   also on the numpy table, against a set-based oracle); an FMA canary
   proves contraction is off; the ``.so`` cache key covers the flags.
3. **Decoder properties** — the compiled E8 decoder matches the
   pure-numpy reference in ``repro.lattice`` on random inputs *and* on
   the boundary grid (exact integers, half-integers — the D8 rounding
   ties — and quarter-point D8-vs-coset ties) where any summation or
   rounding divergence shows.
4. **One path, loud fallback** — a bare ``query_batch`` runs the
   compiled table when there is one; without one it answers
   bit-identically from the numpy table with exactly one
   ``RuntimeWarning`` and one ``repro_native_fallbacks_total`` bump; the
   inert ``engine=`` keyword changes nothing and refuses ``"scalar"``.
"""

import contextlib
import itertools
import os
import re
import stat
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.core.outofcore import fit_standard_chunked
from repro.exec import run_plan
from repro.lattice.e8 import decode_e8
from repro.lsh.index import StandardLSH
from repro.lsh.table import SortedLayout, TableLayouts
from repro.native import kernels_cext, registry
from repro.native.ref import (bucket_union_ref, dedup_candidates_ref,
                              rank_topk_ref, zm_probe_codes_ref)
from repro.obs.kernels import TIMED_KERNEL_NAMES
from repro.obs.registry import MetricsRegistry
from repro.resilience import (FaultPlan, FaultSpec, ResiliencePolicy,
                              injected_faults)
from repro.runtime import IndexRuntime, RuntimeConfig
from tests.oracle import oracle_query

N_QUERIES = 19
DIM = 16
K = 8


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(31).standard_normal((600, DIM))


@pytest.fixture(scope="module")
def queries(dataset):
    q = np.random.default_rng(32).standard_normal((N_QUERIES, DIM))
    # Row 0 is an indexed point verbatim: its self-distance must cancel
    # to exactly 0.0, which only happens when all three distance terms
    # share the halving-tree summation order (see repro.native.ref).
    q[0] = dataset[17]
    return q


@pytest.fixture(scope="module")
def kernels():
    """The resolved compiled table, skipping tests that require one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loaded = registry.load_kernels()
    if loaded.backend != "cext":
        pytest.skip("no compiled native backend available "
                    f"(status: {registry.native_status()['errors']})")
    return loaded


@contextlib.contextmanager
def numpy_table():
    """Queries inside run on the numpy kernel table (the existing seam:
    ``REPRO_NATIVE_BACKEND=none`` + ``registry.reset()``)."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        patch.setenv("REPRO_NATIVE_BACKEND", "none")
        registry.reset()
        try:
            assert registry.load_kernels() is registry.NUMPY_KERNELS
            yield
        finally:
            registry.reset()


#: Index configurations spanning what the kernels touch: lattice decoder,
#: multiprobe expansion, hierarchy
#: escalation (integer threshold — shard-invariant by construction), and
#: the index states that fork on their input — tombstones, a live insert
#: overlay, a memmapped corpus.
INDEX_CONFIGS = {
    "zm": dict(lattice="zm"),
    "zm-probes": dict(lattice="zm", n_probes=4),
    "e8-hier": dict(lattice="e8", hierarchy=True),
    "zm-probes16-hier-tombstones": dict(lattice="zm", n_probes=16,
                                        hierarchy=True, tombstones=True),
    "zm-probes16-overlay": dict(lattice="zm", n_probes=16, overlay=True),
    "zm-memmap-tombstones": dict(lattice="zm", memmap=True, tombstones=True),
    "e8-probes16-overlay-tombstones": dict(lattice="e8", n_probes=16,
                                           overlay=True, tombstones=True),
    "e8-hier-memmap": dict(lattice="e8", hierarchy=True, memmap=True),
}


@pytest.fixture(scope="module")
def index_cache(dataset, tmp_path_factory):
    cache = {}

    def get(name):
        if name in cache:
            return cache[name]
        config = dict(INDEX_CONFIGS[name])
        states = {state: config.pop(state, False)
                  for state in ("tombstones", "overlay", "memmap")}
        index = StandardLSH(n_tables=6, bucket_width=6.0, seed=5, **config)
        base = dataset[:500] if states["overlay"] else dataset
        if states["memmap"]:
            path = tmp_path_factory.mktemp("memmap") / f"{name}.dat"
            on_disk = np.memmap(path, dtype=np.float64, mode="w+",
                                shape=base.shape)
            on_disk[:] = base
            fit_standard_chunked(index, on_disk, chunk_size=128)
            assert isinstance(index._data, np.memmap)
        else:
            index.fit(base)
        if states["overlay"]:
            index.insert(dataset[500:])  # < 20 %: stays in the overlay
            assert all(table.n_extra for table in index._tables)
        if states["tombstones"]:
            assert index.delete(np.arange(3, dataset.shape[0], 5)) > 0
        cache[name] = index
        return index

    return get


def assert_same_results(a, b, exact=True):
    """Parity check.

    ``exact=True`` is the kernel-table contract: bitwise-identical
    distances (compared through the raw float64 payloads, inf-safe).
    The scalar oracle is the seed reference with its own summation
    order, so oracle comparisons drop to ids-exact + allclose distances
    (same convention as ``tests/test_query_engine.py``).
    """
    ids_a, dists_a, stats_a = a
    ids_b, dists_b, stats_b = b
    assert np.array_equal(ids_a, ids_b)
    if exact:
        assert np.array_equal(dists_a.view(np.int64), dists_b.view(np.int64))
    else:
        np.testing.assert_allclose(dists_a, dists_b, equal_nan=True)
    assert np.array_equal(stats_a.n_candidates, stats_b.n_candidates)
    assert np.array_equal(stats_a.escalated, stats_b.escalated)
    cut_a, cut_b = stats_a.exhausted_budget, stats_b.exhausted_budget
    assert (cut_a is None) == (cut_b is None)
    assert cut_a is None or np.array_equal(cut_a, cut_b)


# ----------------------------------------------------------- parity matrix


class TestParityMatrix:
    # ``native``: the resolved table, sharded, byte-equal to the numpy
    # table.  ``scalar``: the resolved table, sharded, against the oracle.
    @pytest.mark.parametrize("config", sorted(INDEX_CONFIGS))
    @pytest.mark.parametrize("engine", ["scalar", "native"])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_standard_engines_agree(self, index_cache, queries, config,
                                    engine, rows):
        index = index_cache(config)
        kwargs = {}
        if INDEX_CONFIGS[config].get("hierarchy"):
            kwargs["hierarchy_threshold"] = 12
        resolved = index.query_batch(queries, K, max_batch_rows=rows,
                                     **kwargs)
        if engine == "native":
            with numpy_table():
                assert_same_results(
                    index.query_batch(queries, K, **kwargs), resolved)
        else:
            assert_same_results(oracle_query(index, queries, K, **kwargs),
                                resolved, exact=False)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_bilevel_native_parity(self, dataset, queries, workers, rows):
        for spill in (1, 2):
            cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=6.0,
                                multi_assign=spill, seed=5)
            index = BiLevelLSH(cfg).fit(dataset)
            with IndexRuntime(index, RuntimeConfig(
                    shard_workers=workers, max_batch_rows=rows)) as rt:
                resolved = rt.query_batch(queries, K)
            with numpy_table():
                assert_same_results(index.query_batch(queries, K), resolved)
            assert_same_results(oracle_query(index, queries, K), resolved,
                                exact=False)

    @pytest.mark.parametrize("lattice", ["zm", "e8"])
    @pytest.mark.parametrize("tombstones", [False, True])
    def test_bilevel_adaptive_structures_agree(self, dataset, queries,
                                               lattice, tombstones):
        # Both query-adaptive structures at once — 32 probes per table
        # and hierarchy escalation at an integer threshold — through the
        # bi-level front-end: ids, distances and QueryStats must agree
        # across both kernel tables and the oracle, with and without
        # tombstones.
        cfg = BiLevelConfig(n_groups=4, n_tables=4, bucket_width=6.0,
                            lattice=lattice, n_probes=32, hierarchy=True,
                            seed=5)
        index = BiLevelLSH(cfg).fit(dataset)
        if tombstones:
            assert index.delete(np.arange(0, dataset.shape[0], 5)) > 0
        base = index.query_batch(queries, K, hierarchy_threshold=14)
        assert base[2].escalated.any() and not base[2].escalated.all()
        assert base[2].exhausted_budget is None
        with numpy_table():
            assert_same_results(base, index.query_batch(
                queries, K, hierarchy_threshold=14))
        assert_same_results(base, oracle_query(
            index, queries, K, hierarchy_threshold=14), exact=False)

    @pytest.mark.parametrize("config", ["e8-hier",
                                        "zm-probes16-hier-tombstones"])
    def test_expired_deadline_flags_every_escalated_row(self, index_cache,
                                                        queries, config):
        index = index_cache(config)
        base = index.query_batch(queries, K, hierarchy_threshold=12)[2]
        answer = index.query_batch(queries, K, hierarchy_threshold=12,
                                   deadline_ms=1e-6)
        cut = answer[2]
        assert base.escalated.any()
        assert np.array_equal(cut.exhausted_budget, base.escalated)
        assert not cut.escalated.any()
        with numpy_table():
            assert_same_results(answer, index.query_batch(
                queries, K, hierarchy_threshold=12, deadline_ms=1e-6))

    @pytest.mark.parametrize("lattice", ["zm", "e8"])
    def test_stand_in_group_on_a_hierarchy_index(self, dataset, queries,
                                                 lattice):
        # A group that fails its dispatch check is answered by every live
        # row of the group — one span per segment, in the union the other
        # groups' lookups share — and escalates nothing; every other row
        # keeps its answer, on both tables alike.
        cfg = BiLevelConfig(n_groups=4, n_tables=4, bucket_width=6.0,
                            lattice=lattice, hierarchy=True, seed=5)
        index = BiLevelLSH(cfg).fit(dataset)
        assert index.delete(np.arange(0, dataset.shape[0], 7)) > 0
        base = index.query_batch(queries, K, hierarchy_threshold=14)
        victim = int(index.partitioner.assign(queries[:1])[0])
        plan = FaultPlan([FaultSpec(site="bilevel.dispatch",
                                    match={"group": victim})], seed=11)
        pol = ResiliencePolicy()
        with injected_faults(plan):
            answer = index.query_batch(queries, K, hierarchy_threshold=14,
                                       policy=pol)
            with numpy_table():
                assert_same_results(answer, index.query_batch(
                    queries, K, hierarchy_threshold=14, policy=pol))
        stats = answer[2]
        hit = index.partitioner.assign(queries) == victim
        assert np.array_equal(stats.degraded, hit)
        assert not stats.escalated[hit].any() and base[2].escalated.any()
        assert (stats.n_candidates[hit]
                == index.group_indexes[victim].n_live).all()
        assert np.array_equal(answer[0][~hit], base[0][~hit])
        assert np.array_equal(answer[1][~hit].view(np.int64),
                              base[1][~hit].view(np.int64))
        assert np.array_equal(stats.n_candidates[~hit],
                              base[2].n_candidates[~hit])
        assert np.array_equal(stats.escalated[~hit], base[2].escalated[~hit])

    def test_self_distance_is_exactly_zero(self, index_cache, queries):
        # Query row 0 is dataset row 17 verbatim; both tables and the
        # oracle must rank it first at bitwise 0.0 (the three-term
        # cancellation contract).
        index = index_cache("zm")
        with numpy_table():
            answers = [index.query_batch(queries, K)]
        answers += [index.query_batch(queries, K),
                    oracle_query(index, queries, K)]
        for ids, dists, _ in answers:
            assert ids[0, 0] == 17
            assert dists[0, 0] == 0.0

    def test_unknown_engine_raises(self, index_cache, dataset, queries):
        # Every spelling the inert keyword survives on refuses the old
        # reference engine and unknown names, and says where it went.
        standard = index_cache("zm")
        bilevel = BiLevelLSH(BiLevelConfig(n_groups=2, seed=5)).fit(dataset)
        for name in ("scalar", "warp"):
            for index in (standard, bilevel):
                with pytest.raises(ValueError, match="oracle_query_batch"):
                    index.query_batch(queries, K, engine=name)
                with pytest.raises(ValueError, match="oracle_query_batch"):
                    index.execution_plan(engine=name)
            with pytest.raises(ValueError, match="oracle_query_batch"):
                RuntimeConfig(engine=name)

    @pytest.mark.parametrize("name", ["native", "vectorized"])
    def test_legacy_engine_names_change_nothing(self, index_cache, dataset,
                                                queries, name):
        bilevel = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=6.0,
                                           seed=5)).fit(dataset)
        for index in (index_cache("zm-probes"), bilevel):
            bare = index.query_batch(queries, K)
            assert_same_results(bare,
                                index.query_batch(queries, K, engine=name))
            assert_same_results(bare, run_plan(
                index.execution_plan(engine=name), queries, K))


# --------------------------------------------------------- kernel parity


@pytest.fixture(scope="module")
def portable_kernels(kernels, tmp_path_factory):
    """The build a toolchain without ifunc ends up with.

    A wrapper compiler refuses the first (``-DREPRO_SIMD_CLONES``)
    attempt, so ``load`` must come back with the plain build — never
    ``None`` — and that build is held to the same reference.
    """
    root = tmp_path_factory.mktemp("portable")
    wrapper = root / "cc-no-clones"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'case " $* " in *" {kernels_cext._SIMD_FLAG} "*) exit 1;; esac\n'
        f'exec {kernels_cext._find_compiler()} "$@"\n')
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IXUSR)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CC", str(wrapper))
        patch.setenv("REPRO_NATIVE_CACHE", str(root / "cache"))
        loaded = kernels_cext.load()
    assert kernels_cext._SIMD_FLAG not in loaded.flags
    return loaded


@pytest.fixture(scope="module", params=["resolved", "portable"])
def build(request):
    return request.getfixturevalue(
        "kernels" if request.param == "resolved" else "portable_kernels")


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _inverted_tiles(cand, counts):
    """Per tile of a ``rank_topk`` call, whether the compiled kernel
    inverts it: the tiling and reuse rule of ``repro_rank_topk``,
    restated over the constants read from ``_kernels.c``."""
    with open(kernels_cext._SOURCE_PATH, encoding="utf-8") as fh:
        source = fh.read()
    tile, tile_queries, reuse = (
        int(re.search(rf"#define {name} (\d+)", source).group(1))
        for name in ("RANK_TILE", "RANK_TILE_QUERIES", "RANK_REUSE"))
    flags, q0, at = [], 0, 0
    while q0 < counts.size:
        q1, total = q0 + 1, int(counts[q0])
        while (q1 < counts.size and q1 - q0 < tile_queries
               and total + counts[q1] <= tile):
            total += int(counts[q1])
            q1 += 1
        ids = cand[at:at + total]
        runs = np.split(ids, np.cumsum(counts[q0:q1])[:-1])
        flags.append(bool(q1 - q0 > 1 and total
                          and ids.max() - ids.min() < total // reuse
                          and all((np.diff(run) > 0).all() for run in runs)))
        q0, at = q1, at + total
    return flags


class TestKernelParity:
    # id_span reaches both dedup paths (rule: more than 64 bitmap words
    # per id -> sort): spans up to 10**4 are at most 157 words, bitmap for
    # any segment of 3+ ids; 2**40 always sorts; 10**6 (15 625 words)
    # goes either way around 244 ids.  del_len puts tombstones below, at
    # and beyond the drawn ids.
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_ids=st.integers(0, 600),
           id_span=st.sampled_from([1, 5, 64, 700, 10**4, 10**6, 2**40]),
           nq=st.integers(0, 6),
           del_len=st.sampled_from([None, 0, 3, 500, 10**5]))
    def test_dedup_matches_reference(self, build, seed, n_ids, id_span, nq,
                                     del_len):
        rng = np.random.default_rng(seed)
        if nq == 0:
            n_ids = 0
        ids = rng.integers(0, id_span, size=n_ids)
        # Skewed so some segments stay empty and one holds most ids.
        qidx = np.minimum(rng.integers(0, 2 * max(nq, 1), size=n_ids),
                          max(nq - 1, 0)) // 2
        deleted = None if del_len is None else rng.random(del_len) < 0.3
        got = build.dedup_candidates(ids, qidx, nq, deleted=deleted)
        want = dedup_candidates_ref(ids, qidx, nq, deleted=deleted)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    def test_dedup_far_apart_dense_segments(self, build):
        # Two bitmap-path segments 2**40 apart: the bitmap is relative to
        # each segment, so neither its size nor a stale bit carries over.
        near = np.arange(300)[::-1] % 200
        ids = np.concatenate([near, near + 2**40, [-3, -3, -1]])
        qidx = np.repeat([0, 2, 1], [300, 300, 3])
        got = build.dedup_candidates(ids, qidx, 4)
        want = dedup_candidates_ref(ids, qidx, 4)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dim=st.sampled_from([1, 3, 7, 8, 33, 64, 100, 128]),
           with_norms=st.booleans(), k=st.sampled_from([1, 4, 10]))
    def test_rank_matches_reference(self, build, seed, dim, with_norms, k):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((40, dim))
        # Exact-tie ids: duplicate rows (equal distances to every query)
        # and quarter-grid rows (many equal sums); -0.0 products too.
        data[10:20] = data[:10]
        data[20:30] = np.round(data[20:30] * 2.0) / 4.0
        data[30, : dim // 2] = -0.0
        queries = np.vstack([rng.standard_normal((3, dim)), data[3:5],
                             np.zeros((1, dim))])
        counts = rng.integers(0, 40, size=queries.shape[0])
        counts[rng.integers(0, counts.size)] = 0
        cand = np.concatenate(
            [np.sort(rng.choice(40, size=c, replace=False)) for c in counts]
            + [np.empty(0, dtype=np.int64)]).astype(np.int64)
        sq_norms = ((data * data).sum(axis=1) if with_norms else None)
        q_sq = (queries * queries).sum(axis=1)
        sel, dists = build.rank_topk(data, sq_norms, queries, q_sq, cand,
                                     counts, k)
        want_sel, want_dists = rank_topk_ref(data, sq_norms, queries, q_sq,
                                             cand, counts, k)
        assert np.array_equal(sel, want_sel)
        assert np.array_equal(_bits(dists), _bits(want_dists))

    @pytest.mark.parametrize("dim", [2, 8, 64, 100])
    def test_fma_canary(self, build, dim):
        """``a*b + c`` must round twice, as the reference does.

        Every first-level pair ``(i, i + w)`` is ``(1+e)(1-e) + 1*(-1)``
        with ``e = 2**-30`` (unpaired columns are 0): the product
        ``1 - 2**-60`` rounds to 1.0, so the unfused sum is exactly 0; an
        FMA keeps the ``-2**-60``.  With norms passed as 0 the distance
        is ``sqrt(-2 * dot)``: 0.0 unfused, above ``2**-30`` contracted.
        """
        w = (1 << (dim - 1).bit_length()) // 2
        e = 2.0 ** -30
        row, query = np.zeros((1, dim)), np.zeros((1, dim))
        row[0, : dim - w], query[0, : dim - w] = 1.0 + e, 1.0 - e
        row[0, w:], query[0, w:] = 1.0, -1.0
        fused = Fraction(1.0 + e) * Fraction(1.0 - e) - 1
        assert fused == -Fraction(1, 2**60) and (1.0 + e) * (1.0 - e) == 1.0
        zero, one = np.zeros(1), np.ones(1, dtype=np.int64)
        sel, dists = build.rank_topk(row, zero, query, zero, zero.astype(
            np.int64), one, 1)
        want_sel, want_dists = rank_topk_ref(row, zero, query, zero,
                                             zero.astype(np.int64), one, 1)
        assert np.array_equal(sel, want_sel) and dists[0, 0] == 0.0
        assert np.array_equal(_bits(dists), _bits(want_dists))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dim=st.sampled_from([3, 16, 32, 64, 100]),
           with_norms=st.booleans(), k=st.sampled_from([1, 6, 40]),
           n_groups=st.integers(3, 5))
    def test_rank_inverted_tiles_match_reference(self, build, seed, dim,
                                                 with_norms, k, n_groups):
        # batch_plain in small: queries in group order, each holding an
        # ascending subset of its group's run of 24 rows (empty ones too),
        # so their tiles name every row many times and are inverted; then
        # 64 queries holding a few ids each from anywhere in the matrix, a
        # wide low-reuse tile scored query by query.  k = 40 exceeds
        # every count.
        rng = np.random.default_rng(seed)
        run = 24
        data = rng.standard_normal((3000, dim))
        # Exact ties on the rows a tile shares: quarter-grid rows (many
        # equal sums) in equal pairs, and queries equal to one another
        # and to rows.
        grid = rng.integers(-2, 3, size=(run * n_groups, dim)) / 4.0
        grid[1::2] = grid[::2]
        data[:grid.shape[0]] = grid
        per_group = rng.integers(43, 61, size=n_groups)
        queries, parts = [], []
        for g, n_q in enumerate(per_group):
            for _ in range(n_q):
                pick = rng.integers(0, 3)
                queries.append(grid[rng.integers(0, grid.shape[0])]
                               if pick == 0 else
                               queries[-1] if pick == 1 and queries else
                               rng.standard_normal(dim))
                size = rng.integers(0, run + 1)
                parts.append(g * run + np.sort(
                    rng.choice(run, size=size, replace=False)))
        for _ in range(64):
            parts.append(np.sort(rng.choice(data.shape[0],
                                            size=rng.integers(0, 4),
                                            replace=False)))
            queries.append(rng.standard_normal(dim))
        queries = np.array(queries)
        cand = np.concatenate(parts).astype(np.int64)
        counts = np.array([part.size for part in parts], dtype=np.int64)
        inverted = _inverted_tiles(cand, counts)
        assert sum(inverted) >= 2 and not all(inverted)
        sq_norms = (data * data).sum(axis=1) if with_norms else None
        q_sq = (queries * queries).sum(axis=1)
        sel, dists = build.rank_topk(data, sq_norms, queries, q_sq, cand,
                                     counts, k)
        want_sel, want_dists = rank_topk_ref(data, sq_norms, queries, q_sq,
                                             cand, counts, k)
        assert np.array_equal(sel, want_sel)
        assert np.array_equal(_bits(dists), _bits(want_dists))

    @pytest.mark.parametrize("copies", [1, 3])   # query-major, inverted
    def test_precheck_turns_away_only_what_the_exact_test_would(self, build,
                                                                copies):
        # Zero rows and zero queries: a candidate's squared distance is the
        # norm it is given.  With k = 2 the top-k fills at distance 1.0;
        # 1 + 2**-52 lies past 1.0 squared yet its sqrt is 1.0 exactly, so
        # row 4 ties row 7 with a smaller id and must enter, row 9 ties
        # with a larger id and must not, and 1 + 2**-51 is a distance past
        # 1.0.  One query meets them out of id order, three in id order —
        # a tile the kernel inverts.
        just_past = 1.0 + 2.0**-52
        assert np.sqrt(just_past) == 1.0 < np.sqrt(1.0 + 2.0**-51)
        norms = np.zeros(10)
        norms[[6, 7, 4, 9, 5]] = [0.25, 1.0, just_past, just_past,
                                  1.0 + 2.0**-51]
        order = np.array([6, 7, 4, 9, 5])
        cand = np.tile(order if copies == 1 else np.sort(order), copies)
        counts = np.full(copies, order.size)
        assert _inverted_tiles(cand, counts) == [copies > 1]
        args = (np.zeros((10, 4)), norms, np.zeros((copies, 4)),
                np.zeros(copies), cand, counts, 2)
        sel, dists = build.rank_topk(*args)
        assert sel.tolist() == [[6, 4]] * copies
        assert dists.tolist() == [[0.5, 1.0]] * copies
        want_sel, want_dists = rank_topk_ref(*args)
        assert np.array_equal(sel, want_sel)
        assert np.array_equal(_bits(dists), _bits(want_dists))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("copies", [1, 3])
    def test_subnormal_distances(self, build, k, copies):
        # Squared distances below the smallest normal, where t * t has no
        # relative error bound and the pre-check must skip nothing.
        tiny = np.finfo(np.float64).tiny
        norms = np.array([tiny, tiny / 2, np.nextafter(tiny / 2, 1.0),
                          tiny / 2, 5e-324, 0.0, tiny * (1 - 2.0**-50),
                          2e-323])
        order = np.array([7, 0, 3, 1, 6, 2, 5, 4])
        cand = np.tile(order if copies == 1 else np.sort(order), copies)
        counts = np.full(copies, order.size)
        assert _inverted_tiles(cand, counts) == [copies > 1]
        args = (np.zeros((8, 2)), norms, np.zeros((copies, 2)),
                np.zeros(copies), cand, counts, k)
        sel, dists = build.rank_topk(*args)
        want_sel, want_dists = rank_topk_ref(*args)
        assert np.array_equal(sel, want_sel)
        assert np.array_equal(_bits(dists), _bits(want_dists))

    def test_cache_key_covers_flags(self, kernels, tmp_path, monkeypatch):
        # A flag change must never reuse the object built without it.
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        first, flags = kernels_cext._compile(kernels_cext._SOURCE_PATH)
        assert kernels_cext._compile(kernels_cext._SOURCE_PATH)[0] == first
        monkeypatch.setattr(kernels_cext, "_CFLAGS",
                            kernels_cext._CFLAGS + ["-DREPRO_UNUSED"])
        second, new_flags = kernels_cext._compile(kernels_cext._SOURCE_PATH)
        assert second != first and os.path.exists(second)
        assert "-DREPRO_UNUSED" in new_flags and new_flags != flags


@pytest.fixture(scope="module", params=["resolved", "portable", "numpy"])
def any_table(request):
    """Both compiled builds and the numpy table (which always runs)."""
    if request.param == "numpy":
        return registry.NUMPY_KERNELS
    return request.getfixturevalue(
        "kernels" if request.param == "resolved" else "portable_kernels")


def _stacked(m, *lookups):
    """``bucket_union``'s leading arguments ``(layouts, codes, row_q,
    table_rows)`` from one ``(layouts, codes, row_q)`` per table."""
    return (TableLayouts.of([layouts for layouts, _, _ in lookups], m),
            np.concatenate([codes for _, codes, _ in lookups]
                           + [np.empty((0, m), dtype=np.int64)]),
            np.concatenate([row_q for _, _, row_q in lookups]
                           + [np.empty(0, dtype=np.int64)]),
            np.array([row_q.size for _, _, row_q in lookups],
                     dtype=np.int64))


def _draw_union_case(rng, n_tables, nq, id_span, code_span, m, del_len):
    """Random ``bucket_union`` input plus what a dict of sets says it is.

    Codes are drawn from ``code_span**m`` cells so lookups hit and miss;
    ids from ``[0, id_span)`` with replacement, so they repeat inside a
    layout, across base and overlay, and across tables.
    """
    deleted = None if del_len is None else rng.random(del_len) < 0.3
    dead = set() if deleted is None else set(np.nonzero(deleted)[0].tolist())
    lookups, want, misses = [], [set() for _ in range(nq)], []
    for _ in range(n_tables):
        layouts, buckets = [], []
        for _ in range(int(rng.integers(1, 3))):        # base [+ overlay]
            n = int(rng.integers(0, 60))
            codes = rng.integers(0, code_span, size=(n, m))
            ids = rng.integers(0, id_span, size=n)
            layouts.append(SortedLayout.sort(codes, ids))
            members = {}
            for code, i in zip(map(tuple, codes.tolist()), ids.tolist()):
                members.setdefault(code, set()).add(i)
            buckets.append(members)
        # Self rows (identity row_q) or self rows plus probe rows; a table
        # with no lookup rows at all now and then.
        shape = rng.integers(0, 3) if nq else 0
        row_q = np.arange(nq if shape else 0, dtype=np.int64)
        if shape == 2:
            row_q = np.concatenate([row_q, np.repeat(
                np.arange(nq), rng.integers(0, 4, size=nq))])
        # One past the drawn range: a code no layout holds.
        codes_all = rng.integers(0, code_span + 1, size=(row_q.size, m))
        missed = 0
        for code, q in zip(map(tuple, codes_all.tolist()), row_q.tolist()):
            hit = set().union(*(b.get(code, set()) for b in buckets))
            want[q] |= hit
            missed += not hit
        lookups.append((tuple(layouts), codes_all, row_q))
        misses.append(missed)
    return (_stacked(m, *lookups), deleted, [sorted(w - dead) for w in want],
            misses)


def _draw_extra(rng, nq, id_span):
    """Random ``extra`` span sets over fresh id arrays, and the ids each
    segment gains from them."""
    extra, gain = [], [set() for _ in range(nq)]
    for _ in range(int(rng.integers(0, 3)) if nq else 0):
        arrays = [rng.integers(0, id_span, size=int(rng.integers(0, 30)))
                  for _ in range(int(rng.integers(1, 4)))]
        slots = rng.integers(0, nq, size=int(rng.integers(0, 5)))
        starts = np.array([rng.integers(0, a.size + 1, size=slots.size)
                           for a in arrays]).reshape(len(arrays), -1)
        sizes = np.array([[rng.integers(0, a.size - s + 1) for s in row]
                          for a, row in zip(arrays, starts)],
                         dtype=np.int64).reshape(starts.shape)
        for a, at_row, size_row in zip(arrays, starts, sizes):
            for at, size, q in zip(at_row, size_row, slots):
                gain[q] |= set(a[at:at + size].tolist())
        extra.append((arrays, starts, sizes, slots))
    return extra, gain


class TestBucketUnion:
    # n_rows = id_span decides the path per query (rule: more than 64
    # bitmap words per gathered id -> collect and sort): spans up to 700
    # are at most 11 words, always the bitmap; 10**5 (1 563 words) goes
    # either way around 24 ids; 10**7 always sorts.  del_len puts
    # tombstones below, at and beyond the drawn ids.
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_tables=st.integers(0, 4),
           nq=st.integers(0, 6),
           id_span=st.sampled_from([1, 40, 700, 10**5, 10**7]),
           code_span=st.sampled_from([1, 2, 4]), m=st.sampled_from([1, 3, 8]),
           del_len=st.sampled_from([None, 0, 30, 10**5]))
    def test_matches_reference_and_set_oracle(self, any_table, seed, n_tables,
                                              nq, id_span, code_span, m,
                                              del_len):
        rng = np.random.default_rng(seed)
        lookups, deleted, want, want_misses = _draw_union_case(
            rng, n_tables, nq, id_span, code_span, m, del_len)
        got = any_table.bucket_union(*lookups, nq, id_span, deleted=deleted)
        ref = bucket_union_ref(*lookups, nq, id_span, deleted=deleted)
        assert len(got) == len(ref) == 3
        for g, r in zip(got, ref):
            assert g.dtype == np.int64
            assert np.array_equal(g, r)
        cand, counts, misses = got
        assert misses.tolist() == want_misses
        assert counts.tolist() == [len(w) for w in want]
        assert cand.tolist() == [i for w in want for i in w]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_tables=st.integers(0, 3),
           nq=st.integers(0, 5), id_span=st.sampled_from([1, 40, 10**5]),
           del_len=st.sampled_from([None, 30]))
    def test_extra_spans_join_the_union(self, any_table, seed, n_tables, nq,
                                        id_span, del_len):
        rng = np.random.default_rng(seed)
        lookups, deleted, want, _ = _draw_union_case(
            rng, n_tables, nq, id_span, 2, 3, del_len)
        extra, gain = _draw_extra(rng, nq, id_span)
        dead = set() if deleted is None else set(
            np.nonzero(deleted)[0].tolist())
        got = any_table.bucket_union(*lookups, nq, id_span, deleted=deleted,
                                     extra=extra)
        ref = bucket_union_ref(*lookups, nq, id_span, deleted=deleted,
                               extra=extra)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
        union = [sorted(set(w) | (g - dead)) for w, g in zip(want, gain)]
        assert got[1].tolist() == [len(u) for u in union]
        assert got[0].tolist() == [i for u in union for i in u]

    def test_extra_spans_outside_their_array_are_refused(self, any_table):
        lookups, ids = _stacked(2), np.arange(5)
        for at, size, slot in ((3, 3, 0), (-1, 1, 0), (0, -1, 0), (0, 1, 2),
                               (0, 1, -1)):
            with pytest.raises(IndexError, match="extra span"):
                any_table.bucket_union(*lookups, 2, 10, extra=[(
                    [ids], np.array([[at]]), np.array([[size]]),
                    np.array([slot]))])
        with pytest.raises(ValueError, match="broadcast"):
            any_table.bucket_union(*lookups, 2, 10, extra=[(
                [ids], np.zeros((2, 1)), np.ones((1, 1)), np.zeros(1))])
        cand, counts, _ = any_table.bucket_union(*lookups, 2, 10, extra=[(
            [ids], np.array([[1, 0]]), np.array([[3, 2]]), np.array([1, 1]))])
        assert cand.tolist() == [0, 1, 2, 3] and counts.tolist() == [0, 4]

    @pytest.mark.parametrize("n_rows", [50, 10**7])   # bitmap, sort
    def test_id_outside_the_row_count_is_refused(self, any_table, n_rows):
        codes = np.zeros((4, 2), dtype=np.int64)
        for bad_id in (-1, n_rows):
            layout = SortedLayout.sort(codes, np.array([3, 7, bad_id, 9]))
            lookups = _stacked(2, ((layout,), codes[:1],
                                   np.zeros(1, dtype=np.int64)))
            with pytest.raises(IndexError, match="outside"):
                any_table.bucket_union(*lookups, 1, n_rows)
        # One more row and the same layout is an ordinary union.
        cand = any_table.bucket_union(*lookups, 1, n_rows + 1)[0]
        assert cand.tolist() == [3, 7, 9, n_rows]

    def test_lookup_row_of_an_unknown_query_is_refused(self, any_table):
        codes = np.zeros((1, 2), dtype=np.int64)
        layout = SortedLayout.sort(codes, np.array([0]))
        for q in (-1, 2):
            with pytest.raises(IndexError, match="query"):
                any_table.bucket_union(
                    *_stacked(2, ((layout,), codes, np.array([q]))), 2, 1)

    def test_rows_the_tables_do_not_account_for_are_refused(self, any_table):
        # The compiled search reads exactly table_rows[t] rows per table.
        codes = np.zeros((3, 2), dtype=np.int64)
        layout = SortedLayout.sort(codes, np.arange(3))
        query0 = np.zeros(3, dtype=np.int64)
        layouts, _, row_q, _ = _stacked(2, ((layout,), codes, query0),
                                        ((layout,), codes[:0], query0[:0]))
        for table_rows in ([3, 1], [4, -1], [3], [2, 0]):
            with pytest.raises(ValueError, match="table_rows"):
                any_table.bucket_union(layouts, codes, row_q,
                                       np.array(table_rows), 1, 3)
        with pytest.raises(ValueError, match="table_rows"):
            any_table.bucket_union(layouts, codes[:, :1], row_q,
                                   np.array([3, 0]), 1, 3)
        # A dropped table is a zero row count: no rows, no misses.
        _, counts, misses = any_table.bucket_union(
            layouts, codes, row_q, np.array([3, 0]), 1, 3)
        assert counts.tolist() == [3] and misses.tolist() == [0, 0]

    def test_pointer_table_refuses_a_layout_of_another_width(self):
        layout = SortedLayout.sort(np.zeros((2, 3), dtype=np.int64),
                                   np.arange(2))
        with pytest.raises(ValueError, match="3-wide"):
            TableLayouts.of([(layout,)], 2)
        stacked = TableLayouts.of([(layout,), (layout, layout)], 3)
        assert stacked.n_layouts.tolist() == [1, 2]
        assert stacked.pointers.shape == (3, 6)

    def test_layout_refuses_arrays_the_kernel_cannot_address(self):
        codes = np.zeros((3, 2), dtype=np.int64)
        good = SortedLayout.sort(codes, np.arange(3))
        with pytest.raises(ValueError, match="C-contiguous int64"):
            SortedLayout.adopt(good.bucket_codes, good.starts.astype(np.int32),
                               good.ends, good.sorted_ids)
        with pytest.raises(ValueError, match="C-contiguous int64"):
            SortedLayout.adopt(good.bucket_codes, good.starts, good.ends,
                               np.arange(6)[::2])
        with pytest.raises(ValueError, match="inconsistent"):
            SortedLayout.adopt(good.bucket_codes, good.starts,
                               np.zeros(2, dtype=np.int64), good.sorted_ids)


class TestZmProbeKernel:
    # M = 33 puts 2M past 64 positions; n_probes reaches past the set
    # space (2 sets for M = 1, 8 for M = 2); grid draws put projections on
    # integer / half-integer / quarter boundaries, where many scores are
    # equal and the (score, positions) tuple order decides the sequence.
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           m=st.sampled_from([1, 2, 8, 16, 33]), q=st.integers(1, 6),
           n_probes=st.sampled_from([1, 3, 10, 32, 90]),
           grid=st.sampled_from([None, 1, 2, 4]))
    def test_matches_reference(self, build, seed, m, q, n_probes, grid):
        rng = np.random.default_rng(seed)
        y = (rng.uniform(-6, 6, (q, m)) if grid is None
             else rng.integers(-12, 12, (q, m)) / grid)
        codes = np.floor(y).astype(np.int64)
        probes, counts = build.zm_probe_codes(y, codes, n_probes)
        want_probes, want_counts = zm_probe_codes_ref(y, codes, n_probes)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(probes, want_probes)

    def test_set_space_runs_out_for_small_m(self, build):
        y = np.array([[0.25], [0.5]])
        probes, counts = build.zm_probe_codes(y, np.floor(y).astype(np.int64),
                                              32)
        assert counts.tolist() == [2, 2]
        assert probes.tolist() == [[-1], [1], [-1], [1]]

    def test_rejects_mismatched_blocks(self, build):
        with pytest.raises(ValueError, match="matching"):
            build.zm_probe_codes(np.zeros((2, 3)),
                                 np.zeros((2, 4), dtype=np.int64), 4)

    def test_timed_kernel_names_match_the_dispatch_table(self):
        table = registry.NUMPY_KERNELS
        served = {name for name in dir(table)
                  if not name.startswith("_") and callable(getattr(table, name))}
        assert TIMED_KERNEL_NAMES == registry.KERNEL_NAMES
        assert served == set(registry.KERNEL_NAMES)
        assert len(served) == 7 and "hierarchy_walk" in served


# ------------------------------------------------------- compiled decoders


def _e8_reference(x):
    """Integer codes (half-integer units) from the pure-numpy decoder."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    codes = np.empty(x.shape, dtype=np.int64)
    for b in range(x.shape[1] // 8):
        block = x[:, b * 8:(b + 1) * 8]
        codes[:, b * 8:(b + 1) * 8] = np.round(
            decode_e8(block) * 2.0).astype(np.int64)
    return codes


finite_row = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=8, max_size=8)

# The adversarial grid: exact integers, half-integers and quarter points
# — where D8 rounding ties and the D8-vs-half-coset comparison sit on
# exact-equality boundaries.
quarter_row = st.lists(
    st.integers(min_value=-12, max_value=12).map(lambda i: i / 4.0),
    min_size=8, max_size=8)


class TestCompiledE8Decoder:
    @settings(max_examples=150, deadline=None)
    @given(row=finite_row)
    def test_matches_reference_on_random_rows(self, kernels, row):
        x = np.array([row], dtype=np.float64)
        assert np.array_equal(kernels.e8_decode(x), _e8_reference(x))

    @settings(max_examples=150, deadline=None)
    @given(row=quarter_row)
    def test_matches_reference_on_tie_boundaries(self, kernels, row):
        x = np.array([row], dtype=np.float64)
        assert np.array_equal(kernels.e8_decode(x), _e8_reference(x))

    def test_boundary_vectors_batch(self, kernels):
        # Deterministic corner cases in one batch: the all-ties rows.
        rows = np.array([
            [0.0] * 8,            # exact D8 point
            [0.5] * 8,            # exact half-coset point
            [0.25] * 8,           # equidistant between the two cosets
            [-0.25] * 8,
            [0.75] * 8,
            [0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5],
            [1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.25, -0.25, 0.25, -0.25, 0.25, -0.25, 0.25, -0.25],
        ], dtype=np.float64)
        assert np.array_equal(kernels.e8_decode(rows), _e8_reference(rows))

    def test_multiblock_matches_reference(self, kernels):
        x = np.random.default_rng(77).standard_normal((60, 24)) * 3.0
        assert np.array_equal(kernels.e8_decode(x), _e8_reference(x))

    def test_rejects_non_multiple_of_8(self, kernels):
        with pytest.raises(ValueError):
            kernels.e8_decode(np.zeros((3, 7), dtype=np.float64))

    def test_d8_half_integer_ties(self, kernels):
        # Rows of integers and half-integers: every half-integer is a
        # rounding tie of the D8 decoder, and an odd sum re-rounds the
        # first of equal errors — where E8 keeps the D8 point, the codes
        # show both tie rules.
        head = np.array(list(itertools.product([-0.5, 0.0, 0.5, 1.5],
                                               repeat=4)))
        grid = np.vstack([np.hstack([head, np.zeros_like(head)]),
                          np.hstack([np.zeros_like(head), head])])
        got = kernels.e8_decode(grid)
        assert np.array_equal(got, _e8_reference(grid))
        assert (got % 2 == 0).all(axis=1).sum() > grid.shape[0] // 2


# ------------------------------------------------------------ observability


class TestNativeObservability:
    def test_native_batches_counted(self, kernels, index_cache, queries):
        # A bare query_batch — no keyword, no config — *is* the compiled
        # path when a compiler is present.
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            index_cache("zm").query_batch(queries, K)
        finally:
            obs.disable()
        samples = reg.snapshot()["repro_native_batches_total"]["samples"]
        assert [(s["labels"], s["value"]) for s in samples] \
            == [({"backend": "cext"}, 1.0)]

    def test_native_status_shape(self):
        status = registry.native_status()
        assert set(status) == {"backend", "setup_seconds", "errors"}
        assert status["backend"] in ("cext", "numpy")
        assert registry.native_backend() in ("cext", None)


# ---------------------------------------------------------------- fallback


class TestFallback:
    def test_disabled_backend_degrades_loudly_once(self, monkeypatch,
                                                   dataset, queries):
        index = StandardLSH(n_tables=4, bucket_width=6.0,
                            seed=5).fit(dataset)
        base = index.query_batch(queries, K)  # as the environment resolves
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", "none")
        registry.reset()
        try:
            reg = MetricsRegistry()
            obs.enable(registry=reg)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    # The default path: no engine keyword anywhere.
                    first = index.query_batch(queries, K)
                    second = index.query_batch(queries, K)
            finally:
                obs.disable()
            relevant = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "native kernels unavailable" in str(w.message)]
            assert len(relevant) == 1, "fallback must warn exactly once"
            assert_same_results(base, first)
            assert_same_results(base, second)
            snap = reg.snapshot()
            assert "repro_native_fallbacks_total" in snap
            batches = snap["repro_native_batches_total"]["samples"]
            assert [s["labels"] for s in batches] == [{"backend": "numpy"}]
        finally:
            registry.reset()

    def test_disabled_backend_answers_multiprobe_through_reference(
            self, dataset, queries):
        index = StandardLSH(n_tables=4, bucket_width=3.0, n_probes=32,
                            seed=5).fit(dataset)
        base = index.query_batch(queries, K)
        with numpy_table():
            assert_same_results(base, index.query_batch(queries, K))
        assert_same_results(base, oracle_query(index, queries, K),
                            exact=False)

    def test_invalid_pin_is_reported_not_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", "warp9")
        registry.reset()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert registry.load_kernels() is registry.NUMPY_KERNELS
            status = registry.native_status()
            assert "config" in status["errors"]
            assert status["backend"] == "numpy"
        finally:
            registry.reset()
