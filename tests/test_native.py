"""Kernel-table tests (DESIGN.md §12): parity matrix, kernels, fallback.

Four contracts:

1. **Bit-parity matrix** — the one staged plan returns *identical*
   indices and distances on the compiled kernel table and on the numpy
   one, and the scalar oracle's neighbours, across lattices × multiprobe
   (fixed, adaptive) × hierarchy × tombstones × live overlay × memmap ×
   ``max_batch_rows`` × ``n_jobs`` × spill.  The numpy side is pinned
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
3. **Decoder properties** — the compiled E8/Dm decoders match the
   pure-numpy references in ``repro.lattice`` on random inputs *and* on
   the boundary grid (exact integers, half-integers, quarter-point
   D8-vs-coset ties) where any summation or rounding divergence shows.
4. **One path, loud fallback** — a bare ``query_batch`` runs the
   compiled table when there is one; without one it answers
   bit-identically from the numpy table with exactly one
   ``RuntimeWarning`` and one ``repro_native_fallbacks_total`` bump; the
   inert ``engine=`` keyword changes nothing and refuses ``"scalar"``.
"""

import contextlib
import os
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
from repro.lattice.dm import decode_dm
from repro.lattice.e8 import decode_e8
from repro.lsh.index import StandardLSH
from repro.lsh.table import SortedLayout
from repro.native import kernels_cext, registry
from repro.native.ref import (bucket_union_ref, dedup_candidates_ref,
                              rank_topk_ref, zm_probe_codes_ref)
from repro.obs.kernels import TIMED_KERNEL_NAMES
from repro.obs.registry import MetricsRegistry
from repro.runtime import RuntimeConfig
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
#: multiprobe expansion (fixed and adaptive budgets), hierarchy
#: escalation (integer threshold — shard-invariant by construction), and
#: the index states that fork on their input — tombstones, a live insert
#: overlay, a memmapped corpus.
INDEX_CONFIGS = {
    "zm": dict(lattice="zm"),
    "zm-probes": dict(lattice="zm", n_probes=4),
    "e8-hier": dict(lattice="e8", hierarchy=True),
    "dm-probes-hier": dict(lattice="dm", n_probes=2, hierarchy=True),
    "zm-probes16-hier-tombstones": dict(lattice="zm", n_probes=16,
                                        hierarchy=True, tombstones=True),
    "zm-adaptive-overlay": dict(lattice="zm", n_probes=16,
                                adaptive_probing=True, overlay=True),
    "zm-memmap-tombstones": dict(lattice="zm", memmap=True, tombstones=True),
    "e8-probes16-overlay-tombstones": dict(lattice="e8", n_probes=16,
                                           overlay=True, tombstones=True),
    "e8-hier-memmap": dict(lattice="e8", hierarchy=True, memmap=True),
    "dm": dict(lattice="dm"),
    "dm-probes16-overlay": dict(lattice="dm", n_probes=16, overlay=True),
    "dm-hier-memmap": dict(lattice="dm", hierarchy=True, memmap=True),
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

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_bilevel_native_parity(self, dataset, queries, n_jobs, rows):
        for spill in (1, 2):
            cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=6.0,
                                n_jobs=n_jobs, multi_assign=spill, seed=5)
            index = BiLevelLSH(cfg).fit(dataset)
            resolved = index.query_batch(queries, K, max_batch_rows=rows)
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

    @pytest.mark.parametrize("config", ["e8-hier", "dm-probes-hier"])
    def test_expired_deadline_flags_every_escalated_row(self, index_cache,
                                                        queries, config):
        index = index_cache(config)
        base = index.query_batch(queries, K, hierarchy_threshold=12)[2]
        cut = index.query_batch(queries, K, hierarchy_threshold=12,
                                deadline_ms=1e-6)[2]
        assert base.escalated.any()
        assert np.array_equal(cut.exhausted_budget, base.escalated)
        assert not cut.escalated.any()

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
    return lookups, deleted, [sorted(w - dead) for w in want], misses


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
        got = any_table.bucket_union(lookups, nq, id_span, deleted=deleted)
        ref = bucket_union_ref(lookups, nq, id_span, deleted=deleted)
        for g, r in zip(got, ref):
            assert g.dtype == np.int64
            assert np.array_equal(g, r)
        cand, qidx, counts, misses = got
        assert misses.tolist() == want_misses
        assert counts.tolist() == [len(w) for w in want]
        assert cand.tolist() == [i for w in want for i in w]
        assert np.array_equal(qidx, np.repeat(np.arange(nq), counts))

    @pytest.mark.parametrize("n_rows", [50, 10**7])   # bitmap, sort
    def test_id_outside_the_row_count_is_refused(self, any_table, n_rows):
        codes = np.zeros((4, 2), dtype=np.int64)
        for bad_id in (-1, n_rows):
            layout = SortedLayout.sort(codes, np.array([3, 7, bad_id, 9]))
            lookups = [((layout,), codes[:1], np.zeros(1, dtype=np.int64))]
            with pytest.raises(IndexError, match="outside"):
                any_table.bucket_union(lookups, 1, n_rows)
        # One more row and the same layout is an ordinary union.
        cand = any_table.bucket_union(lookups, 1, n_rows + 1)[0]
        assert cand.tolist() == [3, 7, 9, n_rows]

    def test_lookup_row_of_an_unknown_query_is_refused(self, any_table):
        codes = np.zeros((1, 2), dtype=np.int64)
        layout = SortedLayout.sort(codes, np.array([0]))
        for q in (-1, 2):
            with pytest.raises(IndexError, match="query"):
                any_table.bucket_union(
                    [((layout,), codes, np.array([q]))], 2, 1)

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
        assert len(served) == 7 and "bucket_union" in served


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

    @settings(max_examples=100, deadline=None)
    @given(row=st.lists(
        st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=6, max_size=6))
    def test_dm_decode_matches_reference(self, kernels, row):
        x = np.array([row], dtype=np.float64)
        expected = decode_dm(x).astype(np.int64)
        assert np.array_equal(kernels.dm_decode(x), expected)

    def test_dm_decode_half_integer_ties(self, kernels):
        grid = np.array(np.meshgrid([-0.5, 0.0, 0.5], [-0.5, 0.5],
                                    [-1.5, 1.5])).T.reshape(-1, 3)
        expected = decode_dm(grid).astype(np.int64)
        assert np.array_equal(kernels.dm_decode(grid), expected)


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
