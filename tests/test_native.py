"""Kernel-table tests (DESIGN.md §12): parity matrix, kernels, fallback.

Four contracts:

1. **Bit-parity matrix** — the one staged plan returns *identical*
   indices and distances on the compiled kernel table and on the numpy
   one, and the scalar oracle's neighbours, across lattices × multiprobe
   × hierarchy × tombstones × live overlay × memmap ×
   shard size × P (the kernel threads) × spill.  The numpy side
   is pinned through the ``REPRO_NATIVE_BACKEND`` + ``registry.reset()``
   seam; the other side is whatever the environment resolves (the CI
   ``native`` job requires that to be ``cext``, and reruns everything
   under ``none``).
2. **Kernel properties** — ``bucket_spans`` and ``rank_topk`` (which
   builds the short-list from the spans and ranks it) equal their
   ``repro.native.ref`` twins on drawn inputs that reach both tile paths,
   both short-list paths and every ``tree_dot`` shape, at any P, on the
   build the toolchain resolves *and* on the portable build a failed SIMD
   compile falls back to (the short-list also on the numpy table, against
   a set-based oracle); an FMA canary proves contraction is off; the
   ``.so`` cache key covers the flags.
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
from repro.lattice.e8 import decode_e8
from repro.lsh.index import StandardLSH
from repro.lsh.query import run_plan
from repro.lsh.table import SortedLayout, TableLayouts
from repro.native import kernels_cext, registry
from repro.lattice.e8 import E8Lattice
from repro.native.ref import (NO_CELLS, Spans, bucket_index_ref,
                              bucket_spans_ref, cell_bits, rank_topk_ref, row_hash_ref,
                              spans_union_ref, tree_rowdot,
                              zm_probe_codes_ref)
from repro.obs.kernels import TIMED_KERNEL_NAMES
from repro.obs.registry import MetricsRegistry
from repro.runtime import IndexRuntime, RuntimeConfig
from tests.oracle import morton_order, oracle_query
from tests.shards import shard_rows
from tests.threads import THREADS, inline_limits, native_threads

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
    # The walk runs over the base while the gather searches both layouts.
    "zm-hier-overlay": dict(lattice="zm", hierarchy=True, overlay=True),
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
        with shard_rows(index, rows):
            resolved = index.query_batch(queries, K, **kwargs)
        if engine == "native":
            with numpy_table():
                assert_same_results(
                    index.query_batch(queries, K, **kwargs), resolved)
        else:
            assert_same_results(oracle_query(index, queries, K, **kwargs),
                                resolved, exact=False)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_bilevel_native_parity(self, dataset, queries, threads, rows):
        for spill in (1, 2):
            cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=6.0,
                                multi_assign=spill, seed=5)
            index = BiLevelLSH(cfg).fit(dataset)
            with native_threads(threads), shard_rows(index, rows), \
                    IndexRuntime(index) as rt:
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

    def test_an_e8_fit_builds_alike_on_both_tables(self, kernels, dataset):
        # A fit decodes its E8 codes and climbs its hierarchies through
        # the loaded table: on the numpy one every table layout, every
        # hierarchy array and each fitted threshold come out the same.
        from tests.test_e8_hierarchy import assert_same_hierarchy

        cfg = BiLevelConfig(n_groups=4, n_tables=4, bucket_width=3.0,
                            lattice="e8", hierarchy=True, seed=5)
        compiled = BiLevelLSH(cfg).fit(dataset)
        with numpy_table():
            spec = BiLevelLSH(cfg).fit(dataset)
        for got, want in zip(compiled.group_indexes, spec.group_indexes):
            assert got.escalation_threshold == want.escalation_threshold
            for table, other in zip(got._tables, want._tables):
                for layout, expected in zip(table.layouts(), other.layouts()):
                    for a, b in zip(layout[:4], expected[:4]):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    # Cells are the compiled search's alone.
                    assert expected.cells is NO_CELLS
            assert len(got._hierarchies) == cfg.n_tables
            for hier, expected in zip(got._hierarchies, want._hierarchies):
                assert_same_hierarchy(hier, expected)

    def test_an_e8_insert_hashes_on_the_loaded_table(self, kernels, dataset,
                                                     monkeypatch):
        # An insert decodes its E8 codes through the loaded table, as a
        # fit and a query do: the compiled decoder runs, and the overlay
        # holds the codes the numpy table gives.
        index = StandardLSH(n_tables=3, bucket_width=3.0, lattice="e8",
                            seed=5).fit(dataset[:500])
        loaded, rows = registry.load_kernels(), []
        decode = loaded.e8_decode
        monkeypatch.setattr(loaded, "e8_decode", lambda y: rows.append(
            y.shape[0]) or decode(y), raising=False)
        index.insert(dataset[500:520])
        assert rows == [3 * 20]
        _, want = index._hash(dataset[500:520], registry.NUMPY_KERNELS)
        for table, codes in zip(index._tables, want):
            overlay = table.layouts()[1]
            distinct = np.unique(codes, axis=0)
            np.testing.assert_array_equal(
                overlay.bucket_codes, distinct[morton_order(distinct)])

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


def _no_spans(n_segments):
    """A ``Spans`` of ``n_segments`` segments and no span yet."""
    return Spans((), np.empty(0, dtype=np.int64),
                 np.empty((0, 4), dtype=np.int64), n_segments,
                 np.empty(0, dtype=np.int64))


def _runs(cand, counts, copies=1):
    """Spans handing query ``q`` the ``counts[q]`` ids of ``cand`` after
    the earlier queries', ``copies`` times (as tables that agree would)."""
    nq = counts.size
    starts = np.tile(np.cumsum(counts) - counts, (copies, 1))
    return _no_spans(nq).with_extra([([cand] * copies, starts,
                                      np.tile(counts, (copies, 1)),
                                      np.arange(nq, dtype=np.int64))])


def _rank(table, data, sq_norms, queries, spans, k, deleted=None):
    """``table.rank_topk`` over the whole of ``data``."""
    return table.rank_topk(data, sq_norms, queries, spans, data.shape[0],
                           deleted, k)


def _assert_ranked_alike(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(_bits(got[1]), _bits(want[1]))
    assert np.array_equal(got[2], want[2])


def _inverted_tiles(raw_ids, threads=1):
    """Per tile of a ``rank_topk`` call at P = ``threads`` whose queries
    hold ``raw_ids`` (one array per query, duplicates included), whether
    the compiled kernel inverts it: the tiling and reuse rule of
    ``repro_rank_topk``, restated over the constants read from
    ``_kernels.c``."""
    limits = inline_limits()
    with open(kernels_cext._SOURCE_PATH, encoding="utf-8") as fh:
        reuse = int(re.search(r"#define RANK_REUSE (\d+)", fh.read())[1])
    total = sum(ids.size for ids in raw_ids)
    if len(raw_ids) <= limits["INLINE_QUERIES"] \
            or total < limits["RANK_INLINE_IDS"]:
        threads = 1
    fit = min(limits["RANK_TILE"], total // threads)
    flags, q0 = [], 0
    while q0 < len(raw_ids):
        q1, size = q0 + 1, raw_ids[q0].size
        while (q1 < len(raw_ids) and q1 - q0 < limits["RANK_TILE_QUERIES"]
               and size + raw_ids[q1].size <= fit):
            size += raw_ids[q1].size
            q1 += 1
        ids = np.concatenate(raw_ids[q0:q1])
        flags.append(bool(q1 - q0 > 1 and size
                          and ids.max() - ids.min() < size // reuse))
        q0 = q1
    return flags


def _dedup_oracle(ids, qidx, nq, deleted):
    """What ``dedup_candidates`` must return, from a dict of sets."""
    dead = set() if deleted is None else set(np.flatnonzero(deleted).tolist())
    per = [set() for _ in range(nq)]
    for i, q in zip(ids.tolist(), qidx.tolist()):
        if i not in dead:
            per[q].add(i)
    out = [(i, q) for q in range(nq) for i in sorted(per[q])]
    return ([i for i, _ in out], [q for _, q in out],
            [len(p) for p in per])


class TestKernelParity:
    # No query path calls ``dedup_candidates``: every table serves the
    # numpy spec under that name (benchmarks/e2e wraps it), held here to
    # a set oracle.  id_span reaches far-apart and dense segments; del_len
    # puts tombstones below, at and beyond the drawn ids.
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
        want = _dedup_oracle(ids, qidx, nq, deleted)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert g.tolist() == w

    def test_dedup_far_apart_dense_segments(self, build):
        # Two dense segments 2**40 apart, and one of ids below zero.
        near = np.arange(300)[::-1] % 200
        ids = np.concatenate([near, near + 2**40, [-3, -3, -1]])
        qidx = np.repeat([0, 2, 1], [300, 300, 3])
        got = build.dedup_candidates(ids, qidx, 4)
        want = _dedup_oracle(ids, qidx, 4, None)
        assert all(g.tolist() == w for g, w in zip(got, want))

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
            [rng.choice(40, size=c, replace=False) for c in counts]
            + [np.empty(0, dtype=np.int64)]).astype(np.int64)
        sq_norms = tree_rowdot(data, data) if with_norms else None
        spans = _runs(cand, counts, copies=int(rng.integers(1, 3)))
        got = _rank(build, data, sq_norms, queries, spans, k)
        _assert_ranked_alike(got, _rank(registry.NUMPY_KERNELS, data,
                                        sq_norms, queries, spans, k))
        assert got[2].tolist() == counts.tolist()

    @pytest.mark.parametrize("dim", [2, 8, 64, 100])
    def test_fma_canary(self, build, dim):
        """``a*b + c`` must round twice, as the reference does.

        Every first-level pair ``(i, i + w)`` is ``(1+e)(1-e)s + 1*(-s)``
        with ``e = 2**-30``, ``s = 2**-20`` (unpaired columns are 0): the
        product ``(1 - 2**-60)s`` rounds to ``s``, so the unfused sum is
        exactly 0; an FMA keeps the ``-2**-80``.  The row's norm is passed
        as minus the query's own (which the kernel forms), so the squared
        distance is ``-2 * dot`` to well below its last bit: a distance of
        0.0 unfused, above ``2**-40`` contracted.
        """
        w = (1 << (dim - 1).bit_length()) // 2
        e, scale = 2.0 ** -30, 2.0 ** -20
        row, query = np.zeros((1, dim)), np.zeros((1, dim))
        row[0, : dim - w], query[0, : dim - w] = 1.0 + e, (1.0 - e) * scale
        row[0, w:], query[0, w:] = 1.0, -scale
        fused = Fraction(1.0 + e) * Fraction(1.0 - e) - 1
        assert fused == -Fraction(1, 2**60) and (1.0 + e) * (1.0 - e) == 1.0
        norms = -tree_rowdot(query, query)
        spans = _runs(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
        got = _rank(build, row, norms, query, spans, 1)
        want = rank_topk_ref(row, norms, query, spans, 1, None, 1)
        assert got[0].tolist() == [[0]] and got[1][0, 0] == 0.0
        _assert_ranked_alike(got, want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dim=st.sampled_from([3, 16, 32, 64, 100]),
           with_norms=st.booleans(), k=st.sampled_from([1, 6, 40]),
           n_groups=st.integers(3, 5))
    def test_rank_inverted_tiles_match_reference(self, build, seed, dim,
                                                 with_norms, k, n_groups):
        # batch_plain in small: queries in group order, each holding two
        # overlapping subsets of its group's run of 24 rows (empty ones
        # too), in no order, so their tiles name every row many times and
        # are inverted; then 64 queries holding a few ids each from
        # anywhere in the matrix, a wide low-reuse tile scored query by
        # query.  k = 40 exceeds every count.
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
                parts.append([g * run + rng.choice(
                    run, size=rng.integers(0, run + 1), replace=False)
                    for _ in range(2)])
        for _ in range(64):
            parts.append([rng.choice(data.shape[0], size=rng.integers(0, 4),
                                     replace=False), np.empty(0, int)])
            queries.append(rng.standard_normal(dim))
        queries = np.array(queries)
        inverted = _inverted_tiles([np.concatenate(p) for p in parts],
                                   build.threads)
        assert sum(inverted) >= 2 and not all(inverted)
        sq_norms = tree_rowdot(data, data) if with_norms else None
        spans = _no_spans(len(parts)).with_extra([(
            [np.concatenate(a).astype(np.int64) for a in zip(*parts)],
            np.array([np.cumsum([p[j].size for p in parts])
                      - [p[j].size for p in parts] for j in range(2)]),
            np.array([[p[j].size for p in parts] for j in range(2)]),
            np.arange(len(parts), dtype=np.int64))])
        got = _rank(build, data, sq_norms, queries, spans, k)
        _assert_ranked_alike(got, _rank(registry.NUMPY_KERNELS, data,
                                        sq_norms, queries, spans, k))

    @pytest.mark.parametrize("copies", [1, 3])   # query-major, inverted
    def test_precheck_turns_away_only_what_the_exact_test_would(self, build,
                                                                copies):
        # Zero rows and zero queries: a candidate's squared distance is the
        # norm it is given.  With k = 2 the top-k fills at distance 1.0;
        # 1 + 2**-52 lies past 1.0 squared yet its sqrt is 1.0 exactly, so
        # row 4 ties row 7 with a smaller id and must enter, row 9 ties
        # with a larger id and must not, and 1 + 2**-51 is a distance past
        # 1.0.  One query meets them out of id order, three meet each twice
        # (two tables) — a tile the kernel inverts.
        just_past = 1.0 + 2.0**-52
        assert np.sqrt(just_past) == 1.0 < np.sqrt(1.0 + 2.0**-51)
        norms = np.zeros(10)
        norms[[6, 7, 4, 9, 5]] = [0.25, 1.0, just_past, just_past,
                                  1.0 + 2.0**-51]
        order = np.array([6, 7, 4, 9, 5])
        cand = np.tile(order, copies)
        counts = np.full(copies, order.size)
        tables = 1 if copies == 1 else 2
        assert _inverted_tiles([np.tile(order, tables)] * copies,
                               build.threads) == [copies > 1]
        args = (np.zeros((10, 4)), norms, np.zeros((copies, 4)),
                _runs(cand, counts, tables), 2)
        sel, dists, _ = _rank(build, *args)
        assert sel.tolist() == [[6, 4]] * copies
        assert dists.tolist() == [[0.5, 1.0]] * copies
        _assert_ranked_alike((sel, dists, _),
                             _rank(registry.NUMPY_KERNELS, *args))

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
        cand = np.tile(order, copies)
        counts = np.full(copies, order.size)
        tables = 1 if copies == 1 else 2
        assert _inverted_tiles([np.tile(order, tables)] * copies,
                               build.threads) == [copies > 1]
        args = (np.zeros((8, 2)), norms, np.zeros((copies, 2)),
                _runs(cand, counts, tables), k)
        _assert_ranked_alike(_rank(build, *args),
                             _rank(registry.NUMPY_KERNELS, *args))

    def test_rows_past_the_data_are_refused(self, build):
        # n_rows bounds every id rank reads a row or a cached norm at, so
        # it may not exceed either array.
        spans = _runs(np.array([3]), np.ones(1, dtype=np.int64))
        for data, norms in ((np.zeros((3, 2)), None),
                            (np.zeros((4, 2)), np.zeros(3))):
            with pytest.raises(ValueError, match="rows asked"):
                build.rank_topk(data, norms, np.zeros((1, 2)), spans, 4,
                                None, 1)
        assert build.rank_topk(np.zeros((4, 2)), np.zeros(4),
                               np.zeros((1, 2)), spans, 4, None,
                               1)[0].tolist() == [[3]]

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
    """``bucket_spans``'s leading arguments ``(layouts, codes, row_q,
    table_rows)`` from one ``(layouts, codes, row_q)`` per table."""
    return (TableLayouts.of([layouts for layouts, _, _ in lookups], m),
            np.concatenate([codes for _, codes, _ in lookups]
                           + [np.empty((0, m), dtype=np.int64)]),
            np.concatenate([row_q for _, _, row_q in lookups]
                           + [np.empty(0, dtype=np.int64)]),
            np.array([row_q.size for _, _, row_q in lookups],
                     dtype=np.int64))


def _union(table, layouts, codes, row_q, table_rows, nq, n_rows,
           deleted=None, extra=()):
    """The short-list ``table`` builds from its own spans, as ``(ids,
    counts, misses)``: counts from ``rank_topk``'s counting mode, ids from
    ranking against zero rows, where every distance ties and the top-k is
    the short-list in ascending id."""
    spans = table.bucket_spans(layouts, codes, row_q, table_rows,
                               nq).with_extra(extra)
    _, _, counts = table.rank_topk(None, None, None, spans, n_rows, deleted,
                                   0)
    # Zero pages, never written: rows are read only at candidate ids.
    zeros = np.zeros((n_rows, 1))
    sel, dists, again = table.rank_topk(
        zeros, zeros[:, 0], np.zeros((nq, 1)), spans, n_rows, deleted,
        int(counts.max(initial=0)))
    assert np.array_equal(again, counts) and not dists[sel >= 0].any()
    ids = np.concatenate([row[:c] for row, c in zip(sel, counts)]
                         + [np.empty(0, dtype=np.int64)])
    return ids, counts, spans.misses


def _union_ref(layouts, codes, row_q, table_rows, nq, n_rows, deleted=None,
               extra=()):
    """The numpy spec of :func:`_union`."""
    spans = bucket_spans_ref(layouts, codes, row_q, table_rows,
                             nq).with_extra(extra)
    return spans_union_ref(spans, nq, n_rows, deleted) + (spans.misses,)


def _draw_union_case(rng, n_tables, nq, id_span, code_span, m, del_len):
    """Random lookups plus what a dict of sets says their short-list is.

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
    # The short-list a table builds from its own spans (``bucket_spans``,
    # then ``rank_topk``).  n_rows = id_span decides the path per query
    # (rule: more than 64 bitmap words of its id range per raw id ->
    # collect and sort): spans up to 700 are at most 11 words, always the
    # bitmap; 10**5 (1 563 words) and 10**7 go either way with the range a
    # query's few ids happen to cover.  del_len puts tombstones below, at
    # and beyond the drawn ids.
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
        spans = any_table.bucket_spans(*lookups, nq)
        assert np.array_equal(spans.words,
                              bucket_spans_ref(*lookups, nq).words)
        got = _union(any_table, *lookups, nq, id_span, deleted=deleted)
        ref = _union_ref(*lookups, nq, id_span, deleted=deleted)
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
        got = _union(any_table, *lookups, nq, id_span, deleted=deleted,
                     extra=extra)
        ref = _union_ref(*lookups, nq, id_span, deleted=deleted, extra=extra)
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
                _union(any_table, *lookups, 2, 10, extra=[(
                    [ids], np.array([[at]]), np.array([[size]]),
                    np.array([slot]))])
        with pytest.raises(ValueError, match="broadcast"):
            _union(any_table, *lookups, 2, 10, extra=[(
                [ids], np.zeros((2, 1)), np.ones((1, 1)), np.zeros(1))])
        cand, counts, _ = _union(any_table, *lookups, 2, 10, extra=[(
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
                _union(any_table, *lookups, 1, n_rows)
        # One more row and the same layout is an ordinary union.
        cand = _union(any_table, *lookups, 1, n_rows + 1)[0]
        assert cand.tolist() == [3, 7, 9, n_rows]

    def test_lookup_row_of_an_unknown_query_is_refused(self, any_table):
        codes = np.zeros((1, 2), dtype=np.int64)
        layout = SortedLayout.sort(codes, np.array([0]))
        for q in (-1, 2):
            with pytest.raises(IndexError, match="segment"):
                any_table.bucket_spans(
                    *_stacked(2, ((layout,), codes, np.array([q]))), 2)

    def test_rows_the_tables_do_not_account_for_are_refused(self, any_table):
        # The compiled search reads exactly table_rows[t] rows per table.
        codes = np.zeros((3, 2), dtype=np.int64)
        layout = SortedLayout.sort(codes, np.arange(3))
        query0 = np.zeros(3, dtype=np.int64)
        layouts, _, row_q, _ = _stacked(2, ((layout,), codes, query0),
                                        ((layout,), codes[:0], query0[:0]))
        for table_rows in ([3, 1], [4, -1], [3], [2, 0]):
            with pytest.raises(ValueError, match="table_rows"):
                any_table.bucket_spans(layouts, codes, row_q,
                                       np.array(table_rows), 1)
        with pytest.raises(ValueError, match="table_rows"):
            any_table.bucket_spans(layouts, codes[:, :1], row_q,
                                   np.array([3, 0]), 1)
        # A dropped table is a zero row count: no rows, no misses.
        _, counts, misses = _union(any_table, layouts, codes, row_q,
                                   np.array([3, 0]), 1, 3)
        assert counts.tolist() == [3] and misses.tolist() == [0, 0]

    def test_pointer_table_refuses_a_layout_of_another_width(self):
        layout = SortedLayout.sort(np.zeros((2, 3), dtype=np.int64),
                                   np.arange(2))
        with pytest.raises(ValueError, match="3-wide"):
            TableLayouts.of([(layout,)], 2)
        stacked = TableLayouts.of([(layout,), (layout, layout)], 3)
        assert stacked.n_layouts.tolist() == [1, 2]
        assert stacked.pointers.shape == (3, 7)

    def test_layout_refuses_arrays_the_kernel_cannot_address(self):
        codes = np.zeros((3, 2), dtype=np.int64)
        good = SortedLayout.sort(codes, np.arange(3))
        with pytest.raises(ValueError, match="C-contiguous int64"):
            SortedLayout.adopt_all([(good.bucket_codes, good.starts.astype(
                np.int32), good.ends, good.sorted_ids)])
        with pytest.raises(ValueError, match="C-contiguous int64"):
            SortedLayout.adopt_all([(good.bucket_codes, good.starts,
                                     good.ends, np.arange(6)[::2])])
        with pytest.raises(ValueError, match="inconsistent"):
            SortedLayout.adopt_all([(good.bucket_codes, good.starts,
                                     np.zeros(2, dtype=np.int64),
                                     good.sorted_ids)])


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
        assert len(served) == 8 and "bucket_index" in served


# ------------------------------------------------------------ bucket index


def _homed_at(cell, n, m, seed=5):
    """``n`` distinct ``m``-wide code rows every one of which an index of
    ``n`` rows homes at ``cell``: one run of filled cells from there."""
    rng, shift, found = np.random.default_rng(seed), np.uint64(
        64 - cell_bits(n)), {}
    while len(found) < n:
        draw = rng.integers(-60, 60, size=(1 << 14, m))
        for row in draw[(row_hash_ref(draw) >> shift) == cell].tolist():
            found[tuple(row)] = None
    return np.array(list(found)[:n], dtype=np.int64)


def _adversarial_codes():
    """Sorted-array contents the index must survive, by name: every row
    in the first cell, every row in the last (its run spills past the
    2^b cells), nothing, negative codes, codes at and around +-2^62, and
    E8 codes doubled as a hierarchy's levels double them."""
    rng = np.random.default_rng(11)
    top = 2 ** 62
    edge = np.array([[top - 1, 0], [top, 0], [-top, 0], [-top - 1, 0],
                     [0, top], [0, -top], [top, top], [-top, -top],
                     [top, -top], [2 ** 63 - 1, -2 ** 63]], dtype=np.int64)
    e8 = E8Lattice(8).quantize(rng.normal(0.0, 3.0, size=(300, 8)))
    return {
        "first-cell": _homed_at(0, 40, 3),
        "last-cell": _homed_at((1 << cell_bits(40)) - 1, 40, 3),
        "empty": np.empty((0, 3), dtype=np.int64),
        "negative": rng.integers(-2 ** 40, 0, size=(200, 3)),
        "near-2^62": np.concatenate([edge, edge + np.array([[0, 7]])]),
        "e8-doubled": np.concatenate([e8, 2 * e8, 8 * e8]),
    }


ADVERSARIAL = sorted(_adversarial_codes())


class TestBucketIndex:
    """The hashed bucket index: the compiled build writes the spec's
    cells, and the search through them finds the bucket the spec's
    sorted search finds, for every lookup row."""

    def test_cells_match_the_spec(self, any_table):
        arrays = [SortedLayout.sort(c, np.arange(c.shape[0])).bucket_codes
                  for c in _adversarial_codes().values()]
        got, want = any_table.bucket_index(arrays), bucket_index_ref(arrays)
        assert len(got) == len(want) == len(arrays)
        if any_table is registry.NUMPY_KERNELS:  # its search reads none
            assert all(g is NO_CELLS for g in got)
            return
        for codes, g, w in zip(arrays, got, want):
            assert g.dtype == np.int32 and np.array_equal(g, w)
            # Every row once, in 2^b >= 2 n cells.
            n = codes.shape[0]
            assert sorted(g[g >= 0].tolist()) == list(range(n))
            assert g.size == 1 << cell_bits(n) and g.size >= 2 * n
        assert any_table.bucket_index([]) == []

    def test_one_cell_fills_a_run(self):
        codes = SortedLayout.sort(_homed_at((1 << cell_bits(40)) - 1, 40, 3),
                                  np.arange(40)).bucket_codes
        (cells,) = bucket_index_ref([codes])
        # 40 rows homed at the last of 128 cells: 39 of them go round to
        # the first cells.
        assert cells.size == 128 and cells[127] >= 0
        assert (cells[:39] >= 0).all() and (cells[39:127] < 0).all()

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_search_finds_the_spec_bucket(self, any_table, name):
        rng = np.random.default_rng(12)
        codes = _adversarial_codes()[name]
        n = codes.shape[0]
        # A base and a live overlay over the same codes and some more:
        # duplicate codes share a bucket, every bucket holds ids.
        base = SortedLayout.sort(np.concatenate([codes, codes[::3]]),
                                 np.arange(n + -(-n // 3)))
        extra = codes[::2] + np.array([1] + [0] * (codes.shape[1] - 1))
        overlay = SortedLayout.sort(np.concatenate([codes[1::2], extra]),
                                    np.arange(n // 2 + extra.shape[0]))
        # Every bucket code of either layout, a row off each (a miss or
        # another bucket), rows homed like the one-cell ones but absent.
        rows = np.concatenate([base.bucket_codes, overlay.bucket_codes,
                               codes ^ 1, _homed_at(0, 40, codes.shape[1],
                                                    seed=99)])
        rows = rows[rng.permutation(rows.shape[0])]
        row_q = rng.integers(0, 3, size=rows.shape[0])
        for per_table in ([(base, overlay)], [(base,), (overlay,)]):
            lookups = _stacked(codes.shape[1], *[
                (layouts, rows, row_q) for layouts in per_table])
            spans = any_table.bucket_spans(*lookups, 3)
            want = bucket_spans_ref(*lookups, 3)
            assert np.array_equal(spans.words, want.words)
            assert np.array_equal(spans.misses, want.misses)

    def test_walk_through_indexed_levels_matches_the_spec(self, kernels):
        from repro.hierarchy.e8_hierarchy import E8Hierarchy
        from repro.lsh.table import LSHTable
        from repro.native.ref import hierarchy_walk_ref

        rng = np.random.default_rng(13)
        lat = E8Lattice(8)
        codes = lat.quantize(rng.normal(0.0, 4.0, size=(500, 8)))
        hiers = [E8Hierarchy(LSHTable(codes[t::2]), lat) for t in range(2)]
        rows = np.stack([np.concatenate([codes, lat.quantize(
            rng.normal(0.0, 30.0, size=(100, 8)))]) for _ in range(2)])
        for min_count in (1, 5, 50, 10 ** 6):
            got = kernels.hierarchy_walk(hiers, rows, min_count)
            want = hierarchy_walk_ref(hiers, rows, min_count)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_compiled_search_refuses_numpy_built_cells(self, kernels):
        # The numpy table builds no cells; searching its layouts or
        # levels on the compiled table is refused, never read.
        from repro.hierarchy.e8_hierarchy import E8Hierarchy
        from repro.lsh.table import LSHTable

        lat = E8Lattice(8)
        codes = lat.quantize(np.random.default_rng(14).normal(
            0.0, 4.0, size=(50, 8)))
        with numpy_table():
            hier = E8Hierarchy(LSHTable(codes), lat)
        layouts = TableLayouts.of([hier.table.layouts()], 8)
        assert not layouts.indexed and hier.level_cells[0] is NO_CELLS
        with pytest.raises(ValueError, match="without cells"):
            kernels.bucket_spans(layouts, codes, np.zeros(50, np.int64),
                                 np.array([50]), 1)
        with pytest.raises(ValueError, match="without cells"):
            kernels.hierarchy_walk([hier], codes[None], 1)


class TestThreadedProbes:
    """``zm_probe_codes`` on the work queue: at P = 1, P = 3 and on the
    numpy table it emits the same codes and counts, with calls below and
    above its inline floor and rows that run out of sets (m = 1, 2)."""

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("q", [3, 700, 2100])
    def test_every_p_and_the_spec_agree(self, build, m, q):
        rng = np.random.default_rng(m * 1000 + q)
        y = rng.uniform(-6, 6, (q, m))
        y[::5] = np.round(y[::5] * 2) / 2     # ties on half-integers
        codes = np.floor(y).astype(np.int64)
        want = zm_probe_codes_ref(y, codes, 32)
        for p in (1, 3):
            with _threads_on(build, p):
                got = build.zm_probe_codes(y, codes, 32)
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[0], want[0])
        if m < 3:   # 2 sets for m = 1, 8 for m = 2: fewer than asked
            assert (want[1] < 32).all()
        assert got[0].shape == (int(want[1].sum()), m)

    def test_an_empty_block_emits_nothing(self, build):
        probes, counts = build.zm_probe_codes(
            np.zeros((0, 4)), np.zeros((0, 4), dtype=np.int64), 8)
        assert probes.shape == (0, 4) and counts.shape == (0,)


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
        assert set(status) == {"backend", "threads", "setup_seconds",
                               "errors"}
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

    def test_builds_leave_the_warning_to_the_first_query(
            self, monkeypatch, dataset, queries):
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", "none")
        registry.reset()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for config in ({}, {"lattice": "e8", "hierarchy": True}):
                    index = StandardLSH(n_tables=3, bucket_width=6.0,
                                        seed=5, **config).fit(dataset)
                    index = StandardLSH.from_state(*index.state())
                    index.insert(queries[:4])
                built = len(caught)
                index.query_batch(queries, K)
                index.query_batch(queries, K)
            assert built == 0, [str(w.message) for w in caught]
            assert ["native kernels unavailable" in str(w.message)
                    for w in caught] == [True]
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


# ------------------------------------------------------------ P, the threads


class TestNativeThreads:
    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", "+3", "00"])
    def test_invalid_count_is_reported_and_resolves_to_one(self, monkeypatch,
                                                           value):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", value)
        registry.reset()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                loaded = registry.load_kernels()
            status = registry.native_status()
            assert status["threads"] == 1
            assert "REPRO_NATIVE_THREADS" in status["errors"]["threads"]
            assert getattr(loaded, "threads", 1) == 1
        finally:
            registry.reset()

    def test_count_defaults_to_the_cpus_this_process_may_use(self,
                                                            monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        registry.reset()
        try:
            status = registry.native_status()
            assert status["threads"] == len(os.sched_getaffinity(0))
            assert "threads" not in status["errors"]
        finally:
            registry.reset()

    def test_pinned_count_reaches_the_compiled_table(self, kernels):
        with native_threads(3) as table:
            assert registry.native_status()["threads"] == 3
            assert table.threads == 3
            assert "threads" not in registry.native_status()["errors"]


#: Every row of the dense corpus shares a bucket of every table, so every
#: call the matrix makes is past both inline thresholds.
DENSE_ROWS, DENSE_QUERIES, DENSE_WIDTH = 4000, 300, 1000.0


@pytest.fixture(scope="module")
def dense():
    rng = np.random.default_rng(33)
    data = rng.standard_normal((DENSE_ROWS, DIM))
    queries = rng.standard_normal((DENSE_QUERIES, DIM))
    queries[0] = data[17]
    return data, queries


def _dense_index(data, config):
    config = dict(config)
    front = config.pop("front")
    tombstones = config.pop("tombstones", False)
    if front == "bilevel":
        index = BiLevelLSH(BiLevelConfig(n_groups=2, n_tables=4,
                                         bucket_width=DENSE_WIDTH, seed=5,
                                         **config)).fit(data)
    else:
        index = StandardLSH(n_tables=4, bucket_width=DENSE_WIDTH, seed=5,
                            **config).fit(data)
    if tombstones:
        assert index.delete(np.arange(3, data.shape[0], 5)) > 0
    return index


#: The parity matrix's shapes, dense: Z^M and E8 with and without the
#: hierarchy (an integer threshold every row falls below, so every row
#: escalates and the escalate union runs), multi-probe, tombstones, both
#: spills of the bi-level front-end.
DENSE_CONFIGS = {
    "zm": dict(front="standard"),
    "zm-hier": dict(front="standard", hierarchy=True),
    "e8": dict(front="standard", lattice="e8"),
    "e8-hier-tombstones": dict(front="standard", lattice="e8",
                               hierarchy=True, tombstones=True),
    "zm-probes4-tombstones": dict(front="standard", n_probes=4,
                                  tombstones=True),
    "bilevel-spill1": dict(front="bilevel"),
    "bilevel-spill2-tombstones": dict(front="bilevel", multi_assign=2,
                                      tombstones=True),
    "bilevel-e8-hier-spill2": dict(front="bilevel", lattice="e8",
                                   hierarchy=True, multi_assign=2),
}


def _answer_bytes(answer):
    """Everything a batch answers, as bytes: ids, distance bits and every
    QueryStats mask."""
    ids, dists, stats = answer

    def mask(values):
        return None if values is None else np.asarray(values).tobytes()

    return (ids.tobytes(), _bits(dists).tobytes(),
            stats.n_candidates.tobytes(), stats.escalated.tobytes(),
            mask(stats.exhausted_budget))


class _Work:
    """Shadows a table's ``rank_topk`` to record how much work each call
    handed it: raw ids (duplicates and tombstones included) and queries."""

    def __init__(self, table):
        self.table, self.rank = table, []

    def __enter__(self):
        rank = self.table.rank_topk

        def ranked(*args, **kwargs):
            spans = args[3]
            self.rank.append((int(spans.words[:, 2].sum()),
                              spans.n_segments if args[2] is None
                              else len(args[2])))
            return rank(*args, **kwargs)

        self.table.rank_topk = ranked
        return self

    def __exit__(self, *exc):
        del self.table.rank_topk


class TestThreadsMatrix:
    """Answers are byte-identical at every P on the dense parity matrix,
    whose calls all run on the work queue."""

    @pytest.mark.parametrize("rows", [None, DENSE_QUERIES // 2])
    @pytest.mark.parametrize("config", sorted(DENSE_CONFIGS))
    def test_every_p_answers_alike(self, kernels, dense, config, rows):
        data, queries = dense
        index = _dense_index(data, DENSE_CONFIGS[config])
        options = dict(deadline_ms=60_000.0)
        if index.use_hierarchy:
            options["hierarchy_threshold"] = DENSE_ROWS + 1
        limits = inline_limits()
        answers = {}
        for p in THREADS:
            with native_threads(p) as table, _Work(table) as work, \
                    shard_rows(index, rows):
                answers[p] = _answer_bytes(index.query_batch(queries, K,
                                                             **options))
            assert min(w for w, _ in work.rank) >= limits["RANK_INLINE_IDS"]
            assert min(n for _, n in work.rank) > limits["INLINE_QUERIES"]
        assert answers[2] == answers[1] and answers[7] == answers[1]
        stats = index.query_batch(queries, K, **options)[2]
        assert stats.escalated.all() == bool(index.use_hierarchy)


@contextlib.contextmanager
def _threads_on(table, p):
    """``table``'s threaded kernels run on ``p`` threads inside."""
    saved = table.threads
    table.threads = p
    try:
        yield table
    finally:
        table.threads = saved


def _span_case(rng, nq, total, n_rows, empty_share):
    """Lookups of no table plus ``extra`` spans, ``total`` raw ids in all:
    one id array (ids repeat), spans drawn over it, and queries that get
    no span at all now and then."""
    ids = rng.integers(0, n_rows, size=max(total, 1))
    live = np.flatnonzero(rng.random(nq) >= empty_share) if nq else \
        np.empty(0, dtype=np.int64)
    if total and not live.size:
        live = np.array([0])
    n_spans = int(min(total, 3 * max(live.size, 1))) if total else 0
    cuts = np.sort(rng.choice(np.arange(1, total), size=n_spans - 1,
                              replace=False)) if n_spans > 1 else []
    sizes = np.diff(np.concatenate([[0], cuts, [total]])).astype(np.int64) \
        if n_spans else np.empty(0, dtype=np.int64)
    starts = np.array([rng.integers(0, ids.size - s + 1) for s in sizes],
                      dtype=np.int64)
    slots = rng.choice(live, size=sizes.size) if sizes.size else sizes
    extra = [([ids], starts.reshape(1, -1), sizes.reshape(1, -1),
              np.asarray(slots, dtype=np.int64))]
    return _stacked(2), extra


class TestThreadedKernels:
    """``rank_topk`` at a drawn P equals the numpy table, at the edges of
    the work queue: no query, one query, queries with nothing to rank, and
    calls just below and just above the inline threshold."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 9),
           shape=st.sampled_from(["empty", "one", "below", "above",
                                  "sparse"]),
           dim=st.sampled_from([3, 8, 16]), k=st.sampled_from([1, 5]))
    def test_rank_matches_reference(self, build, seed, p, shape, dim, k):
        rng = np.random.default_rng(seed)
        line = inline_limits()["RANK_INLINE_IDS"]
        nq = {"empty": 70, "one": 1}.get(shape, 130)
        n_rows = 3000 if shape != "sparse" else 200_000
        total = {"empty": 0, "one": 500, "below": line - 1,
                 "above": line}.get(shape, 3 * line)
        # ``total`` raw ids over the queries, some queries with none; two
        # tables' spans per query, the second a prefix of the first's.
        weights = rng.random(nq) * (rng.random(nq) > 0.2)
        weights[0] += 1e-9
        first = np.floor(weights / weights.sum() * total).astype(np.int64)
        first[0] += total - first.sum()
        first = np.minimum(first, n_rows)
        second = rng.integers(0, first + 1)
        over = first.sum() + second.sum() - total
        while over > 0:     # trim the prefixes back to ``total`` raw ids
            q = int(rng.integers(0, nq))
            cut = min(int(second[q]), over)
            second[q] -= cut
            over -= cut
        cand = np.concatenate(
            [rng.choice(n_rows, size=c, replace=False) for c in first]
            + [np.empty(0, dtype=np.int64)]).astype(np.int64)
        starts = np.cumsum(first) - first
        spans = _no_spans(nq).with_extra([(
            [cand, cand], np.stack([starts, starts]),
            np.stack([first, second]), np.arange(nq, dtype=np.int64))])
        assert int(spans.words[:, 2].sum()) == total or shape == "sparse"
        data = rng.standard_normal((n_rows, dim))
        queries = rng.standard_normal((nq, dim))
        norms = tree_rowdot(data, data)
        deleted = rng.random(n_rows // 2) < 0.2
        want = _rank(registry.NUMPY_KERNELS, data, norms, queries, spans, k,
                     deleted)
        with _threads_on(build, p):
            got = _rank(build, data, norms, queries, spans, k, deleted)
        _assert_ranked_alike(got, want)

    @pytest.mark.parametrize("p", THREADS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spill=st.sampled_from([1, 2]),
           nq=st.sampled_from([1, 9, 70, 150]),
           n_rows=st.sampled_from([300, 4000, 10**6]),
           k=st.sampled_from([0, 1, 5, 60]), with_norms=st.booleans())
    def test_spans_match_the_spec(self, build, p, seed, spill, nq, n_rows, k,
                                  with_norms):
        # The gather's spans as rank meets them: each segment's lookups hit
        # buckets of two tables (sorted runs, shared by nearby segments, so
        # the same id comes in several spans), plus hierarchy-like spans
        # over unsorted arrays; segments with no span
        # at all, tombstones below and past the ids, k past most counts,
        # and the counting mode against the spec's union.
        rng = np.random.default_rng(seed)
        n_seg = nq * spill
        tables = [np.sort(rng.integers(0, n_rows, size=(3000,)))
                  for _ in range(2)]
        live = rng.random(n_seg) > 0.2
        extra = []
        for ids in tables:
            starts = rng.integers(0, 2900, size=n_seg) // 50 * 50
            sizes = rng.integers(0, 100, size=n_seg) * live
            extra.append(([ids], starts[None], sizes[None],
                          np.arange(n_seg, dtype=np.int64)))
        loose = rng.integers(0, n_rows, size=500)
        slots = np.flatnonzero(live)[:int(rng.integers(0, 5))]
        extra.append(([loose, loose[::-1]], rng.integers(0, 400, size=(
            2, slots.size)), rng.integers(0, 100, size=(2, slots.size)),
            slots))
        spans = _no_spans(n_seg).with_extra(extra)
        data = rng.standard_normal((n_rows, 6)) if k else None
        norms = tree_rowdot(data, data) if k and with_norms else None
        queries = rng.standard_normal((nq, 6))
        deleted = rng.random(int(rng.integers(0, 2 * n_rows))) < 0.2
        args = (data, norms, queries, spans, n_rows, deleted, k)
        want = rank_topk_ref(*args)
        with _threads_on(build, p):
            got = build.rank_topk(*args)
            counted = build.rank_topk(None, None, None, spans, n_rows,
                                      deleted, 0)[2]
        _assert_ranked_alike(got, want)
        assert np.array_equal(counted, spans_union_ref(
            spans, n_seg, n_rows, deleted)[1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 9),
           shape=st.sampled_from(["empty", "one", "below", "above",
                                  "wide"]),
           n_rows=st.sampled_from([5000, 10**7]),
           del_len=st.sampled_from([None, 4000]))
    def test_union_matches_reference(self, build, seed, p, shape, n_rows,
                                     del_len):
        rng = np.random.default_rng(seed)
        line = inline_limits()["RANK_INLINE_IDS"]
        nq = {"one": 1, "wide": 700}.get(shape, 40)
        total = {"empty": 0, "one": 3000, "below": line - 1,
                 "above": line}.get(shape, 4 * line + 12345)
        lookups, extra = _span_case(rng, nq, total, n_rows, 0.25)
        deleted = None if del_len is None else rng.random(del_len) < 0.3
        want = _union_ref(*lookups, nq, n_rows, deleted=deleted, extra=extra)
        with _threads_on(build, p):
            got = _union(build, *lookups, nq, n_rows, deleted=deleted,
                         extra=extra)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("p", [2, 7])
    @pytest.mark.parametrize("where", [0, 20, 39])   # first, middle, last
    def test_bad_id_in_any_range_is_refused(self, build, p, where):
        # The same refusal as at P = 1, in the first, a middle or the last
        # of three tiles, from data of exactly n_rows rows: the id is
        # refused before its row is read (the sanitized CI build would
        # abort on the read).
        rng = np.random.default_rng(where)
        lookups, extra = _span_case(rng, 40, 2 * inline_limits()[
            "RANK_TILE"] + 1000, 5000, 0.0)
        [(arrays, starts, sizes, slots)] = extra
        span = int(np.flatnonzero((slots == where) & (sizes[0] > 0))[0])
        arrays[0][starts[0, span] + sizes[0, span] - 1] = 5000
        spans = build.bucket_spans(*lookups, 40).with_extra(extra)
        assert len(_inverted_tiles([np.zeros(n) for n in np.bincount(
            slots, sizes[0], 40).astype(int)])) >= 3
        data = rng.standard_normal((5000, 4))
        for threads in (1, p):
            for k in (0, 3):
                with _threads_on(build, threads), \
                        pytest.raises(IndexError, match="outside"):
                    _rank(build, data, None, np.zeros((40, 4)), spans, k)

    @pytest.mark.parametrize("p", [2, 7])
    def test_existing_refusals_hold_at_p(self, kernels, p):
        suite = TestBucketUnion()
        with _threads_on(kernels, p):
            suite.test_extra_spans_outside_their_array_are_refused(kernels)
            for n_rows in (50, 10**7):
                suite.test_id_outside_the_row_count_is_refused(kernels,
                                                               n_rows)
            suite.test_lookup_row_of_an_unknown_query_is_refused(kernels)
            suite.test_rows_the_tables_do_not_account_for_are_refused(
                kernels)

    def test_interval_outside_its_ids_is_refused_at_p(self, kernels):
        # -3 comes from the spans step: any P.
        codes = np.zeros((1, 2), dtype=np.int64)
        good = SortedLayout.sort(codes, np.array([0]))
        (bad,) = SortedLayout.adopt_all([good[:4]])
        bad.ends[0] = 2
        for p in (1, 2, 7):
            with _threads_on(kernels, p), \
                    pytest.raises(IndexError, match="interval"):
                kernels.bucket_spans(*_stacked(2, ((bad,), codes,
                                                   np.array([0]))), 1)
