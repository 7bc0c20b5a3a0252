"""Engine equivalence: the batch plan vs the scalar oracle.

The staged plan (sorted-code bucket lookup, CSR candidate gathering,
fused cached-norm ranking, batched top-k merge — on whichever kernel
table loaded) must return the same neighbors as the seed per-query path
(``tests.oracle.oracle_query_batch``) across the full configuration
matrix: both lattices, multi-probe on/off, hierarchy on/off, spill
routing, and post-insert/delete states.  Distances are compared with
``allclose`` because the fused kernel ``||x||^2 - 2 x.q + ||q||^2`` and
the scalar ``||x - q||^2`` differ in the last float ulp.
"""

import numpy as np
import pytest

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from repro.lsh.table import LSHTable, morton_keys
from repro.native.registry import NUMPY_KERNELS
from repro.runtime import IndexRuntime
from tests.oracle import _gather_candidates, morton_order, oracle_query
from tests.shards import shard_rows
from tests.threads import native_threads


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((1500, 24))
    queries = rng.standard_normal((120, 24))
    return data, queries


def assert_engines_match(index, queries, k, **kwargs):
    ids_s, dists_s, stats_s = oracle_query(index, queries, k, **kwargs)
    ids_v, dists_v, stats_v = index.query_batch(queries, k, **kwargs)
    np.testing.assert_array_equal(ids_s, ids_v)
    np.testing.assert_allclose(dists_s, dists_v, equal_nan=True)
    np.testing.assert_array_equal(stats_s.n_candidates, stats_v.n_candidates)
    np.testing.assert_array_equal(stats_s.escalated, stats_v.escalated)


class TestStandardEquivalence:
    @pytest.mark.parametrize("lattice", ["zm", "e8"])
    @pytest.mark.parametrize("n_probes", [0, 4])
    @pytest.mark.parametrize("hierarchy", [False, True])
    def test_matrix(self, dataset, lattice, n_probes, hierarchy):
        data, queries = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=4, lattice=lattice,
                            n_probes=n_probes, hierarchy=hierarchy,
                            seed=11).fit(data)
        assert_engines_match(index, queries, 10)

    def test_fixed_hierarchy_threshold(self, dataset):
        data, queries = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=3, hierarchy=True,
                            seed=13).fit(data)
        assert_engines_match(index, queries, 5, hierarchy_threshold=40)

    def test_after_insert_and_delete(self, dataset):
        data, queries = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=3, seed=14).fit(
            data[:1200])
        index.insert(data[1200:1350])  # stays in the overlay (< 20%)
        assert max(t.n_extra for t in index._tables) > 0
        index.delete(np.arange(0, 60))  # tombstones must be filtered
        assert_engines_match(index, queries, 8)

    def test_after_rebuild(self, dataset):
        data, queries = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=3, hierarchy=True,
                            seed=15).fit(data[:700])
        index.insert(data[700:1200])  # > 20%: triggers a rebuild
        assert all(t.n_extra == 0 for t in index._tables)
        assert_engines_match(index, queries, 8)

    def test_candidate_sets_match(self, dataset):
        data, queries = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=4, n_probes=3,
                            seed=16).fit(data)
        batch = queries[:30]
        projections = [family.project(batch) for family in index._families]
        codes = [index._lattice.quantize(proj) for proj in projections]
        scalar = [index._ids[_gather_candidates(index, projections, codes, qi)]
                  for qi in range(batch.shape[0])]
        vectorized = index.candidate_sets(batch)
        assert len(scalar) == len(vectorized)
        for a, b in zip(scalar, vectorized):
            np.testing.assert_array_equal(a, b)

    def test_unknown_engine_rejected(self, dataset):
        data, queries = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=2, seed=17).fit(data)
        with pytest.raises(ValueError):
            index.query_batch(queries, 5, engine="gpu")

    def test_empty_batch_rejected(self, dataset):
        data, _ = dataset
        index = StandardLSH(bucket_width=5.0, n_tables=2, seed=18).fit(data)
        with pytest.raises(ValueError):
            index.query_batch(np.empty((0, data.shape[1])), 5)


class TestBiLevelEquivalence:
    @pytest.mark.parametrize("spill", [1, 3])
    @pytest.mark.parametrize("hierarchy", [False, True])
    def test_matrix(self, dataset, spill, hierarchy):
        data, queries = dataset
        cfg = BiLevelConfig(n_groups=6, bucket_width=5.0, multi_assign=spill,
                            hierarchy=hierarchy, seed=19)
        index = BiLevelLSH(cfg).fit(data)
        assert_engines_match(index, queries, 10)

    def test_after_insert_and_delete(self, dataset):
        data, queries = dataset
        cfg = BiLevelConfig(n_groups=4, bucket_width=5.0, seed=20)
        index = BiLevelLSH(cfg).fit(data[:1200])
        index.insert(data[1200:1300])
        index.delete(np.arange(40))
        assert_engines_match(index, queries, 8)

    @pytest.mark.parametrize("spill", [1, 2])
    def test_shard_threads_results_identical(self, dataset, spill):
        # A runtime's shards at P = 2 answer as the index does at P = 1.
        data, queries = dataset
        index = BiLevelLSH(BiLevelConfig(n_groups=6, bucket_width=5.0,
                                         multi_assign=spill,
                                         seed=21)).fit(data)
        with native_threads(1):
            ids_s, dists_s, _ = index.query_batch(queries, 10)
        with native_threads(2), shard_rows(index, 9), \
                IndexRuntime(index) as rt:
            ids_t, dists_t, _ = rt.query_batch(queries, 10)
        np.testing.assert_array_equal(ids_s, ids_t)
        np.testing.assert_array_equal(dists_s, dists_t)


class TestPackedKeys:
    def test_key_order_matches_the_interleave(self):
        # 5 coordinates of 41 bits: a 205-bit key, four words.
        rng = np.random.default_rng(23)
        codes = rng.integers(-(2 ** 40), 2 ** 40, size=(300, 5))
        keys = morton_keys(codes)[0]
        np.testing.assert_array_equal(np.argsort(keys, kind="stable"),
                                      morton_order(codes))

    def test_pack_distinct_rows_distinct_keys(self):
        codes = np.array([[0, 0], [0, 1], [1, 0], [-1, 0]])
        assert len(set(morton_keys(codes)[0].tolist())) == 4

    def test_lookup_batch_matches_scalar_lookup(self):
        rng = np.random.default_rng(24)
        codes = rng.integers(-3, 3, size=(400, 4))
        table = LSHTable(codes)
        probes = rng.integers(-4, 4, size=(100, 4))
        bidx = NUMPY_KERNELS.lookup_codes(table.bucket_codes, probes)
        bucket = {tuple(code): b
                  for b, code in enumerate(table.bucket_codes.tolist())}
        for row, b in zip(probes.tolist(), bidx):
            assert bucket.get(tuple(row), -1) == int(b)

    def test_gather_batch_matches_scalar_lookup(self):
        rng = np.random.default_rng(25)
        codes = rng.integers(-2, 2, size=(200, 3))
        table = LSHTable(codes)
        LSHTable.add_all([table], [rng.integers(-2, 2, size=(20, 3))],
                         np.arange(200, 220))
        probes = rng.integers(-3, 3, size=(60, 3))
        ids, counts = table.gather_batch(probes)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for i, row in enumerate(probes):
            np.testing.assert_array_equal(ids[offsets[i]:offsets[i + 1]],
                                          table.gather_batch(row)[0])


class TestEmptyTable:
    def test_build_from_zero_rows(self):
        table = LSHTable(np.empty((0, 3), dtype=np.int64))
        assert table.n_buckets == 0
        assert table.n_points == 0

    def test_empty_lookup_paths(self):
        table = LSHTable(np.empty((0, 2), dtype=np.int64))
        assert table.gather_batch(np.array([1, 2]))[0].size == 0
        np.testing.assert_array_equal(
            NUMPY_KERNELS.lookup_codes(table.bucket_codes,
                                       np.array([[1, 2], [0, 0]])), [-1, -1])
        ids, counts = table.gather_batch(np.array([[1, 2]]))
        assert ids.size == 0 and counts.tolist() == [0]
        assert NUMPY_KERNELS.lookup_codes(
            table.bucket_codes, np.array([[1, 2]])).tolist() == [-1]

    def test_empty_table_accepts_adds(self):
        table = LSHTable(np.empty((0, 2), dtype=np.int64))
        LSHTable.add_all([table], [np.array([[3, 3]])], np.array([7]))
        np.testing.assert_array_equal(table.gather_batch(np.array([3, 3]))[0], [7])


class TestInsertRebuild:
    def test_rebuild_considers_all_tables(self, gaussian_data):
        index = StandardLSH(bucket_width=8.0, n_tables=3, seed=26).fit(
            gaussian_data[:50])
        index.insert(gaussian_data[50:100])  # 100% overlay: must rebuild
        assert all(t.n_extra == 0 for t in index._tables)

    def test_rebuild_refreshes_hierarchies(self, gaussian_data):
        index = StandardLSH(bucket_width=8.0, n_tables=2, hierarchy=True,
                            seed=27).fit(gaussian_data[:50])
        old_tables = list(index._tables)
        old_hierarchies = list(index._hierarchies)
        index.insert(gaussian_data[50:100])  # triggers rebuild
        assert len(index._hierarchies) == index.n_tables
        for hierarchy, table in zip(index._hierarchies, index._tables):
            assert hierarchy.table is table
        assert all(h is not old for h, old in zip(index._hierarchies,
                                                  old_hierarchies))
        assert all(t is not old for t, old in zip(index._tables, old_tables))


class TestPublishedListSnapshots:
    """A batch reads ``_tables`` / ``_hierarchies`` once per stage: a
    writer publishing a new list mid-batch (``_rebuild_tables``,
    ``compact``) must not be indexed into by the running loops."""

    def _index(self, gaussian_data, hierarchy):
        return StandardLSH(bucket_width=8.0, n_tables=3, hierarchy=hierarchy,
                           seed=28).fit(gaussian_data[:200])

    def test_hierarchies_swapped_between_gather_and_escalate(
            self, gaussian_data, monkeypatch):
        from repro.lsh import index as index_module

        queries = gaussian_data[200:230]
        flat = self._index(gaussian_data, False).query_batch(queries, 5)
        index = self._index(gaussian_data, True)
        gather = index_module._LSHPlan._stage_gather

        def gather_then_publish(plan, ctx):
            gather(plan, ctx)
            plan.index._hierarchies = []

        monkeypatch.setattr(index_module._LSHPlan, "_stage_gather",
                            gather_then_publish)
        ids, dists, stats = index.query_batch(queries, 5,
                                              hierarchy_threshold=10**6)
        # The stage walked the (empty) list it snapshotted: every row is
        # marked escalated, none gained a candidate, nothing raised.
        assert stats.escalated.all()
        np.testing.assert_array_equal(ids, flat[0])
        np.testing.assert_array_equal(dists, flat[1])

    def test_tables_swapped_during_gather(self, gaussian_data, monkeypatch):
        queries = gaussian_data[200:230]
        index = self._index(gaussian_data, False)
        base = index.query_batch(queries, 5)
        from repro.lsh import index as index_module

        probe_rows = index_module._LSHPlan._probe_rows

        def probe_then_publish(plan, *args, **kwargs):
            index._publish([], [])
            return probe_rows(plan, *args, **kwargs)

        monkeypatch.setattr(index_module._LSHPlan, "_probe_rows",
                            probe_then_publish)
        ids, dists, _ = index.query_batch(queries, 5)
        np.testing.assert_array_equal(ids, base[0])
        np.testing.assert_array_equal(dists, base[1])
