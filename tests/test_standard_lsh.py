"""Unit tests for the single-level StandardLSH index."""

import numpy as np
import pytest

from repro.evaluation.groundtruth import brute_force_knn
from repro.evaluation.metrics import recall_ratio
from repro.lsh.index import StandardLSH, make_lattice
from repro.lsh.query import Batch


class TestMakeLattice:
    def test_kinds(self):
        from repro.lattice.e8 import E8Lattice
        from repro.lattice.zm import ZMLattice

        assert isinstance(make_lattice("zm", 8), ZMLattice)
        assert isinstance(make_lattice("e8", 8), E8Lattice)
        assert isinstance(make_lattice("E8", 8), E8Lattice)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_lattice("leech", 8)


class TestFitQuery:
    def test_query_shapes(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=8.0, seed=0).fit(gaussian_data)
        ids, dists, stats = idx.query_batch(gaussian_queries, 5)
        assert ids.shape == (30, 5) and dists.shape == (30, 5)
        assert stats.n_candidates.shape == (30,)

    def test_query_single_matches_batch(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=8.0, seed=1).fit(gaussian_data)
        ids_b, dists_b, _ = idx.query_batch(gaussian_queries[:1], 4)
        ids_s, dists_s = idx.query(gaussian_queries[0], 4)
        np.testing.assert_array_equal(ids_s, ids_b[0])
        np.testing.assert_array_equal(dists_s, dists_b[0])

    def test_indexed_point_finds_itself(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=2).fit(gaussian_data)
        ids, dists = idx.query(gaussian_data[17], 1)
        assert ids[0] == 17 and dists[0] == 0.0

    def test_distances_sorted(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=8.0, seed=3).fit(gaussian_data)
        _, dists, _ = idx.query_batch(gaussian_queries, 8)
        for row in dists:
            finite = row[np.isfinite(row)]
            assert np.all(np.diff(finite) >= 0)
            # inf padding, if any, sits at the tail.
            assert np.all(np.isinf(row[finite.size:]))

    def test_padding_for_empty_candidates(self, gaussian_data):
        # A far-away query with a tiny bucket width finds nothing.
        idx = StandardLSH(bucket_width=0.001, n_tables=2, seed=4).fit(gaussian_data)
        far = np.full((1, gaussian_data.shape[1]), 1e6)
        ids, dists, stats = idx.query_batch(far, 3)
        assert np.all(ids == -1) and np.all(np.isinf(dists))
        assert stats.n_candidates[0] == 0

    def test_external_ids_returned(self, gaussian_data):
        ids_ext = np.arange(gaussian_data.shape[0]) + 1000
        idx = StandardLSH(bucket_width=8.0, seed=5).fit(gaussian_data, ids=ids_ext)
        ids, _ = idx.query(gaussian_data[0], 1)
        assert ids[0] == 1000

    def test_wide_bucket_high_recall(self, gaussian_data, gaussian_queries):
        # Huge W puts everything in one bucket: recall must be 1.
        idx = StandardLSH(bucket_width=1e6, n_tables=2, seed=6).fit(gaussian_data)
        ids, _, stats = idx.query_batch(gaussian_queries, 10)
        exact_ids, _ = brute_force_knn(gaussian_data, gaussian_queries, 10)
        rec = recall_ratio(exact_ids, ids)
        assert rec.mean() == 1.0
        assert np.all(stats.n_candidates == gaussian_data.shape[0])

    def test_recall_grows_with_width(self, gaussian_data, gaussian_queries):
        exact_ids, _ = brute_force_knn(gaussian_data, gaussian_queries, 10)
        recalls = []
        for w in (1.0, 4.0, 16.0, 64.0):
            idx = StandardLSH(bucket_width=w, n_tables=5, seed=7).fit(gaussian_data)
            ids, _, _ = idx.query_batch(gaussian_queries, 10)
            recalls.append(recall_ratio(exact_ids, ids).mean())
        assert recalls[-1] > recalls[0]
        assert recalls[-1] > 0.8

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardLSH().query(np.zeros(4), 1)

    def test_dim_mismatch_raises(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, seed=8).fit(gaussian_data)
        with pytest.raises(ValueError, match="dim"):
            idx.query_batch(np.zeros((1, 5)), 2)

    def test_invalid_constructor_params(self):
        with pytest.raises(ValueError):
            StandardLSH(n_hashes=0)
        with pytest.raises(ValueError):
            StandardLSH(n_probes=-1)
        with pytest.raises(ValueError):
            StandardLSH(lattice="foo").fit(np.zeros((2, 2)) + 1.0)


class TestMultiprobe:
    def test_multiprobe_increases_candidates(self, gaussian_data, gaussian_queries):
        base = StandardLSH(bucket_width=4.0, n_tables=3, seed=9).fit(gaussian_data)
        probed = StandardLSH(bucket_width=4.0, n_tables=3, n_probes=20,
                             seed=9).fit(gaussian_data)
        _, _, s0 = base.query_batch(gaussian_queries, 5)
        _, _, s1 = probed.query_batch(gaussian_queries, 5)
        assert s1.n_candidates.mean() >= s0.n_candidates.mean()

    def test_multiprobe_improves_recall_small_l(self, gaussian_data,
                                                gaussian_queries):
        exact_ids, _ = brute_force_knn(gaussian_data, gaussian_queries, 10)
        base = StandardLSH(bucket_width=4.0, n_tables=2, seed=10).fit(gaussian_data)
        probed = StandardLSH(bucket_width=4.0, n_tables=2, n_probes=40,
                             seed=10).fit(gaussian_data)
        ids0, _, _ = base.query_batch(gaussian_queries, 10)
        ids1, _, _ = probed.query_batch(gaussian_queries, 10)
        assert (recall_ratio(exact_ids, ids1).mean()
                >= recall_ratio(exact_ids, ids0).mean())

    def test_multiprobe_e8(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=4.0, n_tables=2, n_probes=30,
                          lattice="e8", seed=11).fit(gaussian_data)
        ids, dists, stats = idx.query_batch(gaussian_queries, 5)
        assert ids.shape == (30, 5)


class TestHierarchy:
    def test_escalation_flags_set(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=2.0, n_tables=3, hierarchy=True,
                          seed=12).fit(gaussian_data)
        _, _, stats = idx.query_batch(gaussian_queries, 5)
        # Some queries fall below the fitted median and escalate.
        assert stats.escalated.any()

    def test_hierarchy_raises_thin_queries(self, gaussian_data, gaussian_queries):
        plain = StandardLSH(bucket_width=2.0, n_tables=3, seed=13).fit(gaussian_data)
        hier = StandardLSH(bucket_width=2.0, n_tables=3, hierarchy=True,
                           seed=13).fit(gaussian_data)
        _, _, s0 = plain.query_batch(gaussian_queries, 5)
        _, _, s1 = hier.query_batch(gaussian_queries, 5)
        # Escalated queries cannot lose candidates.
        assert np.all(s1.n_candidates >= s0.n_candidates)

    def test_fixed_threshold(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=2.0, n_tables=3, hierarchy=True,
                          seed=14).fit(gaussian_data)
        _, _, stats = idx.query_batch(gaussian_queries, 5,
                                      hierarchy_threshold=50)
        assert np.all(stats.n_candidates[stats.escalated] >= 0)

    def test_hierarchy_e8(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=2.0, n_tables=2, hierarchy=True,
                          lattice="e8", seed=15).fit(gaussian_data)
        ids, _, stats = idx.query_batch(gaussian_queries, 5)
        assert ids.shape == (30, 5)


class TestCandidateSets:
    def test_sets_match_stats(self, gaussian_data, gaussian_queries):
        idx = StandardLSH(bucket_width=8.0, n_tables=3, seed=16).fit(gaussian_data)
        sets = idx.candidate_sets(gaussian_queries)
        _, _, stats = idx.query_batch(gaussian_queries, 5)
        for s, n in zip(sets, stats.n_candidates):
            assert s.size == n

    def test_sets_use_external_ids(self, gaussian_data):
        ids_ext = np.arange(gaussian_data.shape[0]) * 2
        idx = StandardLSH(bucket_width=8.0, seed=17).fit(gaussian_data, ids=ids_ext)
        sets = idx.candidate_sets(gaussian_data[:3])
        for s in sets:
            assert np.all(s % 2 == 0)


class TestState:
    """``state()`` / ``from_state()``: the one description of a fitted
    index that persistence, the shared-memory pool and out-of-core read."""

    @pytest.mark.parametrize("hierarchy", [False, True])
    @pytest.mark.parametrize("n_probes", [0, 16])
    @pytest.mark.parametrize("lattice", ["zm", "e8"])
    def test_from_state_answers_byte_identically(
            self, gaussian_data, gaussian_queries, lattice, n_probes,
            hierarchy):
        idx = StandardLSH(bucket_width=6.0, n_tables=3, lattice=lattice,
                          n_probes=n_probes, hierarchy=hierarchy,
                          seed=18).fit(gaussian_data[:600])
        idx.delete(np.arange(0, 600, 7))
        idx.insert(gaussian_data[600:640])
        idx.query_batch(gaussian_queries, 5)  # caches the norms

        # A live overlay is never part of the state: no table layout is
        # exported, and an adopter without one rebuilds from the data.
        assert all(table.n_extra for table in idx._tables)
        scalars, source, derived = idx.state()
        assert set(derived) == {"sq_norms"}
        rebuilt = StandardLSH.from_state(scalars, source)

        idx._rebuild_tables()  # the fold the pool does before exporting
        scalars, source, derived = idx.state()
        assert {f"table{t}/sorted_ids" for t in range(3)} <= set(derived)
        adopted = StandardLSH.from_state(scalars, source, derived)
        assert adopted._data is idx._data  # by reference, no copy
        assert adopted._tables[2]._sorted_ids is idx._tables[2]._sorted_ids
        assert adopted._families[0].directions is idx._families[0].directions

        want = idx.query_batch(gaussian_queries, 5, hierarchy_threshold=12)
        for copy in (rebuilt, adopted):
            assert vars(copy).keys() == vars(idx).keys()
            got = copy.query_batch(gaussian_queries, 5,
                                   hierarchy_threshold=12)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1].view(np.int64),
                                          want[1].view(np.int64))
            np.testing.assert_array_equal(got[2].n_candidates,
                                          want[2].n_candidates)
            np.testing.assert_array_equal(got[2].escalated,
                                          want[2].escalated)

    def test_n_live_counts_untombstoned_rows(self, gaussian_data):
        idx = StandardLSH(bucket_width=8.0, n_tables=2,
                          seed=19).fit(gaussian_data)
        assert idx.n_live == idx.n_points == 800
        idx.delete([3, 5, 10_000])
        idx.insert(gaussian_data[:4])
        assert (idx.n_points, idx.n_live) == (804, 802)


class TestOneCallHashing:
    """A query hashes every table with one GEMM over the stacked families
    and one quantize over the ``(L * n, M)`` block (``insert`` too); the
    codes are each family's own ``lattice.quantize(family.project(x))``,
    bit for bit, on whichever kernel table resolved."""

    LATTICES = {"zm": dict(lattice="zm", n_hashes=8),
                "e8": dict(lattice="e8", n_hashes=8),
                "e8-padded": dict(lattice="e8", n_hashes=12)}

    @staticmethod
    def _indexes(data, config):
        def make():
            return StandardLSH(bucket_width=3.0, n_tables=5, seed=23,
                               **config)

        fitted = make().fit(data[:700])
        restored = StandardLSH.from_state(*fitted.state())
        inserted = make().fit(data[:600])
        inserted.insert(data[600:700])
        # Fit again after a query: new families (a generator seed draws
        # fresh ones), so the first fit's stack must not survive.
        refitted = StandardLSH(bucket_width=3.0, n_tables=5,
                               seed=np.random.default_rng(23), **config)
        refitted.fit(data[:300]).query_batch(data[:2], 1)
        refitted.fit(data[:700])
        return {"fitted": fitted, "restored": restored, "inserted": inserted,
                "refitted": refitted}

    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_codes_are_each_familys(self, gaussian_data, name):
        for state, index in self._indexes(gaussian_data,
                                          self.LATTICES[name]).items():
            # One row, a few, and the whole block the index was fit on.
            for rows in (gaussian_data[:1], gaussian_data[5:8],
                         gaussian_data[:700]):
                batch = Batch.of(rows, 1)
                index.execution_plan()._stage_hash(batch)
                member, = batch.members
                _, inserted = index._hash(rows)
                assert member.codes.shape[:2] == (5, rows.shape[0])
                for t, family in enumerate(index._families):
                    projected = family.project(rows)
                    want = index._lattice.quantize(projected)
                    for got in (member.codes[t], inserted[t]):
                        assert got.dtype == np.int64, state
                        np.testing.assert_array_equal(got, want,
                                                      err_msg=state)
                    # BLAS may tile M columns apart from the same columns
                    # of a wider product: the last bit may move, the codes
                    # above may not.
                    np.testing.assert_allclose(
                        member.y[t], projected,
                        rtol=0, atol=1e-12)
