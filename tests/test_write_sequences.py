"""Sequences of writes against one index, checked against a brute-force
oracle (a bounded hypothesis state machine).

Operations: small inserts, a batch insert that crosses the overlay
trigger (``REBUILD_FRACTION``, which folds inline with ``compact()``),
deletes, explicit ``compact()``, a save → load and a crash → recover
of the index, and queries.  After every query:

- no tombstoned id is returned;
- every returned distance is the true distance to that id's point;
- every live inserted point returns itself at distance 0;
- the batch split in two answers as it did whole;
- for an index without a hierarchy, ``compact()`` leaves every answer
  as it was (a hierarchical index escalates over windows the fold
  reshapes, so only the first four hold there).

After a ``compact()``, the escalation thresholds a hierarchical index
fitted are the ones a save → ``load_index`` and a crash →
``IndexRuntime.open`` (snapshot + WAL replay, then the same fold) fit
again.

Three configurations: ``StandardLSH`` over ``Z^M`` with 8 probes,
``Z^M`` with the Morton hierarchy, and ``BiLevelLSH`` over ``E8`` with
the hierarchy; none pins a threshold.
"""

import os
import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from repro.maintenance import WriteAheadLog, checkpoint
from repro.persistence import load_index, save_index
from repro.runtime import IndexRuntime

N_FIT, DIM, K = 120, 8, 5
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class WriteSequence(RuleBasedStateMachine):
    """One index and its oracle: every row ever added by id, and the
    ids that are live."""

    hierarchical = False

    def make(self):  # pragma: no cover - overridden
        raise NotImplementedError

    @initialize(seed=seeds)
    def fit(self, seed):
        rng = np.random.default_rng([seed, 0])
        data = rng.standard_normal((N_FIT, DIM))
        self.index = self.make().fit(data)
        # Every write is logged from a snapshot of the fit on: what a
        # crash leaves to recover from.
        self.workdir = tempfile.mkdtemp(prefix="write-sequence-")
        self.snapshot = os.path.join(self.workdir, "snap.npz")
        self.wal = WriteAheadLog(os.path.join(self.workdir, "wal.bin"),
                                 fsync="none")
        self.index.attach_wal(self.wal)
        checkpoint(self.index, self.wal, self.snapshot)
        self.points = dict(enumerate(data))
        self.live = set(self.points)
        self.inserted = set()
        self.probe = rng.standard_normal((16, DIM))

    def teardown(self):
        wal = getattr(self, "wal", None)
        if wal is not None:
            wal.close()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _query(self, queries):
        return self.index.query_batch(queries, K)

    def _insert(self, seed, m):
        # A stream of its own per insert, so no point is added twice.
        points = np.random.default_rng(
            [seed, 1, len(self.points)]).standard_normal((m, DIM))
        ids = self.index.insert(points)
        assert len(set(ids.tolist()) & set(self.points)) == 0
        self.points.update(zip(ids.tolist(), points))
        self.live.update(ids.tolist())
        self.inserted.update(ids.tolist())

    @rule(seed=seeds, m=st.integers(min_value=1, max_value=4))
    def insert_small(self, seed, m):
        self._insert(seed, m)

    @rule(seed=seeds)
    def insert_past_trigger(self, seed):
        n = self.index.n_points
        self._insert(seed, int(StandardLSH.REBUILD_FRACTION * n) + 2)

    @precondition(lambda self: len(self.live) > 0)
    @rule(seed=seeds, share=st.floats(min_value=0.0, max_value=1.0))
    def delete(self, seed, share):
        live = np.array(sorted(self.live), dtype=np.int64)
        count = max(1, int(share * live.size))
        victims = np.random.default_rng(seed).choice(live, count,
                                                     replace=False)
        # An unknown id rides along: it is ignored, not an error.
        found = self.index.delete(np.append(victims, 10 ** 9))
        assert found == count
        self.live.difference_update(victims.tolist())

    @rule()
    def compact(self):
        before = self._query(self.probe)
        self.index.compact()
        if not self.hierarchical:
            after = self._query(self.probe)
            np.testing.assert_array_equal(after[0], before[0])
            np.testing.assert_array_equal(after[1], before[1])

    @rule()
    def restore(self):
        self.index.compact()
        want = thresholds(self.index)
        path = os.path.join(self.workdir, "saved.npz")
        save_index(self.index, path)
        loaded = load_index(path)
        assert thresholds(loaded) == want
        with IndexRuntime.open(self.snapshot,
                               wal_path=self.wal.path) as runtime:
            runtime.index.compact()
            assert thresholds(runtime.index) == want

    @rule(seed=seeds)
    def query(self, seed):
        rng = np.random.default_rng([seed, 2])
        queries = rng.standard_normal((6, DIM))
        if self.live:
            live = sorted(self.live)
            picks = rng.choice(len(live), min(4, len(live)), replace=False)
            queries = np.vstack([queries] + [
                self.points[live[i]][None] + 0.01 for i in picks])
        whole = fields(self._query(queries))
        self._check(queries, *whole[:2])
        # No threshold is pinned, yet the halves answer as the whole.
        half = queries.shape[0] // 2
        halves = [fields(self._query(part))
                  for part in (queries[:half], queries[half:])]
        for got, *parts in zip(whole, *halves):
            assert np.concatenate(parts).tobytes() == got.tobytes()

    def _check(self, queries, ids, dists):
        for q, row_ids, row_dists in zip(queries, ids, dists):
            found = row_ids[row_ids >= 0]
            assert self.live.issuperset(found.tolist()), "tombstoned id"
            assert len(set(found.tolist())) == found.size
            true = [np.linalg.norm(self.points[i] - q) for i in found]
            np.testing.assert_allclose(row_dists[:found.size], true,
                                       rtol=1e-9, atol=1e-9)
            assert np.isinf(row_dists[found.size:]).all()

    @invariant()
    def inserted_points_find_themselves(self):
        live = sorted(self.live & getattr(self, "inserted", set()))
        if not live:
            return
        queries = np.array([self.points[i] for i in live])
        ids, dists = self._query(queries)[:2]
        np.testing.assert_array_equal(ids[:, 0], live)
        assert (dists[:, 0] == 0.0).all()


def fields(result):
    """A ``query_batch`` result as arrays: ids, distances, escalation,
    candidate counts — what a split of the batch must keep."""
    ids, dists, stats = result
    return ids, dists, stats.escalated, stats.n_candidates


def thresholds(index):
    """The fitted escalation threshold of each of ``index``'s members."""
    groups = getattr(index, "group_indexes", [index])
    return [group.escalation_threshold for group in groups]


class ZMProbes(WriteSequence):
    def make(self):
        return StandardLSH(n_hashes=4, n_tables=3, bucket_width=3.0,
                           lattice="zm", n_probes=8, seed=0)


class ZMHierarchy(WriteSequence):
    hierarchical = True

    def make(self):
        return StandardLSH(n_hashes=4, n_tables=3, bucket_width=3.0,
                           lattice="zm", hierarchy=True, seed=0)


class BiLevelE8Hierarchy(WriteSequence):
    hierarchical = True

    def make(self):
        return BiLevelLSH(BiLevelConfig(n_groups=4, n_hashes=8, n_tables=3,
                                        bucket_width=4.0, lattice="e8",
                                        hierarchy=True, seed=0))


BOUNDED = settings(max_examples=20, stateful_step_count=15, deadline=None)
TestZMProbes = ZMProbes.TestCase
TestZMProbes.settings = BOUNDED
TestZMHierarchy = ZMHierarchy.TestCase
TestZMHierarchy.settings = BOUNDED
TestBiLevelE8Hierarchy = BiLevelE8Hierarchy.TestCase
TestBiLevelE8Hierarchy.settings = BOUNDED
