"""Ablation: LSH Forest (Bawa et al.) vs standard vs Bi-level LSH.

LSH Forest is the paper's cited alternative for avoiding the choice of
the code length M (reference [9]).  This bench pits its self-tuning
prefix trees against the fixed-code indexes under the same workload and
candidate budgets, reporting the selectivity→recall trade-off of each.
The forest is not part of the library: :class:`LSHForest` below is all
of it, the two methods :func:`~repro.evaluation.runner.run_method` calls.
"""

import numpy as np

from repro.evaluation.runner import (
    MethodSpec,
    format_results_table,
    run_method,
)
from repro.experiments.figures import _sweep
from repro.experiments.workloads import make_workload
from repro.lsh.query import QueryStats
from repro.utils.rng import spawn_rngs
from repro.utils.validation import as_float_matrix


class LSHForest:
    """Prefix-tree LSH over sign random projections.

    Each of ``n_trees`` trees keys every point by ``max_depth`` (≤ 62)
    sign bits of centred random projections (SimHash), packed into one
    sorted ``uint64`` array, so the points sharing a ``d``-bit prefix
    are one contiguous range.  A query ascends from depth ``max_depth``
    towards 0, unioning the ranges of every tree, until it holds
    ``candidate_target * k`` points (the original "synchronous
    ascending"), then ranks them exactly.
    """

    def __init__(self, n_trees: int, max_depth: int, candidate_target: int,
                 seed: int):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.candidate_target = candidate_target
        self.seed = seed

    def _encode(self, data, directions):
        """Pack ``max_depth`` sign bits into one uint64 per row."""
        bits = (data - self._center) @ directions > 0
        codes = np.zeros(data.shape[0], dtype=np.uint64)
        for b in range(self.max_depth):
            codes = (codes << np.uint64(1)) | bits[:, b].astype(np.uint64)
        return codes

    def fit(self, data):
        self._data = data = as_float_matrix(data)
        self._center = data.mean(axis=0)
        self._trees = []  # (directions, sorted codes, rows in that order)
        for rng in spawn_rngs(self.seed, self.n_trees):
            directions = rng.standard_normal((data.shape[1], self.max_depth))
            codes = self._encode(data, directions)
            order = np.argsort(codes, kind="stable")
            self._trees.append((directions, codes[order],
                                order.astype(np.int64)))
        return self

    def _gather(self, codes, want):
        """Rows of the deepest prefixes, across trees, holding ``want``;
        depth 0 holds every row."""
        for depth in range(self.max_depth, -1, -1):
            shift = np.uint64(self.max_depth - depth)
            parts = []
            for code, (_, sorted_codes, rows) in zip(codes, self._trees):
                low = (code >> shift) << shift
                lo, hi = np.searchsorted(
                    sorted_codes, [low, low + (np.uint64(1) << shift)])
                parts.append(rows[lo:hi])
            cand = np.unique(np.concatenate(parts))
            if cand.size >= want:
                break
        return cand

    def query_batch(self, queries, k):
        queries = as_float_matrix(queries)
        nq = queries.shape[0]
        ids = np.full((nq, k), -1, dtype=np.int64)
        dists = np.full((nq, k), np.inf)
        n_candidates = np.zeros(nq, dtype=np.int64)
        codes = np.stack([self._encode(queries, directions)
                          for directions, _, _ in self._trees], axis=1)
        for qi in range(nq):
            cand = self._gather(codes[qi], self.candidate_target * k)
            n_candidates[qi] = cand.size
            diffs = self._data[cand] - queries[qi]
            d = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            take = min(k, cand.size)
            top = np.argpartition(d, take - 1)[:take]
            top = top[np.argsort(d[top], kind="stable")]
            ids[qi, :take] = cand[top]
            dists[qi, :take] = d[top]
        return ids, dists, QueryStats(n_candidates, np.zeros(nq, dtype=bool))


def test_ablation_forest(benchmark, scale):
    workload = make_workload("labelme", scale)

    def run():
        results = {}
        results["standard"] = _sweep(workload, "standard", "zm", scale)
        results["bilevel"] = _sweep(workload, "bilevel", "zm", scale)
        forest_rows = []
        for target in (5, 15, 40):
            spec = MethodSpec(
                f"forest(target={target})",
                lambda seed, t=target: LSHForest(
                    n_trees=scale.n_tables, max_depth=24,
                    candidate_target=t, seed=seed))
            forest_rows.append(run_method(
                spec, workload.train, workload.queries, scale.k,
                n_runs=scale.n_runs, base_seed=scale.seed,
                ground_truth=workload.ground_truth,
                params={"W": float(target)}))
        results["forest"] = forest_rows
        print(format_results_table(results["standard"], "-- standard --"))
        print(format_results_table(results["bilevel"], "-- bilevel --"))
        print(format_results_table(forest_rows,
                                   "-- LSH forest (W column = target) --"))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    forest = results["forest"]
    # Forest recall rises with the candidate budget.
    recalls = [r.recall.mean for r in forest]
    assert recalls[-1] >= recalls[0]
    # The forest is a *usable* baseline: non-trivial recall at sub-10%
    # selectivity for the largest target.
    assert forest[-1].recall.mean > 0.1
    assert forest[-1].selectivity.mean < 0.5
