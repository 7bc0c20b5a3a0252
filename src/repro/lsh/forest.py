"""LSH Forest (Bawa, Condie & Ganesan, WWW 2005).

The paper cites LSH Forest as the classic answer to tuning the code
length ``M``: instead of a fixed-length code, each of ``L`` trees stores
points under *variable-length* hash-bit prefixes, and a query descends to
the deepest non-empty prefix and then ascends synchronously across trees
until it has enough candidates.  This module provides it as an additional
baseline index with the same ``fit`` / ``query_batch`` interface as
:class:`~repro.lsh.index.StandardLSH`, so it slots directly into the
experiment runner.

Implementation notes
--------------------
- Each tree draws ``max_depth`` sign-random-projection bits (SimHash);
  the training mean is subtracted first so the sign test is informative
  for Euclidean data.
- A tree is stored as a sorted ``uint64`` array of codes: all points
  sharing the top ``d`` bits form a contiguous range found with two
  binary searches, which is exactly the logical prefix-tree descent.
- The query ascends depth ``max_depth .. 0``, unioning the per-tree
  ranges, and stops once ``candidate_target`` points are gathered (the
  "synchronous ascending" strategy of the original paper).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exec import (ExecutionContext, QueryPlan, QueryStats, Stage,
                        run_plan)
from repro.exec.plan import validate_query_batch
from repro.resilience.deadline import Deadline
from repro.resilience.errors import InjectedFault
from repro.resilience.policy import ResiliencePolicy
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import as_float_matrix, check_positive

MAX_DEPTH_LIMIT = 62  # codes are packed into uint64


class LSHForest:
    """Prefix-tree LSH over sign random projections.

    Parameters
    ----------
    n_trees:
        Number of independent prefix trees ``L``.
    max_depth:
        Maximum prefix length ``k_max`` (bits per tree).
    candidate_target:
        Candidate-gathering budget per query, as a multiple of the query's
        ``k``; ascent stops once ``candidate_target * k`` distinct points
        are collected (the original paper's ``m = c * L`` knob).
    seed:
        Seed / generator for the projection directions.
    """

    def __init__(self, n_trees: int = 10, max_depth: int = 32,
                 candidate_target: int = 10, seed: SeedLike = None):
        check_positive(n_trees, "n_trees")
        check_positive(max_depth, "max_depth")
        check_positive(candidate_target, "candidate_target")
        if max_depth > MAX_DEPTH_LIMIT:
            raise ValueError(
                f"max_depth must be <= {MAX_DEPTH_LIMIT}, got {max_depth}")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.candidate_target = int(candidate_target)
        self._seed = seed
        self._data: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None
        self._center: Optional[np.ndarray] = None
        self._directions: List[np.ndarray] = []
        self._sorted_codes: List[np.ndarray] = []
        self._sorted_rows: List[np.ndarray] = []

    # ------------------------------------------------------------------ fit

    def _encode(self, data: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Pack ``max_depth`` sign bits into one uint64 per row."""
        bits = (data - self._center) @ directions > 0  # (n, depth) bool
        codes = np.zeros(data.shape[0], dtype=np.uint64)
        for b in range(self.max_depth):
            codes = (codes << np.uint64(1)) | bits[:, b].astype(np.uint64)
        return codes

    def fit(self, data: np.ndarray, ids: Optional[np.ndarray] = None) -> "LSHForest":
        """Index ``data``; optional ``ids`` label the rows externally."""
        data = as_float_matrix(data)
        n, dim = data.shape
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
        self._data = data
        self._ids = ids
        self._center = data.mean(axis=0)
        rngs = spawn_rngs(self._seed, self.n_trees)
        self._directions = []
        self._sorted_codes = []
        self._sorted_rows = []
        for rng in rngs:
            directions = rng.standard_normal((dim, self.max_depth))
            codes = self._encode(data, directions)
            order = np.argsort(codes, kind="stable")
            self._directions.append(directions)
            self._sorted_codes.append(codes[order])
            self._sorted_rows.append(order.astype(np.int64))
        return self

    def _check_fitted(self) -> None:
        if self._data is None:
            raise RuntimeError("forest is not fitted; call fit(data) first")

    @property
    def n_points(self) -> int:
        self._check_fitted()
        return self._data.shape[0]

    # ---------------------------------------------------------------- query

    def _prefix_range(self, tree: int, code: np.uint64,
                      depth: int) -> Tuple[int, int]:
        """Sorted-array range of points sharing ``depth`` leading bits."""
        shift = np.uint64(self.max_depth - depth)
        if depth <= 0:
            return 0, self._sorted_codes[tree].shape[0]
        prefix = code >> shift
        low = prefix << shift
        high = (prefix + np.uint64(1)) << shift if depth > 0 else None
        arr = self._sorted_codes[tree]
        lo = int(np.searchsorted(arr, low, side="left"))
        if depth == self.max_depth:
            hi = int(np.searchsorted(arr, low, side="right"))
        else:
            hi = int(np.searchsorted(arr, high, side="left"))
        return lo, hi

    def _gather(self, codes: np.ndarray, qi: int, want: int) -> np.ndarray:
        """Synchronous ascent: widen prefixes until ``want`` candidates."""
        collected: List[np.ndarray] = []
        seen = 0
        for depth in range(self.max_depth, -1, -1):
            parts = []
            for tree in range(self.n_trees):
                lo, hi = self._prefix_range(tree, codes[tree][qi], depth)
                if hi > lo:
                    parts.append(self._sorted_rows[tree][lo:hi])
            if not parts:
                continue
            merged = np.unique(np.concatenate(parts))
            seen = merged.size
            collected = [merged]
            if seen >= want:
                break
        return collected[0] if collected else np.empty(0, dtype=np.int64)

    def query(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """KNN for a single query vector; returns ``(ids, distances)``."""
        ids, dists, _ = self.query_batch(np.atleast_2d(query), k)
        return ids[0], dists[0]

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: Union[str, int, None] = None,
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    policy: Optional[ResiliencePolicy] = None,
                    max_batch_rows: Optional[int] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN for a batch; mirrors :meth:`StandardLSH.query_batch`.

        ``hierarchy_threshold`` is accepted (and ignored) for interface
        compatibility with the experiment runner and the CLI — the forest
        has no hierarchical table.  ``deadline_ms`` is honoured: queries
        whose turn comes after the budget expires return an empty
        best-effort answer flagged in ``QueryStats.exhausted_budget``.
        Under ``policy=`` each per-query gather runs supervised at the
        ``"lsh.gather"`` site, so a failing query is answered degraded
        (with a :class:`~repro.resilience.policy.FailureRecord` on
        ``QueryStats.failures``) instead of crashing the batch.
        ``max_batch_rows`` bounds rows per executed shard.
        """
        self._check_fitted()
        return run_plan(self.execution_plan(hierarchy_threshold), queries, k,
                        deadline_ms=deadline_ms, deadline=deadline,
                        policy=policy, max_batch_rows=max_batch_rows)

    def execution_plan(self,
                       hierarchy_threshold: Union[str, int, None] = None,
                       ) -> "_ForestPlan":
        """Staged forest plan for :func:`repro.exec.run_plan`.

        ``hierarchy_threshold`` is accepted (and ignored) for interface
        compatibility with the runtime layer — the forest has no
        hierarchical table.
        """
        del hierarchy_threshold
        return _ForestPlan(self)

    def candidate_sets(self, queries: np.ndarray) -> List[np.ndarray]:
        """Raw candidate id sets per query (for the GPU pipeline benches).

        Uses a nominal ``k = 1`` gathering budget of ``candidate_target``
        points per query, mirroring what :meth:`query_batch` would gather.
        """
        self._check_fitted()
        queries = as_float_matrix(queries, name="queries")
        codes = [self._encode(queries, d) for d in self._directions]
        out = []
        for qi in range(queries.shape[0]):
            local = self._gather(codes, qi, self.candidate_target)
            out.append(self._ids[local])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LSHForest(n_trees={self.n_trees}, max_depth={self.max_depth}, "
                f"candidate_target={self.candidate_target})")


class _ForestPlan(QueryPlan):
    """Staged execution of the forest's synchronous-ascent query path.

    ``forest.encode`` packs the batch into per-tree prefix codes;
    ``forest.search`` runs the per-query ascent + exact rank loop.  The
    search stage checks the deadline between queries and, under a
    policy, supervises each gather at the ``"lsh.gather"`` fault site
    (labelled ``query=<qi>``) so one poisoned query degrades its own row
    instead of crashing the batch.
    """

    site = "forest"

    def __init__(self, forest: LSHForest) -> None:
        self.forest = forest

    def validate(self, queries: object, k: int, *, allow_nonfinite: bool,
                 ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        return validate_query_batch(queries, k, self.forest._data.shape[1],
                                    allow_nonfinite)

    def stages(self) -> Tuple[Stage, ...]:
        return (Stage("forest.encode", self._stage_encode),
                Stage("forest.search", self._stage_search))

    def _stage_encode(self, ctx: ExecutionContext) -> None:
        forest = self.forest
        ctx.scratch["codes"] = [forest._encode(ctx.queries, d)
                                for d in forest._directions]

    def _stage_search(self, ctx: ExecutionContext) -> None:
        forest = self.forest
        codes = ctx.scratch["codes"]
        want = forest.candidate_target * ctx.k
        pol = ctx.policy
        if pol is not None:
            ctx.ensure_degraded()
        for qi in range(ctx.nq):
            if ctx.deadline is not None and ctx.deadline.expired():
                ctx.ensure_exhausted()[qi] = True
                continue

            def gather(qi: int = qi) -> np.ndarray:
                if (ctx.fault_plan is not None
                        and ctx.fault_plan.check("lsh.gather", query=qi)):
                    raise InjectedFault("lsh.gather", f"query={qi} corruption")
                return forest._gather(codes, qi, want)

            if pol is None:
                cand = gather()
            else:
                cand, _, records = pol.run(
                    "lsh.gather", f"query={qi}", gather)
                ctx.failures.extend(records)
                if cand is None:
                    ctx.degraded[qi] = True
                    continue
            ctx.n_candidates[qi] = cand.size
            if cand.size == 0:
                continue
            diffs = forest._data[cand] - ctx.queries[qi]
            dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            take = min(ctx.k, cand.size)
            top = np.argpartition(dists, take - 1)[:take]
            top = top[np.argsort(dists[top], kind="stable")]
            ctx.ids_out[qi, :take] = forest._ids[cand[top]]
            ctx.dists_out[qi, :take] = dists[top]

    def record_obs(self, ctx: ExecutionContext) -> None:
        assert ctx.ob is not None
        ctx.ob.record_batch(self.site, ctx.n_candidates, ctx.escalated,
                            ctx.timer.stages)
