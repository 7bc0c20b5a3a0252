"""The random projection tree used as level 1 of Bi-level LSH.

The tree recursively splits the dataset with one of the two rules in
:mod:`repro.rptree.rules` until the requested number of leaf groups is
reached.  Median-based splits keep children balanced, so the tree grows the
groups evenly; when the group count is not a power of two the largest
pending leaf is split first.

Construction is ``O(log(g) * n)`` in the number of split levels (each level
touches every point once, plus the linear-time approximate diameter), which
matches the complexity claim in Section IV-A.2 of the paper; a split's
sweeps run over its node's rows in blocks (:class:`~repro.rptree.diameter.Sweeper`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.rptree.rules import SplitResult, split_max, split_mean
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import as_float_matrix, check_positive

#: Leaves smaller than this are never split further.
MIN_LEAF_SIZE = 2


@dataclass
class RPTreeNode:
    """One tree node; a leaf iff ``split is None``.

    Attributes
    ----------
    indices:
        Row indices of the training points under this node (leaves only —
        internal nodes drop them to keep memory linear).
    leaf_index:
        Dense group id in ``[0, n_leaves)`` for leaves, ``-1`` otherwise.
    """

    split: Optional[SplitResult] = None
    left: Optional["RPTreeNode"] = None
    right: Optional["RPTreeNode"] = None
    indices: Optional[np.ndarray] = None
    leaf_index: int = -1
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split is None


class RPTree:
    """Random projection tree partitioning a dataset into leaf groups.

    Parameters
    ----------
    n_groups:
        Number of leaves to produce (1 means "no partitioning").
    rule:
        ``'mean'`` (paper default — better recall) or ``'max'``.
    diameter_sweeps:
        Iterations ``m`` of the approximate-diameter subroutine.
    seed:
        Seed / generator for the random directions.
    """

    def __init__(self, n_groups: int = 16, rule: str = "mean",
                 diameter_sweeps: int = 20, seed: SeedLike = None):
        check_positive(n_groups, "n_groups")
        if rule not in ("mean", "max"):
            raise ValueError(f"rule must be 'mean' or 'max', got {rule!r}")
        self.n_groups = int(n_groups)
        self.rule = rule
        self.diameter_sweeps = int(diameter_sweeps)
        self._seed = seed
        self.root: Optional[RPTreeNode] = None
        self.leaves: List[RPTreeNode] = []
        self._dim: Optional[int] = None

    def _split_fn(self, points: np.ndarray, rng) -> SplitResult:
        if self.rule == "mean":
            return split_mean(points, seed=rng, diameter_sweeps=self.diameter_sweeps)
        return split_max(points, seed=rng, diameter_sweeps=self.diameter_sweeps)

    def fit(self, data: np.ndarray) -> "RPTree":
        """Build the tree over ``data`` (shape ``(n, D)``)."""
        data = as_float_matrix(data)
        n = data.shape[0]
        self._dim = data.shape[1]
        rng = ensure_rng(self._seed)
        self.root = RPTreeNode(indices=np.arange(n, dtype=np.int64), depth=0)
        # Max-heap on leaf size (negated) so the largest pending leaf splits
        # first; the tiebreaker keeps heap entries comparable.
        counter = itertools.count()
        heap = [(-n, next(counter), self.root)]
        n_leaves = 1
        while n_leaves < self.n_groups and heap:
            neg_size, _, node = heapq.heappop(heap)
            size = -neg_size
            if size < max(MIN_LEAF_SIZE, 2):
                continue  # unsplittable; smaller leaves are, too, but keep trying others
            points = data if node is self.root else data[node.indices]
            split = self._split_fn(points, rng)
            left_idx = node.indices[split.left_mask]
            right_idx = node.indices[~split.left_mask]
            if left_idx.size == 0 or right_idx.size == 0:  # pragma: no cover
                continue  # the rules guard against this; skip defensively
            node.split = split
            node.left = RPTreeNode(indices=left_idx, depth=node.depth + 1)
            node.right = RPTreeNode(indices=right_idx, depth=node.depth + 1)
            node.indices = None
            heapq.heappush(heap, (-left_idx.size, next(counter), node.left))
            heapq.heappush(heap, (-right_idx.size, next(counter), node.right))
            n_leaves += 1
        self.leaves = []
        self._collect_leaves(self.root)
        for i, leaf in enumerate(self.leaves):
            leaf.leaf_index = i
        return self

    def _collect_leaves(self, node: RPTreeNode) -> None:
        if node.is_leaf:
            self.leaves.append(node)
        else:
            self._collect_leaves(node.left)
            self._collect_leaves(node.right)

    # --------------------------------------------------------------- lookup

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def _check_fitted(self) -> None:
        if self.root is None:
            raise RuntimeError("tree is not fitted; call fit(data) first")

    def leaf_indices(self) -> List[np.ndarray]:
        """Training-point indices of each leaf, ordered by leaf index."""
        self._check_fitted()
        return [leaf.indices for leaf in self.leaves]

    def assign(self, queries: np.ndarray) -> np.ndarray:
        """Leaf index for every query row (vectorized descent)."""
        self._check_fitted()
        queries = as_float_matrix(queries, name="queries")
        if queries.shape[1] != self._dim:
            raise ValueError(
                f"queries have dim {queries.shape[1]}, tree was fit on {self._dim}")
        out = np.empty(queries.shape[0], dtype=np.int64)
        self._assign_recursive(self.root, queries,
                               np.arange(queries.shape[0], dtype=np.int64), out)
        return out

    def _assign_recursive(self, node: RPTreeNode, queries: np.ndarray,
                          rows: np.ndarray, out: np.ndarray) -> None:
        if node.is_leaf:
            out[rows] = node.leaf_index
            return
        go_left = node.split.route_batch(queries[rows])
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        if left_rows.size:
            self._assign_recursive(node.left, queries, left_rows, out)
        if right_rows.size:
            self._assign_recursive(node.right, queries, right_rows, out)

    def assign_one(self, query: np.ndarray) -> int:
        """Leaf index for a single query vector."""
        self._check_fitted()
        node = self.root
        while not node.is_leaf:
            node = node.left if node.split.route(query) else node.right
        return node.leaf_index

    def _split_margin(self, node: RPTreeNode, query: np.ndarray) -> float:
        """Distance from ``query`` to the split boundary at ``node``."""
        split = node.split
        if split.kind == "projection":
            return abs(float(query @ split.direction) - split.threshold)
        diff = query - split.center
        return abs(float(np.sqrt(diff @ diff)) - split.threshold)

    def assign_multi(self, queries: np.ndarray, n_leaves: int) -> List[np.ndarray]:
        """The ``n_leaves`` most plausible leaves per query (spill routing).

        A query close to a split boundary could as easily belong to the
        other side; its *defection cost* to a leaf is the sum of the
        boundary margins of every split where the alternative branch was
        taken.  Leaves are emitted best-first (ascending defection cost)
        with a uniform-cost search, so entry 0 of each result equals
        :meth:`assign`'s answer.  Querying several leaves trades extra
        short-list work for a smaller level-1 routing loss (see
        :func:`repro.evaluation.diagnostics.routing_loss`).
        """
        self._check_fitted()
        check_positive(n_leaves, "n_leaves")
        queries = as_float_matrix(queries, name="queries")
        if queries.shape[1] != self._dim:
            raise ValueError(
                f"queries have dim {queries.shape[1]}, tree was fit on {self._dim}")
        out: List[np.ndarray] = []
        counter = itertools.count()
        for qi in range(queries.shape[0]):
            q = queries[qi]
            found: List[int] = []
            frontier = [(0.0, next(counter), self.root)]
            while frontier and len(found) < n_leaves:
                cost, _, node = heapq.heappop(frontier)
                if node.is_leaf:
                    found.append(node.leaf_index)
                    continue
                margin = self._split_margin(node, q)
                near, far = ((node.left, node.right)
                             if node.split.route(q)
                             else (node.right, node.left))
                heapq.heappush(frontier, (cost, next(counter), near))
                heapq.heappush(frontier, (cost + margin, next(counter), far))
            out.append(np.array(found, dtype=np.int64))
        return out

    def leaf_sizes(self) -> np.ndarray:
        """Number of training points in each leaf."""
        self._check_fitted()
        return np.array([leaf.indices.size for leaf in self.leaves], dtype=np.int64)

    def depth(self) -> int:
        """Maximum leaf depth."""
        self._check_fitted()
        return max(leaf.depth for leaf in self.leaves)
