"""Bi-level LSH (Sections III-IV of the paper).

One index over one corpus, the paper's one table set over one linear
array: a first-level partitioner (RP-tree, or K-means for the baseline)
splits the data into groups, and the Bi-level code ``H~(v) = (RPtree(v),
H(v))`` names a group's tables — each group's own (optionally tuned)
width, families and hierarchies, in a :class:`~repro.lsh.index.
StandardLSH` holding *global* rows of the one :class:`~repro.lsh.index.
RowStore`, never a copy.  A batch is routed (to each row's group, or its
``multi_assign`` most plausible ones), hashed per group, searched by one
``bucket_spans`` over all G·L group tables, escalated per group and
ranked from the spans by one ``rank_topk`` against the one matrix: the
stages of :class:`~repro.lsh.query._LSHPlan` with a route stage in front.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.cluster.kmeans import KMeansPartitioner
from repro.core.config import BiLevelConfig
from repro.lsh.index import RowStore, StandardLSH
from repro.lsh.query import (Batch, Member, QueryStats, Stages, _LSHPlan,
                             run_plan)
from repro.lsh.params import CollisionModel, tune_bucket_width
from repro.lsh.table import TableLayouts
from repro.native import registry as native_registry
from repro.resilience.deadline import Deadline
from repro.rptree.tree import RPTree
from repro.utils.rng import spawn_rngs
from repro.utils.validation import as_float_matrix

if TYPE_CHECKING:  # runtime import would cycle: maintenance replays via us
    from repro.maintenance.wal import WriteAheadLog
    from repro.obs import Observer


def grouped_store(data: np.ndarray, leaves: List[np.ndarray],
                  ) -> Tuple[RowStore, List[np.ndarray]]:
    """The one row store over ``data`` (rows in id order) and each group's
    rows of it, given each group's ids (``leaves``).

    In memory the store is the paper's one linear array: the rows group
    by group, so a group's rows are one contiguous run, which keeps a
    batch's gather and rank on one group's memory at a time.  A memmap
    stays the file it is, its rows its ids.
    """
    if isinstance(data, np.memmap):
        return RowStore(data), leaves
    order = np.concatenate(leaves)
    ends = np.cumsum([leaf.shape[0] for leaf in leaves])
    return RowStore(data[order], order), [
        np.arange(end - leaf.shape[0], end, dtype=np.int64)
        for leaf, end in zip(leaves, ends)]


def rows_by_group(groups: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """The rows assigned to each of ``n_groups`` groups, ascending within
    a group (one stable sort of the assignment instead of a scan per
    group); groups nothing was assigned to get an empty array."""
    # Group counts are small: int16 keys take numpy's radix sort.
    keys = groups.astype(np.int16) if n_groups < 2 ** 15 else groups
    order = np.argsort(keys, kind="stable")
    bounds = [0] + np.cumsum(np.bincount(groups,
                                         minlength=n_groups)).tolist()
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


class BiLevelLSH:
    """The Bi-level LSH index.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.BiLevelConfig`; defaults reproduce the
        paper's main setting (RP-tree mean rule, 16 groups, M=8, ``Z^M``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import BiLevelLSH, BiLevelConfig
    >>> rng = np.random.default_rng(0)
    >>> data = rng.standard_normal((500, 32))
    >>> index = BiLevelLSH(BiLevelConfig(n_groups=4, bucket_width=4.0, seed=0))
    >>> index.fit(data)                                   # doctest: +ELLIPSIS
    BiLevelLSH(...)
    >>> ids, dists = index.query(data[0], k=3)
    >>> int(ids[0])
    0
    """

    def __init__(self, config: Optional[BiLevelConfig] = None):
        self.config = config if config is not None else BiLevelConfig()
        self.partitioner = None
        self.group_indexes: List[StandardLSH] = []
        self.group_widths: List[float] = []
        # Every row once (a row's id is its position), read by the groups.
        self._store: Optional[RowStore] = None
        # The groups' layouts joined, with the snapshots joined (``_layouts``).
        self._joined: Optional[Tuple[tuple, TableLayouts]] = None
        # Serializes structural updates (insert/delete) against each other;
        # batch queries stay lock-free and rely on the store's and the
        # group indexes' snapshot discipline (see StandardLSH).
        self._update_lock = threading.RLock()
        # Durability plumbing (repro.maintenance): one WAL at this front
        # end covers all groups — group indexes never log their internal
        # sub-inserts, the routed operation is the unit of replay.
        self._wal = None
        self._applied_lsn = 0

    # ------------------------------------------------------------------ fit

    def _make_partitioner(self, seed):
        cfg = self.config
        if cfg.partitioner == "kmeans":
            return KMeansPartitioner(n_groups=cfg.n_groups, seed=seed)
        return RPTree(n_groups=cfg.n_groups, rule=cfg.tree_rule,
                      diameter_sweeps=cfg.diameter_sweeps, seed=seed)

    def fit(self, data: np.ndarray) -> "BiLevelLSH":
        """Partition ``data`` and build one LSH index per group."""
        data = as_float_matrix(data)
        return self._build_groups(data, *self._fit_partitioner(data))

    def _fit_partitioner(self, sample: np.ndarray) -> Tuple[object, list]:
        """Fit the first-level partitioner on ``sample``; returns the
        ``(tuner_rng, group_rngs)`` :meth:`_build_groups` continues from.

        One stream for the partitioner, one for the tuner samples, one
        per group index — all derived from the master seed.
        """
        cfg = self.config
        rngs = spawn_rngs(cfg.seed, cfg.n_groups + 2)
        self.partitioner = self._make_partitioner(
            rngs[0] if cfg.tree_seed is None else cfg.tree_seed)
        self.partitioner.fit(sample)
        return rngs[1], rngs[2:]

    def _build_groups(self, data: np.ndarray, tuner_rng: object,
                      group_rngs: list) -> "BiLevelLSH":
        """Build one LSH index per leaf of the fitted partitioner.

        The one group-building loop: :meth:`fit` and the out-of-core
        :func:`~repro.core.outofcore.fit_bilevel_chunked` (``data`` a
        memmap, leaves re-pointed at the full dataset's rows) both end
        here, so every config field reaches the group indexes the same
        way.  Each group indexes its leaf's rows of the one row store
        (:func:`grouped_store`); a leaf no row reached builds a group with
        none.
        """
        cfg = self.config
        leaves = [np.asarray(ids, dtype=np.int64)
                  for ids in self.partitioner.leaf_indices()]
        self._store, group_rows = grouped_store(data, leaves)
        self.group_indexes = []
        self.group_widths = []
        scale_factors = (self._width_scales(data, tuner_rng)
                         if cfg.scale_widths and not cfg.tune_params else None)
        for g, rows in enumerate(group_rows):
            width = cfg.bucket_width
            if cfg.tune_params and rows.shape[0] > 1:
                model = CollisionModel(data[leaves[g]], k=cfg.tuner_k,
                                       sample_size=cfg.tuner_sample_size,
                                       seed=tuner_rng)
                params = tune_bucket_width(model, cfg.n_hashes, cfg.n_tables,
                                           target_recall=cfg.target_recall)
                width = params.bucket_width
            elif scale_factors is not None:
                width = cfg.bucket_width * scale_factors[g]
            index = StandardLSH(n_hashes=cfg.n_hashes, n_tables=cfg.n_tables,
                                bucket_width=width, lattice=cfg.lattice,
                                n_probes=cfg.n_probes, hierarchy=cfg.hierarchy,
                                seed=group_rngs[g % len(group_rngs)])
            index._fit(self._store, rows)
            self.group_indexes.append(index)
            self.group_widths.append(width)
        return self

    def _width_scales(self, data: np.ndarray, rng) -> np.ndarray:
        """Per-group width multipliers from each group's distance scale.

        Each group's scale is its median sampled kNN distance, normalized
        by the across-group median so a sweep of the base ``W`` keeps its
        meaning; factors are clamped to [1/4, 4] to stay in the sweep's
        regime.
        """
        cfg = self.config
        medians = []
        for rows in self.partitioner.leaf_indices():
            if rows.shape[0] < 2:
                medians.append(np.nan)
                continue
            model = CollisionModel(data[rows], k=cfg.tuner_k,
                                   sample_size=min(cfg.tuner_sample_size, 64),
                                   seed=rng)
            medians.append(float(np.median(model.knn_distances)))
        medians = np.array(medians, dtype=np.float64)
        valid = medians[np.isfinite(medians) & (medians > 0)]
        reference = float(np.median(valid)) if valid.size else 1.0
        if reference <= 0:
            reference = 1.0
        factors = medians / reference
        factors[~np.isfinite(factors) | (factors <= 0)] = 1.0
        return np.clip(factors, 0.25, 4.0)

    def _check_fitted(self) -> None:
        if self._store is None:
            raise RuntimeError("index is not fitted; call fit(data) first")

    @property
    def _data(self) -> Optional[np.ndarray]:
        return None if self._store is None else self._store.data

    @property
    def _layouts(self) -> TableLayouts:
        """Every group's published layouts as one table set (group ``g``'s
        tables at ``g * L``), joined again on the first read after a group
        publishes: one pointer table per publication, not per batch.
        Racing readers join equal sets; either one stays."""
        parts = tuple(index._layouts for index in self.group_indexes)
        joined = self._joined
        if joined is None or len(joined[0]) != len(parts) or any(
                a is not b for a, b in zip(joined[0], parts)):
            joined = self._joined = (parts, TableLayouts.of(
                [layouts for part in parts for layouts in part.per_table],
                parts[0].code_dim))
        return joined[1]

    @property
    def n_points(self) -> int:
        self._check_fitted()
        return self._store.n_rows

    @property
    def use_hierarchy(self) -> bool:
        return self.config.hierarchy

    @property
    def n_groups_built(self) -> int:
        """Actual number of groups (may be below ``config.n_groups`` for tiny data)."""
        self._check_fitted()
        return len(self.group_indexes)

    # ---------------------------------------------------------- maintenance

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Log every acknowledged insert/delete through ``wal`` (R13).

        Attached at the bi-level front end only: the WAL records the
        *routed* operation with the globally assigned ids, and replay
        re-routes it through the same static partition — group indexes
        stay WAL-free.

        The log's LSN counter is fast-forwarded past this index's
        applied LSN so a fresh WAL attached to a restored index never
        hands out snapshot-covered LSNs (replay would skip them).
        """
        wal.advance_to(self._applied_lsn)
        self._wal = wal

    def compact(self) -> bool:
        """Fold every leaf group's overlay and tombstones
        (:meth:`StandardLSH.compact`); True if any group published."""
        self._check_fitted()
        installed = False
        with self._update_lock:
            for g, index in enumerate(self.group_indexes):
                installed = index.compact(g) or installed
        return installed

    # -------------------------------------------------------------- updates

    def insert(self, points: np.ndarray) -> np.ndarray:
        """Add points to a fitted index; returns their (global) ids.

        New points are routed down the existing first-level partition —
        the tree is *not* re-split, matching the static-preprocessing role
        it plays in the paper — appended to the one row store once, and
        entered into their group's LSH tables by global row; a group
        folds its overlay (:meth:`StandardLSH.compact`) once it grows.
        """
        self._check_fitted()
        points = as_float_matrix(points, name="points")
        if points.shape[1] != self._data.shape[1]:
            raise ValueError(
                f"points have dim {points.shape[1]}, index has dim "
                f"{self._data.shape[1]}")
        with self._update_lock:
            start = self._store.n_rows
            new_ids = np.arange(start, start + points.shape[0], dtype=np.int64)
            # Durability: acknowledged operation reaches the log before
            # any structure changes (R13).  Ids are assigned by position,
            # so replay regenerates them deterministically.
            if self._wal is not None:
                self._applied_lsn = self._wal.append_insert(points, new_ids)
            self._store.add_rows(points, new_ids)
            groups = self.partitioner.assign(points)
            for g, rows in enumerate(rows_by_group(
                    groups, len(self.group_indexes))):
                if rows.size:
                    self.group_indexes[g]._index_rows(new_ids[rows],
                                                      points[rows], g)
        return new_ids

    def delete(self, ids: np.ndarray) -> int:
        """Remove points by global id; returns how many were found.

        One tombstone mask covers every group: a delete sets it once.
        Deletion is logical (tombstones are filtered from every
        candidate set) and unknown ids are ignored.
        """
        self._check_fitted()
        ids = np.asarray(ids, dtype=np.int64).ravel()
        with self._update_lock:
            # Logged unconditionally, as before routing existed to tell;
            # replaying a no-op delete is itself a no-op.
            if self._wal is not None:
                self._applied_lsn = self._wal.append_delete(ids)
            mask = np.isin(self._store.ids, ids)
            found = int(np.count_nonzero(mask))
            if found:
                self._store.tombstone(mask)
            return found

    # ---------------------------------------------------------------- query

    def query(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """KNN for one query vector; returns ``(ids, distances)``."""
        ids, dists, _ = self.query_batch(np.atleast_2d(query), k)
        return ids[0], dists[0]

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: Optional[int] = None,
                    engine: Optional[str] = None,
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN for a batch; see :meth:`StandardLSH.query_batch`.

        Each query is answered in one pass from the tables of its group
        (with ``multi_assign > 1``, its most plausible groups); by default
        a row escalates by its group's fitted ``escalation_threshold``.
        """
        self._check_fitted()
        return run_plan(self.execution_plan(hierarchy_threshold, engine),
                        queries, k, deadline_ms=deadline_ms,
                        deadline=deadline)

    def execution_plan(self, hierarchy_threshold: Optional[int] = None,
                       engine: Optional[str] = None) -> "_BiLevelPlan":
        """Staged bi-level plan for :func:`repro.lsh.query.run_plan`.
        ``engine`` is the inert keyword of :meth:`query_batch`."""
        native_registry.check_legacy_engine(engine)
        return _BiLevelPlan(self, hierarchy_threshold,
                            native_registry.load_kernels())

    def candidate_sets(self, queries: np.ndarray) -> List[np.ndarray]:
        """Raw per-query candidate id sets (before short-list ranking):
        the plan's route, hash and gather, spill included, over queries
        validated as :meth:`query_batch` validates."""
        self._check_fitted()
        return self.execution_plan().candidate_sets(queries)

    def bilevel_codes(self, data: np.ndarray) -> np.ndarray:
        """The explicit Bi-level codes ``(group, H(v))`` for table 0.

        The single-table key of Section V-A, exposed for tests; shape is
        ``(n, 1 + code_dim)`` with the group index in column 0.
        """
        self._check_fitted()
        data = as_float_matrix(data)
        groups = self.partitioner.assign(data)
        first = self.group_indexes[0]
        code_dim = first._lattice.code_dim
        out = np.zeros((data.shape[0], 1 + code_dim), dtype=np.int64)
        out[:, 0] = groups
        for index, rows in zip(self.group_indexes, rows_by_group(
                groups, len(self.group_indexes))):
            if rows.size == 0:
                continue
            proj = index._families[0].project(data[rows])
            out[rows, 1:] = index._lattice.quantize(proj)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = "fitted" if self._data is not None else "unfitted"
        return f"BiLevelLSH({self.config!r}, {fitted})"


class _BiLevelPlan(_LSHPlan):
    """:class:`~repro.lsh.query._LSHPlan` behind a route stage that turns
    the batch into one member per group its rows reach."""

    site = "bilevel"

    def stages(self) -> Stages:
        return [("bilevel.route", self._stage_route)] + super().stages()

    def lookups_per_row(self) -> int:
        # Every group is built from the one config: same tables, probes.
        groups = self.index.group_indexes
        spill = min(self.index.config.multi_assign, len(groups))
        return spill * self._route_lookups(groups[0])

    def _stage_route(self, batch: Batch) -> None:
        index = self.index
        groups = index.group_indexes
        spill = min(index.config.multi_assign, len(groups))
        # The batch is worked in the order of each row's first group, so
        # its gather and rank walk one group's rows at a time; route j of
        # the row at position p is segment p * spill + j — a row's
        # segments are adjacent, so its candidates stay one run.
        if spill <= 1:
            by_group = rows_by_group(index.partitioner.assign(batch.queries),
                                     len(groups))
            members, start = [], 0
            for g, rows in enumerate(by_group):
                if rows.size:
                    members.append(Member(
                        groups[g], g, g * groups[g].n_tables, rows,
                        np.arange(start, start + rows.size, dtype=np.int64)))
                    start += rows.size
            # One group answering every row works them as they stand.
            order = (slice(None) if len(members) == 1
                     else np.concatenate(by_group))
        else:
            # Every row has ``spill`` distinct groups: route ``p`` of the
            # flat ``(nq, spill)`` block is row p // spill's route p % spill.
            leaves = np.stack(index.partitioner.assign_multi(batch.queries,
                                                             spill))
            order = np.argsort(leaves[:, 0], kind="stable")
            position = np.empty(batch.nq, dtype=np.int64)
            position[order] = np.arange(batch.nq, dtype=np.int64)
            members = [
                Member(groups[g], g, g * groups[g].n_tables, pairs // spill,
                       position[pairs // spill] * spill + pairs % spill)
                for g, pairs in enumerate(rows_by_group(leaves.ravel(),
                                                        len(groups)))
                if pairs.size]
        batch.spill, batch.order, batch.members = spill, order, members

    def record_obs(self, ob: "Observer", batch: Batch) -> None:
        super().record_obs(ob, batch)
        ob.record_index_size(self.index.n_points)
        for m in batch.members:
            ob.record_group(m.group, int(m.rows.size), m.n_escalated)
