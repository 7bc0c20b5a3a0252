"""Single-level LSH index: the paper's baseline family of methods.

:class:`StandardLSH` implements standard LSH (Datar et al.) plus the two
query-adaptive enhancements the paper evaluates:

- *multi-probe* (``n_probes > 0``): probe nearby buckets in each table,
  using the Lv et al. sequence for ``Z^M`` or the 240 minimal-vector
  neighbors for ``E8``;
- *hierarchical table* (``hierarchy=True``): escalate queries whose
  short-list is smaller than the batch median to coarser bucket levels
  (Morton prefix levels for ``Z^M``, scaled-lattice levels for ``E8``).

The same class indexes one RP-tree leaf group inside
:class:`repro.core.bilevel.BiLevelLSH` (with external ids), so baseline and
contribution share every line of hashing/probing/short-list code — exactly
the apples-to-apples setup of the paper's experiments.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.exec import (ExecutionContext, QueryPlan, QueryStats, Stage,
                        merge_topk_rows, run_plan)
from repro.exec.plan import validate_query_batch
from repro.lattice.base import Lattice
from repro.lattice.dm import DMLattice
from repro.lattice.e8 import E8Lattice
from repro.lattice.zm import ZMLattice
from repro.lsh.functions import PStableHashFamily
from repro.lsh.multiprobe import adaptive_probes, adaptive_probes_batch
from repro.lsh.table import LSHTable
from repro.native import registry as native_registry
from repro.native.ref import rank_topk_ref, tree_rowdot
from repro.resilience.deadline import Deadline
from repro.resilience.errors import InjectedFault
from repro.resilience.policy import ResiliencePolicy
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs
from repro.utils.spare import SpareRows
from repro.utils.validation import as_float_matrix, check_positive

if TYPE_CHECKING:  # runtime import would cycle: maintenance replays via us
    from repro.maintenance.compactor import Compactor
    from repro.maintenance.wal import WriteAheadLog

__all__ = ["QueryStats", "StandardLSH", "make_lattice", "oracle_query_batch"]


def make_lattice(kind: str, dim: int) -> Lattice:
    """Instantiate a lattice quantizer by name: ``'zm'``, ``'e8'`` or ``'dm'``."""
    kind = kind.lower()
    if kind == "zm":
        return ZMLattice(dim)
    if kind == "e8":
        return E8Lattice(dim)
    if kind == "dm":
        return DMLattice(dim)
    raise ValueError(
        f"unknown lattice kind {kind!r}; expected 'zm', 'e8' or 'dm'")


def table_codes(family: PStableHashFamily, lattice: Lattice,
                data: np.ndarray,
                chunk_size: Optional[int] = None) -> np.ndarray:
    """Lattice codes of every row of ``data`` under one hash family.

    With ``chunk_size`` the rows are projected that many at a time, so a
    memmapped corpus is never materialized whole.
    """
    if chunk_size is None:
        return lattice.quantize(family.project(data))
    n = data.shape[0]
    codes = np.empty((n, lattice.code_dim), dtype=np.int64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = np.asarray(data[start:stop], dtype=np.float64)
        codes[start:stop] = lattice.quantize(family.project(block))
    return codes


def prefixed(prefix: str, arrays: Dict[str, np.ndarray],
             ) -> Dict[str, np.ndarray]:
    """``arrays`` with ``prefix`` put before every key."""
    return {prefix + key: arr for key, arr in arrays.items()}


def sub_arrays(arrays: Dict[str, np.ndarray], prefix: str,
               ) -> Dict[str, np.ndarray]:
    """The entries of ``arrays`` under ``prefix``, with it stripped
    (the inverse of :func:`prefixed`)."""
    return {key[len(prefix):]: arr for key, arr in arrays.items()
            if key.startswith(prefix)}


# QueryStats moved to repro.exec.context with the execution-core refactor;
# re-exported here (see __all__) because the forest, the bi-level index and
# a long tail of tests import it from this module.


class StandardLSH:
    """Single-level p-stable LSH index over ``Z^M`` or ``E8``.

    Parameters
    ----------
    n_hashes:
        Code length ``M`` per table.
    n_tables:
        Number of independent tables ``L``.
    bucket_width:
        Quantization width ``W`` shared by all tables.
    lattice:
        ``'zm'`` or ``'e8'`` — the space quantizer.
    n_probes:
        Extra buckets probed per table per query (0 disables multi-probe).
    hierarchy:
        Build the hierarchical bucket structure and escalate thin queries.
    adaptive_probing:
        Query-adaptive probe budgets (Joly & Buisson style, ``Z^M`` only):
        ``n_probes`` becomes the per-query *maximum* and each query stops
        once ``probe_confidence`` of the probe-likelihood mass is covered.
    probe_confidence:
        Likelihood-mass threshold for adaptive probing, in ``(0, 1]``.
    seed:
        Seed / generator driving projection sampling.
    """

    def __init__(self, n_hashes: int = 8, n_tables: int = 10,
                 bucket_width: float = 1.0, lattice: str = "zm",
                 n_probes: int = 0, hierarchy: bool = False,
                 adaptive_probing: bool = False,
                 probe_confidence: float = 0.9,
                 seed: SeedLike = None):
        check_positive(n_hashes, "n_hashes")
        check_positive(n_tables, "n_tables")
        check_positive(bucket_width, "bucket_width")
        if n_probes < 0:
            raise ValueError(f"n_probes must be non-negative, got {n_probes}")
        if adaptive_probing and lattice.lower() != "zm":
            raise ValueError("adaptive_probing requires the 'zm' lattice")
        if not 0.0 < probe_confidence <= 1.0:
            raise ValueError(
                f"probe_confidence must be in (0, 1], got {probe_confidence}")
        self.n_hashes = int(n_hashes)
        self.n_tables = int(n_tables)
        self.bucket_width = float(bucket_width)
        self.lattice_kind = lattice
        self.n_probes = int(n_probes)
        self.use_hierarchy = bool(hierarchy)
        self.adaptive_probing = bool(adaptive_probing)
        self.probe_confidence = float(probe_confidence)
        self._seed = seed
        self._families: List[PStableHashFamily] = []
        self._tables: List[LSHTable] = []
        self._hierarchies: list = []
        self._lattice: Optional[Lattice] = None
        self._data: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None
        self._deleted: Optional[np.ndarray] = None  # bool mask over rows
        self._sq_norms: Optional[np.ndarray] = None  # cached ||x||^2 per row
        # Writer lock: serializes structural updates (insert/delete/rebuild)
        # against each other.  Batch queries stay lock-free by design — they
        # snapshot attribute references once and every published object
        # (tables list, data/ids/norms arrays) is replaced atomically; what
        # a published array covers is never rewritten (``insert`` appends
        # behind it, see ``_spare``).  The norms lock guards only the lazy
        # ||x||^2 cache, which worker threads fill on first use.
        self._update_lock = threading.RLock()
        self._norms_lock = threading.Lock()
        self._spare = SpareRows()
        # Durability plumbing (repro.maintenance): when a WAL is attached,
        # every insert/delete appends (and flushes) a record *before* the
        # mutation is applied — rule R13 wal-before-ack.  ``_applied_lsn``
        # is the LSN of the last applied record; ``_mutations`` is a
        # monotonically increasing version used by optimistic compaction.
        self._wal = None
        self._applied_lsn = 0
        self._compactor = None
        self._mutations = 0

    #: Overlay fraction beyond which insert() rebuilds the sorted tables.
    REBUILD_FRACTION = 0.2

    # ------------------------------------------------------------------ fit

    def fit(self, data: np.ndarray, ids: Optional[np.ndarray] = None) -> "StandardLSH":
        """Index ``data``; optional ``ids`` label the rows externally.

        Distances during short-list search are computed against ``data``
        rows, but the ids returned by queries are the supplied ``ids``.
        """
        return self._fit(as_float_matrix(data), ids)

    def _fit(self, data: np.ndarray, ids: Optional[np.ndarray],
             chunk_size: Optional[int] = None) -> "StandardLSH":
        """:meth:`fit` over a checked matrix, kept by reference — the
        out-of-core fit hands in a memmap and the ``chunk_size`` that
        :meth:`_rebuild_tables` projects it by."""
        n, dim = data.shape
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
        self._data = data
        self._ids = ids
        self._deleted = None
        self._sq_norms = None
        self._spare = SpareRows()
        self._lattice = make_lattice(self.lattice_kind, self.n_hashes)
        rngs = spawn_rngs(self._seed, self.n_tables)
        self._families = [
            PStableHashFamily(dim, self.n_hashes, self.bucket_width, seed=rng)
            for rng in rngs
        ]
        with self._update_lock:
            self._mutations += 1
        self._rebuild_tables(chunk_size)
        return self

    # ---------------------------------------------------------------- state

    def state(self) -> Tuple[dict, Dict[str, np.ndarray],
                             Dict[str, np.ndarray]]:
        """What this fitted index is: ``(scalars, source, derived)``.

        The one description persistence and any
        other consumer read — a field added to the index is added here
        and in :meth:`from_state`, nowhere else.  ``scalars`` are the
        JSON-able constructor keywords.  ``source`` holds the arrays
        that cannot be recomputed: ``data``, ``ids``, ``deleted`` (only
        once something was deleted) and each ``family{t}/...``.
        ``derived`` holds what :meth:`_rebuild_tables` and the first
        query would recompute from those: ``sq_norms`` (only once
        cached) and each ``table{t}/...`` sorted layout.  A live insert
        overlay is never part of the state: while one exists the table
        layouts are left out, and an adopter rebuilds them from
        ``data``, which folds the overlay in.

        Arrays are returned by reference, captured under the writer
        lock; writers publish fresh arrays — or, for ``insert``, a longer
        prefix over rows appended *behind* the captured one — and never
        rewrite what a published array covers, so the capture stays
        frozen and is the live prefix only, never spare capacity.
        """
        self._check_fitted()
        with self._update_lock:
            scalars = {"n_hashes": self.n_hashes, "n_tables": self.n_tables,
                       "bucket_width": self.bucket_width,
                       "lattice": self.lattice_kind,
                       "n_probes": self.n_probes,
                       "hierarchy": self.use_hierarchy,
                       "adaptive_probing": self.adaptive_probing,
                       "probe_confidence": self.probe_confidence}
            source = {"data": self._data, "ids": self._ids}
            if self._deleted is not None:
                source["deleted"] = self._deleted
            for t, family in enumerate(self._families):
                source.update(prefixed(f"family{t}/", family.arrays()))
            derived: Dict[str, np.ndarray] = {}
            if self._sq_norms is not None:
                derived["sq_norms"] = self._sq_norms
            if not any(table.n_extra for table in self._tables):
                for t, table in enumerate(self._tables):
                    derived.update(prefixed(f"table{t}/", table.arrays()))
        return scalars, source, derived

    @classmethod
    def from_state(cls, scalars: dict, source: Dict[str, np.ndarray],
                   derived: Optional[Dict[str, np.ndarray]] = None,
                   ) -> "StandardLSH":
        """The index :meth:`state` described, over the arrays given.

        Every array is adopted by reference — no copy, so read-only
        views stay read-only views and a memmap stays a
        memmap.  Table layouts absent from ``derived`` are rebuilt from
        ``data``; hierarchies are always rebuilt from the tables (their
        Morton keys are Python ints past 62 bits, not an array).
        """
        index = cls(**scalars)
        derived = derived or {}
        index._data = source["data"]
        index._ids = source["ids"]
        index._deleted = source.get("deleted")
        index._sq_norms = derived.get("sq_norms")
        index._lattice = make_lattice(index.lattice_kind, index.n_hashes)
        index._families = [
            PStableHashFamily.from_arrays(
                bucket_width=index.bucket_width,
                **sub_arrays(source, f"family{t}/"))
            for t in range(index.n_tables)]
        layouts = [sub_arrays(derived, f"table{t}/")
                   for t in range(index.n_tables)]
        if not all(layouts):
            index._rebuild_tables()
            return index
        index._tables = [LSHTable.from_arrays(**layout) for layout in layouts]
        if index.use_hierarchy:
            index._hierarchies = [index._build_hierarchy(table)
                                  for table in index._tables]
        return index

    # ---------------------------------------------------------- maintenance

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Log every acknowledged insert/delete through ``wal`` (R13).

        The record is appended (and flushed) *before* the mutation is
        applied, so a crash after acknowledgement can always be replayed
        from the log (:mod:`repro.maintenance.recovery`).

        The log's LSN counter is fast-forwarded past this index's
        applied LSN: attaching a fresh WAL to an index restored from a
        snapshot at LSN *n* must hand out LSNs above *n*, or replay
        would skip the new records as snapshot-covered.
        """
        wal.advance_to(self._applied_lsn)
        self._wal = wal

    def attach_compactor(self, compactor: "Compactor") -> None:
        """Fold overlays in the background instead of stalling ``insert``.

        With a :class:`repro.maintenance.compactor.Compactor` attached,
        the overlay-debt trigger in :meth:`insert` becomes an async hint
        (``request_compaction``) instead of a synchronous
        :meth:`_rebuild_tables` stall on the writer.
        """
        self._compactor = compactor

    def compact(self, max_retries: int = 4) -> bool:
        """Merge overlays and tombstones into fresh sorted tables.

        The expensive build runs *off* the writer lock against an
        immutable snapshot and is installed only if no mutation landed in
        between (optimistic concurrency on the ``_mutations`` version).
        After ``max_retries`` conflicting attempts the final build runs
        under the writer lock, which cannot conflict.  Returns ``True``
        when new tables were installed.
        """
        self._check_fitted()
        for _ in range(max(0, int(max_retries))):
            if self._compact_once():
                return True
        with self._update_lock:
            return self._compact_once()

    def _compact_once(self) -> bool:
        """One optimistic compaction attempt; False when a writer won."""
        with self._update_lock:
            version = self._mutations
            tables = list(self._tables)
            deleted = self._deleted
        new_tables = [table.compacted(drop=deleted) for table in tables]
        hierarchies: list = []
        if self.use_hierarchy:
            hierarchies = [self._build_hierarchy(t) for t in new_tables]
        with self._update_lock:
            if self._mutations != version:
                return False
            self._tables = new_tables
            self._hierarchies = hierarchies
            ob = obs.active()
            if ob is not None:
                ob.record_rebuild()
        return True

    def _rebuild_tables(self, chunk_size: Optional[int] = None) -> None:
        """(Re)build the sorted tables and hierarchies from current data.

        The one project → quantize → :class:`LSHTable` → hierarchy loop:
        ``fit``, the insert trigger, snapshot restore and the out-of-core
        fit (with a ``chunk_size``, see :func:`table_codes`) build here.

        The new tables and hierarchies are built into locals and published
        with two reference assignments, so an in-flight batch query (which
        snapshots ``self._tables`` / ``self._hierarchies`` once) sees
        either the complete old structures or the complete new ones —
        never an empty or partially refreshed list.
        """
        with self._update_lock:
            data = self._data
            local_ids = np.arange(data.shape[0], dtype=np.int64)
            tables: List[LSHTable] = []
            hierarchies: list = []
            for family in self._families:
                table = LSHTable(table_codes(family, self._lattice, data,
                                             chunk_size), ids=local_ids)
                tables.append(table)
                if self.use_hierarchy:
                    hierarchies.append(self._build_hierarchy(table))
            self._tables = tables
            self._hierarchies = hierarchies
            ob = obs.active()
            if ob is not None:
                ob.record_rebuild()

    # -------------------------------------------------------------- updates

    def insert(self, points: np.ndarray,
               ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Add points to a fitted index; returns their external ids.

        New points go into a per-table overlay; once the overlay exceeds
        ``REBUILD_FRACTION`` of the base layout, the sorted tables (and
        bucket hierarchies) are rebuilt so escalation sees the inserts.
        """
        self._check_fitted()
        points = as_float_matrix(points, name="points")
        if points.shape[1] != self._data.shape[1]:
            raise ValueError(
                f"points have dim {points.shape[1]}, index has dim "
                f"{self._data.shape[1]}")
        m = points.shape[0]
        with self._update_lock:
            if ids is None:
                base = int(self._ids.max()) + 1 if self._ids.size else 0
                ids = np.arange(base, base + m, dtype=np.int64)
            else:
                ids = np.asarray(ids, dtype=np.int64)
                if ids.shape != (m,):
                    raise ValueError(
                        f"ids must have shape ({m},), got {ids.shape}")
            # Durability: the acknowledged operation reaches the log (and
            # the OS) before any in-memory structure changes (R13).
            if self._wal is not None:
                self._applied_lsn = self._wal.append_insert(points, ids)
            self._mutations += 1
            # Rows go into spare capacity behind the published arrays and
            # each longer prefix is published with one assignment.  Order:
            # norms, ids and mask before the data — a reader sizes itself
            # by ``_data`` and must find every per-row array at least as
            # long — and all of them *before* the table overlays learn the
            # new local ids: a concurrent query that gathers a fresh id is
            # then guaranteed to find its row.
            start = self._data.shape[0]
            with self._norms_lock:
                if self._sq_norms is not None:
                    self._sq_norms = self._spare.append(
                        "sq_norms", self._sq_norms,
                        tree_rowdot(points, points))
            self._ids = self._spare.append("ids", self._ids, ids)
            if self._deleted is not None:
                self._deleted = self._spare.append(
                    "deleted", self._deleted, np.zeros(m, dtype=bool))
            self._data = self._spare.append("data", self._data, points)
            local = np.arange(start, start + m, dtype=np.int64)
            for family, table in zip(self._families, self._tables):
                codes = self._lattice.quantize(family.project(points))
                table.add(codes, local)
            overlay = max((table.n_extra for table in self._tables), default=0)
            if overlay > self.REBUILD_FRACTION * max(start, 1):
                # With a compactor attached the debt trigger is a hint —
                # the merge happens off this writer lock, in background.
                if self._compactor is not None:
                    self._compactor.request_compaction(self)
                else:
                    self._rebuild_tables()
        return ids

    def delete(self, ids: np.ndarray) -> int:
        """Remove points by external id; returns how many were found.

        Deletion is logical (tombstones filtered from every candidate
        set); unknown ids are ignored so callers can broadcast deletes.
        """
        self._check_fitted()
        ids = np.asarray(ids, dtype=np.int64).ravel()
        with self._update_lock:
            mask = np.isin(self._ids, ids)
            found = int(mask.sum())
            if found:
                if self._wal is not None:
                    self._applied_lsn = self._wal.append_delete(ids)
                self._mutations += 1
                # Grow the mask to the current row count first: a prior
                # delete may have sized it to an older, shorter snapshot.
                deleted = np.zeros(self._ids.shape[0], dtype=bool)
                if self._deleted is not None:
                    deleted[:self._deleted.shape[0]] = self._deleted
                deleted |= mask
                # Atomic swap: in-flight queries keep filtering against the
                # previous mask instead of observing a half-written one.
                self._deleted = deleted
        return found

    def _build_hierarchy(self, table: LSHTable):
        if self.lattice_kind.lower() == "zm":
            from repro.hierarchy.morton import MortonHierarchy

            return MortonHierarchy(table)
        from repro.hierarchy.e8_hierarchy import E8Hierarchy

        return E8Hierarchy(table, self._lattice)

    # ---------------------------------------------------------------- query

    @property
    def n_points(self) -> int:
        self._check_fitted()
        return self._data.shape[0]

    @property
    def n_live(self) -> int:
        """Rows not tombstoned by :meth:`delete`."""
        n, deleted = self.n_points, self._deleted
        return n if deleted is None else n - int(np.count_nonzero(deleted))

    def _check_fitted(self) -> None:
        if self._data is None:
            raise RuntimeError("index is not fitted; call fit(data) first")

    def _point_sq_norms(self) -> Optional[np.ndarray]:
        """Cached ``||x||^2`` per data row, possibly of more rows than
        ``_data`` had when the caller read it (``None`` for memmapped data).

        Computed lazily, so an index adopted by :meth:`from_state`
        without them stays valid; memmapped datasets skip the
        cache because a full-norm pass would fault in every row, defeating
        the out-of-core promise of touching only candidate rows.
        """
        data = self._data
        if isinstance(data, np.memmap):
            return None
        with self._norms_lock:
            norms = self._sq_norms
            # Rows are append-only and ``insert`` extends the cache before
            # it publishes them, so a cache longer than this snapshot of
            # the data is the cache of a later one: valid row for row.
            if norms is None or norms.shape[0] < data.shape[0]:
                # Same halving-tree summation as the rank dot products:
                # for an indexed query point x, tree(x,x) - 2*tree(x,q)
                # + tree(q,q) cancels to exactly 0.0 only when all three
                # terms share one summation order.
                norms = tree_rowdot(data, data)
                self._sq_norms = norms
        return norms

    def query(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """KNN for a single query vector; returns ``(ids, distances)``."""
        ids, dists, _ = self.query_batch(np.atleast_2d(query), k)
        return ids[0], dists[0]

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: Union[str, int] = "median",
                    engine: Optional[str] = None,
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    policy: Optional[ResiliencePolicy] = None,
                    max_batch_rows: Optional[int] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN for a batch of queries.

        Feeds :meth:`execution_plan` to :func:`repro.exec.run_plan`;
        validation, deadline construction, policy resolution, stage
        timing and batch sharding all live in the execution core.

        The whole batch runs array-at-a-time through the kernel table
        :func:`repro.native.load_kernels` resolved (compiled when a C
        compiler is present, numpy otherwise — bit-identical answers).
        Exact distance ties break by ascending id.

        Parameters
        ----------
        queries:
            Array ``(q, D)``.
        k:
            Neighborhood size.  Queries with fewer than ``k`` candidates
            pad the result with id ``-1`` / distance ``inf``.
        hierarchy_threshold:
            Only with ``hierarchy=True``.  ``'median'`` reproduces the
            paper: compute the median short-list size over the batch, then
            escalate the queries below it.  An integer sets a fixed
            threshold.  Note the median is computed per executed shard —
            pass an integer threshold for shard-invariant results under
            ``max_batch_rows``.
        engine:
            Inert — name-checked and ignored
            (:func:`repro.native.registry.check_legacy_engine`); scheduled
            for deletion by the next benchmark PR.
        deadline_ms / deadline:
            Optional wall-clock budget.  The budget is checked between
            escalation rounds; queries whose escalation the budget cut
            short return their best-effort base results with
            ``stats.exhausted_budget`` set.
        policy:
            Optional :class:`~repro.resilience.policy.ResiliencePolicy`
            supervising the per-table gather loop: a failing table is
            retried, then dropped, with every affected query flagged in
            ``stats.degraded`` instead of crashing the batch.  When a
            policy is active, query rows containing NaN/Inf also get
            flagged-degraded empty results instead of raising.  Falls
            back to the process-wide policy installed with
            :func:`repro.resilience.set_policy`.
        max_batch_rows:
            Optional bound on rows executed per shard: large batches are
            split into contiguous shards run through the same plan, with
            bit-identical results (given an integer
            ``hierarchy_threshold``) and bounded peak scratch memory.

        Returns
        -------
        ids, distances, stats:
            ``ids``/``distances`` of shape ``(q, k)``; :class:`QueryStats`
            with per-query candidate counts (for selectivity), escalation
            flags, and — when resilience features engaged — degraded /
            budget-exhausted masks.
        """
        self._check_fitted()
        return run_plan(self.execution_plan(hierarchy_threshold, engine),
                        queries, k, deadline_ms=deadline_ms,
                        deadline=deadline, policy=policy,
                        max_batch_rows=max_batch_rows)

    def execution_plan(self,
                       hierarchy_threshold: Union[str, int] = "median",
                       engine: Optional[str] = None) -> QueryPlan:
        """Staged :class:`~repro.exec.plan.QueryPlan` for this index.

        :meth:`query_batch` feeds it to :func:`repro.exec.run_plan`;
        :class:`~repro.core.bilevel.BiLevelLSH` feeds per-group plans to
        the gate-free :func:`repro.exec.run_validated` so inner group
        sub-batches skip re-validation and re-reading the obs / policy /
        fault gates the outer batch already resolved.  ``engine`` is the
        inert keyword of :meth:`query_batch`.
        """
        native_registry.check_legacy_engine(engine)
        return _LSHPlan(self, hierarchy_threshold,
                        native_registry.load_kernels())

    def _resolve_threshold(self, counts: np.ndarray, k: int,
                           hierarchy_threshold: Union[str, int]) -> int:
        if hierarchy_threshold == "median":
            threshold = int(np.median(counts))
        else:
            threshold = int(hierarchy_threshold)
        return max(threshold, k)

    #: Data rows scanned per brute-force block (bounds the distance
    #: temporary to ~block * nq floats).
    BRUTE_FORCE_BLOCK = 4096

    def brute_force_batch(self, queries: np.ndarray, k: int,
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact KNN over this index's live points (the resilience fallback).

        Scans every non-deleted row in blocks, so it needs no tables, no
        hierarchies and no hash families — only ``_data``/``_ids`` — which
        is what makes it a usable fallback when the probabilistic
        structures are the thing that failed.  Returns ``(ids, dists)`` of
        shape ``(nq, k)``, padded with ``-1`` / ``inf`` when fewer than
        ``k`` live points exist, with exact ties broken by ascending id
        (the query plan's convention).
        """
        self._check_fitted()
        queries, _, k = validate_query_batch(
            queries, k, self._data.shape[1], allow_nonfinite=False)
        nq = queries.shape[0]
        ids_out = np.full((nq, k), -1, dtype=np.int64)
        dists_out = np.full((nq, k), np.inf, dtype=np.float64)
        data = self._data
        ext_ids = self._ids
        deleted = self._deleted
        keep = (np.nonzero(~deleted)[0] if deleted is not None
                else np.arange(data.shape[0], dtype=np.int64))
        if keep.size == 0:
            return ids_out, dists_out
        q_sq = np.einsum("ij,ij->i", queries, queries)
        for s in range(0, keep.size, self.BRUTE_FORCE_BLOCK):
            rows = keep[s:s + self.BRUTE_FORCE_BLOCK]
            chunk = data[rows]
            chunk_sq = np.einsum("ij,ij->i", chunk, chunk)
            d2 = q_sq[:, None] - 2.0 * (queries @ chunk.T) + chunk_sq[None, :]
            np.maximum(d2, 0.0, out=d2)
            merge_topk_rows(ids_out, dists_out, slice(None),
                            np.broadcast_to(ext_ids[rows], d2.shape),
                            np.sqrt(d2), k)
        return ids_out, dists_out

    def candidate_sets(self, queries: np.ndarray) -> List[np.ndarray]:
        """Raw candidate id sets (before short-list ranking), per query.

        Exposed for the GPU short-list benchmarks, which consume candidate
        sets directly.
        """
        self._check_fitted()
        plan = self.execution_plan()
        ctx = ExecutionContext.for_batch(
            as_float_matrix(queries, name="queries"), 1)
        plan._stage_hash(ctx)
        plan._stage_gather(ctx)
        bounds = np.cumsum(ctx.n_candidates)[:-1]
        return [self._ids[c] for c in np.split(ctx.scratch["cand"], bounds)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StandardLSH(M={self.n_hashes}, L={self.n_tables}, "
                f"W={self.bucket_width:g}, lattice={self.lattice_kind!r}, "
                f"n_probes={self.n_probes}, hierarchy={self.use_hierarchy})")




# --------------------------------------------------------------------------
# The execution plan (repro.exec).  The stage bodies need private access to
# the index internals, so the plan lives here rather than in repro/exec.
# --------------------------------------------------------------------------


#: Escalated rows walked per ``candidates_batch`` call — the granularity
#: of the deadline check in ``_stage_escalate``.
ESCALATE_CHUNK = 256


class _LSHPlan(QueryPlan):
    """The staged LSH engine: hash → gather → [escalate] → rank.

    Every hot inner loop (lattice decode, ``Z^M`` probe sequences, bucket
    and hierarchy node lookup, candidate dedup, fused rank) is a call on
    ``kernels``, the table :func:`repro.native.load_kernels` resolved —
    compiled or numpy, bit-identical by the parity matrix in
    ``tests/test_native.py``.  A memmapped corpus is ranked by the numpy
    spec, the one fork on the input (see ``_stage_rank``).
    """

    site = "lsh"

    def __init__(self, index: StandardLSH,
                 hierarchy_threshold: Union[str, int],
                 kernels: object) -> None:
        self.index = index
        self.hierarchy_threshold = hierarchy_threshold
        self.kernels = kernels

    def validate(self, queries: object, k: int, *, allow_nonfinite: bool,
                 ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        return validate_query_batch(queries, k, self.index._data.shape[1],
                                    allow_nonfinite)

    def stages(self) -> Tuple[Stage, ...]:
        stages = [Stage("lsh.hash", self._stage_hash),
                  Stage("lsh.gather", self._stage_gather)]
        if self.index.use_hierarchy:
            stages.append(Stage("lsh.escalate", self._stage_escalate))
        stages.append(Stage("lsh.rank", self._stage_rank))
        return tuple(stages)

    def _stage_hash(self, ctx: ExecutionContext) -> None:
        index, kernels = self.index, self.kernels
        if ctx.ob is not None:
            # Each kernel call of this batch lands in the
            # ``repro_native_kernel_seconds`` histogram and the batch's
            # ``kernel/*`` trace spans; with observability off the stages
            # hold the raw table — zero indirection on the gated path.
            kernels = ctx.ob.timed_kernels(kernels, ctx.timer.stages)
        ctx.scratch["kernels"] = kernels
        projections = [family.project(ctx.queries)
                       for family in index._families]
        ctx.scratch["projections"] = projections
        ctx.scratch["codes"] = [index._lattice.quantize_with(proj, kernels)
                                for proj in projections]

    def _probe_rows(self, ctx: ExecutionContext, t: int,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """All codes to look up in table ``t``: self codes plus probes.

        Returns ``(codes_all, query_of_row)`` with one row per lookup: the
        self codes, then each query's probes in sequence order.  The whole
        sub-batch's sequences come from one call —
        the ``zm_probe_codes`` kernel for ``Z^M``,
        :meth:`E8Lattice.probe_codes` on the block for ``E8`` — except
        the per-query adaptive and ``D_M`` forms.
        """
        index = self.index
        y, own = ctx.scratch["projections"][t], ctx.scratch["codes"][t]
        q = own.shape[0]
        rows = np.arange(q, dtype=np.int64)
        lattice = index._lattice
        if index.n_probes <= 0:
            return own, rows
        if isinstance(lattice, ZMLattice) and not index.adaptive_probing:
            probes, counts = ctx.scratch["kernels"].zm_probe_codes(
                y, own, index.n_probes)
        else:
            if index.adaptive_probing:
                parts = adaptive_probes_batch(
                    y, own, index.n_probes,
                    confidence=index.probe_confidence)
            elif isinstance(lattice, E8Lattice):
                parts = lattice.probe_codes(y, own, index.n_probes)
            else:
                parts = [lattice.probe_codes(y[qi], own[qi], index.n_probes)
                         for qi in range(q)]
            counts = np.array([part.shape[0] for part in parts],
                              dtype=np.int64)
            probes = np.concatenate(parts, axis=0)
        return (np.concatenate([own, probes], axis=0),
                np.concatenate([rows, np.repeat(rows, counts)]))

    def _table_lookups(self, ctx: ExecutionContext, t: int, table: LSHTable,
                       ) -> Tuple[tuple, np.ndarray, np.ndarray]:
        """One table's entry for ``bucket_union`` (the supervised unit):
        ``(layouts, codes_all, row_q)``.

        This is the body the resilience policy retries/drops per table; the
        ``lsh.gather`` fault site sits at its top.  A corruption-kind hit
        is escalated to :class:`InjectedFault` here because a gather has no
        integrity check that could catch silently corrupted candidates
        (unlike ``persistence.load``, whose checksums do).
        """
        plan = ctx.fault_plan
        if plan is not None and plan.check("lsh.gather", table=t):
            raise InjectedFault("lsh.gather", f"table={t} corruption")
        return (table.layouts(),) + self._probe_rows(ctx, t)

    def _stage_gather(self, ctx: ExecutionContext) -> None:
        """Candidate gathering for the whole batch, query-major.

        Every table contributes its sorted layouts and the rows to look
        up in them — each query's self code and probe codes; one
        ``kernels.bucket_union`` call then searches all of them and unions
        each query's bucket intervals, leaving ``scratch["cand"]`` /
        ``scratch["qidx"]`` sorted by ``(query, id)`` with tombstones
        dropped: segment ``i`` is query ``i``'s candidate set with ids
        ascending — the order :func:`numpy.unique` gives the scalar
        oracle.

        Under a :class:`ResiliencePolicy` each table's entry is built as
        a supervised unit: a table that still fails after retries is
        dropped and the union runs over the rest.  A dropped table removes
        candidates from *every* query in the shard, so all of them are
        flagged degraded rather than silently returning possibly-weaker
        answers.  Without a policy, failures propagate.
        """
        index, ob, pol, nq = self.index, ctx.ob, ctx.policy, ctx.nq
        kept: List[int] = []
        lookups: List[tuple] = []
        # One snapshot of the published list: a concurrent rebuild swaps
        # in a new list, it never edits this one (see _rebuild_tables).
        tables = index._tables
        for t, table in enumerate(tables):
            if pol is None:
                entry = self._table_lookups(ctx, t, table)
            else:
                entry, action, records = pol.run(
                    "lsh.gather", f"table={t}",
                    lambda t=t, table=table: self._table_lookups(ctx, t,
                                                                 table))
                ctx.failures.extend(records)
                if action == "gave_up" or entry is None:
                    continue
            kept.append(t)
            lookups.append(entry)
        if len(kept) < len(tables):
            ctx.ensure_degraded()[:] = True
            if ob is not None:
                ob.record_degraded("table_dropped", nq)
        # The row count is read after every layout above: an insert
        # publishes its rows before any table learns their ids, so it
        # bounds every id the kernel will meet.
        cand, qidx, counts, misses = ctx.scratch["kernels"].bucket_union(
            lookups, nq, index._data.shape[0], deleted=index._deleted)
        probes = None
        if ob is not None:
            # Committed only for the entries the union used — a timed-out,
            # abandoned attempt never reaches the shared counters.
            probes = np.zeros(nq, dtype=np.int64)
            for t, (_, codes_all, row_q), n_misses in zip(kept, lookups,
                                                          misses):
                n_lookups = int(codes_all.shape[0])
                ob.record_table_lookup(t, n_lookups=n_lookups,
                                       n_misses=int(n_misses),
                                       n_probes=n_lookups - nq)
                probes += np.bincount(row_q, minlength=nq)[:nq] - 1
        ctx.scratch["cand"] = cand
        ctx.scratch["qidx"] = qidx
        ctx.scratch["probes"] = probes
        ctx.n_candidates[:] = counts

    def _stage_escalate(self, ctx: ExecutionContext) -> None:
        # Every table's hierarchy walks a chunk of escalated rows in one
        # batched call (each row still takes its own path up the bucket
        # tree); the extra ids are appended to the flattened layout and
        # folded in with one more global sort + dedup.  With a deadline,
        # the budget is re-checked before each chunk: rows of chunks not
        # started keep their base short-list and are flagged
        # `exhausted_budget` (they were *not* escalated).
        index = self.index
        hierarchies = index._hierarchies  # one snapshot, as for _tables
        threshold = index._resolve_threshold(ctx.n_candidates, ctx.k,
                                             self.hierarchy_threshold)
        ctx.escalated[:] = ctx.n_candidates < threshold
        esc_rows = np.nonzero(ctx.escalated)[0]
        if not esc_rows.size:
            return
        codes = ctx.scratch["codes"]
        kernels = ctx.scratch["kernels"]
        extra_ids = [ctx.scratch["cand"]]
        extra_q = [ctx.scratch["qidx"]]
        done = esc_rows.size
        for s in range(0, esc_rows.size, ESCALATE_CHUNK):
            if ctx.deadline is not None and ctx.deadline.expired():
                done = s
                break
            chunk = esc_rows[s:s + ESCALATE_CHUNK]
            for t, hierarchy in enumerate(hierarchies):
                ids_t, counts_t = hierarchy.candidates_batch(
                    codes[t][chunk], threshold, kernels)
                extra_ids.append(ids_t)
                extra_q.append(np.repeat(chunk, counts_t))
        if done < esc_rows.size:
            skipped = esc_rows[done:]
            ctx.escalated[skipped] = False
            ctx.ensure_exhausted()[skipped] = True
            if ctx.ob is not None:
                ctx.ob.record_deadline_exhausted("lsh.escalate",
                                                 int(skipped.size))
        cand, _, counts = kernels.dedup_candidates(
            np.concatenate(extra_ids), np.concatenate(extra_q), ctx.nq,
            deleted=index._deleted)
        ctx.scratch["cand"] = cand
        ctx.n_candidates[:] = counts

    def _stage_rank(self, ctx: ExecutionContext) -> None:
        # One fused gather+distance+top-k call over all short-lists.
        # ``rank_topk`` — and every cached norm — sums each dot product in
        # the halving-tree order of :func:`repro.native.ref.tree_rowdot`,
        # which is what makes the kernel tables bit-identical and an
        # indexed query's self-distance exactly ``0.0``.
        index, cand = self.index, ctx.scratch["cand"]
        if cand.size == 0:
            return
        # The fork reads the data, not the kernels: a memmapped corpus is
        # always ranked by the numpy spec, which gathers candidate rows
        # before touching them — the only pages read off disk.
        rank = (rank_topk_ref if isinstance(index._data, np.memmap)
                else ctx.scratch["kernels"].rank_topk)
        sel, dists = rank(index._data, index._point_sq_norms(), ctx.queries,
                          tree_rowdot(ctx.queries, ctx.queries), cand,
                          ctx.n_candidates, ctx.k)
        hit = sel >= 0
        ctx.ids_out[hit] = index._ids[sel[hit]]
        ctx.dists_out[hit] = dists[hit]

    def record_obs(self, ctx: ExecutionContext) -> None:
        ctx.ob.record_batch(self.site, ctx.n_candidates, ctx.escalated,
                            ctx.timer.stages, probes=ctx.scratch["probes"])
        ctx.ob.record_native_batch(self.kernels.backend)


# --------------------------------------------------------------------------
# The scalar oracle: the seed's per-query path, the reference the parity
# tests hold the plan to.  It shares no gather, dedup or distance code with
# the plan (one bucket lookup per code, ``numpy.unique``, direct
# ``||x - q||``) and is not reachable from any query front-end.
# --------------------------------------------------------------------------


def _filter_deleted(index: StandardLSH, local_ids: np.ndarray) -> np.ndarray:
    deleted = index._deleted
    if deleted is None or local_ids.size == 0:
        return local_ids
    # Ids at/above the mask length were inserted after the snapshot was
    # taken and therefore cannot be tombstoned.
    drop = np.zeros(local_ids.size, dtype=bool)
    in_mask = local_ids < deleted.shape[0]
    drop[in_mask] = deleted[local_ids[in_mask]]
    return local_ids[~drop]


def _gather_candidates(index: StandardLSH, projections: List[np.ndarray],
                       codes: List[np.ndarray], qi: int) -> np.ndarray:
    """Union of bucket hits for query ``qi`` across all tables (local ids)."""
    parts = []
    for t in range(index.n_tables):
        code = codes[t][qi]
        parts.append(index._tables[t].lookup(code))
        if index.n_probes > 0:
            if index.adaptive_probing:
                probes = adaptive_probes(projections[t][qi], code,
                                         index.n_probes,
                                         confidence=index.probe_confidence)
            else:
                probes = index._lattice.probe_codes(projections[t][qi],
                                                    code, index.n_probes)
            for probe in probes:
                parts.append(index._tables[t].lookup(probe))
    merged = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    merged = np.unique(merged) if merged.size else merged
    return _filter_deleted(index, merged)


def _escalate(index: StandardLSH, codes: List[np.ndarray], qi: int,
              min_count: int, base: np.ndarray) -> np.ndarray:
    """Grow query ``qi``'s candidate set via the bucket hierarchies."""
    parts = [base]
    for t in range(index.n_tables):
        extra = index._hierarchies[t].candidates(codes[t][qi], min_count)
        if extra.size:
            parts.append(extra)
    merged = np.concatenate(parts)
    merged = np.unique(merged) if merged.size else merged
    return _filter_deleted(index, merged)


def oracle_query_batch(index: StandardLSH, queries: np.ndarray, k: int,
                       hierarchy_threshold: Union[str, int] = "median",
                       ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """:meth:`StandardLSH.query_batch` by the per-query reference path.

    Same ids, candidate counts and escalation flags as the plan; the
    distances agree to the last ulp or so (direct ``||x - q||`` here,
    ``||x||^2 - 2 x.q + ||q||^2`` there) and exact ties may order
    differently.
    """
    index._check_fitted()
    queries, _, k = validate_query_batch(
        queries, k, index._data.shape[1], allow_nonfinite=False)
    nq = queries.shape[0]
    ids_out = np.full((nq, k), -1, dtype=np.int64)
    dists_out = np.full((nq, k), np.inf, dtype=np.float64)
    escalated = np.zeros(nq, dtype=bool)
    projections = [family.project(queries) for family in index._families]
    codes = [index._lattice.quantize(proj) for proj in projections]
    candidate_sets = [_gather_candidates(index, projections, codes, qi)
                      for qi in range(nq)]
    if index.use_hierarchy:
        sizes = np.array([c.size for c in candidate_sets], dtype=np.int64)
        threshold = index._resolve_threshold(sizes, k, hierarchy_threshold)
        for qi in range(nq):
            if candidate_sets[qi].size < threshold:
                candidate_sets[qi] = _escalate(index, codes, qi, threshold,
                                               candidate_sets[qi])
                escalated[qi] = True
    for qi, cand in enumerate(candidate_sets):
        if cand.size == 0:
            continue
        diffs = index._data[cand] - queries[qi]
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        take = min(k, cand.size)
        top = np.argpartition(dists, take - 1)[:take]
        top = top[np.argsort(dists[top], kind="stable")]
        ids_out[qi, :take] = index._ids[cand[top]]
        dists_out[qi, :take] = dists[top]
    n_candidates = np.array([c.size for c in candidate_sets], dtype=np.int64)
    return ids_out, dists_out, QueryStats(n_candidates, escalated)
