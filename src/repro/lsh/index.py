"""Single-level LSH index: the paper's baseline family of methods.

:class:`StandardLSH` implements standard LSH (Datar et al.) plus the two
query-adaptive enhancements the paper evaluates:

- *multi-probe* (``n_probes > 0``): probe nearby buckets in each table,
  using the Lv et al. sequence for ``Z^M`` or the 240 minimal-vector
  neighbors for ``E8``;
- *hierarchical table* (``hierarchy=True``): escalate queries whose
  short-list is smaller than the fitted median to coarser bucket levels
  (Morton prefix levels for ``Z^M``, scaled-lattice levels for ``E8``).

The same class indexes one RP-tree leaf group of
:class:`repro.core.bilevel.BiLevelLSH` (its rows of the shared row store),
and one plan runs both, so baseline and contribution share every line of
hashing/probing/short-list code — exactly the apples-to-apples setup of
the paper's experiments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.exec import (ExecutionContext, QueryPlan, QueryStats, Stage,
                        run_plan)
from repro.exec.plan import check_hierarchy_threshold, validate_query_batch
from repro.lattice.base import Lattice
from repro.lattice.e8 import E8Lattice
from repro.lattice.zm import ZMLattice
from repro.lsh.functions import PStableHashFamily, StackedProjection
from repro.lsh.table import LSHTable, TableLayouts
from repro.native import registry as native_registry
from repro.native.ref import (SpanSet, rank_topk_ref, spans_union_ref,
                              tree_rowdot)
from repro.resilience.deadline import Deadline
from repro.resilience.faults import faults_active
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.spare import SpareRows
from repro.utils.validation import as_float_matrix, check_positive

if TYPE_CHECKING:  # runtime import would cycle: maintenance replays via us
    from repro.maintenance.wal import WriteAheadLog

__all__ = ["QueryStats", "RowStore", "StandardLSH", "drop_retired_options",
           "make_lattice", "oracle_query_batch"]


def make_lattice(kind: str, dim: int) -> Lattice:
    """Instantiate a lattice quantizer by name: ``'zm'`` or ``'e8'``."""
    kind = kind.lower()
    if kind == "zm":
        return ZMLattice(dim)
    if kind == "e8":
        return E8Lattice(dim)
    raise ValueError(f"unknown lattice kind {kind!r}; expected 'zm' or 'e8'")


def drop_retired_options(options: dict) -> dict:
    """An archive's index keywords (a :meth:`StandardLSH.state`'s scalars,
    a Bi-level config) without the options the index no longer has:
    ``D_M`` quantization and adaptive probe budgets, which the paper
    does not run.  A key that left answers as they are
    (``adaptive_probing: false``, any ``probe_confidence``) is dropped;
    one that shaped them is refused — serving it another way would
    change answers silently."""
    if str(options.get("lattice", "")).lower() == "dm":
        raise ValueError("lattice 'dm' is retired: an index quantizes with "
                         "'zm' or 'e8'; rebuild it from its data")
    if options.get("adaptive_probing"):
        raise ValueError("adaptive_probing is retired: an index probes a "
                         "fixed n_probes per table; rebuild it from its data")
    return {key: value for key, value in options.items()
            if key not in ("adaptive_probing", "probe_confidence")}


def table_codes(family: PStableHashFamily, lattice: Lattice,
                data: np.ndarray,
                chunk_size: Optional[int] = None) -> np.ndarray:
    """Lattice codes of every row of ``data`` under one hash family.  E8
    decodes through the loaded kernel table, as a query does; a Z^M fit
    resolves none, so a missing compiler still warns at the first query.

    With ``chunk_size`` the rows are projected that many at a time, so a
    memmapped corpus is never materialized whole.
    """
    kernels = (native_registry.load_kernels() if isinstance(lattice, E8Lattice)
               else native_registry.NUMPY_KERNELS)
    if chunk_size is None:
        return lattice.quantize_with(family.project(data), kernels)
    n = data.shape[0]
    codes = np.empty((n, lattice.code_dim), dtype=np.int64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = np.asarray(data[start:stop], dtype=np.float64)
        codes[start:stop] = lattice.quantize_with(family.project(block), kernels)
    return codes


def _next_free_id(ids: np.ndarray) -> int:
    """One past the largest of ``ids`` (``0`` when there are none)."""
    return int(ids.max()) + 1 if ids.size else 0


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


class RowStore:
    """Points, ids (``arange`` by default), tombstones and cached norms.

    Rows are append-only: :meth:`add_rows` writes into spare capacity
    behind the published arrays (:class:`~repro.utils.spare.SpareRows`)
    and publishes each longer prefix with one assignment, and
    :meth:`tombstone` swaps in a fresh mask, so a reader that took an
    array keeps a frozen snapshot.  Writers run under their owner's
    writer lock and take the store's lock, which also guards the lazy
    ``||x||^2`` cache query threads fill; readers are lock-free.
    """

    def __init__(self, data: np.ndarray, ids: Optional[np.ndarray] = None,
                 deleted: Optional[np.ndarray] = None,
                 sq_norms: Optional[np.ndarray] = None) -> None:
        n = data.shape[0]
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError(f"ids must have shape ({n},), got {ids.shape}")
        self.data = data
        self.ids = ids
        self.deleted = deleted  # bool mask over rows, None until a delete
        self.sq_norms = sq_norms
        self._spare = SpareRows()
        self._lock = threading.Lock()

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def add_rows(self, points: np.ndarray, ids: np.ndarray) -> None:
        """Add rows behind the published ones: norms, ids and mask before
        the data — a reader sizes itself by ``data`` and must find every
        per-row array at least as long."""
        with self._lock:
            if self.sq_norms is not None:
                self.sq_norms = self._spare.append(
                    "sq_norms", self.sq_norms, tree_rowdot(points, points))
            self.ids = self._spare.append("ids", self.ids, ids)
            if self.deleted is not None:
                self.deleted = self._spare.append(
                    "deleted", self.deleted,
                    np.zeros(points.shape[0], dtype=bool))
            self.data = self._spare.append("data", self.data, points)

    def tombstone(self, mask: np.ndarray) -> None:
        """Mark the rows ``mask`` flags deleted, in a fresh mask grown to
        the current row count (a prior one may cover an older, shorter
        snapshot): in-flight queries keep filtering against the old one."""
        with self._lock:
            deleted = np.zeros(self.ids.shape[0], dtype=bool)
            if self.deleted is not None:
                deleted[:self.deleted.shape[0]] = self.deleted
            deleted[:mask.shape[0]] |= mask
            self.deleted = deleted

    def point_sq_norms(self) -> Optional[np.ndarray]:
        """Cached ``||x||^2`` per row, possibly of more rows than ``data``
        had when the caller read it (``None`` for memmapped data).

        Computed lazily, so a store adopted without them stays valid;
        memmapped data skips the cache because a full-norm pass would
        fault in every row, defeating the out-of-core promise of
        touching only candidate rows.
        """
        data = self.data
        if isinstance(data, np.memmap):
            return None
        with self._lock:
            norms = self.sq_norms
            # Rows are append-only and ``add_rows`` extends the cache before
            # it publishes them, so a cache longer than this snapshot of
            # the data is the cache of a later one: valid row for row.
            if norms is None or norms.shape[0] < data.shape[0]:
                # Same halving-tree summation as the rank dot products:
                # for an indexed query point x, tree(x,x) - 2*tree(x,q)
                # + tree(q,q) cancels to exactly 0.0 only when all three
                # terms share one summation order.
                norms = tree_rowdot(data, data)
                self.sq_norms = norms
        return norms


# QueryStats moved to repro.exec.context with the execution-core refactor;
# re-exported here (see __all__) because the bi-level index and a long
# tail of tests import it from this module.


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
    seed:
        Seed / generator driving projection sampling.
    """

    def __init__(self, n_hashes: int = 8, n_tables: int = 10,
                 bucket_width: float = 1.0, lattice: str = "zm",
                 n_probes: int = 0, hierarchy: bool = False,
                 seed: SeedLike = None):
        check_positive(n_hashes, "n_hashes")
        check_positive(n_tables, "n_tables")
        check_positive(bucket_width, "bucket_width")
        if n_probes < 0:
            raise ValueError(f"n_probes must be non-negative, got {n_probes}")
        self.n_hashes = int(n_hashes)
        self.n_tables = int(n_tables)
        self.bucket_width = float(bucket_width)
        self.lattice_kind = lattice
        self.n_probes = int(n_probes)
        self.use_hierarchy = bool(hierarchy)
        self._seed = seed
        self._families: List[PStableHashFamily] = []
        # Derived from ``_families`` (by the first ``_hash``) and from each
        # published table list (see ``_publish``): what a query hashes
        # with and searches, one call each per index.
        self._stacked: Optional[StackedProjection] = None
        self._tables: List[LSHTable] = []
        self._layouts: Optional[TableLayouts] = None
        self._hierarchies: list = []
        self._escalation_threshold: Optional[int] = None
        self._lattice: Optional[Lattice] = None
        # The rows this index ranks and, for a group of a Bi-level index,
        # which of its owner's rows it indexes (``None``: all of them).
        self._store: Optional[RowStore] = None
        self._rows: Optional[np.ndarray] = None
        self._next_id = 0  # max(_ids) + 1: the first id insert(ids=None) gives
        # Writer lock: serializes structural updates (insert/delete/rebuild)
        # against each other.  Batch queries stay lock-free by design — they
        # snapshot attribute references once and every published object
        # (tables list, the store's arrays) is replaced atomically; what a
        # published array covers is never rewritten (``RowStore.add_rows``
        # writes behind it).
        self._update_lock = threading.RLock()
        # Durability plumbing (repro.maintenance): when a WAL is attached,
        # every insert/delete appends (and flushes) a record *before* the
        # mutation is applied — rule R13 wal-before-ack.  ``_applied_lsn``
        # is the LSN of the last applied record.
        self._wal = None
        self._applied_lsn = 0

    #: Overlay fraction beyond which insert() folds it (:meth:`compact`).
    REBUILD_FRACTION = 0.2

    #: Most indexed rows :attr:`escalation_threshold` is fitted over.
    THRESHOLD_SAMPLE = 256

    # ------------------------------------------------------------------ fit

    def fit(self, data: np.ndarray, ids: Optional[np.ndarray] = None) -> "StandardLSH":
        """Index ``data``; optional ``ids`` label the rows externally.

        Distances during short-list search are computed against ``data``
        rows, but the ids returned by queries are the supplied ``ids``.
        """
        return self._fit(RowStore(as_float_matrix(data), ids))

    def _fit(self, store: RowStore, rows: Optional[np.ndarray] = None,
             chunk_size: Optional[int] = None) -> "StandardLSH":
        """:meth:`fit` over ``store``, kept by reference — or, for a group
        of a Bi-level index, over its ``rows`` of the owner's store.  The
        out-of-core fit hands in a memmap and the ``chunk_size`` that
        :meth:`_rebuild_tables` projects it by."""
        self._store = store
        self._rows = rows
        self._next_id = _next_free_id(store.ids)
        self._lattice = make_lattice(self.lattice_kind, self.n_hashes)
        rngs = spawn_rngs(self._seed, self.n_tables)
        self._set_families([
            PStableHashFamily(store.data.shape[1], self.n_hashes,
                              self.bucket_width, seed=rng)
            for rng in rngs])
        self._rebuild_tables(chunk_size)
        return self

    # The store's arrays, read through: a group of a Bi-level index reads
    # its owner's, whole (``_ids[row]`` is a global row's id).
    @property
    def _data(self) -> Optional[np.ndarray]:
        return None if self._store is None else self._store.data

    @property
    def _ids(self) -> np.ndarray:
        return self._store.ids

    @property
    def _deleted(self) -> Optional[np.ndarray]:
        return self._store.deleted

    # ---------------------------------------------------------------- state

    def state(self) -> Tuple[dict, Dict[str, np.ndarray],
                             Dict[str, np.ndarray]]:
        """What this fitted index is: ``(scalars, source, derived)``.

        ``scalars`` are the JSON-able constructor keywords; ``source``
        the arrays nothing recomputes: ``data``, ``ids``, ``deleted``
        (once something was deleted) and each ``family{t}/...``.
        ``derived`` holds what a rebuild or the first query would
        recompute: each ``table{t}/...`` sorted layout, left out while an
        insert overlay is live, and ``sq_norms`` once cached.  A group
        of a Bi-level index gives its ``rows`` of its owner's store and
        their ``deleted`` instead of ``data`` and ``ids``.

        Arrays are returned by reference, captured under the writer
        lock; writers publish fresh arrays or a longer prefix and never
        rewrite what a published array covers.
        """
        self._check_fitted()
        with self._update_lock:
            scalars = {"n_hashes": self.n_hashes, "n_tables": self.n_tables,
                       "bucket_width": self.bucket_width,
                       "lattice": self.lattice_kind,
                       "n_probes": self.n_probes,
                       "hierarchy": self.use_hierarchy}
            store, rows = self._store, self._rows
            derived: Dict[str, np.ndarray] = {}
            if rows is None:
                source = {"data": store.data, "ids": store.ids}
                if store.deleted is not None:
                    source["deleted"] = store.deleted
                if store.sq_norms is not None:
                    derived["sq_norms"] = store.sq_norms
            else:
                source = {"rows": rows}
                if store.deleted is not None and store.deleted[rows].any():
                    source["deleted"] = store.deleted[rows]
            for t, family in enumerate(self._families):
                source.update(prefixed(f"family{t}/", family.arrays()))
            if not any(table.n_extra for table in self._tables):
                for t, table in enumerate(self._tables):
                    derived.update(prefixed(f"table{t}/", table.arrays()))
        return scalars, source, derived

    @classmethod
    def from_state(cls, scalars: dict, source: Dict[str, np.ndarray],
                   derived: Optional[Dict[str, np.ndarray]] = None,
                   store: Optional[RowStore] = None) -> "StandardLSH":
        """The index :meth:`state` described, over the arrays given, by
        reference: no copy, and a memmap stays a memmap.  Table layouts
        absent from ``derived`` are rebuilt from ``data``; hierarchies
        are always rebuilt from the tables (their Morton keys are Python
        ints past 62 bits) and the escalation threshold refitted.  With
        a ``store`` the index is a group of a Bi-level index over its
        ``source["rows"]`` of it, whose tombstones go into the store's
        one mask.  Retired options are dropped or refused
        (:func:`drop_retired_options`).
        """
        index = cls(**drop_retired_options(scalars))
        derived = derived or {}
        if store is None:
            store = RowStore(source["data"], source["ids"],
                             source.get("deleted"), derived.get("sq_norms"))
        else:
            index._rows = rows = source["rows"]
            if "deleted" in source:
                mask = np.zeros(store.n_rows, dtype=bool)
                mask[rows] = source["deleted"]
                store.tombstone(mask)
        index._store = store
        index._next_id = _next_free_id(store.ids)
        index._lattice = make_lattice(index.lattice_kind, index.n_hashes)
        index._set_families([
            PStableHashFamily.from_arrays(
                bucket_width=index.bucket_width,
                **sub_arrays(source, f"family{t}/"))
            for t in range(index.n_tables)])
        layouts = [sub_arrays(derived, f"table{t}/")
                   for t in range(index.n_tables)]
        if not all(layouts):
            index._rebuild_tables()
            return index
        index._publish_built([LSHTable.from_arrays(**layout)
                              for layout in layouts])
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

    def compact(self, group: Optional[int] = None) -> bool:
        """Fold the insert overlays and the tombstones into fresh sorted
        tables: the one fold, which the insert trigger also runs.

        Under the writer lock every table is merged from its own sorted
        layouts (:meth:`LSHTable.compacted`, no row re-hashed),
        tombstoned rows dropped; the hierarchies are rebuilt and all of
        it published at once (:meth:`_publish_built`).  Readers never take
        the lock: a batch keeps the snapshot it started with.

        The ``maintenance.compact`` fault site is consulted first,
        labelled ``group`` (a Bi-level index passes the group's number):
        ``delay`` sleeps before the build, ``corruption`` returns
        ``False`` without a swap, ``exception`` raises.  Returns ``True``
        when new tables were published.
        """
        self._check_fitted()
        with self._update_lock:
            plan = faults_active()  # invariant: disable=R8 — the fold's own fault site; no query runs here
            if plan is not None and plan.check("maintenance.compact",
                                               group=group):
                return False
            deleted = self._deleted
            self._publish_built([table.compacted(drop=deleted)
                                 for table in self._tables])
            ob = obs.active()
            if ob is not None:
                ob.record_rebuild()
        return True

    def _set_families(self, families: List[PStableHashFamily]) -> None:
        """Adopt ``families``, dropping the stacked projection of the
        previous ones (:meth:`_hash` stacks these on first use)."""
        with self._update_lock:
            self._families = families
            self._stacked = None

    def _publish(self, tables: List[LSHTable], hierarchies: list) -> None:
        """Swap in ``tables`` / ``hierarchies`` and the layout snapshot
        a query searches (:class:`TableLayouts`), by reference — after
        a rebuild, or after ``insert`` re-sorted the overlays.  A reader
        holding the previous snapshot keeps every array it names."""
        with self._update_lock:
            self._tables = tables
            self._hierarchies = hierarchies
            self._layouts = TableLayouts.of(
                [table.layouts() for table in tables],
                self._lattice.code_dim)

    def _publish_built(self, tables: List[LSHTable]) -> None:
        """Publish fresh ``tables`` with their hierarchies and fitted
        :attr:`escalation_threshold`: how a fit, fold or restore ends."""
        with self._update_lock:
            if not self.use_hierarchy:
                self._publish(tables, [])
                return
            self._publish(tables, [self._build_hierarchy(table)
                                   for table in tables])
            self._escalation_threshold = self._fit_threshold()

    def _fit_threshold(self) -> int:
        """The median base short-list size, less the row's own hit, of a
        stride of at most ``THRESHOLD_SAMPLE`` live indexed rows run as
        queries.  No seed, and tombstones masked: a restore, whose tables
        still hold the rows a fold dropped, fits what the fold did."""
        rows = self._live_rows()
        if rows.size == 0:
            return 0
        rows = rows[::-(-rows.size // self.THRESHOLD_SAMPLE)]
        store = self._store
        plan = _LSHPlan(self, None, native_registry.load_kernels())
        ctx = ExecutionContext.for_batch(  # no observer
            np.asarray(store.data[rows], dtype=np.float64), 1)
        plan._stage_hash(ctx)
        plan._stage_gather(ctx)
        _, _, counts = ctx.scratch["kernels"].rank_topk(
            None, None, None, ctx.scratch["spans"], store.n_rows,
            store.deleted, 0)
        return int(np.median(counts - 1))

    def _hash(self, rows: np.ndarray,
              kernels: object = native_registry.NUMPY_KERNELS,
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Every table's projections and codes of ``rows``: one GEMM over
        the stacked families, one ``quantize_with`` over the ``(L * n,
        M)`` block.  Returns ``(y, codes)``, ``(L, n, M)`` and ``(L, n,
        code_dim)``, table ``t``'s at ``[t]`` — the codes of
        ``lattice.quantize(family_t.project(rows))``."""
        stacked = self._stacked
        if stacked is None:
            # Stacked on first use, not at fit: one long-lived block per
            # group allocated among a bi-level fit's temporaries raised the
            # peak RSS of repeated fits.  Racing first queries build equal
            # stacks; either one stays.
            stacked = self._stacked = StackedProjection.of(self._families)
        y = stacked.project(rows)
        n_tables, n, m = y.shape
        codes = self._lattice.quantize_with(y.reshape(n_tables * n, m),
                                            kernels)
        return y, codes.reshape(n_tables, n, -1)

    def _rebuild_tables(self, chunk_size: Optional[int] = None) -> None:
        """(Re)build the sorted tables and hierarchies from current data.

        The one project → quantize → :class:`LSHTable` → hierarchy loop:
        ``fit``, snapshot restore and the out-of-core fit (with a
        ``chunk_size``, see :func:`table_codes`) build here,
        one table at a time: a large group is never projected for all
        ``L`` tables in one temporary.

        The new tables and hierarchies are built into locals and published
        by reference (:meth:`_publish_built`), so an in-flight batch query
        (which snapshots ``self._layouts`` / ``self._hierarchies`` once) sees
        either the complete old structures or the complete new ones —
        never an empty or partially refreshed list.
        """
        with self._update_lock:
            data, ids = self._data, self._rows
            if ids is None:
                ids = np.arange(data.shape[0], dtype=np.int64)
            else:
                # A group's rows, gathered once for all L tables (a
                # transient of the group's size, never kept).
                data = np.asarray(data[ids], dtype=np.float64)
            self._publish_built([
                LSHTable(table_codes(family, self._lattice, data,
                                     chunk_size), ids=ids)
                for family in self._families])
            ob = obs.active()
            if ob is not None:
                ob.record_rebuild()

    # -------------------------------------------------------------- updates

    def insert(self, points: np.ndarray,
               ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Add points to a fitted index; returns their external ids.

        New points go into a per-table overlay; once the overlay exceeds
        ``REBUILD_FRACTION`` of the base layout, :meth:`compact` folds it
        into the sorted tables (and hierarchies) so escalation sees the
        inserts.
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
                ids = np.arange(self._next_id, self._next_id + m,
                                dtype=np.int64)
            else:
                ids = np.asarray(ids, dtype=np.int64)
                if ids.shape != (m,):
                    raise ValueError(
                        f"ids must have shape ({m},), got {ids.shape}")
            # Durability: the acknowledged operation reaches the log (and
            # the OS) before any in-memory structure changes (R13).
            if self._wal is not None:
                self._applied_lsn = self._wal.append_insert(points, ids)
            # Every per-row array learns the rows *before* the published
            # layouts learn their ids: a concurrent query that gathers a
            # fresh id is then guaranteed to find its row.
            start = self._store.n_rows
            self._store.add_rows(points, ids)
            self._next_id = max(self._next_id, _next_free_id(ids))
            self._index_rows(np.arange(start, start + m, dtype=np.int64),
                             points)
        return ids

    def _index_rows(self, rows: np.ndarray, points: np.ndarray,
                    group: Optional[int] = None) -> None:
        """Enter store ``rows`` — already added, holding ``points`` — into
        every table's overlay, folding it past ``REBUILD_FRACTION``: the
        second half of :meth:`insert`, and a Bi-level insert per
        ``group``."""
        with self._update_lock:
            before = self.n_points
            if self._rows is not None:
                self._rows = np.concatenate([self._rows, rows])
            for table, codes in zip(self._tables, self._hash(points)[1]):
                table.add(codes, rows)
            self._publish(self._tables, self._hierarchies)
            overlay = max((table.n_extra for table in self._tables), default=0)
            if overlay > self.REBUILD_FRACTION * max(before, 1):
                self.compact(group)

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
                self._store.tombstone(mask)
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
        """Rows this index indexes (a group: its rows of the owner's)."""
        self._check_fitted()
        rows = self._rows
        return self._store.n_rows if rows is None else rows.shape[0]

    @property
    def n_live(self) -> int:
        """Indexed rows not tombstoned by :meth:`delete`."""
        self._check_fitted()
        return self._live_rows().shape[0]

    def _live_rows(self) -> np.ndarray:
        """The store rows this index indexes that are not tombstoned."""
        rows = self._rows
        if rows is None:
            rows = np.arange(self._store.n_rows, dtype=np.int64)
        # Read after the rows: the mask is appended to before the data.
        deleted = self._deleted
        return rows if deleted is None else rows[~deleted[rows]]

    def _check_fitted(self) -> None:
        if self._store is None:
            raise RuntimeError("index is not fitted; call fit(data) first")

    def query(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """KNN for a single query vector; returns ``(ids, distances)``."""
        ids, dists, _ = self.query_batch(np.atleast_2d(query), k)
        return ids[0], dists[0]

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: Optional[int] = None,
                    engine: Optional[str] = None,
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN for a batch of queries.

        Feeds :meth:`execution_plan` to :func:`repro.exec.run_plan`;
        validation, deadline construction, stage timing and batch
        sharding (sized by the executor from the plan's lookups per row)
        all live in the execution core.

        The whole batch runs array-at-a-time through the kernel table
        :func:`repro.native.load_kernels` resolved (compiled when a C
        compiler is present, numpy otherwise — bit-identical answers).
        Exact distance ties break by ascending id.

        Parameters
        ----------
        queries:
            Array ``(q, D)``, every entry finite: a NaN/Inf or a row of
            the wrong width raises ``QueryValidationError`` naming
            ``queries``.
        k:
            Neighborhood size.  Queries with fewer than ``k`` candidates
            pad the result with id ``-1`` / distance ``inf``.
        hierarchy_threshold:
            Only with ``hierarchy=True``: a query whose short-list is
            smaller escalates.  ``None`` (default) is the paper's median
            rule, the index's fitted :attr:`escalation_threshold`; an
            integer ``>= 0`` pins one; either is raised to ``k``.
            Anything else raises ``QueryValidationError``.
        engine:
            Inert — name-checked and ignored
            (:func:`repro.native.registry.check_legacy_engine`); scheduled
            for deletion by the next benchmark PR.
        deadline_ms / deadline:
            Optional wall-clock budget.  The budget is checked between
            escalation rounds; queries whose escalation the budget cut
            short return their best-effort base results with
            ``stats.exhausted_budget`` set.

        Returns
        -------
        ids, distances, stats:
            ``ids``/``distances`` of shape ``(q, k)``; :class:`QueryStats`
            with per-query candidate counts (for selectivity), escalation
            flags, and — under a deadline — the budget-exhausted mask.
        """
        self._check_fitted()
        return run_plan(self.execution_plan(hierarchy_threshold, engine),
                        queries, k, deadline_ms=deadline_ms,
                        deadline=deadline)

    def execution_plan(self, hierarchy_threshold: Optional[int] = None,
                       engine: Optional[str] = None) -> QueryPlan:
        """Staged :class:`~repro.exec.plan.QueryPlan` for this index.

        :meth:`query_batch` feeds it to :func:`repro.exec.run_plan`.
        ``engine`` is the inert keyword of :meth:`query_batch`.
        """
        native_registry.check_legacy_engine(engine)
        return _LSHPlan(self, hierarchy_threshold,
                        native_registry.load_kernels())

    @property
    def escalation_threshold(self) -> Optional[int]:
        """The short-list size below which a query escalates by default
        (``None`` without a hierarchy): the paper's median, fitted where
        the hierarchies are built (fit, :meth:`compact`, restore)."""
        self._check_fitted()
        return self._escalation_threshold

    def _resolve_threshold(self, k: int,
                           hierarchy_threshold: Optional[int]) -> int:
        if hierarchy_threshold is None:
            hierarchy_threshold = self._escalation_threshold
        return max(hierarchy_threshold, k)

    def candidate_sets(self, queries: np.ndarray) -> List[np.ndarray]:
        """Raw candidate id sets (before short-list ranking), per query.

        Exposed for tests that inspect the gathered candidates directly.
        """
        self._check_fitted()
        return self.execution_plan().candidate_sets(queries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StandardLSH(M={self.n_hashes}, L={self.n_tables}, "
                f"W={self.bucket_width:g}, lattice={self.lattice_kind!r}, "
                f"n_probes={self.n_probes}, hierarchy={self.use_hierarchy})")




# --------------------------------------------------------------------------
# The execution plan (repro.exec).  The stage bodies need private access to
# the index internals, so the plan lives here rather than in repro/exec.
# --------------------------------------------------------------------------


#: Escalated rows of a member walked per ``walk`` call — the granularity
#: of the deadline check in ``_stage_escalate``.
ESCALATE_CHUNK = 256


@dataclass(eq=False)
class Member:
    """One index a batch runs through (a :class:`StandardLSH`, or a
    Bi-level group) and the batch ``rows`` routed to it.

    ``slots[i]`` is ``rows[i]``'s candidate segment in the one
    ``bucket_spans`` (``q * spill + j`` for row ``q``'s ``j``-th route:
    a row's segments are adjacent); ``first_table`` is where its tables
    start in the layouts searched.  The hash stage fills ``y`` /
    ``codes``.
    """

    index: StandardLSH
    group: Optional[int]
    first_table: int
    rows: np.ndarray
    slots: np.ndarray
    y: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None
    n_escalated: int = 0


class _LSHPlan(QueryPlan):
    """The staged LSH engine: hash → gather → [escalate] → rank.

    The stages run over the batch's members (:class:`Member`): one hash per
    member, one ``bucket_spans``, escalation per member, one
    ``rank_topk`` from those spans against the one row store.  A
    :class:`StandardLSH` is the one-member case; the Bi-level plan adds a
    route stage in front.

    Every hot inner loop (lattice decode, ``Z^M`` probe sequences, the
    bucket spans, the hierarchy walk, fused short-list and rank) is a call on
    ``kernels``, the table :func:`repro.native.load_kernels` resolved —
    compiled or numpy, bit-identical by the parity matrix in
    ``tests/test_native.py``.  A memmapped corpus is ranked by the numpy
    spec, the one fork on the input (see ``_stage_rank``).
    """

    site = "lsh"

    def __init__(self, index: object, hierarchy_threshold: object,
                 kernels: object) -> None:
        self.index = index
        self.hierarchy_threshold = check_hierarchy_threshold(
            hierarchy_threshold)
        self.kernels = kernels

    def validate(self, queries: object, k: int) -> Tuple[np.ndarray, int]:
        return validate_query_batch(queries, k, self.index._data.shape[1])

    def stages(self) -> Tuple[Stage, ...]:
        stages = [Stage("lsh.hash", self._stage_hash),
                  Stage("lsh.gather", self._stage_gather)]
        if self.index.use_hierarchy:
            stages.append(Stage("lsh.escalate", self._stage_escalate))
        stages.append(Stage("lsh.rank", self._stage_rank))
        return tuple(stages)

    def lookups_per_row(self) -> int:
        return self._route_lookups(self.index)

    @staticmethod
    def _route_lookups(index: StandardLSH) -> int:
        """Lookup rows one routed query row costs ``index``: per table,
        its own bucket and its probes (``E8`` has 240 per block)."""
        probes = index.n_probes
        if isinstance(index._lattice, E8Lattice):
            probes = min(probes, 240 * index._lattice.n_blocks)
        return index.n_tables * (1 + probes)

    def candidate_sets(self, queries: np.ndarray) -> List[np.ndarray]:
        """Raw per-query candidate ids: the plan's stages up to and
        including the gather, over ``queries``."""
        ctx = ExecutionContext.for_batch(
            as_float_matrix(queries, name="queries"), 1)
        for stage in self.stages():
            stage.fn(ctx)
            if stage.name == "lsh.gather":
                break
        store = self.index._store
        cand, counts = spans_union_ref(ctx.scratch["spans"], ctx.nq,
                                       store.n_rows, store.deleted)
        runs = np.split(store.ids[cand], np.cumsum(counts)[:-1])
        order = np.arange(ctx.nq, dtype=np.int64)[ctx.scratch["order"]]
        return [runs[i] for i in np.argsort(order)]

    def _stage_hash(self, ctx: ExecutionContext) -> None:
        kernels = self.kernels
        if ctx.ob is not None:
            # Each kernel call of this batch lands in the
            # ``repro_native_kernel_seconds`` histogram and the batch's
            # ``kernel/*`` trace spans; with observability off the stages
            # hold the raw table — zero indirection on the gated path.
            kernels = ctx.ob.timed_kernels(kernels, ctx.timer.stages)
        ctx.scratch["kernels"] = kernels
        members = ctx.scratch.get("members")
        if members is None:  # no route stage: the index answers every row
            rows = np.arange(ctx.nq, dtype=np.int64)
            members = ctx.scratch["members"] = [
                Member(self.index, None, 0, rows, rows)]
            ctx.scratch["spill"] = 1
            ctx.scratch["order"] = slice(None)
        for m in members:
            # Rows are ascending: all of them is the batch itself.
            queries = (ctx.queries if m.rows.shape[0] == ctx.nq
                       else ctx.queries[m.rows])
            m.y, m.codes = m.index._hash(queries, kernels)

    def _probe_rows(self, m: Member, kernels: object,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every lookup row of member ``m``'s tables, table by table.

        Returns ``(codes, row_q, table_rows)``: table ``t`` owns
        ``table_rows[t]`` consecutive rows — each routed row's self code,
        then each one's probes in sequence order — and ``row_q`` names
        the member row (a position in ``m.rows``) of every lookup row.
        The probe sequences of the whole ``(L * n)`` block come from one
        call: the ``zm_probe_codes`` kernel for ``Z^M``,
        :meth:`E8Lattice.probe_codes` on the block for ``E8``.
        """
        index = m.index
        own = m.codes
        n_tables, nq, width = own.shape
        own = own.reshape(n_tables * nq, width)
        of_own = np.arange(n_tables * nq, dtype=np.int64) % nq
        if index.n_probes <= 0:
            return own, of_own, np.full(n_tables, nq, dtype=np.int64)
        y = m.y.reshape(n_tables * nq, -1)
        if isinstance(index._lattice, ZMLattice):
            probes, counts = kernels.zm_probe_codes(y, own, index.n_probes)
        else:  # E8: every row gets the same number of probes
            probes = index._lattice.probe_codes(y, own, index.n_probes)
            counts = np.full(own.shape[0], probes.shape[1], dtype=np.int64)
            probes = probes.reshape(-1, width)
        # Block row t * nq + i is row i of table t; table t's probes
        # follow its own nq self rows, so each row lands at its index
        # plus the rows of the other kind stacked before it.
        probe_rows = counts.reshape(n_tables, nq).sum(axis=1)
        of_probe = np.repeat(np.arange(n_tables * nq, dtype=np.int64), counts)
        at_own = np.arange(n_tables * nq, dtype=np.int64) + np.repeat(
            np.cumsum(probe_rows) - probe_rows, nq)
        at_probe = (np.arange(of_probe.size, dtype=np.int64)
                    + nq * (of_probe // nq + 1))
        codes = np.empty((own.shape[0] + probes.shape[0], width),
                         dtype=np.int64)
        row_q = np.empty(codes.shape[0], dtype=np.int64)
        codes[at_own], codes[at_probe] = own, probes
        row_q[at_own], row_q[at_probe] = of_own, of_probe % nq
        return codes, row_q, probe_rows + nq

    def _stage_gather(self, ctx: ExecutionContext) -> None:
        """Candidate gathering for the whole batch, query-major.

        Every member's lookup rows — self and probe codes, table by
        table — go to one ``kernels.bucket_spans`` over the published
        :class:`TableLayouts`, leaving ``scratch["spans"]``: the bucket
        interval each row hit, per segment, with nothing read behind it —
        ``rank_topk`` reads the ids.  A query's segments (one per group it
        routes to) are adjacent and groups hold disjoint rows.
        """
        ob, nq = ctx.ob, ctx.nq
        kernels = ctx.scratch["kernels"]
        members = ctx.scratch["members"]
        spill = ctx.scratch["spill"]
        # One snapshot of the published layouts: a concurrent insert or
        # rebuild publishes a new one, it never edits this one.
        layouts = self.index._layouts
        table_rows = np.zeros(layouts.n_layouts.shape[0], dtype=np.int64)
        code_parts = []
        slot_parts = []
        for m in members:
            codes, row_m, rows_t = self._probe_rows(m, kernels)
            table_rows[m.first_table:m.first_table + rows_t.shape[0]] = rows_t
            code_parts.append(codes)
            slot_parts.append(m.slots[row_m])
        row_slot = np.concatenate(slot_parts)
        spans = kernels.bucket_spans(
            layouts, np.concatenate(code_parts), row_slot, table_rows,
            nq * spill)
        misses = spans.misses
        probes = None
        if ob is not None:
            probes = np.bincount(row_slot // spill, minlength=nq)
            for m in members:
                n_rows = m.rows.shape[0]
                for t in range(m.index.n_tables):
                    n_lookups = int(table_rows[m.first_table + t])
                    ob.record_table_lookup(
                        t, n_lookups=n_lookups,
                        n_misses=int(misses[m.first_table + t]),
                        n_probes=n_lookups - n_rows)
                probes[m.slots // spill] -= m.index.n_tables
            probes[ctx.scratch["order"]] = probes.copy()
        ctx.scratch["spans"] = spans
        ctx.scratch["probes"] = probes

    def _stage_escalate(self, ctx: ExecutionContext) -> None:
        # Per member, rows whose segment is below its threshold (its
        # fitted one unless pinned) walk its hierarchies, a chunk of rows
        # per call for all L tables; each node they settle on is one span
        # of its hierarchy's ids.  The budget is re-checked before each chunk:
        # rows of chunks not started keep their base short-list, flagged
        # `exhausted_budget`.  Segment sizes come from ``rank_topk``'s
        # counting mode; the row count is read after the layouts, and an
        # insert publishes its rows before the layouts that hold their
        # ids, so it bounds every id the kernel meets.
        kernels, store = ctx.scratch["kernels"], self.index._store
        _, _, counts = kernels.rank_topk(None, None, None,
                                         ctx.scratch["spans"], store.n_rows,
                                         store.deleted, 0)
        spans: List[SpanSet] = []
        depths: List[np.ndarray] = []
        expired = False
        for m in ctx.scratch["members"]:
            hierarchies = m.index._hierarchies  # one snapshot, as for tables
            codes = m.codes
            threshold = m.index._resolve_threshold(ctx.k,
                                                   self.hierarchy_threshold)
            esc = np.nonzero(counts[m.slots] < threshold)[0]
            done = 0
            while done < esc.size and not expired:
                if ctx.deadline is not None and ctx.deadline.expired():
                    expired = True
                    break
                chunk = esc[done:done + ESCALATE_CHUNK]
                if hierarchies:
                    kind = type(hierarchies[0])
                    starts, sizes, depth = kind.walk(
                        hierarchies, codes[:, chunk], threshold, kernels)
                    spans.append(([h.ids for h in hierarchies], starts,
                                  sizes, m.slots[chunk]))
                    depths.append(depth.ravel())
                done += chunk.size
            ctx.escalated[m.rows[esc[:done]]] = True
            m.n_escalated = done
            if done < esc.size:
                skipped = m.rows[esc[done:]]
                ctx.ensure_exhausted()[skipped] = True
                if ctx.ob is not None:
                    ctx.ob.record_deadline_exhausted("lsh.escalate",
                                                     int(skipped.size))
        if not depths:
            return
        if ctx.ob is not None:
            ctx.ob.record_escalation_depth(kind.depth_label,
                                           np.concatenate(depths))
        ctx.scratch["spans"] = ctx.scratch["spans"].with_extra(spans)

    def _stage_rank(self, ctx: ExecutionContext) -> None:
        # One call builds every short-list from the spans and ranks it:
        # distance and top-k fused.  ``rank_topk`` — and every cached norm,
        # and the queries' own — sums each dot product in the halving-tree
        # order of :func:`repro.native.ref.tree_rowdot`, which is what
        # makes the kernel tables bit-identical and an indexed query's
        # self-distance exactly ``0.0``.  The rows are read after every
        # layout and hierarchy snapshot: their count bounds every id.
        store, spans = self.index._store, ctx.scratch["spans"]
        order = ctx.scratch["order"]  # the rows in the order spans run
        data = store.data
        # The fork reads the data, not the kernels: a memmapped corpus is
        # always ranked by the numpy spec, which gathers candidate rows
        # before touching them — the only pages read off disk.
        rank = (rank_topk_ref if isinstance(data, np.memmap)
                else ctx.scratch["kernels"].rank_topk)
        sel, dists, counts = rank(data, store.point_sq_norms(),
                                  ctx.queries[order], spans, data.shape[0],
                                  store.deleted, ctx.k)
        hit = sel >= 0
        sel[hit] = store.ids[sel[hit]]
        ctx.ids_out[order] = sel
        ctx.dists_out[order] = dists
        ctx.n_candidates[order] = counts

    def record_obs(self, ctx: ExecutionContext) -> None:
        ctx.ob.record_batch("lsh", ctx.n_candidates, ctx.escalated,
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
            probes = index._lattice.probe_codes(projections[t][qi], code,
                                                index.n_probes)
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
                       hierarchy_threshold: Optional[int] = None,
                       ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """:meth:`StandardLSH.query_batch` by the per-query reference path.

    Same ids, candidate counts and escalation flags as the plan; the
    distances agree to the last ulp or so (direct ``||x - q||`` here,
    ``||x||^2 - 2 x.q + ||q||^2`` there) and exact ties may order
    differently.
    """
    index._check_fitted()
    queries, k = validate_query_batch(queries, k, index._data.shape[1])
    hierarchy_threshold = check_hierarchy_threshold(hierarchy_threshold)
    nq = queries.shape[0]
    ids_out = np.full((nq, k), -1, dtype=np.int64)
    dists_out = np.full((nq, k), np.inf, dtype=np.float64)
    escalated = np.zeros(nq, dtype=bool)
    projections = [family.project(queries) for family in index._families]
    codes = [index._lattice.quantize(proj) for proj in projections]
    candidate_sets = [_gather_candidates(index, projections, codes, qi)
                      for qi in range(nq)]
    if index.use_hierarchy:
        threshold = index._resolve_threshold(k, hierarchy_threshold)
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
