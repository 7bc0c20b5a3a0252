"""Single-level LSH index: the paper's baseline family of methods.

:class:`StandardLSH` implements standard LSH (Datar et al.) plus the two
query-adaptive enhancements the paper evaluates:

- *multi-probe* (``n_probes > 0``): probe nearby buckets in each table,
  using the Lv et al. sequence for ``Z^M`` or the 240 minimal-vector
  neighbors for ``E8``;
- *hierarchical table* (``hierarchy=True``): escalate queries whose
  short-list is smaller than the fitted median to coarser bucket levels
  (Morton prefixes of a ``Z^M`` table's own layout, ``E8`` lattice levels).

The same class indexes one RP-tree leaf group of
:class:`repro.core.bilevel.BiLevelLSH` (its rows of the shared row store),
and one plan (:mod:`repro.lsh.query`) runs both, so baseline and
contribution share every line of hashing/probing/short-list code —
exactly the apples-to-apples setup of the paper's experiments.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.lattice.base import Lattice
from repro.lattice.e8 import E8Lattice
from repro.lattice.zm import ZMLattice
from repro.lsh.functions import PStableHashFamily, StackedProjection
from repro.lsh.query import Batch, QueryStats, _LSHPlan, run_plan
from repro.lsh.table import LSHTable, SortedLayout, TableLayouts, sort_runs
from repro.native import registry as native_registry
from repro.native.ref import tree_rowdot
from repro.resilience.deadline import Deadline
from repro.resilience.faults import faults_active
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.spare import SpareRows
from repro.utils.validation import as_float_matrix, check_positive

if TYPE_CHECKING:  # runtime import would cycle: maintenance replays via us
    from repro.maintenance.wal import WriteAheadLog

__all__ = ["QueryStats", "RowStore", "StandardLSH", "drop_retired_options",
           "make_lattice"]


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
    decodes through the loaded kernel table, as a query does.

    With ``chunk_size`` the rows are projected that many at a time, so a
    memmapped corpus is never materialized whole.
    """
    kernels = native_registry.resolved_kernels()
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
        absent from ``derived`` are rebuilt from ``data``; a ``Z^M``
        hierarchy is a view of its table's layout, an ``E8`` one is
        rebuilt from the table, and the escalation threshold refitted.  With
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
        # Every table's bucket index in one pass: it is derived, not stored.
        names = ("bucket_codes", "starts", "ends", "sorted_ids")
        index._publish_built([[layout[name] for name in names]
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
        layouts (:meth:`LSHTable.compacted_runs`, no row re-hashed),
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
            plan = faults_active()
            if plan is not None and plan.check("maintenance.compact",
                                               group=group):
                return False
            deleted = self._deleted
            self._publish_built([table.compacted_runs(drop=deleted)
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

    def _publish_built(self, runs: list) -> None:
        """Publish tables over ``runs`` (:meth:`SortedLayout.adopt_all`),
        their hierarchies and the fitted :attr:`escalation_threshold`:
        how a fit, fold or restore ends."""
        tables = [LSHTable(None, base=base)
                  for base in SortedLayout.adopt_all(runs)]
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
        plan = _LSHPlan(self, None, native_registry.resolved_kernels())
        batch = Batch.of(  # no observer
            np.asarray(store.data[rows], dtype=np.float64), 1)
        plan._stage_hash(batch)
        plan._stage_gather(batch)
        _, _, counts = batch.kernels.rank_topk(
            None, None, None, batch.spans, store.n_rows, store.deleted, 0)
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
            self._publish_built([sort_runs(table_codes(
                family, self._lattice, data, chunk_size), ids)
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
            LSHTable.add_all(self._tables, self._hash(
                points, native_registry.resolved_kernels())[1], rows)
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

        Feeds :meth:`execution_plan` to :func:`repro.lsh.query.run_plan`,
        which validates, starts the deadline, times the stages and
        shards the batch (sized from the plan's lookups per row).

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
                       engine: Optional[str] = None) -> _LSHPlan:
        """The staged plan :meth:`query_batch` feeds to
        :func:`repro.lsh.query.run_plan`.  ``engine`` is the inert
        keyword of :meth:`query_batch`."""
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
        """Raw candidate id sets (before short-list ranking), per query,
        validated as :meth:`query_batch` validates.

        Exposed for tests that inspect the gathered candidates directly.
        """
        self._check_fitted()
        return self.execution_plan().candidate_sets(queries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StandardLSH(M={self.n_hashes}, L={self.n_tables}, "
                f"W={self.bucket_width:g}, lattice={self.lattice_kind!r}, "
                f"n_probes={self.n_probes}, hierarchy={self.use_hierarchy})")
