"""The query path: one driver over the paper's pipeline.

:func:`run_plan` is what every ``query_batch`` runs: it reads the
observer gate once, validates the batch (a non-finite or mis-shaped row
is refused with :class:`~repro.resilience.errors.QueryValidationError`),
starts the deadline and hands a :class:`Batch` to the index's plan,
whose :meth:`_LSHPlan.run_batch` runs the stages — [route →] hash →
gather → [escalate] → rank — each lapped under its name.  A batch of more
than :data:`SHARD_LOOKUP_ROWS` lookup rows runs as contiguous row shards,
in turn, each a :meth:`Batch.shard` answered in place, bit-identical to
the unsharded run: every stage is row-independent (even the escalation
threshold is the index's, not the batch's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.lattice.e8 import E8Lattice
from repro.lattice.zm import ZMLattice
from repro.native.ref import SpanSet, rank_topk_ref, spans_union_ref
from repro.resilience.deadline import Deadline
from repro.utils.validation import (check_hierarchy_threshold, check_positive,
                                    validate_query_batch)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.lsh.index import StandardLSH
    from repro.obs import Observer

#: Lookup rows one shard may gather.  Scratch runs ≈ 125–180 B per lookup
#: row (more the larger the call), so a shard holds ≈ 130 MiB of it; no
#: batch under this many lookup rows shards.
SHARD_LOOKUP_ROWS = 1 << 20

#: Escalated rows of a member walked per ``walk`` call — the granularity
#: of the deadline check in ``_stage_escalate``.
ESCALATE_CHUNK = 256


@dataclass
class QueryStats:
    """Per-query diagnostics from a batch query.

    Attributes
    ----------
    n_candidates:
        Size of the deduplicated short-list ``|A(v)|`` per query — the
        numerator of the paper's selectivity metric (Eq. (5)).
    escalated:
        Whether the hierarchical table escalated this query.
    exhausted_budget:
        Boolean mask of queries whose ``deadline_ms`` budget expired
        mid-pipeline (best-effort answer returned); ``None`` when no
        deadline was requested.
    """

    n_candidates: np.ndarray
    escalated: np.ndarray
    exhausted_budget: Optional[np.ndarray] = None

    def selectivity(self, dataset_size: int) -> np.ndarray:
        """Selectivity ``tau(v) = |A(v)| / |S|`` per query."""
        check_positive(dataset_size, "dataset_size")
        return self.n_candidates / float(dataset_size)

    def exhausted_mask(self) -> np.ndarray:
        """``exhausted_budget`` as a concrete mask (all-False when ``None``)."""
        if self.exhausted_budget is None:
            return np.zeros(self.n_candidates.shape[0], dtype=bool)
        return self.exhausted_budget


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

    index: "StandardLSH"
    group: Optional[int]
    first_table: int
    rows: np.ndarray
    slots: np.ndarray
    y: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None
    n_escalated: int = 0


@dataclass(eq=False)
class Batch:
    """One batch of validated queries on its way through the stages, or a
    shard of one (:meth:`shard`).

    The outputs start padded (id ``-1``, distance ``inf``, nothing
    exhausted; :meth:`stats` keeps the mask only under a deadline).  The
    stages fill the rest: the kernel table, the route (``members``,
    ``spill``, ``order``: the rows in the order the spans run), the
    ``spans`` and, under an observer, ``probes`` per row.
    """

    queries: np.ndarray
    k: int
    ids: np.ndarray
    dists: np.ndarray
    n_candidates: np.ndarray
    escalated: np.ndarray
    exhausted: np.ndarray
    deadline: Optional[Deadline]
    ob: Optional["Observer"]
    timer: obs.StageTimer
    kernels: Any = None
    members: List[Member] = field(default_factory=list)
    spill: int = 1
    order: Union[slice, np.ndarray] = field(
        default_factory=lambda: slice(None))
    spans: Any = None
    probes: Optional[np.ndarray] = None

    @classmethod
    def of(cls, queries: np.ndarray, k: int, *,
           ob: Optional["Observer"] = None,
           deadline: Optional[Deadline] = None,
           timer: Optional[obs.StageTimer] = None) -> "Batch":
        """A batch over ``queries`` x ``k``, timed by ``timer`` if the
        caller already lapped on it (``run_plan``: validation)."""
        nq, k = int(queries.shape[0]), int(k)
        return cls(queries, k, np.full((nq, k), -1, dtype=np.int64),
                   np.full((nq, k), np.inf, dtype=np.float64),
                   np.zeros(nq, dtype=np.int64), np.zeros(nq, dtype=bool),
                   np.zeros(nq, dtype=bool), deadline, ob,
                   obs.StageTimer(ob) if timer is None else timer)

    @property
    def nq(self) -> int:
        return int(self.queries.shape[0])

    def shard(self, rows: slice) -> "Batch":
        """The batch's ``rows``, answered in place: every output is a view
        of this batch's.  Its timer starts from the spans lapped so far,
        so its traces open with ``<site>.validate``."""
        timer = obs.StageTimer(self.ob)
        timer.stages.update(self.timer.stages)
        return Batch(self.queries[rows], self.k, self.ids[rows],
                     self.dists[rows], self.n_candidates[rows],
                     self.escalated[rows], self.exhausted[rows],
                     self.deadline, self.ob, timer)

    def stats(self) -> QueryStats:
        return QueryStats(self.n_candidates, self.escalated,
                          exhausted_budget=(None if self.deadline is None
                                            else self.exhausted))


def run_plan(plan: "_LSHPlan", queries: object, k: int, *,
             deadline_ms: Optional[float] = None,
             deadline: Optional[Deadline] = None,
             ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
    """Answer a query batch through ``plan``.  Validation is the first
    lap of the batch's one timer (``<site>.validate``, no clock read with
    the observer off); the explicit ``deadline``, else one built from
    ``deadline_ms``, is one absolute expiry for every shard."""
    ob = obs.active()
    timer = obs.StageTimer(ob)
    arr, k = plan.validate(queries, k)
    timer.lap(f"{plan.site}.validate")
    if deadline is None:
        deadline = Deadline.from_ms(deadline_ms)
    return plan.run_batch(Batch.of(arr, k, ob=ob, deadline=deadline,
                                   timer=timer))


Stages = List[Tuple[str, Callable[[Batch], None]]]


class _LSHPlan:
    """The staged LSH engine: hash → gather → [escalate] → rank.

    The stages run over the batch's members (:class:`Member`): one hash per
    member, one ``bucket_spans``, escalation per member, one
    ``rank_topk`` from those spans against the one row store.  A
    :class:`StandardLSH` is the one-member case; the Bi-level plan adds a
    route stage in front.  Every hot inner loop is a call on ``kernels``,
    the table :func:`repro.native.load_kernels` resolved (compiled or
    numpy, bit-identical); a memmapped corpus is ranked by the numpy
    spec, the one fork on the input (see ``_stage_rank``).
    """

    #: Prefix of the plan's telemetry sites (``lsh.validate``,
    #: ``lsh.shard``) and the ``engine`` label of its batches.
    site = "lsh"

    def __init__(self, index: Any, hierarchy_threshold: object,
                 kernels: Any) -> None:
        self.index = index
        self.hierarchy_threshold = check_hierarchy_threshold(
            hierarchy_threshold)
        self.kernels = kernels

    def validate(self, queries: object, k: int) -> Tuple[np.ndarray, int]:
        """``(queries, k)`` checked against the index's width."""
        return validate_query_batch(queries, k, self.index._data.shape[1])

    def stages(self) -> Stages:
        """The ordered ``(name, stage)`` pairs one shard runs."""
        stages: Stages = [("lsh.hash", self._stage_hash),
                          ("lsh.gather", self._stage_gather)]
        if self.index.use_hierarchy:
            stages.append(("lsh.escalate", self._stage_escalate))
        stages.append(("lsh.rank", self._stage_rank))
        return stages

    def lookups_per_row(self) -> int:
        """Bucket lookups one query row costs, the unit shards are sized in."""
        return self._route_lookups(self.index)

    @staticmethod
    def _route_lookups(index: "StandardLSH") -> int:
        """Lookup rows one routed query row costs ``index``: per table,
        its own bucket and its probes (``E8`` has 240 per block)."""
        probes = index.n_probes
        if isinstance(index._lattice, E8Lattice):
            probes = min(probes, 240 * index._lattice.n_blocks)
        return int(index.n_tables * (1 + probes))

    def run_batch(self, batch: Batch,
                  ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """Run ``batch``'s rows through the stages, each lapped under its
        name — shard by shard past :data:`SHARD_LOOKUP_ROWS` lookup rows,
        where a shard whose turn comes after the deadline keeps its padded
        rows, flagged ``exhausted_budget``."""
        nq, ob, deadline = batch.nq, batch.ob, batch.deadline
        bound = max(1, SHARD_LOOKUP_ROWS // self.lookups_per_row())
        if bound < nq:
            for start in range(0, nq, bound):
                rows = slice(start, min(start + bound, nq))
                if deadline is not None and deadline.expired():
                    # Budget spent before this shard started: padded
                    # best-effort answer; earlier shards stay untouched.
                    batch.exhausted[rows] = True
                    if ob is not None:
                        ob.record_deadline_exhausted(f"{self.site}.shard",
                                                     rows.stop - rows.start)
                    continue
                self.run_batch(batch.shard(rows))
            if ob is not None:
                ob.record_shards(self.site, -(-nq // bound))
        else:
            for name, stage in self.stages():
                stage(batch)
                batch.timer.lap(name)
            if ob is not None:
                self.record_obs(ob, batch)
        return batch.ids, batch.dists, batch.stats()

    def candidate_sets(self, queries: object) -> List[np.ndarray]:
        """Raw per-query candidate ids: the stages up to and including the
        gather, over ``queries`` validated as :func:`run_plan` does."""
        batch = Batch.of(self.validate(queries, 1)[0], 1)
        for name, stage in self.stages():
            stage(batch)
            if name == "lsh.gather":
                break
        store = self.index._store
        cand, counts = spans_union_ref(batch.spans, batch.nq,
                                       store.n_rows, store.deleted)
        runs = np.split(store.ids[cand], np.cumsum(counts)[:-1])
        order = np.arange(batch.nq, dtype=np.int64)[batch.order]
        return [runs[i] for i in np.argsort(order)]

    def _stage_hash(self, batch: Batch) -> None:
        kernels = self.kernels
        if batch.ob is not None:
            # Each kernel call of this batch lands in the
            # ``repro_native_kernel_seconds`` histogram and the batch's
            # ``kernel/*`` trace spans; with observability off the stages
            # hold the raw table — zero indirection on the gated path.
            kernels = batch.ob.timed_kernels(kernels, batch.timer.stages)
        batch.kernels = kernels
        if not batch.members:  # no route stage: the index answers every row
            rows = np.arange(batch.nq, dtype=np.int64)
            batch.members = [Member(self.index, None, 0, rows, rows)]
        for m in batch.members:
            # Rows are ascending: all of them is the batch itself.
            queries = (batch.queries if m.rows.shape[0] == batch.nq
                       else batch.queries[m.rows])
            m.y, m.codes = m.index._hash(queries, kernels)

    def _probe_rows(self, members: List[Member], kernels: Any,
                    n_tables: int,
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, row_slot, table_rows)``: every lookup row of the
        members' tables (member ``m``'s at ``m.first_table`` on) and its
        segment, table ``t`` owning ``table_rows[t]`` consecutive rows —
        each routed row's self code, then each one's probes in sequence
        order.  Every member's probes come from one ``zm_probe_codes``
        (or :meth:`E8Lattice.probe_codes`) call: groups share one config.
        """
        index = members[0].index
        # The members' blocks, stacked, are in table order.
        own = np.concatenate([m.codes.reshape(-1, m.codes.shape[2])
                              for m in members])
        of_table = np.concatenate([np.repeat(np.arange(
            m.first_table, m.first_table + m.codes.shape[0], dtype=np.int64),
            m.codes.shape[1]) for m in members])
        slot = np.concatenate([np.tile(m.slots, m.codes.shape[0])
                               for m in members])
        own_rows = np.bincount(of_table, minlength=n_tables)
        if index.n_probes <= 0:
            return own, slot, own_rows
        y = np.concatenate([m.y.reshape(-1, m.y.shape[2]) for m in members])
        if isinstance(index._lattice, ZMLattice):
            probes, counts = kernels.zm_probe_codes(y, own, index.n_probes)
        else:  # E8: every row gets the same number of probes
            probes = index._lattice.probe_codes(y, own, index.n_probes)
            counts = np.full(own.shape[0], probes.shape[1], dtype=np.int64)
            probes = probes.reshape(-1, own.shape[1])
        probe_rows = np.bincount(of_table, weights=counts,
                                 minlength=n_tables).astype(np.int64)
        # Table t's self rows follow the earlier tables' probes, its probes
        # its own and the earlier self rows: scattered into place, as a
        # gather from the two stacked would hold the rows three times.
        at_own = np.repeat(np.cumsum(probe_rows) - probe_rows, own_rows)
        at_own += np.arange(own.shape[0], dtype=np.int64)
        at_probe = np.repeat(np.cumsum(own_rows), probe_rows)
        at_probe += np.arange(at_probe.shape[0], dtype=np.int64)
        codes = np.empty((own.shape[0] + probes.shape[0], own.shape[1]),
                         dtype=np.int64)
        row_slot = np.empty(codes.shape[0], dtype=np.int64)
        codes[at_own], codes[at_probe] = own, probes
        row_slot[at_own], row_slot[at_probe] = slot, np.repeat(slot, counts)
        return codes, row_slot, own_rows + probe_rows

    def _stage_gather(self, batch: Batch) -> None:
        """Candidate gathering for the whole batch, query-major.

        Every member's lookup rows — self and probe codes, table by
        table — go to one ``kernels.bucket_spans`` over the published
        :class:`TableLayouts`, leaving ``batch.spans``: the bucket
        interval each row hit, per segment, with nothing read behind it —
        ``rank_topk`` reads the ids.  A query's segments (one per group it
        routes to) are adjacent and groups hold disjoint rows.
        """
        ob, nq, spill = batch.ob, batch.nq, batch.spill
        kernels, members = batch.kernels, batch.members
        # One snapshot of the published layouts: a concurrent insert or
        # rebuild publishes a new one, it never edits this one.
        layouts = self.index._layouts
        codes, row_slot, table_rows = self._probe_rows(
            members, kernels, layouts.n_layouts.shape[0])
        spans = kernels.bucket_spans(layouts, codes, row_slot, table_rows,
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
            probes[batch.order] = probes.copy()
        batch.spans = spans
        batch.probes = probes

    def _stage_escalate(self, batch: Batch) -> None:
        # Per member, rows whose segment is below its threshold (its
        # fitted one unless pinned) walk its hierarchies, a chunk of rows
        # per call for all L tables; each node they settle on is one span
        # of its hierarchy's ids.  The budget is re-checked before each chunk:
        # rows of chunks not started keep their base short-list, flagged
        # `exhausted_budget`.  Segment sizes come from ``rank_topk``'s
        # counting mode; the row count is read after the layouts, and an
        # insert publishes its rows before the layouts that hold their
        # ids, so it bounds every id the kernel meets.
        kernels, store = batch.kernels, self.index._store
        _, _, counts = kernels.rank_topk(None, None, None, batch.spans,
                                         store.n_rows, store.deleted, 0)
        spans: List[SpanSet] = []
        depths: List[np.ndarray] = []
        expired = False
        for m in batch.members:
            hierarchies = m.index._hierarchies  # one snapshot, as for tables
            codes = m.codes
            threshold = m.index._resolve_threshold(batch.k,
                                                   self.hierarchy_threshold)
            esc = np.nonzero(counts[m.slots] < threshold)[0]
            done = 0
            while done < esc.size and not expired:
                if batch.deadline is not None and batch.deadline.expired():
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
            batch.escalated[m.rows[esc[:done]]] = True
            m.n_escalated = done
            if done < esc.size:
                skipped = m.rows[esc[done:]]
                batch.exhausted[skipped] = True
                if batch.ob is not None:
                    batch.ob.record_deadline_exhausted("lsh.escalate",
                                                       int(skipped.size))
        if not depths:
            return
        if batch.ob is not None:
            batch.ob.record_escalation_depth(kind.depth_label,
                                             np.concatenate(depths))
        batch.spans = batch.spans.with_extra(spans)

    def _stage_rank(self, batch: Batch) -> None:
        # One call builds every short-list from the spans and ranks it:
        # distance and top-k fused.  ``rank_topk`` — and every cached norm,
        # and the queries' own — sums each dot product in the halving-tree
        # order of :func:`repro.native.ref.tree_rowdot`, which is what
        # makes the kernel tables bit-identical and an indexed query's
        # self-distance exactly ``0.0``.  The rows are read after every
        # layout and hierarchy snapshot: their count bounds every id.
        store, order = self.index._store, batch.order
        data = store.data
        # The fork reads the data, not the kernels: a memmapped corpus is
        # always ranked by the numpy spec, which gathers candidate rows
        # before touching them — the only pages read off disk.
        rank = (rank_topk_ref if isinstance(data, np.memmap)
                else batch.kernels.rank_topk)
        sel, dists, counts = rank(data, store.point_sq_norms(),
                                  batch.queries[order], batch.spans,
                                  data.shape[0], store.deleted, batch.k)
        hit = sel >= 0
        sel[hit] = store.ids[sel[hit]]
        batch.ids[order] = sel
        batch.dists[order] = dists
        batch.n_candidates[order] = counts

    def record_obs(self, ob: "Observer", batch: Batch) -> None:
        """Batch-level telemetry; called only when an Observer is active."""
        ob.record_batch("lsh", batch.n_candidates, batch.escalated,
                        batch.timer.stages, probes=batch.probes)
        ob.record_native_batch(self.kernels.backend)
