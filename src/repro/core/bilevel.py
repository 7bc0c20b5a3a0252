"""Bi-level LSH (Sections III-IV of the paper).

The index composes the two levels:

1. a first-level partitioner (RP-tree, or K-means for the baseline) splits
   the dataset into ``g`` groups;
2. each group gets its own single-level LSH index
   (:class:`repro.lsh.index.StandardLSH`) over the group's points, with the
   group's own (optionally tuned) bucket width.

The conceptual Bi-level code ``H~(v) = (RPtree(v), H(v))`` is realized by
routing: the group index selects which per-group index is consulted, which
is exactly equivalent to prefixing the LSH code with the leaf id and storing
everything in one table (the paper's GPU layout does the latter; the
:mod:`repro.gpu` module reproduces that single-table form).

A query first descends the tree to its group, then runs the group's LSH
query (standard / multi-probe / hierarchical, ``Z^M`` or ``E8`` — every
variant evaluated in the paper).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.kmeans import KMeansPartitioner
from repro.core.config import BiLevelConfig
from repro.exec import (ExecutionContext, QueryPlan, QueryStats, Stage,
                        merge_topk_rows, run_plan, run_validated)
from repro.exec.plan import validate_query_batch
from repro.lsh.index import StandardLSH
from repro.lsh.params import CollisionModel, tune_bucket_width
from repro.native.registry import check_legacy_engine
from repro.resilience.deadline import Deadline
from repro.resilience.errors import InjectedFault
from repro.resilience.policy import ResiliencePolicy
from repro.rptree.tree import RPTree
from repro.utils.rng import spawn_rngs
from repro.utils.spare import SpareRows
from repro.utils.validation import as_float_matrix

if TYPE_CHECKING:  # runtime import would cycle: maintenance replays via us
    from repro.maintenance.compactor import Compactor
    from repro.maintenance.wal import WriteAheadLog


#: One group sub-batch's answer: ``(ids, distances, stats)``.
GroupResult = Tuple[np.ndarray, np.ndarray, QueryStats]


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
        self._data: Optional[np.ndarray] = None
        # Serializes structural updates (insert/delete) against each other;
        # batch queries stay lock-free and rely on the per-group indexes'
        # snapshot discipline (see StandardLSH).
        self._update_lock = threading.RLock()
        self._spare = SpareRows()  # capacity behind ``_data`` (see insert)
        # Durability plumbing (repro.maintenance): one WAL at this front
        # end covers all groups — group indexes never log their internal
        # sub-inserts, the routed operation is the unit of replay.
        self._wal = None
        self._applied_lsn = 0
        self._compactor = None

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
        way.  Only one group's rows are gathered into memory at a time.
        """
        cfg = self.config
        self._data = data
        self.group_indexes = []
        self.group_widths = []
        scale_factors = (self._width_scales(data, tuner_rng)
                         if cfg.scale_widths and not cfg.tune_params else None)
        for g, indices in enumerate(self.partitioner.leaf_indices()):
            if indices.size == 0:
                # A leaf of a sample-fitted tree that no row of the full
                # dataset reached: index row 0 so the group can be built.
                indices = np.zeros(1, dtype=np.int64)
            group_data = np.asarray(data[indices], dtype=np.float64)
            width = cfg.bucket_width
            if cfg.tune_params and group_data.shape[0] > 1:
                model = CollisionModel(group_data, k=cfg.tuner_k,
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
                                adaptive_probing=cfg.adaptive_probing,
                                probe_confidence=cfg.probe_confidence,
                                seed=group_rngs[g % len(group_rngs)])
            index.fit(group_data, ids=indices)
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
        for indices in self.partitioner.leaf_indices():
            group_data = data[indices]
            if group_data.shape[0] < 2:
                medians.append(np.nan)
                continue
            model = CollisionModel(group_data, k=cfg.tuner_k,
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
        if self._data is None:
            raise RuntimeError("index is not fitted; call fit(data) first")

    @property
    def n_points(self) -> int:
        self._check_fitted()
        return self._data.shape[0]

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

    def attach_compactor(self, compactor: "Compactor") -> None:
        """Use ``compactor`` for every group's overlay merges (async)."""
        self._compactor = compactor
        for index in self.group_indexes:
            index.attach_compactor(compactor)

    def compact(self, max_retries: int = 4) -> bool:
        """Compact every leaf group's tables; True if any installed."""
        self._check_fitted()
        installed = False
        for index in self.group_indexes:
            installed = index.compact(max_retries=max_retries) or installed
        return installed

    # -------------------------------------------------------------- updates

    def insert(self, points: np.ndarray) -> np.ndarray:
        """Add points to a fitted index; returns their (global) ids.

        New points are routed down the existing first-level partition —
        the tree is *not* re-split, matching the static-preprocessing role
        it plays in the paper — and inserted into their group's LSH
        tables, which rebuild automatically when their overlay grows.
        """
        self._check_fitted()
        points = as_float_matrix(points, name="points")
        if points.shape[1] != self._data.shape[1]:
            raise ValueError(
                f"points have dim {points.shape[1]}, index has dim "
                f"{self._data.shape[1]}")
        with self._update_lock:
            start = self._data.shape[0]
            new_ids = np.arange(start, start + points.shape[0], dtype=np.int64)
            # Durability: acknowledged operation reaches the log before
            # any structure changes (R13).  Ids are assigned by position,
            # so replay regenerates them deterministically.
            if self._wal is not None:
                self._applied_lsn = self._wal.append_insert(points, new_ids)
            self._data = self._spare.append("data", self._data, points)
            groups = self.partitioner.assign(points)
            for index, rows in zip(self.group_indexes, rows_by_group(
                    groups, len(self.group_indexes))):
                if rows.size:
                    index.insert(points[rows], ids=new_ids[rows])
        return new_ids

    def delete(self, ids: np.ndarray) -> int:
        """Remove points by global id; returns how many were found."""
        self._check_fitted()
        ids = np.asarray(ids, dtype=np.int64).ravel()
        with self._update_lock:
            # Logged unconditionally (the found count is only known after
            # routing); replaying a no-op delete is itself a no-op.
            if self._wal is not None:
                self._applied_lsn = self._wal.append_delete(ids)
            return sum(index.delete(ids) for index in self.group_indexes)

    # ---------------------------------------------------------------- query

    def query(self, query: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """KNN for one query vector; returns ``(ids, distances)``."""
        ids, dists, _ = self.query_batch(np.atleast_2d(query), k)
        return ids[0], dists[0]

    def _resolve_jobs(self, n_work: int) -> int:
        """Worker-thread count for ``n_work`` non-empty group sub-batches."""
        n_jobs = self.config.n_jobs
        if n_jobs < 0:
            n_jobs = os.cpu_count() or 1
        return max(1, min(n_jobs, n_work))

    def _fallback_results(self, g: int, queries: np.ndarray, k: int,
                          kind: str) -> GroupResult:
        """Build a fallback answer for group ``g``'s sub-batch ``queries``.

        ``kind='bruteforce'`` scans the group's live points exactly (the
        answers are *correct*, but flagged degraded because the primary
        path failed); ``kind='empty'`` is the last resort — padded results
        so the batch still returns with the failure visible in the flags;
        ``kind='exhausted'`` is that padding flagged ``exhausted_budget``
        instead (the deadline came before the group's turn).
        """
        nr = queries.shape[0]
        if kind == "bruteforce":
            ids_g, dists_g = self.group_indexes[g].brute_force_batch(
                queries, k)
            n_candidates = np.full(nr, self.group_indexes[g].n_live,
                                   dtype=np.int64)
        else:
            ids_g = np.full((nr, k), -1, dtype=np.int64)
            dists_g = np.full((nr, k), np.inf, dtype=np.float64)
            n_candidates = np.zeros(nr, dtype=np.int64)
        flag = "exhausted_budget" if kind == "exhausted" else "degraded"
        return ids_g, dists_g, QueryStats(
            n_candidates, np.zeros(nr, dtype=bool),
            **{flag: np.ones(nr, dtype=bool)})

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: Union[str, int] = "median",
                    engine: Optional[str] = None,
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    policy: Optional[ResiliencePolicy] = None,
                    max_batch_rows: Optional[int] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN for a batch; see :meth:`StandardLSH.query_batch`.

        Feeds the bi-level plan (route → dispatch → merge) to
        :func:`repro.exec.run_plan`; validation, deadline construction,
        policy resolution and batch sharding live in the execution core.

        Queries are routed to their first-level group and answered by the
        group's LSH index.  With ``hierarchy=True`` the median short-list
        threshold is computed *within each group's* query sub-batch — the
        per-group analogue of the paper's global median rule, consistent
        with the scheme's per-group adaptivity.  With ``config.n_jobs > 1``
        the independent group sub-batches run on a thread pool (numpy
        releases the GIL inside the hashing/ranking kernels); results are
        merged in deterministic group order either way.

        With a :class:`~repro.resilience.policy.ResiliencePolicy` (passed
        explicitly or installed via :func:`repro.resilience.set_policy`),
        each group sub-batch is a supervised unit: a group worker that
        fails (or times out) is retried, then answered by an exact
        brute-force scan over the group's points, then by a flagged empty
        result — the batch always returns, with ``stats.degraded`` marking
        every query that took a fallback and ``stats.failures`` carrying
        the reasons.  ``deadline_ms`` bounds the batch by wall-clock:
        groups not yet dispatched when the budget expires return empty
        best-effort results flagged ``exhausted_budget``, and the budget
        is also threaded into each group's escalation loop.

        ``max_batch_rows`` (defaulting to ``config.max_batch_rows``)
        bounds rows executed per shard; results are bit-identical to the
        unsharded run given an integer ``hierarchy_threshold``.  The
        bound is applied per *group sub-batch* inside the dispatch stage
        (routing already splits the rows, and the scratch memory the
        knob caps lives in the group gather/rank stages), so groups
        already below the bound run exactly once with zero overhead.
        """
        self._check_fitted()
        if max_batch_rows is None:
            max_batch_rows = self.config.max_batch_rows
        return run_plan(self.execution_plan(hierarchy_threshold, engine),
                        queries, k, deadline_ms=deadline_ms,
                        deadline=deadline, policy=policy,
                        max_batch_rows=max_batch_rows)

    def execution_plan(self,
                       hierarchy_threshold: Union[str, int] = "median",
                       engine: Optional[str] = None) -> QueryPlan:
        """Staged bi-level plan (route → dispatch → merge) for
        :func:`repro.exec.run_plan`.  ``engine`` is the inert keyword of
        :meth:`query_batch`."""
        check_legacy_engine(engine)
        return _BiLevelPlan(self, hierarchy_threshold)

    def _dispatch_groups(self, ctx: ExecutionContext,
                         run_group: "Callable[[int, np.ndarray], GroupResult]",
                         ) -> List[GroupResult]:
        """Run ``ctx``'s routed group sub-batches, supervised under a policy.

        Serial path: groups run in order, with the deadline checked before
        each one — a group whose turn never comes returns an empty
        best-effort result flagged ``exhausted_budget``.  Parallel path:
        all groups are submitted at once (the deadline applies inside each
        group) and each future is awaited under the policy's timeout, so a
        hung worker is abandoned and answered by the fallback chain
        instead of hanging the batch.
        """
        active = ctx.scratch["active"]
        queries, k, pol = ctx.queries, ctx.k, ctx.policy
        jobs = self._resolve_jobs(len(active))

        def fallbacks_for(g: int, rows: np.ndarray,
                          ) -> List[Tuple[str, "Callable[[], GroupResult]"]]:
            return [(kind, lambda kind=kind: self._fallback_results(
                g, queries[rows], k, kind))
                    for kind in ("bruteforce", "empty")]

        results: List[GroupResult] = []
        if jobs > 1:
            # No context manager: `with` would shutdown(wait=True) on
            # exit and block on workers that await_future already
            # abandoned via timeout, voiding the wall-clock bound.
            # Release the pool without waiting instead; orphaned threads
            # finish in the background and their results are discarded.
            pool = ThreadPoolExecutor(max_workers=jobs)
            try:
                futures = [pool.submit(run_group, g, rows)
                           for g, rows in active]
                for (g, rows), future in zip(active, futures):
                    if pol is None:
                        results.append(future.result())
                        continue
                    outcome, action, records = pol.await_future(
                        "bilevel.dispatch", f"group={g}", future,
                        fallbacks=fallbacks_for(g, rows))
                    ctx.failures.extend(records)
                    if outcome is None:
                        outcome = self._fallback_results(
                            g, queries[rows], k, "empty")
                    results.append(outcome)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            return results
        for g, rows in active:
            if ctx.deadline is not None and ctx.deadline.expired():
                # Budget ran out before this group's turn: best-effort
                # empty answer, flagged exhausted rather than degraded.
                results.append(self._fallback_results(
                    g, queries[rows], k, "exhausted"))
                continue
            if pol is None:
                results.append(run_group(g, rows))
                continue
            outcome, action, records = pol.run(
                "bilevel.dispatch", f"group={g}",
                lambda g=g, rows=rows: run_group(g, rows),
                fallbacks=fallbacks_for(g, rows))
            ctx.failures.extend(records)
            if outcome is None:
                outcome = self._fallback_results(g, queries[rows], k, "empty")
            results.append(outcome)
        return results

    def candidate_sets(self, queries: np.ndarray) -> List[np.ndarray]:
        """Raw per-query candidate id sets (before short-list ranking)."""
        self._check_fitted()
        queries = as_float_matrix(queries, name="queries")
        groups = self.partitioner.assign(queries)
        out: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * queries.shape[0]
        for index, rows in zip(self.group_indexes, rows_by_group(
                groups, len(self.group_indexes))):
            if rows.size == 0:
                continue
            sets_g = index.candidate_sets(queries[rows])
            for local, row in enumerate(rows):
                out[row] = sets_g[local]
        return out

    def bilevel_codes(self, data: np.ndarray) -> np.ndarray:
        """The explicit Bi-level codes ``(group, H(v))`` for table 0.

        Exposed mainly for the GPU single-table layout and for tests; shape
        is ``(n, 1 + code_dim)`` with the group index in column 0.
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


class _BiLevelPlan(QueryPlan):
    """Staged bi-level execution: route → dispatch → merge.

    Lives here (not in repro/exec) because the stages need the index's
    partitioner, group indexes and dispatch/fallback machinery.
    """

    site = "bilevel"
    #: ``max_batch_rows`` is applied per *group sub-batch* inside the
    #: dispatch stage, not by slicing the top-level batch: routing
    #: already fans the rows out across groups, so top-level shards
    #: would re-pay every group's fixed per-table cost once per shard
    #: while the gather/rank scratch this knob bounds lives inside the
    #: group executions anyway.
    delegates_sharding = True

    def __init__(self, index: BiLevelLSH,
                 hierarchy_threshold: Union[str, int]) -> None:
        self.index = index
        self.hierarchy_threshold = hierarchy_threshold

    def validate(self, queries: object, k: int, *, allow_nonfinite: bool,
                 ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        return validate_query_batch(queries, k, self.index._data.shape[1],
                                    allow_nonfinite)

    def stages(self) -> Tuple[Stage, ...]:
        return (Stage("bilevel.route", self._stage_route),
                Stage("bilevel.dispatch", self._stage_dispatch),
                Stage("bilevel.merge", self._stage_merge))

    def _stage_route(self, ctx: ExecutionContext) -> None:
        index = self.index
        if ctx.policy is not None:
            ctx.ensure_degraded()
        n_groups = len(index.group_indexes)
        spill = min(index.config.multi_assign, n_groups)
        if spill <= 1:
            membership = rows_by_group(
                index.partitioner.assign(ctx.queries), n_groups)
        else:
            multi = index.partitioner.assign_multi(ctx.queries, spill)
            per_group: List[List[int]] = [[] for _ in range(n_groups)]
            for qi, leaves in enumerate(multi):
                for g in leaves:
                    per_group[g].append(qi)
            membership = [np.asarray(rows, dtype=np.int64)
                          for rows in per_group]
        ctx.scratch["spill"] = spill
        ctx.scratch["active"] = [(g, rows) for g, rows in enumerate(membership)
                                 if rows.size]

    def _stage_dispatch(self, ctx: ExecutionContext) -> None:
        index = self.index
        plan = ctx.fault_plan

        def run_group(g: int, rows: np.ndarray) -> GroupResult:
            if plan is not None and plan.check("bilevel.dispatch", group=g):
                raise InjectedFault("bilevel.dispatch",
                                    f"group={g} corruption")
            # Gate-free inner entry: the outer batch already validated
            # the queries and resolved the obs/policy/fault gates, so
            # per-group sub-batches skip run_plan's framing (which
            # otherwise dominates small shards).  ``ctx.max_batch_rows``
            # bounds rows per executed sub-shard here, at the group
            # level (see _BiLevelPlan.delegates_sharding).
            return run_validated(
                index.group_indexes[g].execution_plan(
                    self.hierarchy_threshold),
                ExecutionContext.for_batch(
                    ctx.queries[rows], ctx.k, ob=ctx.ob,
                    deadline=ctx.deadline, policy=ctx.policy,
                    fault_plan=plan, max_batch_rows=ctx.max_batch_rows))

        ctx.scratch["results"] = index._dispatch_groups(ctx, run_group)

    def _stage_merge(self, ctx: ExecutionContext) -> None:
        active = ctx.scratch["active"]
        results = ctx.scratch["results"]
        spill = ctx.scratch["spill"]
        for (g, rows), (ids_g, dists_g, stats_g) in zip(active, results):
            if spill > 1:
                # A spilled row is answered by several groups: what it
                # holds so far joins this group's block (top-k merged,
                # counts summed) before the fold puts the sum in place.
                merge_topk_rows(ids_g, dists_g, slice(None),
                                ctx.ids_out[rows], ctx.dists_out[rows],
                                ctx.k)
                stats_g = replace(
                    stats_g,
                    n_candidates=stats_g.n_candidates + ctx.n_candidates[rows],
                    escalated=stats_g.escalated | ctx.escalated[rows])
            ctx.absorb(rows, ids_g, dists_g, stats_g)

    def record_obs(self, ctx: ExecutionContext) -> None:
        ob = ctx.ob
        ob.record_index_size(self.index.n_points)
        for (g, rows), (_ids_g, _dists_g, stats_g) in zip(
                ctx.scratch["active"], ctx.scratch["results"]):
            ob.record_group(g, int(rows.size),
                            int(np.count_nonzero(stats_g.escalated)))
        if ctx.degraded is not None:
            ob.record_degraded("dispatch",
                               int(np.count_nonzero(ctx.degraded)))
        if ctx.exhausted is not None:
            ob.record_deadline_exhausted(
                "bilevel.dispatch", int(np.count_nonzero(ctx.exhausted)))
