"""Process-lifetime index sessions: one object that owns an index plus
every cross-cutting attachment.

A library caller passes execution options to ``index.query_batch`` as
keywords, per call.  A serving process needs something longer-lived:
session defaults for those options, an owner for the WAL/compactor
wiring, the obs registry and the shard thread pool, and one place
where a request meets the defaults:

- :class:`RuntimeConfig` — the execution defaults of a process
  (deadline, policy, ``max_batch_rows``, shard workers, micro-batch
  window), with :meth:`RuntimeConfig.from_args` as the one CLI
  argument-resolution seam shared by ``query``/``serve``;
- :class:`QueryRequest` / :class:`QueryResponse` — what one caller
  asked for and what it got back;
- :class:`IndexRuntime` — owns an index and its attachments for process
  life.  :meth:`IndexRuntime.resolve` is the one resolution point
  (request fields, then the config, then the front-end default; the
  deadline clock started): the HTTP door, the micro-batcher and
  :meth:`IndexRuntime.submit` all read a request through it, and
  ``submit`` hands the resolved fields to :func:`repro.exec.run_plan`.

Import discipline: this module sits *above* the index packages —
nothing under ``repro.lsh`` / ``core`` / ``evaluation`` / ``gpu`` /
``exec`` imports it (``tests/test_layering.py``) — and reaches them by
duck typing and call-time imports.
"""

from __future__ import annotations

import argparse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from repro.exec.context import QueryStats
from repro.exec.executor import run_plan
from repro.native.registry import check_legacy_engine
from repro.resilience.deadline import Deadline
from repro.resilience.policy import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.maintenance import Compactor, WriteAheadLog
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "IndexRuntime",
    "QueryRequest",
    "QueryResponse",
    "RuntimeConfig",
    "RuntimeInfo",
    "check_legacy_engine",
    "shed_response",
]

Threshold = Union[str, int]


@dataclass(frozen=True)
class RuntimeConfig:
    """Resolved per-process execution defaults for an index session.

    An index's ``query_batch`` does not consult a config — its keyword
    defaults are the contract — but :class:`IndexRuntime`, the CLI and
    the serving layer take every option a request leaves unset from one
    of these (:meth:`IndexRuntime.resolve`), so ``repro-knn query``,
    ``bench`` and ``serve`` cannot drift apart
    (:meth:`RuntimeConfig.from_args` is the single parsing seam).

    Attributes
    ----------
    engine:
        Inert, init-only and not stored: there is one engine.  Name-checked
        by :func:`check_legacy_engine`; scheduled for deletion by the
        next benchmark PR.
    hierarchy_threshold:
        Escalation threshold forwarded to hierarchical plans; ``None``
        keeps the front-end default (``"median"``).  Micro-batching
        requires an integer threshold on hierarchical indexes (the
        batch median is not batch-invariant); see
        :class:`repro.runtime.batching.MicroBatcher`.
    deadline_ms:
        Default wall-clock budget per request (``None`` = unbounded).
    policy:
        Default :class:`~repro.resilience.policy.ResiliencePolicy`
        (``None`` = the process-wide installed gate, as before).
    max_batch_rows:
        Default bounded-memory shard size.
    shard_workers:
        When positive, :class:`IndexRuntime` keeps this many threads and
        the executor runs the ``max_batch_rows`` shards of a request on
        them (a batch ``max_batch_rows`` does not split runs inline).
    batch_window_ms / batch_max_rows:
        Micro-batching coalescing window for the serving layer: a
        leader request waits up to ``batch_window_ms`` for companions,
        and a merged batch is dispatched early once it holds
        ``batch_max_rows`` query rows.
    max_queue_depth:
        Admission bound for the serving layer: requests arriving while
        this many are already queued or executing are shed (flagged,
        never crashed) instead of growing the queue without bound.
    """

    engine: InitVar[Optional[str]] = None
    hierarchy_threshold: Optional[Threshold] = None
    deadline_ms: Optional[float] = None
    policy: Optional[ResiliencePolicy] = None
    max_batch_rows: Optional[int] = None
    shard_workers: int = 0
    batch_window_ms: float = 2.0
    batch_max_rows: int = 256
    max_queue_depth: int = 64

    def __post_init__(self, engine: Optional[str]) -> None:
        check_legacy_engine(engine)
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.max_batch_rows is not None and self.max_batch_rows <= 0:
            raise ValueError(
                f"max_batch_rows must be positive, got {self.max_batch_rows}")
        if self.shard_workers < 0:
            raise ValueError(
                f"shard_workers must be >= 0, got {self.shard_workers}")
        if not self.batch_window_ms >= 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}")
        if self.batch_max_rows <= 0:
            raise ValueError(
                f"batch_max_rows must be positive, got {self.batch_max_rows}")
        if self.max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive, got {self.max_queue_depth}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RuntimeConfig":
        """Resolve a config from parsed CLI arguments.

        The one place ``--deadline-ms`` / ``--resilient`` /
        ``--max-batch-rows`` / ``--shard-workers`` (and the serving
        knobs) are interpreted, shared by ``cmd_query`` and ``cmd_serve``
        so their defaults cannot diverge.  Missing attributes fall back
        to the dataclass defaults, so one parser does not need every
        flag.  Raises :class:`ValueError` for an invalid value (callers
        map it to exit code 2).
        """
        policy: Optional[ResiliencePolicy] = None
        if getattr(args, "resilient", False):
            policy = ResiliencePolicy()
        return cls(
            engine=getattr(args, "engine", None),
            hierarchy_threshold=getattr(args, "hierarchy_threshold", None),
            deadline_ms=getattr(args, "deadline_ms", None),
            policy=policy,
            max_batch_rows=getattr(args, "max_batch_rows", None),
            shard_workers=int(getattr(args, "shard_workers", 0) or 0),
            batch_window_ms=float(getattr(args, "batch_window_ms", 2.0)),
            batch_max_rows=int(getattr(args, "batch_max_rows", 256)),
            max_queue_depth=int(getattr(args, "max_queue_depth", 64)),
        )


@dataclass(frozen=True)
class QueryRequest:
    """One KNN request: the query rows plus every execution option.

    The unit the runtime layer passes around; ``None`` fields mean
    "take the session's :class:`RuntimeConfig` value" (and, failing
    that, the front-end's default) — :meth:`IndexRuntime.resolve` fills
    them in.  ``deadline`` holds an already materialized absolute
    expiry: resolving stamps one from ``deadline_ms`` at the door, so
    queue wait and the batch window count against the budget.
    """

    queries: np.ndarray
    k: int
    hierarchy_threshold: Optional[Threshold] = None
    deadline_ms: Optional[float] = None
    deadline: Optional[Deadline] = None
    policy: Optional[ResiliencePolicy] = None
    max_batch_rows: Optional[int] = None

    def with_deadline_started(self) -> "QueryRequest":
        """Materialize ``deadline_ms`` into an absolute expiry now.

        Idempotent: a request already carrying a ``deadline`` object is
        returned unchanged, as is one with no budget at all.
        """
        if self.deadline is not None or self.deadline_ms is None:
            return self
        return replace(self, deadline=Deadline(self.deadline_ms),
                       deadline_ms=None)

    def n_rows(self) -> int:
        return int(np.shape(self.queries)[0])


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`QueryRequest`.

    ``ids``/``distances`` are the padded ``(q, k)`` result matrices and
    ``stats`` the per-query :class:`~repro.exec.context.QueryStats`,
    exactly as the tuple-returning ``query_batch`` contract.  ``shed``
    marks a request the admission controller refused under overload (or
    one whose deadline had already expired on arrival): the response is
    well-formed padding with ``stats.exhausted_budget`` all-True, the
    existing degraded-semantics answer to "could not do the work in
    budget".  ``batched`` records how many requests shared the executed
    micro-batch (1 = solo), for telemetry only.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats
    shed: bool = False
    batched: int = 1

    def as_tuple(self) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """The historical ``query_batch`` return triple."""
        return self.ids, self.distances, self.stats


def shed_response(request: QueryRequest, reason: str = "overload",
                  ) -> QueryResponse:
    """A padded, flagged response for a request that was not executed.

    Reuses the executor's degraded-output conventions: ``-1`` ids,
    ``inf`` distances, zero candidates, ``exhausted_budget`` all-True —
    the same shape a fully deadline-expired batch returns, so clients
    and metrics need no new vocabulary for shed load.
    """
    nq, k = request.n_rows(), int(request.k)
    stats = QueryStats(
        n_candidates=np.zeros(nq, dtype=np.int64),
        escalated=np.zeros(nq, dtype=bool),
        exhausted_budget=np.ones(nq, dtype=bool))
    del reason  # carried by serving-layer telemetry, not the stats
    return QueryResponse(
        ids=np.full((nq, k), -1, dtype=np.int64),
        distances=np.full((nq, k), np.inf, dtype=np.float64),
        stats=stats, shed=True)


@dataclass
class RuntimeInfo:
    """Introspection snapshot served by ``/readyz`` and ``repro-knn serve``."""

    ready: bool
    n_points: int
    #: The kernel table answering queries: ``"cext"`` or ``"numpy"``.
    kernels: str
    shard_workers: int
    wal_attached: bool
    compactor_attached: bool
    applied_lsn: int
    closed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "ready": self.ready, "n_points": self.n_points,
            "kernels": self.kernels, "shard_workers": self.shard_workers,
            "wal_attached": self.wal_attached,
            "compactor_attached": self.compactor_attached,
            "applied_lsn": self.applied_lsn, "closed": self.closed,
            "detail": self.detail,
        }


class IndexRuntime:
    """An index plus its attachments, owned for the life of a process.

    One construction site replaces the per-call-site wiring the CLI and
    tests used to repeat: WAL attachment (durable acknowledged writes
    while serving), background compactor, the shard thread pool, and
    the obs registry all live here, and queries enter through one
    door — :meth:`submit`.

    The runtime does not *replace* the index API: reads delegate to the
    shared executor exactly as ``index.query_batch`` does (and return
    bit-identical results); writes delegate to ``index.insert`` /
    ``index.delete`` whose WAL append-before-ack discipline (R13) is
    unchanged.  What it adds is lifecycle: everything attached here is
    detached/closed by :meth:`close`, in reverse order.
    """

    def __init__(self, index: object,
                 config: Optional[RuntimeConfig] = None, *,
                 registry: "Optional[MetricsRegistry]" = None) -> None:
        self.index = index
        self.config = config if config is not None else RuntimeConfig()
        self.registry = registry
        self._wal: "Optional[WriteAheadLog]" = None
        self._compactor: "Optional[Compactor]" = None
        #: WAL replay report from :meth:`open` (None for direct loads).
        self.recovery_report: Optional[object] = None
        self._closed = False
        # The threads ``run_plan`` runs a request's shards on, shared by
        # concurrent submits; they read the live index: nothing to refresh.
        self._shard_pool: Optional[ThreadPoolExecutor] = None
        if self.config.shard_workers > 0:
            self._shard_pool = ThreadPoolExecutor(
                self.config.shard_workers, thread_name_prefix="shard")

    # ------------------------------------------------------------ lifecycle

    def attach_maintenance(self, wal: "Optional[WriteAheadLog]" = None,
                           compactor: "Optional[Compactor]" = None) -> None:
        """Wire the durability plane into the owned index.

        The single sanctioned ``attach_*`` call site outside tests (rule
        R14): every front-end used to be attached ad hoc wherever a WAL
        happened to be opened.  Attachment order matters — the WAL first
        (so a compaction-triggering insert is already logged), then the
        compactor.
        """
        if wal is not None:
            self.index.attach_wal(wal)  # type: ignore[attr-defined]
            self._wal = wal
        if compactor is not None:
            self.index.attach_compactor(compactor)  # type: ignore[attr-defined]
            self._compactor = compactor

    @classmethod
    def open(cls, index_path: str, config: Optional[RuntimeConfig] = None, *,
             wal_path: Optional[str] = None, compact_async: bool = False,
             registry: "Optional[MetricsRegistry]" = None,
             ) -> "IndexRuntime":
        """Load a saved index and stand up a serving-ready runtime.

        With ``wal_path`` the index is *recovered* (snapshot + WAL-tail
        replay, LSN-idempotent) before the same WAL is re-attached for
        live writes — the crash-consistent boot sequence ``repro-knn
        serve`` uses.  ``compact_async=True`` additionally starts a
        background :class:`~repro.maintenance.compactor.Compactor` so
        overlay debt from live inserts never stalls the writer.
        """
        report: Optional[object] = None
        if wal_path is not None:
            from repro.maintenance import WriteAheadLog, recover_index

            index, report = recover_index(index_path, wal_path)
            wal: "Optional[WriteAheadLog]" = WriteAheadLog(wal_path)
        else:
            from repro.persistence import load_index

            index = load_index(index_path)
            wal = None
        runtime = cls(index, config, registry=registry)
        runtime.recovery_report = report
        compactor: "Optional[Compactor]" = None
        if compact_async:
            from repro.maintenance import Compactor

            compactor = Compactor()
        if wal is not None or compactor is not None:
            runtime.attach_maintenance(wal=wal, compactor=compactor)
        return runtime

    def close(self) -> None:
        """Release every attachment (idempotent), newest first."""
        if self._closed:
            return
        self._closed = True
        pool, self._shard_pool = self._shard_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.close()
        wal, self._wal = self._wal, None
        if wal is not None:
            wal.close()

    def __enter__(self) -> "IndexRuntime":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------- querying

    def resolve(self, request: QueryRequest) -> QueryRequest:
        """``request`` as this session will execute it; the one place a
        request meets the session defaults.

        An option the request leaves unset takes the
        :class:`RuntimeConfig` value (one both leave unset stays
        ``None``, the front-end's own default), and a ``deadline_ms``
        budget — the request's or the session's — becomes an absolute
        :class:`Deadline` started now.  Call it where the request
        arrives (the HTTP door does, so admission and the batch window
        count against the budget; :meth:`submit` does for a direct
        caller): :func:`~repro.runtime.batching.merge_key` and the solo
        rule then read what will run.  Idempotent: a resolved request
        comes back as the same object.
        """
        cfg = self.config
        fill: Dict[str, object] = {}
        if request.hierarchy_threshold is None \
                and cfg.hierarchy_threshold is not None:
            fill["hierarchy_threshold"] = cfg.hierarchy_threshold
        if request.deadline is None and request.deadline_ms is None \
                and cfg.deadline_ms is not None:
            fill["deadline_ms"] = cfg.deadline_ms
        if request.policy is None and cfg.policy is not None:
            fill["policy"] = cfg.policy
        if request.max_batch_rows is None and cfg.max_batch_rows is not None:
            fill["max_batch_rows"] = cfg.max_batch_rows
        if fill:
            request = replace(request, **fill)  # type: ignore[arg-type]
        return request.with_deadline_started()

    def submit(self, request: QueryRequest) -> QueryResponse:
        """Answer one request; the runtime's single query entry.

        The resolved request goes field for field onto
        :func:`repro.exec.run_plan`, the shard pool (if any) beside it:
        the shards are the same shards over the live index, so the
        answer is ``index.query_batch``'s at the same ``max_batch_rows``
        and a read sees every write acknowledged before it.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        request = self.resolve(request)
        builder = self.index.execution_plan  # type: ignore[attr-defined]
        threshold = request.hierarchy_threshold
        plan = builder() if threshold is None else builder(threshold)
        ids, dists, stats = run_plan(
            plan, request.queries, request.k, deadline=request.deadline,
            policy=request.policy, max_batch_rows=request.max_batch_rows,
            shard_pool=self._shard_pool)
        return QueryResponse(ids=ids, distances=dists, stats=stats)

    def query_batch(self, queries: np.ndarray, k: int,
                    **options: object) -> Tuple[np.ndarray, np.ndarray,
                                                QueryStats]:
        """Convenience adapter: keyword options to a request, tuple out."""
        request = QueryRequest(queries=queries, k=int(k),
                               **options)  # type: ignore[arg-type]
        return self.submit(request).as_tuple()

    # ------------------------------------------------------------- mutation

    def insert(self, points: np.ndarray,
               ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Durable insert: WAL append-before-ack via the owned index.

        ``ids`` reach the index only when given: ``BiLevelLSH`` numbers
        inserted rows by position (WAL replay relies on it) and takes
        none, so explicit ids on one are refused with the reason.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        if ids is None:
            return self.index.insert(points)  # type: ignore[attr-defined]
        from repro.core.bilevel import BiLevelLSH

        if isinstance(self.index, BiLevelLSH):
            raise ValueError(
                "explicit ids are not supported on a BiLevelLSH index: "
                "it assigns ids by row position so WAL replay can "
                "regenerate them; insert without ids and use the "
                "returned ones")
        return self.index.insert(points, ids)  # type: ignore[attr-defined]

    def delete(self, ids: np.ndarray) -> int:
        """Durable delete via the owned index."""
        if self._closed:
            raise RuntimeError("runtime is closed")
        return self.index.delete(ids)  # type: ignore[attr-defined]

    def checkpoint(self, path: str) -> int:
        """Snapshot + truncate the covered WAL prefix; returns the LSN."""
        from repro.maintenance import checkpoint

        return checkpoint(self.index, self._wal, path)

    # -------------------------------------------------------- introspection

    @property
    def wal(self) -> "Optional[WriteAheadLog]":
        return self._wal

    @property
    def compactor(self) -> "Optional[Compactor]":
        return self._compactor

    @property
    def hierarchy_sensitive(self) -> bool:
        """True when plan output can depend on the batch-median threshold.

        A hierarchical index escalates by comparing short-list sizes to
        a threshold that, under the default ``"median"``, is derived
        from the executed batch — so merging requests would change
        results.  The micro-batcher executes such requests solo unless
        the (resolved) request carries an integer threshold.
        """
        return self.index.use_hierarchy  # type: ignore[attr-defined]

    def ready(self) -> bool:
        """Liveness of every owned moving part (the ``/readyz`` answer)."""
        return self.info().ready

    def info(self) -> RuntimeInfo:
        """One structured snapshot of runtime health."""
        index = self.index
        try:
            n_points = int(index.n_points)  # type: ignore[attr-defined]
        except RuntimeError:  # not fitted
            n_points = 0
        detail = ""
        ready = not self._closed
        if n_points <= 0:
            ready, detail = False, "index empty or not fitted"
        if self._compactor is not None and ready \
                and not self._compactor.is_alive():
            ready, detail = False, "compactor thread dead"
        from repro.native.registry import native_status

        return RuntimeInfo(
            ready=ready, n_points=n_points,
            kernels=str(native_status()["backend"]),
            shard_workers=self.config.shard_workers,
            wal_attached=self._wal is not None,
            compactor_attached=self._compactor is not None,
            applied_lsn=int(index._applied_lsn),  # type: ignore[attr-defined]
            closed=self._closed, detail=detail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IndexRuntime({type(self.index).__name__}, "
                f"shard_workers={self.config.shard_workers}, "
                f"wal={'on' if self._wal is not None else 'off'})")

