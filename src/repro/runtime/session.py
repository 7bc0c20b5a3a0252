"""Process-lifetime index sessions: one object that owns an index plus
every cross-cutting attachment.

A library caller passes execution options to ``index.query_batch`` as
keywords, per call.  A serving process needs something longer-lived:
session defaults for those options, an owner for the WAL wiring and
the obs registry, and one place where a request meets the defaults:

- :class:`RuntimeConfig` — the execution defaults of a process
  (deadline, micro-batch size cap, admission depth), with
  :meth:`RuntimeConfig.from_args` as the one CLI argument-resolution
  seam shared by ``query``/``serve``;
- :class:`QueryRequest` / :class:`QueryResponse` — what one caller
  asked for and what it got back;
- :class:`IndexRuntime` — owns an index and its attachments for process
  life.  :meth:`IndexRuntime.resolve` is the one resolution point
  (request fields, then the config, then the front-end default; the
  deadline clock started): the HTTP door, the micro-batcher and
  :meth:`IndexRuntime.submit` all read a request through it, and
  ``submit`` hands the resolved fields to the index's ``query_batch``.

Import discipline: this module sits *above* the index packages —
nothing under ``repro.lsh`` / ``core`` / ``evaluation`` / ``gpu``
imports it (``tests/test_layering.py``) — and reaches them by
duck typing and call-time imports.
"""

from __future__ import annotations

import argparse
from dataclasses import InitVar, dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.lsh.query import QueryStats
from repro.native.registry import check_legacy_engine
from repro.resilience.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.maintenance import WriteAheadLog
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
    deadline_ms:
        Default wall-clock budget per request (``None`` = unbounded).
    batch_max_rows:
        Cap on the query rows of one merged batch in the serving layer
        (:class:`repro.runtime.batching.MicroBatcher`): requests queued
        beyond it run in the following batch.
    max_queue_depth:
        Admission bound for the serving layer: requests arriving while
        this many are already queued or executing are shed (flagged,
        never crashed) instead of growing the queue without bound.
    """

    engine: InitVar[Optional[str]] = None
    deadline_ms: Optional[float] = None
    batch_max_rows: int = 256
    max_queue_depth: int = 64

    def __post_init__(self, engine: Optional[str]) -> None:
        check_legacy_engine(engine)
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.batch_max_rows <= 0:
            raise ValueError(
                f"batch_max_rows must be positive, got {self.batch_max_rows}")
        if self.max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive, got {self.max_queue_depth}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RuntimeConfig":
        """Resolve a config from parsed CLI arguments.

        The one place ``--deadline-ms`` (and the serving knobs) are
        interpreted,
        shared by ``cmd_query`` and ``cmd_serve`` so their defaults
        cannot diverge.  Missing attributes fall back
        to the dataclass defaults, so one parser does not need every
        flag.  Raises :class:`ValueError` for an invalid value (callers
        map it to exit code 2).
        """
        return cls(
            engine=getattr(args, "engine", None),
            deadline_ms=getattr(args, "deadline_ms", None),
            batch_max_rows=int(getattr(args, "batch_max_rows", 256)),
            max_queue_depth=int(getattr(args, "max_queue_depth", 64)),
        )


@dataclass(frozen=True)
class QueryRequest:
    """One KNN request: the query rows plus every execution option.

    The unit the runtime layer passes around.  An unset budget takes
    the session's :class:`RuntimeConfig` value, which
    :meth:`IndexRuntime.resolve` fills in; ``hierarchy_threshold`` has
    no session value (``None``: the index's fitted one).  ``deadline``
    holds an already materialized
    absolute expiry: resolving stamps one from ``deadline_ms`` at the
    door, so the admission and batch queue waits count against it.
    """

    queries: np.ndarray
    k: int
    hierarchy_threshold: Optional[int] = None
    deadline_ms: Optional[float] = None
    deadline: Optional[Deadline] = None

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
    ``stats`` the per-query :class:`~repro.lsh.query.QueryStats`,
    exactly as the tuple-returning ``query_batch`` contract.  ``shed``
    marks a request the admission controller refused under overload (or
    one whose deadline had already expired on arrival): the response is
    well-formed padding with ``stats.exhausted_budget`` all-True, the
    existing best-effort answer to "could not do the work in
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

    Reuses the executor's padding conventions: ``-1`` ids,
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
    #: P, the threads the compiled kernels hand their work to.
    threads: int
    wal_attached: bool
    applied_lsn: int
    closed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "ready": self.ready, "n_points": self.n_points,
            "kernels": self.kernels, "threads": self.threads,
            "wal_attached": self.wal_attached,
            "applied_lsn": self.applied_lsn, "closed": self.closed,
            "detail": self.detail,
        }


class IndexRuntime:
    """An index plus its attachments, owned for the life of a process.

    One construction site replaces the per-call-site wiring the CLI and
    tests used to repeat: WAL attachment (durable acknowledged writes
    while serving) and the obs registry live here, and queries enter
    through one door — :meth:`submit`.

    The runtime does not *replace* the index API: reads delegate to
    ``index.query_batch`` (and return bit-identical results); writes delegate to ``index.insert`` /
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
        #: WAL replay report from :meth:`open` (None for direct loads).
        self.recovery_report: Optional[object] = None
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def attach_maintenance(self, wal: "WriteAheadLog") -> None:
        """Wire the write-ahead log into the owned index.

        The single sanctioned ``attach_*`` call site outside tests (rule
        R14): every front-end used to be attached ad hoc wherever a WAL
        happened to be opened.
        """
        self.index.attach_wal(wal)  # type: ignore[attr-defined]
        self._wal = wal

    @classmethod
    def open(cls, index_path: str, config: Optional[RuntimeConfig] = None, *,
             wal_path: Optional[str] = None,
             registry: "Optional[MetricsRegistry]" = None,
             ) -> "IndexRuntime":
        """Load a saved index and stand up a serving-ready runtime.

        With ``wal_path`` the index is *recovered* (snapshot + WAL-tail
        replay, LSN-idempotent) before the same WAL is re-attached for
        live writes — the crash-consistent boot sequence ``repro-knn
        serve`` uses.
        """
        if wal_path is None:
            from repro.persistence import load_index

            return cls(load_index(index_path), config, registry=registry)
        from repro.maintenance import WriteAheadLog, recover_index

        index, report = recover_index(index_path, wal_path)
        runtime = cls(index, config, registry=registry)
        runtime.recovery_report = report
        runtime.attach_maintenance(WriteAheadLog(wal_path))
        return runtime

    def close(self) -> None:
        """Release every attachment (idempotent), newest first."""
        if self._closed:
            return
        self._closed = True
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

        A request without a budget takes the :class:`RuntimeConfig`'s
        ``deadline_ms`` (both unset: no budget), and a ``deadline_ms``
        budget — the request's or the session's — becomes an absolute
        :class:`Deadline` started now.  Call it where the request
        arrives (the HTTP door does, so admission and the batch queue
        count against the budget; :meth:`submit` does for a direct
        caller): :func:`~repro.runtime.batching.merge_key` then reads
        what will run.  Idempotent: a resolved request comes back as the
        same object.
        """
        budget = self.config.deadline_ms
        if request.deadline is None and request.deadline_ms is None \
                and budget is not None:
            request = replace(request, deadline_ms=budget)
        return request.with_deadline_started()

    def submit(self, request: QueryRequest) -> QueryResponse:
        """Answer one request; the runtime's single query entry.

        The resolved request goes field for field onto the live index's
        ``query_batch``, so a read sees every write acknowledged before
        it.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        request = self.resolve(request)
        ids, dists, stats = self.index.query_batch(  # type: ignore[attr-defined]
            request.queries, request.k,
            hierarchy_threshold=request.hierarchy_threshold,
            deadline=request.deadline)
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
        from repro.native.registry import native_status

        status = native_status()
        return RuntimeInfo(
            ready=ready, n_points=n_points, kernels=str(status["backend"]),
            threads=int(status["threads"]),  # type: ignore[call-overload]
            wal_attached=self._wal is not None,
            applied_lsn=int(index._applied_lsn),  # type: ignore[attr-defined]
            closed=self._closed, detail=detail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IndexRuntime({type(self.index).__name__}, "
                f"wal={'on' if self._wal is not None else 'off'})")

