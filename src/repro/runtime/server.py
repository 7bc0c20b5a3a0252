"""``repro-knn serve``: an asyncio HTTP/JSON front-end over an
:class:`~repro.runtime.session.IndexRuntime`.

The event loop owns connections; each admitted query is handed to a
small thread pool where it blocks inside
:meth:`~repro.runtime.batching.MicroBatcher.submit` — so concurrent
HTTP requests land in the same coalescing window and ride one merged
executor batch.  Admission control
(:class:`~repro.runtime.admission.AdmissionController`) fronts the
pool: when ``max_queue_depth`` requests are already resident the server
answers immediately with the same ``exhausted_budget``-flagged padding
an expired deadline produces (HTTP 200, ``"shed": true``) instead of
queuing without bound.

Writes (``/insert``, ``/delete``, ``/checkpoint``) go through the
runtime's WAL-attached index, so every acknowledged mutation is durable
before its HTTP 200 — the same append-before-ack discipline (rule R13)
the library API enforces.  A serving process is therefore
crash-recoverable with ``IndexRuntime.open(snapshot, wal_path=...)``.
With ``--shard-workers`` a read's ``max_batch_rows`` shards run on the
runtime's threads over the same live index, so it still sees every
write acknowledged before it.

Routes
------
``POST /query``       ``{"queries": [[...]], "k": 5, "deadline_ms"?: float,
``                    ``"hierarchy_threshold"?: int}`` (an ``"engine"`` key
``                    ``is name-checked and ignored — pending deletion)
``POST /insert``      ``{"points": [[...]], "ids"?: [int]}``
``POST /delete``      ``{"ids": [int]}``
``POST /checkpoint``  ``{"path": str}``
``GET  /healthz``     liveness (the process answers)
``GET  /readyz``      readiness (index loaded, compactor alive)
``GET  /stats``       admission + micro-batch counters

Prometheus ``/metrics`` is not served here: pass a registry and the
serve CLI stands up the existing :class:`repro.obs.server.MetricsServer`
next to this one, sharing the same health/readiness callbacks.
"""

from __future__ import annotations

import asyncio
import json
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.admission import AdmissionController
from repro.runtime.batching import MicroBatcher
from repro.runtime.session import (IndexRuntime, QueryRequest, QueryResponse,
                                   check_legacy_engine, shed_response)

__all__ = ["RuntimeServer", "serialize_response"]

_JSON = Dict[str, object]


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def serialize_response(response: QueryResponse) -> _JSON:
    """Strict-JSON view of a response (non-finite distances → null)."""
    stats = response.stats
    distances: List[List[Optional[float]]] = [
        [_finite_or_none(d) for d in row]
        for row in response.distances.tolist()]
    return {
        "ids": response.ids.tolist(),
        "distances": distances,
        "shed": response.shed,
        "batched": response.batched,
        "stats": {
            "n_candidates": stats.n_candidates.tolist(),
            "escalated": stats.escalated.tolist(),
            "degraded": (stats.degraded.tolist()
                         if stats.degraded is not None else None),
            "exhausted_budget": (stats.exhausted_budget.tolist()
                                 if stats.exhausted_budget is not None
                                 else None),
            "n_failures": (len(stats.failures)
                           if stats.failures is not None else 0),
        },
    }


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 500: "Internal Server Error",
                503: "Service Unavailable"}


class RuntimeServer:
    """Asyncio HTTP/JSON server over one :class:`IndexRuntime`.

    Batch window, size cap and admission depth come from the runtime's
    :class:`~repro.runtime.session.RuntimeConfig`; ``port=0`` binds an
    ephemeral port (reported via :attr:`port` after :meth:`start`).
    """

    def __init__(self, runtime: IndexRuntime, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.runtime = runtime
        self.host = host
        self.port = port
        cfg = runtime.config
        self.admission = AdmissionController(cfg.max_queue_depth)
        self.batcher = MicroBatcher(
            runtime.submit, window_ms=cfg.batch_window_ms,
            max_rows=cfg.batch_max_rows, solo_fn=self._needs_solo)
        self._pool = ThreadPoolExecutor(
            max_workers=min(cfg.max_queue_depth, 32),
            thread_name_prefix="serve")
        self._server: Optional[asyncio.AbstractServer] = None
        self._write_gate = asyncio.Lock()
        self._requests_total: Dict[str, int] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        self._record_metrics_gauges()

    async def serve_forever(self, duration: Optional[float] = None) -> None:
        assert self._server is not None, "call start() first"
        if duration is None:
            await self._server.serve_forever()
            return
        try:
            await asyncio.wait_for(self._server.serve_forever(), duration)
        except asyncio.TimeoutError:  # invariant: disable=R5 — the timeout
            pass  # IS the planned stop for a bounded --serve-seconds run

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.close()

    def close(self) -> None:
        """Synchronous teardown of the batcher and worker pool."""
        self.batcher.close()
        self._pool.shutdown(wait=True)

    # ----------------------------------------------------------- readiness

    def health(self) -> bool:
        """Liveness: the process answers; readiness carries the detail."""
        return True

    def readiness(self) -> Dict[str, object]:
        """Readiness payload shared with the obs MetricsServer's /readyz."""
        info = self.runtime.info().to_dict()
        info["admission"] = self.admission.snapshot()
        batches, riders = self.batcher.merge_counts
        info["micro_batches"] = batches
        info["micro_batched_requests"] = riders
        return info

    # ------------------------------------------------------------- metrics

    def _record_metrics_gauges(self) -> None:
        registry = self.runtime.registry
        if registry is None:
            return
        registry.gauge("serve_max_queue_depth",
                       "Admission bound for in-flight requests").labels(
        ).set(float(self.admission.max_depth))

    def _count(self, route: str, *, shed: bool = False) -> None:
        self._requests_total[route] = self._requests_total.get(route, 0) + 1
        registry = self.runtime.registry
        if registry is None:
            return
        registry.counter("serve_requests_total",
                         "HTTP requests by route").labels(route=route).inc()
        if shed:
            registry.counter("serve_shed_total",
                             "Requests shed by admission control").labels(
            ).inc()

    # ------------------------------------------------------ request routing

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, payload = await self._dispatch(method, path, body)
            except _HTTPError as error:
                status, payload = error.status, {"error": str(error)}
            except (ValueError, KeyError, TypeError) as error:
                status, payload = 400, {"error": str(error)}
            except RuntimeError as error:
                status, payload = 500, {"error": str(error)}
            except Exception as error:  # noqa: BLE001 — last-resort
                # mapping so every parseable request gets an HTTP answer
                # (numpy errors, oversized-header LimitOverrunError, ...)
                # instead of a closed connection with no status line.
                status, payload = 500, {
                    "error": f"{type(error).__name__}: {error}"}
            data = json.dumps(payload).encode("utf-8")
            head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: close\r\n\r\n").encode("ascii")
            writer.write(head + data)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):  # invariant: disable=R5 — client hung up mid-request; nothing to answer
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # invariant: disable=R5 — peer already gone during teardown
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader,
                            ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HTTPError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, _JSON]:
        if method == "GET":
            if path == "/healthz":
                self._count("healthz")
                ok = self.health()
                return (200 if ok else 503), {"ok": ok}
            if path == "/readyz":
                self._count("readyz")
                info = self.readiness()
                return (200 if info.get("ready") else 503), info
            if path == "/stats":
                self._count("stats")
                return 200, self.readiness()
            raise _HTTPError(404, f"no such route: {path}")
        if method != "POST":
            raise _HTTPError(405, f"unsupported method: {method}")
        if path == "/query":
            return await self._handle_query(self._parse_json(body))
        if path == "/insert":
            return await self._handle_insert(self._parse_json(body))
        if path == "/delete":
            return await self._handle_delete(self._parse_json(body))
        if path == "/checkpoint":
            return await self._handle_checkpoint(self._parse_json(body))
        raise _HTTPError(404, f"no such route: {path}")

    @staticmethod
    def _parse_json(body: bytes) -> _JSON:
        if not body:
            raise _HTTPError(400, "empty request body")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise _HTTPError(400, f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    # ------------------------------------------------------------- handlers

    def _build_request(self, payload: _JSON) -> QueryRequest:
        if "queries" not in payload:
            raise _HTTPError(400, "missing field: queries")
        queries = np.asarray(payload["queries"], dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]
        k = int(payload.get("k", 10))  # type: ignore[arg-type]
        deadline_ms = payload.get("deadline_ms")
        threshold = payload.get("hierarchy_threshold")
        if isinstance(threshold, float):
            threshold = int(threshold)
        max_rows = payload.get("max_batch_rows")
        # Inert body key (see check_legacy_engine): name-checked, dropped.
        check_legacy_engine(payload.get("engine"))  # type: ignore[arg-type]
        request = QueryRequest(
            queries=queries, k=k,
            hierarchy_threshold=threshold,  # type: ignore[arg-type]
            deadline_ms=(float(deadline_ms)  # type: ignore[arg-type]
                         if deadline_ms is not None else None),
            max_batch_rows=(int(max_rows)  # type: ignore[arg-type]
                            if max_rows is not None else None))
        # Resolved at the door: session defaults filled in and the budget
        # clock — the request's or the session's — started at arrival, so
        # queue wait and batch window both count against it and the
        # batcher keys on what will run.
        return self.runtime.resolve(request)

    def _needs_solo(self, request: QueryRequest) -> bool:
        """True when the (resolved) request's threshold is the
        batch-dependent ``"median"`` and the index escalates by it;
        the session default is already in the request, so not re-read."""
        threshold = request.hierarchy_threshold
        return (threshold is None or isinstance(threshold, str)) \
            and self.runtime.hierarchy_sensitive

    async def _handle_query(self, payload: _JSON) -> Tuple[int, _JSON]:
        request = self._build_request(payload)
        if not self.admission.try_acquire():
            self._count("query", shed=True)
            return 200, serialize_response(
                shed_response(request, reason="overload"))
        try:
            self._count("query")
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                self._pool, self.batcher.submit, request)
        finally:
            self.admission.release()
        return 200, serialize_response(response)

    async def _handle_insert(self, payload: _JSON) -> Tuple[int, _JSON]:
        self._count("insert")
        if "points" not in payload:
            raise _HTTPError(400, "missing field: points")
        points = np.asarray(payload["points"], dtype=np.float64)
        if points.ndim == 1:
            points = points[np.newaxis, :]
        ids_field = payload.get("ids")
        ids = (np.asarray(ids_field, dtype=np.int64)
               if ids_field is not None else None)
        loop = asyncio.get_running_loop()
        async with self._write_gate:
            assigned = await loop.run_in_executor(
                self._pool, self.runtime.insert, points, ids)
        return 200, {"ids": np.asarray(assigned).tolist(),
                     "count": int(np.asarray(assigned).shape[0])}

    async def _handle_delete(self, payload: _JSON) -> Tuple[int, _JSON]:
        self._count("delete")
        if "ids" not in payload:
            raise _HTTPError(400, "missing field: ids")
        ids = np.asarray(payload["ids"], dtype=np.int64)
        loop = asyncio.get_running_loop()
        async with self._write_gate:
            removed = await loop.run_in_executor(
                self._pool, self.runtime.delete, ids)
        return 200, {"deleted": int(removed)}

    async def _handle_checkpoint(self, payload: _JSON) -> Tuple[int, _JSON]:
        self._count("checkpoint")
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise _HTTPError(400, "missing field: path")
        loop = asyncio.get_running_loop()
        async with self._write_gate:
            lsn = await loop.run_in_executor(
                self._pool, self.runtime.checkpoint, path)
        return 200, {"lsn": int(lsn)}
