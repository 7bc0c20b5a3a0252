"""``repro-knn serve``: an asyncio HTTP/JSON front-end over an
:class:`~repro.runtime.session.IndexRuntime`.

The event loop owns connections; each admitted query is handed to a
small thread pool where it blocks inside
:meth:`~repro.runtime.batching.MicroBatcher.submit` — so HTTP requests
that arrive while a batch executes queue up and ride the next merged
executor batch together.  Connections are HTTP/1.1 persistent: one
socket carries request after request, and the server closes it only
when the client asks (``Connection: close``), speaks HTTP/1.0, hangs
up, or sends a request it cannot frame (answered 400 first).  An idle
connection is never dropped.  Admission control
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
An insert or delete takes its turn in the batcher's order
(:meth:`~repro.runtime.batching.MicroBatcher.run_in_turn`), so it never
runs beside a read batch and the two do not share the interpreter lock.

Routes
------
``POST /query``       ``{"queries": [[...]], "k": 5, "deadline_ms"?: float,
``                    ``"hierarchy_threshold"?: int}`` (an ``"engine"`` key
``                    ``is name-checked and ignored — pending deletion)
``POST /insert``      ``{"points": [[...]], "ids"?: [int]}``
``POST /delete``      ``{"ids": [int]}``
``POST /checkpoint``  ``{"path": str}``
``GET  /healthz``     liveness (the process answers)
``GET  /readyz``      readiness (index fitted and non-empty, runtime open)
``GET  /stats``       admission + micro-batch counters
``GET  /metrics``     the runtime registry as Prometheus text
``GET  /metrics.json`` the registry's full snapshot plus derived roll-ups

Routing ignores a query string.  The two metrics routes answer 404 when
the runtime has no registry.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro import obs
from repro.runtime.admission import AdmissionController
from repro.runtime.batching import MicroBatcher
from repro.runtime.session import (IndexRuntime, QueryRequest, QueryResponse,
                                   check_legacy_engine, shed_response)
from repro.utils.validation import (check_hierarchy_threshold,
                                    validate_query_batch)

__all__ = ["RuntimeServer", "serialize_response"]

_JSON = Dict[str, object]
# A route answers a JSON object, or Prometheus text as a ``str``.
_Body = Union[_JSON, str]
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
# More header lines than this answer 431 (``http.client``'s limit too).
_MAX_HEADERS = 100


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
            "exhausted_budget": (stats.exhausted_budget.tolist()
                                 if stats.exhausted_budget is not None
                                 else None),
        },
    }


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_int(value: object, field: str) -> int:
    """A JSON integer: an int or an integral float (``10.0``); a bool, a
    fraction or anything else answers 400 naming ``field``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _HTTPError(400, f"{field} must be an integer, got {value!r}")


def _json_ids(value: object) -> np.ndarray:
    """A JSON list of ids (or one id), each checked by :func:`_json_int`."""
    items = value if isinstance(value, list) else [value]
    return np.array([_json_int(item, "ids") for item in items],
                    dtype=np.int64)


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error", 503: "Service Unavailable"}


class RuntimeServer:
    """Asyncio HTTP/JSON server over one :class:`IndexRuntime`.

    Batch size cap and admission depth come from the runtime's
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
        self.batcher = MicroBatcher(runtime.submit,
                                    max_rows=cfg.batch_max_rows)
        self._pool = ThreadPoolExecutor(
            max_workers=min(cfg.max_queue_depth, 32),
            thread_name_prefix="serve")
        self._server: Optional[asyncio.AbstractServer] = None
        # Every open connection and the task answering it; the idle ones
        # (reading their next request) are the ones stop() closes.
        self._conns: Dict[asyncio.StreamWriter, "asyncio.Task[None]"] = {}
        self._idle: Set[asyncio.StreamWriter] = set()
        self._write_gate = asyncio.Lock()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = int(sockets[0].getsockname()[1])
        self._record_metrics_gauges()

    async def serve_forever(self, duration: Optional[float] = None) -> None:
        """Serve until cancelled, or for ``duration`` seconds.

        The socket has listened since :meth:`start`; this only waits.  It
        leaves closing to :meth:`stop`, which closes the idle connections
        first (``Server.serve_forever`` would close the listener and then
        wait for every idle keep-alive client to hang up).
        """
        assert self._server is not None, "call start() first"
        if duration is None:
            await asyncio.get_running_loop().create_future()
        else:
            await asyncio.sleep(duration)

    async def stop(self) -> None:
        """Stop listening and close every idle connection; a connection
        in the middle of a request answers it with ``Connection: close``
        and then closes.  Once every handler has returned, wait for the
        server to close (which, from Python 3.12.1, waits for the
        connections too)."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            await asyncio.gather(*self._conns.values(),
                                 return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self.close()

    def close(self) -> None:
        """Synchronous teardown of the batcher and worker pool."""
        self.batcher.close()
        self._pool.shutdown(wait=True)

    # ----------------------------------------------------------- readiness

    def readiness(self) -> Dict[str, object]:
        """The ``/readyz`` and ``/stats`` payload: runtime info plus the
        admission and micro-batch counters."""
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
        """Answer request after request on one connection until the
        client closes it or asks to, or a request cannot be framed."""
        task = asyncio.current_task()
        assert task is not None
        self._conns[writer] = task
        try:
            keep_alive = True
            while keep_alive and self._serving():
                try:
                    request = await self._next_request(reader, writer)
                except (_HTTPError, ValueError) as error:
                    # Framing lost (bad request line or Content-Length,
                    # an over-long line, too many headers): answer, then
                    # close.
                    status = getattr(error, "status", 400)
                    await self._respond(writer, status,
                                        {"error": str(error)},
                                        keep_alive=False)
                    break
                if request is None or writer.is_closing():
                    break  # EOF between requests, or stop() closed it
                method, path, body, keep_alive = request
                status, payload = await self._answer(method, path, body)
                # A request answered after stop() began is the last one.
                keep_alive = keep_alive and self._serving()
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive)
        except (ConnectionError, asyncio.IncompleteReadError):  # invariant: disable=R5 — client hung up mid-request; nothing to answer
            pass
        finally:
            self._conns.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # invariant: disable=R5 — peer already gone during teardown
                pass

    async def _answer(self, method: str, path: str,
                      body: bytes) -> Tuple[int, _Body]:
        """Dispatch one framed request; every failure becomes a status."""
        try:
            return await self._dispatch(method, path, body)
        except _HTTPError as error:
            return error.status, {"error": str(error)}
        except (ValueError, KeyError, TypeError) as error:
            return 400, {"error": str(error)}
        except RuntimeError as error:
            return 500, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 — last-resort
            # mapping so every parseable request gets an HTTP answer
            # (numpy errors, arbitrary executor failures, ...) instead
            # of a closed connection with no status line.
            return 500, {"error": f"{type(error).__name__}: {error}"}

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: _Body, *, keep_alive: bool) -> None:
        """Write one response: a ``str`` payload is Prometheus text,
        anything else JSON."""
        if isinstance(payload, str):
            data, ctype = payload.encode("utf-8"), _PROMETHEUS_TYPE
        else:
            data, ctype = json.dumps(payload).encode(), "application/json"
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n").encode("ascii")
        writer.write(head + data)
        await writer.drain()

    def _serving(self) -> bool:
        return self._server is not None and self._server.is_serving()

    async def _next_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Read the connection's next request (``None`` at EOF) as an idle
        connection: until it is read whole nothing has acted on it, so
        :meth:`stop` may close the connection meanwhile."""
        self._idle.add(writer)
        try:
            return await self._read_request(reader)
        finally:
            self._idle.discard(writer)

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader,
                            ) -> Optional[Tuple[str, str, bytes, bool]]:
        """``(method, path, body, keep_alive)`` of the next request, or
        ``None`` at EOF.  Raises :class:`_HTTPError` (or ``ValueError``
        for an over-long line) when the request cannot be framed."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2 or len(parts) > 3:
            raise _HTTPError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) == 3 else "HTTP/1.0"
        headers: Dict[str, str] = {}
        for n_lines in range(_MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if n_lines == _MAX_HEADERS:
                raise _HTTPError(431, f"more than {_MAX_HEADERS} headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _HTTPError(400, "Transfer-Encoding is not supported; "
                                  "send a Content-Length")
        raw_length = headers.get("content-length", "0") or "0"
        if not raw_length.isdigit():
            raise _HTTPError(400, f"bad Content-Length: {raw_length!r}")
        length = int(raw_length)
        body = await reader.readexactly(length) if length else b""
        tokens = {t.strip().lower()
                  for t in headers.get("connection", "").split(",")}
        keep_alive = version == "HTTP/1.1" and "close" not in tokens
        return method, path, body, keep_alive

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> Tuple[int, _Body]:
        path = path.split("?", 1)[0]
        if method == "GET":
            if path == "/healthz":
                self._count("healthz")
                return 200, {"ok": True}
            if path == "/readyz":
                self._count("readyz")
                info = self.readiness()
                return (200 if info.get("ready") else 503), info
            if path == "/stats":
                self._count("stats")
                return 200, self.readiness()
            registry = self.runtime.registry
            if path == "/metrics" and registry is not None:
                self._count("metrics")
                return 200, registry.to_prometheus()
            if path == "/metrics.json" and registry is not None:
                self._count("metrics.json")
                return 200, obs.full_snapshot(registry)
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
        # Checked here, by the query path's own validation, so a NaN or
        # infinite entry (which ``json.loads`` accepts) or a row of the
        # wrong width answers 400 naming ``queries`` and never joins a
        # merge queue, where it would fail every read merged with it.
        queries, k = validate_query_batch(
            payload["queries"], _json_int(payload.get("k", 10), "k"),
            self.runtime.index._data.shape[1])  # type: ignore[attr-defined]
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))):
            raise _HTTPError(
                400, f"deadline_ms must be a number, got {deadline_ms!r}")
        threshold = payload.get("hierarchy_threshold")
        if threshold is not None:
            threshold = _json_int(threshold, "hierarchy_threshold")
        # Inert body key (see check_legacy_engine): name-checked, dropped.
        check_legacy_engine(payload.get("engine"))  # type: ignore[arg-type]
        request = QueryRequest(
            queries=queries, k=k,
            hierarchy_threshold=check_hierarchy_threshold(threshold),
            deadline_ms=(float(deadline_ms)
                         if deadline_ms is not None else None))
        # Resolved at the door: session defaults filled in and the budget
        # clock — the request's or the session's — started at arrival, so
        # the admission and batch queue waits both count against it and
        # the batcher keys on what will run.
        return self.runtime.resolve(request)

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
        ids = _json_ids(ids_field) if ids_field is not None else None
        loop = asyncio.get_running_loop()
        async with self._write_gate:
            assigned = await loop.run_in_executor(
                self._pool, self.batcher.run_in_turn,
                functools.partial(self.runtime.insert, points, ids))
        return 200, {"ids": np.asarray(assigned).tolist(),
                     "count": int(np.asarray(assigned).shape[0])}

    async def _handle_delete(self, payload: _JSON) -> Tuple[int, _JSON]:
        self._count("delete")
        if "ids" not in payload:
            raise _HTTPError(400, "missing field: ids")
        ids = _json_ids(payload["ids"])
        loop = asyncio.get_running_loop()
        async with self._write_gate:
            removed = await loop.run_in_executor(
                self._pool, self.batcher.run_in_turn,
                functools.partial(self.runtime.delete, ids))
        return 200, {"deleted": int(removed)}

    async def _handle_checkpoint(self, payload: _JSON) -> Tuple[int, _JSON]:
        self._count("checkpoint")
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise _HTTPError(400, "missing field: path")
        loop = asyncio.get_running_loop()
        # Beside the reads, not in their turn order: a snapshot takes
        # seconds, and the runtime's checkpoint is safe beside queries.
        async with self._write_gate:
            lsn = await loop.run_in_executor(
                self._pool, self.runtime.checkpoint, path)
        return 200, {"lsn": int(lsn)}
