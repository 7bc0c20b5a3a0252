"""``serve_mixed``: a closed loop of two HTTP/1.1 connections against
``repro-knn serve`` in its own process.

Two callers that each wait for a reply are what two cores can generate
without measuring the scheduler, so the loop is closed: each connection
sends its next request when the previous one is answered.  Connection 0
turns every fifth operation into a write, alternating a 2-row
``/insert`` (explicit ids) with the ``/delete`` of those ids, so writes
are 10 % of operations and the corpus size is stationary.  The window
runs without pause; it is cut into passes afterwards by completion time.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.e2e import workloads as W
from benchmarks.e2e.legs import PassRecord, Quality, quality_of
from benchmarks.e2e.measure import CpuWindow, vm_hwm_mib
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.verify import PointStore, check_answers, verify_durability

BOOT_TIMEOUT_S = 90.0
REQUEST_TIMEOUT_S = 60.0


# ------------------------------------------------------------------ client

class Connection:
    """One persistent HTTP/1.1 connection; reconnects only after the server
    closed (today every response says ``Connection: close``)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.connects = 0

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                ) -> Tuple[int, bytes]:
        """Connect if needed, send, read to the last byte of the body."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Connection: keep-alive\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body) if body else 0}\r\n\r\n"
                ).encode("ascii")
        if self.sock is None:
            self.sock = socket.create_connection(
                ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connects += 1
        sock = self.sock
        sock.sendall(head + body if body else head)
        buf = bytearray()
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before the headers")
            buf += chunk
        lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", "0"))
        payload = buf[end + 4:]
        while len(payload) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed inside the body")
            payload += chunk
        if headers.get("connection", "") == "close":
            self.close()
        return status, bytes(payload[:length])


@dataclass
class Op:
    kind: str                  # "read" | "insert" | "delete"
    conn: int
    sent: float
    done: float
    status: int
    row: int = -1              # query row of a read
    ids: Optional[np.ndarray] = None        # read answer / written ids
    dists: Optional[np.ndarray] = None
    shed: bool = False
    error: str = ""
    ok: bool = False


def _parse_read(payload: bytes) -> Tuple[np.ndarray, np.ndarray, bool]:
    body = json.loads(payload)
    ids = np.asarray(body["ids"], dtype=np.int64)
    dists = np.array([[np.inf if d is None else d for d in row]
                      for row in body["distances"]], dtype=np.float64)
    return ids, dists, bool(body.get("shed"))


class MixedClient:
    """The closed loop: ``N_CONNECTIONS`` threads, each one connection."""

    def __init__(self, port: int, queries: np.ndarray, sizes: W.Sizes,
                 seed: int) -> None:
        self.port = port
        self.queries = queries
        self.sizes = sizes
        self.seed = seed
        self.read_rows = W.read_pool_rows(sizes)
        self.pool = W.insert_pool(sizes, queries)
        self.ops: List[List[Op]] = [[] for _ in range(W.N_CONNECTIONS)]
        self.connects = 0
        self.inserted: Dict[int, np.ndarray] = {}    # acked inserts
        self.deleted_at: Dict[int, float] = {}       # id -> ack time
        self._pair = 0
        self._pending: Optional[np.ndarray] = None   # inserted, not deleted

    # Request bodies are built before the clock starts for that request.
    def _read_body(self, row: int) -> bytes:
        return json.dumps({"queries": [self.queries[row].tolist()],
                           "k": W.K, "engine": W.ENGINE}).encode("ascii")

    def _write(self, conn: Connection, index: int) -> Op:
        if self._pending is None:
            ids = np.array([W.WINDOW_ID_BASE + 2 * self._pair,
                            W.WINDOW_ID_BASE + 2 * self._pair + 1],
                           dtype=np.int64)
            lo = (2 * self._pair) % (self.pool.shape[0] - 1)
            points = self.pool[lo:lo + 2]
            self._pair += 1
            body = json.dumps({"points": points.tolist(),
                               "ids": ids.tolist()}).encode("ascii")
            kind, path = "insert", "/insert"
        else:
            ids, points = self._pending, None
            body = json.dumps({"ids": ids.tolist()}).encode("ascii")
            kind, path = "delete", "/delete"
        sent = time.perf_counter()
        status, payload = conn.request("POST", path, body)
        done = time.perf_counter()
        op = Op(kind, index, sent, done, status, ids=ids)
        reply = json.loads(payload) if status == 200 else {}
        if kind == "insert":
            op.ok = status == 200 and reply.get("ids") == ids.tolist()
            if op.ok:
                for i, point in zip(ids, points):
                    self.inserted[int(i)] = np.array(point)
                self._pending = ids
        else:
            op.ok = status == 200 and reply.get("deleted") == ids.size
            if op.ok:
                for i in ids:
                    self.deleted_at[int(i)] = done
                self._pending = None
        if not op.ok:
            op.error = f"{kind} answered {status}: {payload[:120]!r}"
        return op

    def _loop(self, index: int, stop_at: float, errors: List[str]) -> None:
        conn = Connection(self.port)
        order = self.read_rows[W.pass_order(self.seed, index,
                                            self.read_rows.size)]
        out = self.ops[index]
        count = 0
        try:
            while time.perf_counter() < stop_at:
                count += 1
                if index == 0 and count % W.WRITE_EVERY == 0:
                    out.append(self._write(conn, index))
                    continue
                row = int(order[count % order.size])
                body = self._read_body(row)
                sent = time.perf_counter()
                status, payload = conn.request("POST", "/query", body)
                done = time.perf_counter()
                op = Op("read", index, sent, done, status, row=row)
                if status == 200:
                    op.ids, op.dists, op.shed = _parse_read(payload)
                else:
                    op.error = f"read answered {status}: {payload[:120]!r}"
                out.append(op)
        except (OSError, ValueError, KeyError) as error:
            errors.append(f"connection {index}: {type(error).__name__}: "
                          f"{error}")
        finally:
            conn.close()
            self.connects += conn.connects

    def run(self, seconds: float) -> Tuple[float, float]:
        """Drive the loop for ``seconds``; returns (start, end) clocks."""
        errors: List[str] = []
        start = time.perf_counter()
        threads = [threading.Thread(target=self._loop,
                                    args=(i, start + seconds, errors))
                   for i in range(W.N_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise RuntimeError("; ".join(errors))
        return start, time.perf_counter()

    def all_ops(self) -> List[Op]:
        return sorted((op for ops in self.ops for op in ops),
                      key=lambda op: op.done)

    def read_all(self, rows: Sequence[int], rows_per_request: int = 1,
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """A quiesced read pass (one connection, no writes in flight).
        Untimed, so rows may share a request."""
        conn = Connection(self.port)
        ids: List[np.ndarray] = []
        dists: List[np.ndarray] = []
        rows = list(rows)
        try:
            for lo in range(0, len(rows), rows_per_request):
                chunk = rows[lo:lo + rows_per_request]
                body = json.dumps({"queries": self.queries[chunk].tolist(),
                                   "k": W.K, "engine": W.ENGINE})
                status, payload = conn.request("POST", "/query",
                                               body.encode("ascii"))
                if status != 200:
                    raise RuntimeError(f"quiesced read answered {status}")
                part_ids, part_dists, shed = _parse_read(payload)
                if shed:
                    raise RuntimeError("quiesced read was shed")
                ids.append(part_ids)
                dists.append(part_dists)
        finally:
            conn.close()
        return np.concatenate(ids), np.concatenate(dists)


# ------------------------------------------------------------------ server

def server_env() -> Dict[str, str]:
    """The server's environment.  One malloc arena: with glibc's default
    of one per thread, how much freed memory the worker threads' arenas
    keep depends on which thread served which write, and ``VmHWM`` of the
    same window on the same code read 297, 310 or 333-345 MiB; with one
    arena it reads 214-216 MiB every time."""
    return dict(W.child_env(), MALLOC_ARENA_MAX="1")


class ServerProcess:
    """``repro-knn serve <snapshot> --port 0 --engine native --wal <copy>``."""

    def __init__(self, inputs: W.Inputs, wal_copy: str) -> None:
        self.inputs = inputs
        self.wal_copy = wal_copy
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        os.makedirs(W.OUT_DIR, exist_ok=True)
        self._stderr = open(os.path.join(W.OUT_DIR, "serve-stderr.log"), "wb")

    def start(self) -> None:
        """Spawn and wait for the first 200 from ``/readyz``."""
        shutil.copyfile(self.inputs.path("tail.wal"), self.wal_copy)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             self.inputs.path("serve.npz"), "--port", "0",
             "--engine", W.ENGINE, "--wal", self.wal_copy],
            stdout=subprocess.PIPE, stderr=self._stderr, env=server_env())
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        line = b""
        fd = self.proc.stdout.fileno()
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None \
                    or not select.select([fd], [], [], left)[0]:
                self.kill()
                raise RuntimeError("repro-knn serve did not come up")
            chunk = os.read(fd, 4096)
            if not chunk:
                self.kill()
                raise RuntimeError("repro-knn serve exited during boot")
            line += chunk
        self.port = int(line.split(b"http://", 1)[1].split(b" ", 1)[0]
                        .rsplit(b":", 1)[1])
        conn = Connection(self.port)
        try:
            while True:
                status, _ = conn.request("GET", "/readyz")
                if status == 200:
                    return
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("/readyz never answered 200")
                time.sleep(0.01)
        finally:
            conn.close()

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def kill(self) -> None:
        """``kill -9`` and reap; what is on disk is all that survives."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.proc = None

    def close(self) -> None:
        self.kill()
        self._stderr.close()


class InProcessServer:
    """``RuntimeServer`` on a thread of the benchmark process, for the
    traced leg: spans on the client and the server then share a clock.
    Its numbers are shares of a request, not latencies — client threads,
    the event loop and the worker pool all share one interpreter lock."""

    def __init__(self, inputs: W.Inputs, wal_copy: str,
                 tracer: Tracer) -> None:
        from repro import obs
        from repro.obs.registry import MetricsRegistry
        from repro.runtime import IndexRuntime, RuntimeConfig
        from repro.runtime.server import RuntimeServer

        shutil.copyfile(inputs.path("tail.wal"), wal_copy)
        # ``repro-knn serve`` runs with observability on; so does this.
        self._obs = obs
        registry = MetricsRegistry()
        obs.enable(registry=registry)
        self.runtime = IndexRuntime.open(
            inputs.path("serve.npz"), RuntimeConfig(engine=W.ENGINE),
            wal_path=wal_copy, registry=registry)
        self.calls = {"submit": 0, "batcher": 0}

        def count(key: str) -> Callable[..., None]:
            def bump(*_args: Any) -> None:
                self.calls[key] += 1
            return bump

        # Wrapped before RuntimeServer binds ``runtime.submit`` into its
        # MicroBatcher, so the batcher calls the recording wrapper.
        tracer.wrap(self.runtime, "submit", "runtime.submit", count("submit"))
        tracer.wrap(self.runtime, "insert", "maintenance.insert")
        tracer.wrap(self.runtime, "delete", "maintenance.delete")
        tracer.wrap(self.runtime.wal, "append_insert", "maintenance.wal_append")
        tracer.wrap(self.runtime.wal, "append_delete", "maintenance.wal_append")
        self.server = RuntimeServer(self.runtime, port=0)
        tracer.wrap(self.server.batcher, "submit", "runtime.batcher.submit",
                    count("batcher"))
        self._loop = asyncio.new_event_loop()
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        if not self._ready.wait(BOOT_TIMEOUT_S):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.port

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            self._stop = asyncio.Event()
            await self.server.start()
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        self._loop.run_until_complete(main())
        self._loop.close()

    def close(self) -> None:
        assert self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(BOOT_TIMEOUT_S)
        self.runtime.close()
        self._obs.disable()


# ------------------------------------------------------ checks and metrics

class ServeChecker:
    """check_answers over served reads, knowing what was written when."""

    def __init__(self, inputs: W.Inputs, train: np.ndarray,
                 queries: np.ndarray) -> None:
        self.sizes = inputs.sizes
        self.queries = queries
        self.store = PointStore(train)
        self.tail_deleted = np.empty(0, dtype=np.int64)
        self.tail_live: Dict[int, np.ndarray] = {}
        for kind, ids, points in W.tail_records(self.sizes, queries):
            if kind == "insert":
                self.store.add(ids, points)
                for i, point in zip(ids, points):
                    self.tail_live[int(i)] = np.array(point)
            else:
                self.tail_deleted = np.concatenate([self.tail_deleted, ids])
                for i in ids:
                    self.tail_live.pop(int(i), None)

    def check(self, client: MixedClient, ops: Sequence[Op]) -> None:
        """Set ``op.ok`` for every read (writes were judged when acked):
        one ``check_answers`` call over all well-formed 200 replies."""
        self.store.add(client.inserted.keys(), list(client.inserted.values()))
        deleted_ids = np.fromiter(client.deleted_at, dtype=np.int64,
                                  count=len(client.deleted_at))
        deleted_when = np.array([client.deleted_at[int(i)]
                                 for i in deleted_ids])
        reads = [op for op in ops if op.kind == "read"
                 and op.status == 200 and not op.shed
                 and op.ids is not None and op.ids.shape == (1, W.K)
                 and op.dists is not None and op.dists.shape == (1, W.K)]
        if not reads:
            return

        def banned(index: int) -> np.ndarray:
            sent = reads[index].sent
            return np.concatenate(
                [self.tail_deleted, deleted_ids[deleted_when < sent]])

        verdicts = check_answers(
            self.queries[[op.row for op in reads]],
            np.concatenate([op.ids for op in reads]),
            np.concatenate([op.dists for op in reads]),
            self.store, W.K, forbidden=banned)
        for op, verdict in zip(reads, verdicts):
            op.ok = bool(verdict)
            if not op.ok:
                op.error = f"read of row {op.row} failed the answer check"

    def final_ground_truth(self, inputs: W.Inputs, client: MixedClient,
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact 10-NN of the quality rows over the corpus as the window
        left it: the original points (never deleted) plus every live
        inserted point."""
        gt_ids = inputs.load("gt_ids")
        gt_dists = inputs.load("gt_dists")
        live = dict(self.tail_live)
        for ident, point in client.inserted.items():
            if ident not in client.deleted_at:
                live[ident] = point
        if not live:
            return gt_ids, gt_dists
        extra_ids = np.fromiter(live, dtype=np.int64, count=len(live))
        extra = np.stack([live[int(i)] for i in extra_ids])
        rows = self.queries[:self.sizes.quality_rows]
        diff = rows[:, None, :] - extra[None, :, :]
        extra_d = np.sqrt(np.einsum("qed,qed->qe", diff, diff))
        all_ids = np.concatenate(
            [gt_ids, np.broadcast_to(extra_ids, extra_d.shape)], axis=1)
        all_d = np.concatenate([gt_dists, extra_d], axis=1)
        order = np.lexsort((all_ids, all_d), axis=1)[:, :W.K]
        return (np.take_along_axis(all_ids, order, axis=1),
                np.take_along_axis(all_d, order, axis=1))


def slice_passes(ops: Sequence[Op], start: float, end: float,
                 n_passes: int) -> List[PassRecord]:
    """Cut the window into ``n_passes`` equal slices by completion time.

    A pass's latencies are its reads' connect-to-last-byte times; its
    ``ok`` list has one single-element verdict per operation, reads and
    writes alike, so ``correct_rows`` counts correct operations.
    """
    width = (end - start) / n_passes
    records = [PassRecord(width, [], []) for _ in range(n_passes)]
    for op in ops:
        index = min(int((op.done - start) / width), n_passes - 1)
        record = records[index]
        record.ok.append(np.array([op.ok]))
        if op.kind == "read":
            record.latencies.append(op.done - op.sent)
    return records


def served_quality(ids: np.ndarray, dists: np.ndarray, gt_ids: np.ndarray,
                   gt_dists: np.ndarray, n_points: int) -> Quality:
    zeros = np.zeros(ids.shape[0])
    q = quality_of(ids, dists, zeros, zeros, gt_ids, gt_dists, n_points)
    # Candidate counts travel in the HTTP reply but are not kept by the
    # client; the traced leg reads them from the runtime instead.
    return Quality(q["recall"], q["error_ratio"], 0.0, 0.0, {"serve": q})


def run_serve_leg(inputs: W.Inputs, seed: int, seconds: float,
                  n_setups: int, n_passes: int) -> Dict[str, Any]:
    """Set-ups (spawn -> first 200 from ``/readyz``), the window, the
    quiesced quality pass, ``kill -9``, then the durability check."""
    wal_copy = os.path.join(W.OUT_DIR, f"serve-{os.getpid()}.wal")
    sizes = inputs.sizes
    queries = inputs.load("queries")
    server = ServerProcess(inputs, wal_copy)
    setups: List[float] = []
    try:
        for _ in range(n_setups):
            server.kill()
            begin = time.perf_counter()
            server.start()
            setups.append(time.perf_counter() - begin)
        client = MixedClient(server.port, queries, sizes, seed)
        client.read_all(range(min(50, sizes.quality_rows)))      # warm-up
        cpu = CpuWindow([server.pid])
        start, end = client.run(seconds)
        cpu_report = cpu.close()
        q_ids, q_dists = client.read_all(range(sizes.quality_rows),
                                         sizes.quiesced_rows)
        rss = vm_hwm_mib(server.pid)
        server.kill()
        train = inputs.load("train")
        checker = ServeChecker(inputs, train, queries)
        ops = client.all_ops()
        checker.check(client, ops)
        gt_ids, gt_dists = checker.final_ground_truth(inputs, client)
        quality = served_quality(q_ids, q_dists, gt_ids, gt_dists,
                                 sizes.n_train)
        acked = dict(checker.tail_live)
        acked.update(client.inserted)
        gone = list(client.deleted_at) + [int(i) for i in checker.tail_deleted]
        for ident in checker.tail_deleted:
            acked.setdefault(int(ident), checker.store.extra[int(ident)])
        checks, problems = verify_durability(
            inputs.path("serve.npz"), wal_copy, acked, gone, W.K)
    finally:
        server.close()
        if os.path.exists(wal_copy):
            os.remove(wal_copy)
    passes = slice_passes(ops, start, end, n_passes)
    failed_ops = [op for op in ops if not op.ok]
    reads = [op for op in ops if op.kind == "read"]
    return {
        "setups": setups, "quality": quality, "passes": passes,
        "peak_rss_mb": rss, "attempted": len(ops) + checks,
        "failed": len(failed_ops) + len(problems),
        "problems": [op.error or f"{op.kind} failed" for op in failed_ops]
        + problems,
        "cpu": cpu_report, "ops": ops,
        "connects_per_request": client.connects / max(1, len(ops)),
        "shed_share": sum(1 for op in reads if op.shed) / max(1, len(reads)),
    }
