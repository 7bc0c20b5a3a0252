"""Shared-memory process sharding for batch queries (DESIGN.md §12).

:class:`ProcessShardExecutor` runs :class:`~repro.lsh.index.StandardLSH`
batch queries across a persistent pool of **processes** instead of the
``n_jobs`` thread pool — true multi-core execution for the GIL-bound
parts of the pipeline.  The arrays of the index's own description,
:meth:`StandardLSH.state() <repro.lsh.index.StandardLSH.state>`, are
copied into one :class:`multiprocessing.shared_memory.SharedMemory`
segment exactly once; each worker adopts zero-copy read-only views over
that segment with ``StandardLSH.from_state`` and answers contiguous
``max_batch_rows`` row shards dispatched over a pipe.

Contracts (mirroring the executor's own shard loop,
:func:`repro.exec.run_validated`):

- results are **bit-identical** to the unsharded in-process run given an
  integer ``hierarchy_threshold`` (the stages are row-independent; the
  workers execute the very same plan code over views of the very same
  arrays);
- one **absolute deadline** is shared by every shard: the
  :class:`Deadline` itself is shipped to workers (it pickles with its
  absolute ``time.monotonic()`` expiry, a clock that is system-wide on
  Linux), and shards not yet dispatched when the budget expires return
  padded answers flagged ``exhausted_budget``;
- with a :class:`~repro.resilience.policy.ResiliencePolicy`, a shard
  whose worker **dies mid-batch** is retried on a fresh worker and then
  answered by an exact brute-force scan, with the affected rows flagged
  ``degraded`` — never a wrong or missing answer.

Buffer-lifetime ownership (the ``np.frombuffer``-on-``SharedMemory``
trap): a numpy view built from ``shm.buf`` holds a memoryview export of
the segment, and ``shm.close()`` while any such view is alive raises
``BufferError`` (or, if the ``SharedMemory`` object is simply dropped,
leaves views pointing at an unmapped segment).  The rule used throughout
this module: every view's lifetime is bounded by the owning
``SharedMemory`` object — the parent's copy-in views are function-local
and dead before ``close()`` can run, and a worker drops its index (and
with it every view) before closing its handle on shutdown.
"""

from __future__ import annotations

import atexit
import os
import signal
import weakref
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.exec.context import ExecutionContext, QueryStats
from repro.exec.executor import run_plan
from repro.exec.plan import QueryPlan, Stage, validate_query_batch
from repro.resilience.deadline import Deadline
from repro.resilience.policy import FailureRecord, ResiliencePolicy

if TYPE_CHECKING:  # runtime import would cycle: lsh.index imports repro.exec
    from repro.lsh.index import StandardLSH

__all__ = ["ProcessShardExecutor", "WorkerCrashError"]

#: Segment byte alignment for every array (cache-line friendly, and keeps
#: any dtype's natural alignment satisfied).
_ALIGN = 64

#: One manifest entry: ``(key, dtype_str, shape, byte_offset)``.
_ManifestEntry = Tuple[str, str, Tuple[int, ...], int]


class WorkerCrashError(RuntimeError):
    """A shard worker process died before delivering its result."""


# ---------------------------------------------------------------------------
# Abnormal-exit SHM cleanup.  A SharedMemory segment is a kernel object
# (/dev/shm/...) that outlives the process unless unlink() runs; a parent
# killed by SIGTERM — or one that simply forgets close() — would leak the
# whole index copy until reboot.  Every live executor registers in a weak
# set, and a process-wide atexit hook plus a chaining SIGTERM handler
# close (and therefore unlink) whatever is still open on the way down.
# SIGKILL cannot be caught by design; that residual case is documented in
# DESIGN.md §13 (stale segments are keyed by a fresh random name per run,
# so a leaked one is never re-attached, only wasted until cleanup).
# ---------------------------------------------------------------------------

_LIVE_EXECUTORS: "weakref.WeakSet[ProcessShardExecutor]" = weakref.WeakSet()
_CLEANUP_INSTALLED = False
_PREV_SIGTERM_HANDLER: object = None


def _cleanup_live_executors() -> None:
    """Close every still-open executor (atexit path)."""
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor.close()
        except Exception:  # invariant: disable=R5,R7 — best-effort teardown
            # on the way out of a dying process; there is no registry left
            # to record into and raising would mask the original exit cause.
            pass  # invariant: disable=R5 — see handler justification above


def _sigterm_cleanup(signum: int, frame: object) -> None:
    # The handler runs on the main thread at an arbitrary point — possibly
    # while it holds an executor lock mid-run_batch.  A full close()
    # (worker joins, pipe sends) could deadlock there, so only unlink
    # the SHM name: that is the actual leak being prevented (the kernel
    # frees the memory once the dying process's mappings go), and unlink
    # is a single re-entrant syscall.
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor._emergency_unlink()
        except Exception:  # invariant: disable=R5,R7 — best-effort unlink
            # on the way down; raising would mask the termination itself.
            pass  # invariant: disable=R5 — see comment above
    if callable(_PREV_SIGTERM_HANDLER):
        _PREV_SIGTERM_HANDLER(signum, frame)
    else:
        # Preserve the conventional "terminated by SIGTERM" exit status.
        raise SystemExit(143)


def _install_cleanup_hooks() -> None:
    """Register the atexit + SIGTERM hooks once per process (lazy)."""
    global _CLEANUP_INSTALLED, _PREV_SIGTERM_HANDLER
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(_cleanup_live_executors)
    try:
        current = signal.getsignal(signal.SIGTERM)
        if current is signal.SIG_IGN:
            # The embedding process deliberately ignores SIGTERM; an
            # ignored signal never kills it, so there is nothing to clean
            # up — and installing our handler would turn SIG_IGN into an
            # exit, a behavior change we must not make.
            _PREV_SIGTERM_HANDLER = None
        else:
            _PREV_SIGTERM_HANDLER = signal.signal(signal.SIGTERM,
                                                  _sigterm_cleanup)
    except (ValueError, OSError):  # invariant: disable=R7 — signal() only
        # works from the main thread; an executor built on a worker thread
        # still gets atexit coverage, which is the load-bearing half.
        _PREV_SIGTERM_HANDLER = None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_view(shm: SharedMemory, dtype_str: str,
                  shape: Tuple[int, ...], offset: int,
                  writeable: bool = False) -> np.ndarray:
    """A numpy view over one manifest entry of the shared segment.

    The returned array references ``shm.buf`` (via ``.base``) but does
    NOT own the segment: the caller must guarantee the view is dropped
    before ``shm.close()`` — see the module docstring's ownership rule.
    """
    count = 1
    for extent in shape:
        count *= int(extent)
    view = np.frombuffer(shm.buf, dtype=np.dtype(dtype_str), count=count,
                         offset=offset).reshape(shape)
    view.flags.writeable = writeable
    return view


def _materialize(index: "StandardLSH",
                 ) -> Tuple[SharedMemory, List[_ManifestEntry], dict]:
    """Copy ``index.state()`` into one fresh SHM segment.

    Returns ``(shm, manifest, scalars)``; the parent owns ``shm`` (it
    must ``close()`` + ``unlink()`` it) and every copy-in view created
    here is local to this function, so no export outlives the call.
    Source and derived arrays both go in, under ``source/`` and
    ``derived/``, so a worker neither sorts a table nor sums a norm.
    """
    from repro.lsh.index import prefixed

    index._check_fitted()
    if isinstance(index._data, np.memmap):
        raise ValueError(
            "ProcessShardExecutor requires in-memory data (memmapped "
            "datasets already bound their working set; shard them with "
            "max_batch_rows instead)")
    if any(table.n_extra for table in index._tables):
        # The overlay is mutable post-build state; the shared segment is
        # a frozen snapshot.  One rebuild folds the overlay into the CSR
        # layout, and state() exports table layouts only without one.
        index._rebuild_tables()
    index._point_sq_norms()  # cached, so state() exports the one copy
    scalars, source, derived = index.state()
    arrays = {**prefixed("source/", source), **prefixed("derived/", derived)}

    manifest: List[_ManifestEntry] = []
    offset = 0
    for key, arr in arrays.items():
        offset = _align(offset)
        manifest.append((key, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    shm = SharedMemory(create=True, size=max(offset, 1))
    for key, dtype_str, shape, off in manifest:
        # Copy-in view: function-local on purpose — it dies with this
        # frame, long before the parent's shm.close()/unlink().
        _segment_view(shm, dtype_str, shape, off,
                      writeable=True)[...] = arrays[key]
    return shm, manifest, scalars


def _reconstruct_index(shm: SharedMemory, manifest: List[_ManifestEntry],
                       scalars: dict) -> "StandardLSH":
    """The index ``_materialize`` described, over zero-copy segment views.

    Runs in the worker process.  Every array of the returned index is a
    read-only view into ``shm`` — the caller must keep the index
    referenced strictly within the lifetime of its ``shm`` handle.  The
    only per-worker allocations are the packed bucket keys (when a
    numpy lookup first needs them, O(buckets) per table) and, with
    hierarchies, the deterministic per-table bucket hierarchy — both
    derived from the shared CSR arrays, so worker answers stay
    bit-identical.
    """
    from repro.lsh.index import StandardLSH, sub_arrays

    views: Dict[str, np.ndarray] = {
        key: _segment_view(shm, dtype_str, shape, off)
        for key, dtype_str, shape, off in manifest
    }
    return StandardLSH.from_state(scalars, sub_arrays(views, "source/"),
                                  sub_arrays(views, "derived/"))


def _worker_main(conn: Connection, shm_name: str,
                 manifest: List[_ManifestEntry], scalars: dict,
                 slot: int) -> None:
    """Worker process loop: reconstruct once, answer shards until 'stop'.

    Observability inside the worker is driven entirely by the
    :class:`~repro.obs.TraceContext` shipped with each shard: when
    present, the worker enables ``obs`` onto a fresh
    :class:`~repro.obs.MetricsRegistry` for the duration of the shard
    and returns that registry's counters and histograms
    (:meth:`~repro.obs.MetricsRegistry.dump` — fresh per shard, so the
    payload is the shard's delta) beside its sampled trace dicts in the
    reply's ``reply_meta``, on an ``ok`` and an ``err`` reply alike;
    when absent, the worker builds no registry, runs un-instrumented
    and replies with ``reply_meta = None`` — the parent's gate state is
    thereby mirrored per shard, preserving the ≤2%-when-off contract.
    ``slot`` is this worker's position in the pool (reported as
    ``worker`` in stitched traces).
    """
    # Python < 3.13 registers every *attach* with the resource tracker,
    # which would try to clean up the parent-owned segment at interpreter
    # shutdown (and register/unregister pairs from sibling workers race
    # on the tracker's name set).  The parent is the sole owner: suppress
    # the registration for the duration of the attach.
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    index: Optional[object] = None
    try:
        index = _reconstruct_index(shm, manifest, scalars)
        conn.send(("ready", os.getpid()))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            # ``deadline`` is the parent's own object: it pickles with
            # its absolute expiry, and monotonic clocks are system-wide
            # on Linux, so it means the same instant in this process.
            _, shard_id, queries, k, threshold, deadline, tctx = msg
            wob: Optional[obs.Observer] = None
            if tctx is not None:
                wob = obs.enable(registry=obs.MetricsRegistry(),
                                 trace_sample_rate=tctx.sample_rate,
                                 trace_seed=tctx.trace_seed)
                wob.record_worker_event("shard_recv")
                # perf_counter is system-wide monotonic (same clock the
                # shipped deadline relies on): parent send → worker recv.
                wob.observe_queue_wait(max(0.0, wob.clock() - tctx.sent_at))
            try:
                ids, dists, stats = index.query_batch(
                    queries, k, hierarchy_threshold=threshold,
                    deadline=deadline)
            except Exception as error:  # invariant: disable=R7 — shipped
                # to the parent, whose policy records it (note_failure).
                outcome = "err"
                reply: tuple = (type(error).__name__, str(error))
            else:
                outcome = "ok"
                reply = (ids, dists, stats)
            reply_meta: Optional[dict] = None
            if wob is not None:
                wob.record_worker_event(f"shard_{outcome}")
                reply_meta = {
                    "worker": slot,
                    "pid": os.getpid(),
                    "traces": [t.to_dict() for t in wob.tracer.traces()],
                    "metrics": wob.registry.dump(),
                }
                obs.disable()
            conn.send((outcome, shard_id) + reply + (reply_meta,))
    except EOFError:  # invariant: disable=R5,R7 — parent vanished; no
        # surviving side to record to, exit quietly.
        pass
    finally:
        # Ownership rule: the index holds views into shm — drop every
        # reference before close(), or close() raises BufferError over
        # the live memoryview exports.
        del index
        conn.close()
        shm.close()


class _Worker:
    """One pooled worker process plus its parent-side pipe end."""

    def __init__(self, process: object, conn: Connection) -> None:
        self.process = process
        self.conn = conn

    def alive(self) -> bool:
        return bool(self.process.is_alive())


class ProcessShardExecutor:
    """Persistent process pool answering row shards over shared memory.

    Parameters
    ----------
    index:
        A fitted, in-memory :class:`~repro.lsh.index.StandardLSH`.  The
        executor snapshots its arrays at construction: later inserts or
        deletes on ``index`` are **not** visible to the workers (build a
        new executor after structural updates; :attr:`generation` tells
        whether any happened).
    n_workers:
        Pool size.  Each worker holds zero-copy views, so memory cost is
        one segment regardless of pool size.

    Worker telemetry has one return path: with observability on, each
    shard's reply carries the counters, histograms and sampled traces
    the worker recorded for it, and the parent merges them into the
    active registry as the reply is read (see :func:`_worker_main`).
    What a worker recorded during a shard it was killed in is lost with
    it; the parent counts the death, respawn, retry and fallback itself.
    """

    #: Supervision site label (failure records, obs counters).
    SITE = "exec.process"

    def __init__(self, index: "StandardLSH", n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._index = index
        self.n_workers = int(n_workers)
        self._ctx = get_context("spawn")
        self._closed = False
        self._batch_seq = 0
        import time  # invariant: disable=R6 — one-time pool setup timing,
        # recorded through the obs setup histogram, never per-query.

        t0 = time.perf_counter()  # invariant: disable=R6 — setup-only timing
        # One writer-lock section (an RLock: the overlay fold and
        # state() inside _materialize nest in it), so ``generation`` —
        # the index's mutation count — names exactly the writes the
        # segment holds; the pool may answer for the index only while
        # the two counts are equal.
        with index._update_lock:
            self.generation = index._mutations
            self._shm, self._manifest, self._scalars = _materialize(index)
        self._workers: List[Optional[_Worker]] = [None] * self.n_workers
        # Abnormal-exit coverage: from here on the segment exists, so the
        # executor must be findable by the atexit/SIGTERM sweep.
        _install_cleanup_hooks()
        _LIVE_EXECUTORS.add(self)
        for widx in range(self.n_workers):
            self._spawn(widx)
        self.setup_seconds = time.perf_counter() - t0  # invariant: disable=R6 — setup-only timing
        ob = obs.active()
        if ob is not None:
            ob.record_native_setup("process", self.setup_seconds)
            ob.record_shm_bytes("index", int(self._shm.size))

    # ------------------------------------------------------------ lifecycle

    def _spawn(self, widx: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shm.name, self._manifest, self._scalars,
                  widx),
            daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        ready = self._recv(worker)
        if ready[0] != "ready":
            raise WorkerCrashError(
                f"shard worker {widx} failed to initialize: {ready!r}")
        self._workers[widx] = worker
        ob = obs.active()
        if ob is not None:
            ob.record_worker_event("spawn")
            ob.record_worker_state(widx, True)
        return worker

    def _recv(self, worker: _Worker) -> tuple:
        """One pipe read, normalizing every death mode to WorkerCrashError."""
        try:
            return worker.conn.recv()
        except (EOFError, ConnectionResetError, OSError) as error:
            raise WorkerCrashError(
                f"shard worker died mid-batch "
                f"({type(error).__name__})") from error

    def _retire(self, widx: int) -> None:
        """Drop a dead/poisoned worker; the slot respawns on next use."""
        worker = self._workers[widx]
        self._workers[widx] = None
        if worker is None:
            return
        worker.conn.close()
        if worker.alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        ob = obs.active()
        if ob is not None:
            ob.record_worker_event("death")
            ob.record_worker_state(widx, False)

    def _ensure_worker(self, widx: int) -> _Worker:
        worker = self._workers[widx]
        if worker is not None and worker.alive():
            return worker
        if worker is not None:
            self._retire(widx)
        ob = obs.active()
        if ob is not None:
            ob.record_worker_event("respawn")
        return self._spawn(widx)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (chaos tests kill one of these)."""
        return [w.process.pid for w in self._workers
                if w is not None and w.alive()]

    def close(self) -> None:
        """Stop the pool and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_EXECUTORS.discard(self)
        for widx, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError) as error:  # invariant: disable=R7 — recorded below via record_worker_event
                ob = obs.active()  # worker already dead: count it, move on
                if ob is not None:
                    ob.record_worker_event(
                        f"stop_send_failed:{type(error).__name__}")
            worker.process.join(timeout=5.0)
            if worker.alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
            self._workers[widx] = None
        # Parent owns the segment: every parent-side view was local to
        # _materialize(), so no exports remain and close() cannot raise
        # BufferError; unlink() then frees the backing memory.
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # invariant: disable=R5,R7 — the name
            # is already gone because _emergency_unlink() ran first (the
            # SIGTERM handler); the leak this close() prevents is gone too.
            pass

    def _emergency_unlink(self) -> None:
        """Unlink the SHM name without joining workers (SIGTERM handler).

        Removes only the ``/dev/shm`` entry — the actual cross-reboot
        leak — via one re-entrant syscall.  Existing mappings
        stay valid (a worker mid-shard keeps its views), and the memory
        itself is freed by the kernel when the dying process's mappings
        go away.  A later full :meth:`close` treats the already-gone
        name as a no-op.
        """
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # invariant: disable=R5,R7 —
            pass  # best-effort on the way down; nothing left to record to

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.close()

    # ------------------------------------------------------------- querying

    def execution_plan(self, hierarchy_threshold: object = "median",
                       ) -> QueryPlan:
        """The pool as a one-stage plan for :func:`repro.exec.run_plan` —
        what :meth:`repro.runtime.IndexRuntime.submit` asks of any
        index, so a runtime holding a pool routes requests to it
        unchanged."""
        if self._closed:
            raise RuntimeError("executor is closed")
        return _PoolPlan(self, hierarchy_threshold)

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: object = "median",
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    policy: Optional[ResiliencePolicy] = None,
                    max_batch_rows: Optional[int] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN over the worker pool; same contract as the in-process path.

        ``max_batch_rows`` bounds rows per dispatched shard (``None``
        runs the batch as one shard); shards are dispatched in waves of
        ``n_workers`` so the whole pool computes concurrently.  Results
        are bit-identical to ``index.query_batch(queries, k, ...)``
        given an integer ``hierarchy_threshold`` (``"median"``
        re-derives the threshold per shard, exactly as the in-process
        sharded path does).  With a policy, worker death degrades the
        affected rows (retry on a fresh worker, then exact brute-force,
        then flagged padding) — the batch always returns.
        """
        return run_plan(self.execution_plan(hierarchy_threshold), queries, k,
                        deadline_ms=deadline_ms, deadline=deadline,
                        policy=policy, max_batch_rows=max_batch_rows)

    def _run_rows(self, ctx: ExecutionContext,
                  hierarchy_threshold: object) -> None:
        """Shard validated all-finite rows over the pool and merge.

        The pool plan's one stage.  Dispatch is wave-pipelined: each
        wave sends one shard to every worker, then collects replies in
        shard order — at most one shard is in flight per worker, so a
        dying worker loses exactly the shard being supervised and the
        retry path stays simple.

        With observability on, every dispatched shard carries a
        :class:`~repro.obs.TraceContext`; the workers return their
        sampled trace dicts with each result, which
        :meth:`_PoolPlan.record_obs` stitches once the stage is timed.
        """
        queries, k, nq = ctx.queries, ctx.k, ctx.nq
        deadline, pol, ob = ctx.deadline, ctx.policy, ctx.ob
        rows_per_shard = nq if ctx.max_batch_rows is None \
            else ctx.max_batch_rows
        shards = [(s, min(s + rows_per_shard, nq))
                  for s in range(0, nq, rows_per_shard)]
        self._batch_seq += 1
        batch_id = self._batch_seq
        # (row_start, shard_id, worker_meta, worker_trace_dict) tuples.
        pending_traces: List[Tuple[int, int, dict, dict]] = []
        ctx.scratch["traces"] = pending_traces
        ctx.scratch["n_shards"] = len(shards)
        for wave_start in range(0, len(shards), self.n_workers):
            if wave_start:
                # The previous wave's collect; the last wave's is the
                # stage's own lap.
                ctx.timer.lap(f"{self.SITE}.collect")
            wave = shards[wave_start:wave_start + self.n_workers]
            sent: List[bool] = [False] * len(wave)
            for slot, (start, stop) in enumerate(wave):
                if deadline is not None and deadline.expired():
                    continue  # collected as exhausted below
                try:
                    worker = self._ensure_worker(slot)
                    worker.conn.send(self._request(
                        wave_start + slot, queries[start:stop], k,
                        hierarchy_threshold, deadline,
                        self._make_tctx(ob, batch_id, wave_start + slot,
                                        slot)))
                    sent[slot] = True
                    if ob is not None:
                        ob.record_worker_inflight(slot, 1)
                except (WorkerCrashError, BrokenPipeError,
                        OSError) as error:
                    # Send-side failure: retire the worker and leave the
                    # shard for the supervised collect phase, which
                    # retries the full send+recv on a fresh process.
                    self._retire(slot)
                    if pol is None:
                        raise WorkerCrashError(
                            f"shard worker dispatch failed "
                            f"({type(error).__name__})") from error
                    ctx.failures.append(pol.note_failure(
                        self.SITE, f"shard={wave_start + slot}",
                        error, "retried"))
            ctx.timer.lap(f"{self.SITE}.dispatch")
            for slot, (start, stop) in enumerate(wave):
                shard_id = wave_start + slot
                if not sent[slot] and deadline is not None \
                        and deadline.expired():
                    # Budget spent before dispatch: padded best-effort
                    # rows, flagged exhausted — as the executor's shards.
                    ctx.ensure_exhausted()[start:stop] = True
                    if ob is not None:
                        ob.record_deadline_exhausted(
                            f"{self.SITE}.shard", stop - start)
                    continue
                result, shard_failures, shard_degraded = self._collect(
                    ctx, shard_id, slot, sent[slot], queries[start:stop],
                    hierarchy_threshold, batch_id)
                if ob is not None:
                    ob.record_worker_inflight(slot, 0)
                ctx.failures.extend(shard_failures)
                if shard_degraded or result is None:
                    ctx.ensure_degraded()[start:stop] = True
                    if ob is not None:
                        ob.record_degraded("worker_crash", stop - start)
                if result is None:
                    continue  # flagged padding stays in place
                s_ids, s_dists, s_stats, s_meta = result
                ctx.absorb(slice(start, stop), s_ids, s_dists, s_stats)
                if ob is not None and s_meta is not None:
                    for trace_dict in s_meta.get("traces", ()):
                        pending_traces.append((start, shard_id, s_meta,
                                               trace_dict))

    def _make_tctx(self, ob: Optional[obs.Observer], batch_id: int,
                   shard_id: int, widx: int) -> Optional[obs.TraceContext]:
        """The trace identity shipped with one shard send (None when
        observability is off — the worker then runs un-instrumented)."""
        if ob is None:
            return None
        return obs.TraceContext(
            batch_id=batch_id, shard_id=shard_id, worker_id=widx,
            sample_rate=ob.tracer.rate,
            trace_seed=batch_id * 1_000_003 + shard_id,
            sent_at=ob.clock())

    def _stitch_traces(self, ob: obs.Observer, stages: Dict[str, float],
                       pending: List[Tuple[int, int, dict, dict]]) -> None:
        """Fold worker-sampled trace dicts into parent QueryTrace records.

        The workers already applied the sampling decision (same rate,
        deterministic per-shard seed), so every pending trace is added
        directly — re-sampling here would square the rate.
        """
        for start, shard_id, meta, trace_dict in pending:
            ob.tracer.add(obs.QueryTrace(
                query_index=start + int(trace_dict.get("query_index", 0)),
                engine=f"process:{trace_dict.get('engine', 'lsh')}",
                n_candidates=int(trace_dict.get("n_candidates", 0)),
                n_probes=int(trace_dict.get("n_probes", 0)),
                escalated=bool(trace_dict.get("escalated", False)),
                stages=stages,
                shard_id=shard_id,
                worker_id=int(meta.get("worker", -1)),
                worker_stages=dict(trace_dict.get("stages", {}))))

    def _request(self, shard_id: int, queries: np.ndarray, k: int,
                 hierarchy_threshold: object,
                 deadline: Optional[Deadline],
                 tctx: Optional[obs.TraceContext]) -> tuple:
        return ("query", shard_id, queries, k, hierarchy_threshold,
                deadline, tctx)

    def _collect(self, ctx: ExecutionContext, shard_id: int, widx: int,
                 in_flight: bool, queries: np.ndarray,
                 hierarchy_threshold: object, batch_id: int,
                 ) -> Tuple[Optional[tuple], List[FailureRecord], bool]:
        """Await one shard's reply, supervising crashes.

        Returns ``(result_tuple_or_None, failure_records, degraded)``;
        ``degraded`` is True when a fallback (not the worker pool)
        produced the rows.  ``in_flight`` says whether the wave's send
        phase already dispatched this shard to worker ``widx``; retries
        re-send to a fresh worker themselves.
        """
        from repro.resilience.errors import InjectedFault

        state = {"in_flight": in_flight}
        fault_plan, pol = ctx.fault_plan, ctx.policy

        def attempt() -> tuple:
            if fault_plan is not None:
                try:
                    fault_plan.check(self.SITE, shard=shard_id)
                except InjectedFault:
                    if state["in_flight"]:
                        # The worker still holds the request; retire it
                        # so its late reply cannot desync the pipe.
                        state["in_flight"] = False
                        self._retire(widx)
                    raise
            worker = self._ensure_worker(widx)
            try:
                if not state["in_flight"]:
                    worker.conn.send(self._request(
                        shard_id, queries, ctx.k, hierarchy_threshold,
                        ctx.deadline,
                        self._make_tctx(ctx.ob, batch_id, shard_id, widx)))
                state["in_flight"] = False
                msg = self._recv(worker)
            except WorkerCrashError:
                state["in_flight"] = False
                self._retire(widx)
                raise
            # Every reply ends with the worker's ``reply_meta``; each is
            # read exactly once, so each shard attempt is counted once.
            if ctx.ob is not None and msg[-1] is not None:
                ctx.ob.registry.merge(msg[-1]["metrics"])
            if msg[0] == "err":
                raise WorkerCrashError(
                    f"shard worker raised {msg[2]}: {msg[3]}")
            assert msg[0] == "ok" and msg[1] == shard_id
            return msg[2:]

        if pol is None:
            # Unsupervised contract: failures propagate (same as the
            # thread path).
            return attempt(), [], False

        def brute_force() -> tuple:
            ids, dists = self._index.brute_force_batch(queries, ctx.k)
            nr = queries.shape[0]
            stats = QueryStats(
                np.full(nr, self._index.n_live, dtype=np.int64),
                np.zeros(nr, dtype=bool))
            return ids, dists, stats, None

        result, action, records = pol.run(
            self.SITE, f"shard={shard_id}", attempt,
            fallbacks=(("brute_force", brute_force),))
        if ctx.ob is not None and action is not None:
            ctx.ob.record_worker_event(f"shard_{action.split(':', 1)[0]}")
        return result, list(records), action is not None and \
            action.startswith("fallback")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProcessShardExecutor(n_workers={self.n_workers}, "
                f"segment={self._shm.name!r}, closed={self._closed})")


class _PoolPlan(QueryPlan):
    """The pool behind :func:`repro.exec.run_plan`: one stage.

    ``run_plan`` owns the front half every front-end shares (policy
    resolution, timed validation, deadline construction, the
    non-finite-row split); the stage shards the rows it is handed over
    the workers itself — a shard is a pipe message, not a slice of this
    process's scratch — hence ``delegates_sharding``.
    """

    site = ProcessShardExecutor.SITE
    delegates_sharding = True

    def __init__(self, executor: ProcessShardExecutor,
                 hierarchy_threshold: object) -> None:
        self.executor = executor
        self.hierarchy_threshold = hierarchy_threshold

    def validate(self, queries: object, k: int, *, allow_nonfinite: bool,
                 ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        return validate_query_batch(
            queries, k, self.executor._index._data.shape[1], allow_nonfinite)

    def stages(self) -> Tuple[Stage, ...]:
        return (Stage(f"{self.site}.collect", self._stage_run),)

    def _stage_run(self, ctx: ExecutionContext) -> None:
        self.executor._run_rows(ctx, self.hierarchy_threshold)

    def record_obs(self, ctx: ExecutionContext) -> None:
        # After the stage's closing lap, so the stitched traces carry
        # the complete parent spans (validate / dispatch / collect).
        executor, ob = self.executor, ctx.ob
        ob.record_shards(self.site, ctx.scratch["n_shards"])
        executor._stitch_traces(ob, dict(ctx.timer.stages),
                                ctx.scratch["traces"])
