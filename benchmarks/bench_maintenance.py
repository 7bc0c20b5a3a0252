#!/usr/bin/env python
"""Live-maintenance benchmark: query latency while a writer streams in.

Measures ``query_batch`` p95 latency twice on the same fitted
``StandardLSH`` index:

1. **baseline** — read-only, no writer;
2. **live** — a paced writer thread streams WAL-logged inserts/deletes
   and, every so often, folds the resulting overlays and tombstones
   into fresh tables with ``index.compact()`` on the same thread.

The claim is that maintenance stays *off* the query path: WAL appends
and the fold run on the writer, under its lock, and publish with an
atomic swap; readers never take that lock, so they only ever pay for
sharing the interpreter.  The gate enforces it::

    p95(live) <= --max-ratio * p95(baseline)      (default 1.15)

A final recovery pass replays the WAL over the pre-stream snapshot and
cross-checks point counts against the live index, so the benchmark also
certifies that the streamed writes were all durable.

Writes ``BENCH_maintenance.json`` next to the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_maintenance.py [--quick]
        [--out PATH] [--max-ratio R] [--fsync always|batch|none]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
from conftest import latency_row, time_calls

from repro.experiments.workloads import Scale, make_workload
from repro.lsh.index import StandardLSH
from repro.maintenance import WriteAheadLog, read_wal, recover_index
from repro.persistence import save_index

REPO_ROOT = Path(__file__).resolve().parent.parent
K = 10


class PacedWriter:
    """A background thread streaming small insert/delete batches and
    folding them (``index.compact()``) at a fixed cadence.

    Paced (sleep between ops) rather than flat-out: the benchmark models
    a live index taking updates at a steady rate, not a bulk load — a
    saturating writer would measure GIL contention, not maintenance
    overhead.  Size-neutral: once a small buffer of recent inserts has
    built up, every insert batch is matched by deleting an equally-sized
    batch of older ids, so the live index stays the same size as the
    baseline one and the ratio measures maintenance cost, not growth.
    """

    def __init__(self, index, dim, batch=16, pause_s=0.08,
                 first_compact_s=0.5, compact_period_s=1.6, seed=42):
        self._index = index
        self._dim = dim
        self._batch = batch
        self._pause_s = pause_s
        self._first_compact_s = first_compact_s
        self._compact_period_s = compact_period_s
        self._rng = np.random.default_rng(seed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="bench-writer", daemon=True)
        self.ops = 0
        self.compactions = 0
        self.errors: list = []

    def _run(self):
        pending: list = []
        started = time.monotonic()
        next_compact = started + self._first_compact_s
        while not self._stop.is_set():
            try:
                ids = self._index.insert(
                    self._rng.standard_normal((self._batch, self._dim)))
                pending.extend(ids.tolist())
                self.ops += 1
                if len(pending) > 4 * self._batch:
                    victims = np.asarray(pending[:self._batch],
                                         dtype=np.int64)
                    pending = pending[self._batch:]
                    self._index.delete(victims)
                    self.ops += 1
                if time.monotonic() >= next_compact:
                    # Periodic compaction at a realistic cadence: rare
                    # relative to the query stream, so only a small
                    # fraction of query batches can overlap a table
                    # build (the p95 then reflects steady state, not
                    # the deliberately-concentrated build spikes).
                    self.compactions += int(self._index.compact())
                    next_compact += self._compact_period_s
            except Exception as error:  # pragma: no cover - failure path
                self.errors.append(error)
                return
            time.sleep(self._pause_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop.set()
        self._thread.join(timeout=30.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale run (seconds)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_maintenance.json")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed query-batch repetitions per phase")
    parser.add_argument("--max-ratio", type=float, default=1.15,
                        help="gate: live p95 must stay within this "
                             "multiple of the no-writer baseline p95")
    parser.add_argument("--fsync", default="batch",
                        choices=("always", "batch", "none"),
                        help="WAL fsync policy for the streamed writes")
    args = parser.parse_args(argv)

    if args.quick:
        scale = Scale(n_train=3000, n_queries=400, dim=32, k=K,
                      n_tables=6, seed=0)
        rounds = args.rounds or 250
    else:
        scale = Scale(n_train=20000, n_queries=1000, dim=64, k=K,
                      n_tables=10, seed=0)
        rounds = args.rounds or 120

    workload = make_workload("labelme", scale)
    width = 3.0 * workload.reference_width
    queries = workload.queries
    index = StandardLSH(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                        bucket_width=width, seed=scale.seed).fit(
                            workload.train)
    print(f"workload: labelme-like n={scale.n_train} q={scale.n_queries} "
          f"dim={scale.dim} L={scale.n_tables}; rounds={rounds}; "
          f"fsync={args.fsync}")

    # Bracket the live window with two baseline measurements: pooling
    # them makes the reference p95 robust to slow machine-state drift
    # (either direction) across the run.
    baseline_pre = time_calls(lambda: index.query_batch(queries, K),
                              rounds, warmup=2)

    with tempfile.TemporaryDirectory(prefix="bench-maint-") as tmp:
        snap = os.path.join(tmp, "snap.npz")
        save_index(index, snap)
        wal = WriteAheadLog(os.path.join(tmp, "wal.bin"), fsync=args.fsync)
        index.attach_wal(wal)
        # Compaction cadence scales with batch latency: one build costs a
        # few batches of contention, so it must stay rare relative to the
        # sampled window for the p95 to be honest.
        if args.quick:
            cadence = {"first_compact_s": 0.5, "compact_period_s": 1.6}
        else:
            cadence = {"first_compact_s": 4.0, "compact_period_s": 20.0}
        with PacedWriter(index, scale.dim, **cadence) as writer:
            live = time_calls(lambda: index.query_batch(queries, K),
                              rounds, warmup=2)
        writer_errors = [repr(e) for e in writer.errors]
        wal.close()

        _, wal_info = read_wal(os.path.join(tmp, "wal.bin"))
        recovered, report = recover_index(snap, os.path.join(tmp, "wal.bin"))
        durable = recovered.n_points == index.n_points

    baseline_post = time_calls(lambda: index.query_batch(queries, K),
                               rounds, warmup=2)
    pooled = np.concatenate([baseline_pre.times, baseline_post.times])
    baseline_p95 = float(np.percentile(pooled, 95))
    ratio = live.p95 / baseline_p95
    rows = [
        latency_row(baseline_pre, queries.shape[0],
                    extra={"phase": "baseline_pre"}),
        latency_row(live, queries.shape[0],
                    extra={"phase": "live", "p95_ratio": ratio}),
        latency_row(baseline_post, queries.shape[0],
                    extra={"phase": "baseline_post"}),
    ]
    out = {
        "benchmark": "maintenance_live_updates",
        "quick": bool(args.quick),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": {"name": "labelme", "n_train": scale.n_train,
                     "n_queries": scale.n_queries, "dim": scale.dim,
                     "k": K, "n_tables": scale.n_tables,
                     "bucket_width": width},
        "rounds": rounds,
        "fsync": args.fsync,
        "max_ratio": args.max_ratio,
        "results": rows,
        "baseline_p95_pooled": baseline_p95,
        "p95_ratio_live_vs_baseline": ratio,
        "writer_ops": writer.ops,
        "writer_errors": writer_errors,
        "compactions_installed": writer.compactions,
        "wal": {"records": wal_info.n_records,
                "last_lsn": wal_info.last_lsn,
                "valid_bytes": wal_info.valid_bytes},
        "recovery": {"applied": report.applied, "skipped": report.skipped,
                     "recovered_equals_live": bool(durable)},
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n")

    print(f"\n{'phase':<10}{'p50 batch s':>13}{'p95 batch s':>13}"
          f"{'QPS':>10}")
    for row in rows:
        print(f"{row['phase']:<10}{row['batch_seconds_p50']:>13.5f}"
              f"{row['batch_seconds_p95']:>13.5f}{row['qps']:>10.0f}")
    print(f"\nwriter ops: {writer.ops}; WAL records: {wal_info.n_records}; "
          f"compactions installed: {writer.compactions}")
    print(f"live/baseline p95 ratio: {ratio:.3f} "
          f"(max allowed {args.max_ratio})")
    print(f"report: {args.out}")

    if writer_errors:
        print(f"FAIL: writer thread died: {writer_errors}", file=sys.stderr)
        return 1
    if not durable:
        print("FAIL: WAL recovery does not reproduce the live index "
              f"(recovered {recovered.n_points} != live {index.n_points} "
              "points)", file=sys.stderr)
        return 1
    if ratio > args.max_ratio:
        print(f"FAIL: live p95 is {ratio:.3f}x baseline "
              f"(> {args.max_ratio}x): maintenance is back on the query "
              "path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
