#!/usr/bin/env python
"""Serving benchmark: Poisson open-loop load against the micro-batcher.

Models the ``repro-knn serve`` data path without HTTP framing: client
threads submit 1-row :class:`~repro.runtime.QueryRequest` objects at
exponentially distributed inter-arrival times (open loop — arrivals do
not wait for completions), through the same
:class:`~repro.runtime.MicroBatcher` + admission gate the server uses.

Three measured phases, all at the same offered rate (a multiple of the
calibrated one-query-per-call capacity):

1. **solo** — every request calls ``IndexRuntime.submit`` itself: its
   own ``run_plan`` call, concurrent with the others.  This is the
   one-query-per-call baseline.
2. **batched** — through the batcher: requests that arrive while a
   batch executes queue up and execute as the next merged batch
   (answers are bit-identical per request; see
   ``tests/test_runtime.py``).
3. **overload** — the batched path with a deliberately small admission
   depth under a much higher offered rate: the gate must shed (flagged,
   never crashed) instead of queueing without bound.

Gates::

    sustained_qps(batched) >= --min-speedup * sustained_qps(solo)
    recall(batched) == recall(solo)   (per-row, over rows both answered)
    shed(overload) > 0 and errors == 0 everywhere

Writes ``BENCH_serve.json`` next to the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
        [--out PATH] [--min-speedup S] [--stress-factor F]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.lsh.index import StandardLSH
from repro.runtime import (
    AdmissionController,
    IndexRuntime,
    MicroBatcher,
    QueryRequest,
    QueryResponse,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DIM = 32
K = 10


def _percentile_ms(latencies: List[float], q: float) -> float:
    if not latencies:
        return float("nan")
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q)
                 * 1e3)


def run_phase(runtime: IndexRuntime, queries: np.ndarray, *, label: str,
              rate_qps: float, n_requests: int, max_rows: Optional[int],
              depth: int, n_workers: int,
              seed: int) -> Dict[str, object]:
    """Drive one open-loop phase; returns the report row.

    ``max_rows=None`` is the solo phase: every request calls
    ``runtime.submit`` itself.  Otherwise requests go through a
    :class:`MicroBatcher` capping merged batches at ``max_rows`` rows.

    Latency is measured from each request's *scheduled* arrival to its
    completion, so queueing delay under saturation shows up in the tail
    instead of being hidden by a closed loop.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_qps, size=n_requests))
    gate = AdmissionController(depth)
    batcher: Optional[MicroBatcher] = None
    submit: Callable[[QueryRequest], QueryResponse] = runtime.submit
    if max_rows is not None:
        batcher = MicroBatcher(runtime.submit, max_rows=max_rows)
        submit = batcher.submit
    latencies: List[float] = []
    row_ids: Dict[int, np.ndarray] = {}
    counters = {"answered": 0, "shed_flagged": 0, "errors": 0}
    mutex = threading.Lock()
    n_rows = len(queries)
    start = time.perf_counter()

    def one(i: int) -> None:
        target = start + float(arrivals[i])
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        row = i % n_rows
        if not gate.try_acquire():
            return  # counted by the admission gate itself
        try:
            response = submit(
                QueryRequest(queries=queries[row:row + 1], k=K))
        except Exception:  # noqa: BLE001 - a crash fails the zero-crash gate
            with mutex:
                counters["errors"] += 1
            return
        finally:
            gate.release()
        done = time.perf_counter()
        with mutex:
            counters["answered"] += 1
            if response.shed:
                counters["shed_flagged"] += 1
            latencies.append(done - max(target, start))
            if row not in row_ids:
                row_ids[row] = response.ids[0].copy()

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(one, i) for i in range(n_requests)]
        for future in futures:
            future.result()
    wall = time.perf_counter() - start
    merged_batches, merged_requests = 0, 0
    if batcher is not None:
        batcher.close()
        merged_batches, merged_requests = batcher.merge_counts
    admission = gate.snapshot()
    return {
        "phase": label,
        "offered_qps": float(rate_qps),
        "n_requests": int(n_requests),
        "answered": counters["answered"],
        "shed_admission": int(admission["shed"]),
        "shed_flagged": counters["shed_flagged"],
        "errors": counters["errors"],
        "wall_seconds": wall,
        "sustained_qps": counters["answered"] / wall if wall > 0 else 0.0,
        "latency_ms_p50": _percentile_ms(latencies, 50),
        "latency_ms_p95": _percentile_ms(latencies, 95),
        "latency_ms_p99": _percentile_ms(latencies, 99),
        "merged_batches": merged_batches,
        "merged_requests": merged_requests,
        "max_queue_depth": int(depth),
        "_row_ids": row_ids,  # stripped before the JSON is written
    }


def _recall_over_rows(row_ids: Dict[int, np.ndarray],
                      truth: np.ndarray) -> Dict[int, float]:
    """Per-unique-row recall@K against brute-force ground truth."""
    out: Dict[int, float] = {}
    for row, ids in row_ids.items():
        want = set(int(x) for x in truth[row])
        got = set(int(x) for x in ids if x >= 0)
        out[row] = len(want & got) / float(K)
    return out


def _brute_force(base: np.ndarray, queries: np.ndarray) -> np.ndarray:
    d2 = ((queries[:, None, :] - base[None, :, :]) ** 2).sum(axis=2)
    return np.argsort(d2, axis=1, kind="stable")[:, :K]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale: fewer points and requests")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serve.json"))
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="gate: batched sustained QPS must beat the "
                             "one-query-per-call baseline by this factor")
    parser.add_argument("--stress-factor", type=float, default=5.0,
                        help="offered rate as a multiple of calibrated "
                             "solo capacity")
    parser.add_argument("--max-rows", type=int, default=128)
    parser.add_argument("--workers", type=int, default=48)
    args = parser.parse_args(argv)

    n_base = 3000 if args.quick else 12000
    n_requests = 600 if args.quick else 2000
    # Hash-budget per scale: more hashes at the larger scale keep
    # per-row candidate work bounded, the regime micro-batching serves
    # (per-call overhead comparable to per-row scoring).
    n_hashes, n_tables = (5, 8) if args.quick else (6, 10)
    rng = np.random.default_rng(1234)
    base = rng.standard_normal((n_base, DIM))
    queries = rng.standard_normal((64, DIM))
    index = StandardLSH(n_hashes=n_hashes, n_tables=n_tables,
                        bucket_width=8.0, seed=17).fit(base)
    truth = _brute_force(base, queries)
    runtime = IndexRuntime(index)

    # Calibrate one-query-per-call capacity from the median solo latency.
    probe = QueryRequest(queries=queries[:1], k=K)
    runtime.submit(probe)  # warmup
    samples = []
    for _ in range(30):
        t0 = time.perf_counter()
        runtime.submit(probe)
        samples.append(time.perf_counter() - t0)
    solo_call_s = float(np.median(samples))
    capacity_qps = 1.0 / solo_call_s
    offered = args.stress_factor * capacity_qps

    phases = [
        run_phase(runtime, queries, label="solo", rate_qps=offered,
                  n_requests=n_requests, max_rows=None, depth=64,
                  n_workers=args.workers, seed=5),
        run_phase(runtime, queries, label="batched", rate_qps=offered,
                  n_requests=n_requests, max_rows=args.max_rows, depth=64,
                  n_workers=args.workers, seed=5),
        run_phase(runtime, queries, label="overload",
                  rate_qps=4.0 * offered, n_requests=n_requests,
                  max_rows=args.max_rows,
                  depth=8, n_workers=args.workers, seed=6),
    ]
    runtime.close()

    solo, batched, overload = phases
    recall_solo = _recall_over_rows(solo.pop("_row_ids"), truth)
    recall_batched = _recall_over_rows(batched.pop("_row_ids"), truth)
    overload.pop("_row_ids")
    both = sorted(set(recall_solo) & set(recall_batched))
    recall_delta = max(
        (abs(recall_solo[r] - recall_batched[r]) for r in both),
        default=float("nan"))
    solo["recall_at_k"] = float(np.mean([recall_solo[r] for r in both])) \
        if both else float("nan")
    batched["recall_at_k"] = float(
        np.mean([recall_batched[r] for r in both])) if both else float("nan")
    speedup = (batched["sustained_qps"] / solo["sustained_qps"]
               if solo["sustained_qps"] else float("inf"))
    total_errors = sum(p["errors"] for p in phases)

    gates = {
        "min_speedup": args.min_speedup,
        "speedup": speedup,
        "recall_rows_compared": len(both),
        "recall_delta": recall_delta,
        "overload_shed": overload["shed_admission"],
        "total_errors": total_errors,
    }
    passed = (speedup >= args.min_speedup
              and both and recall_delta == 0.0
              and overload["shed_admission"] > 0
              and total_errors == 0)
    gates["passed"] = bool(passed)

    report = {
        "benchmark": "serve_microbatch",
        "quick": bool(args.quick),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": {"n_base": n_base, "dim": DIM, "k": K,
                     "n_query_rows": int(len(queries)),
                     "n_requests": n_requests},
        "calibration": {"solo_call_ms": solo_call_s * 1e3,
                        "capacity_qps": capacity_qps,
                        "offered_qps": offered},
        "results": phases,
        "gates": gates,
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"solo:    {solo['sustained_qps']:8.1f} qps   "
          f"p99 {solo['latency_ms_p99']:7.2f} ms   "
          f"recall {solo['recall_at_k']:.3f}")
    print(f"batched: {batched['sustained_qps']:8.1f} qps   "
          f"p99 {batched['latency_ms_p99']:7.2f} ms   "
          f"recall {batched['recall_at_k']:.3f}   "
          f"({batched['merged_batches']} merged batches, "
          f"{batched['merged_requests']} riders)")
    print(f"overload: shed {overload['shed_admission']} of "
          f"{overload['n_requests']} offered, "
          f"{overload['errors']} errors")
    print(f"speedup {speedup:.2f}x (gate {args.min_speedup:.2f}x), "
          f"recall delta {recall_delta} over {len(both)} rows")
    print(f"wrote {out_path}")
    if not passed:
        print("GATE FAILED: micro-batched serving must sustain "
              f">= {args.min_speedup}x the one-query-per-call QPS at "
              "equal recall, with overload shedding and zero crashes")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
