#!/usr/bin/env python
"""Sharded vs unsharded query-path benchmark.

The query path (``repro.lsh.query``) splits a batch of more than
``SHARD_LOOKUP_ROWS`` lookup rows (query rows x tables x (1 + probes) x
spill) into contiguous row shards, each run through the same staged
plan, to bound its scratch memory.  No batch here comes near that
bound, so the sharded leg lowers the constant until the batch runs in
``--max-batch-rows``-row shards.  Sharding is only honest if it is close
to free — this benchmark times the sharded and unsharded paths
interleaved (round-robin, so machine-state drift hits both equally) for
the StandardLSH and BiLevelLSH front-ends and fails loudly when

1. the shard results are not bit-identical to the unsharded run
   (``ids_match`` / ``dists_match`` — by construction the recalls are
   then equal too), or
2. the standard front-end's sharded batch throughput drops below
   ``--min-ratio`` (default 0.95) of the unsharded throughput
   (min-statistics: the ratio of best times, robust to scheduler noise).

The Bi-level ratio is reported, not gated: each shard of a Bi-level
batch is a batch of every group it reaches, so it pays their per-group
hashing and per-table lookup set-up again — a fixed cost per shard that
small shards on the numpy kernel table do not amortize.

The gate holds the shard loop's own cost, so the committed full-scale
report is taken at one kernel thread (``REPRO_NATIVE_THREADS=1``).
With more, the unsharded batch gains more from the kernels' threads
than its quarter-size shards do, and the ratio falls below the gate
(0.79 at P = 2 on a 2-vCPU box).

With ``--threads N`` (default 2, 0 skips it) the benchmark additionally
times the unsharded batch with the compiled kernels' P (the threads
``bucket_spans`` and ``rank_topk`` hand their work to) at N against P = 1
on both front-ends, and records the numbers in the same report.  What
threads buy depends on the cores the box has (``cpu_count`` is in the
report) and on the kernel table (``kernels``: the numpy one runs on the
calling thread), so the ratio is reported but not gated — only result
equality is enforced.

Full scale is the end-to-end benchmark's corpus shape (100 k x 64,
2 000-row batches, the ``serve_mixed`` bucket width); ``--quick`` is
the small CI shape.

Writes ``BENCH_exec.json`` next to the repository root.

Usage::

    REPRO_NATIVE_THREADS=1 PYTHONPATH=src python benchmarks/bench_exec.py [--out PATH]
    PYTHONPATH=src python benchmarks/bench_exec.py --quick [--out PATH]
    PYTHONPATH=src python benchmarks/bench_exec.py --quick --threads 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
from conftest import interleaved_times, latency_row, shard_rows

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.metrics import recall_ratio
from repro.experiments.workloads import Scale, make_workload
from repro.lsh.index import StandardLSH
from repro.native import load_kernels, native_status

REPO_ROOT = Path(__file__).resolve().parent.parent
RECALL_K = 10


def bench_pair(method, workload, runs, extras, rounds):
    """Interleaved timing of two ways to answer the same batch.

    ``runs`` maps mode name -> callable, the baseline first; ``extras``
    maps mode name -> the row fields that say how that mode was run.
    Returns ``(rows, other/baseline throughput ratio from best times,
    answers bit-identical?)``.
    """
    n_queries = workload.queries.shape[0]
    exact_ids, _ = workload.ground_truth.neighbors(RECALL_K)
    timings = interleaved_times(runs, rounds)
    (base, base_timing), (_, other_timing) = timings.items()
    ids_match = bool(np.array_equal(base_timing.result[0],
                                    other_timing.result[0]))
    dists_match = bool(np.array_equal(base_timing.result[1],
                                      other_timing.result[1]))
    rows = []
    for mode, timing in timings.items():
        ids = timing.result[0]
        recall = float(recall_ratio(exact_ids, ids[:, :RECALL_K]).mean())
        rows.append(latency_row(timing, n_queries, extra={
            "method": method,
            "mode": mode,
            **extras[mode],
            "batch_seconds_best": timing.best,
            f"recall_at_{RECALL_K}": recall,
            "ids_match": ids_match,
            "dists_match": dists_match,
        }))
    ratio = base_timing.best / other_timing.best
    return rows, ratio, ids_match and dists_match


def sharded_batch(index, queries, k, max_batch_rows):
    """One batch with the executor's shards set to ``max_batch_rows``."""
    with shard_rows(index, max_batch_rows):
        return index.query_batch(queries, k)


def bench_front_end(name, index, workload, k, max_batch_rows, rounds):
    """Unsharded vs inline-sharded timing of one fitted index."""
    queries = workload.queries
    return bench_pair(name, workload, {
        "unsharded": lambda: index.query_batch(queries, k),
        "sharded": lambda: sharded_batch(index, queries, k, max_batch_rows),
    }, {"unsharded": {"max_batch_rows": None},
        "sharded": {"max_batch_rows": max_batch_rows}}, rounds)


def bench_threads(name, index, workload, k, n_threads, rounds):
    """The same unsharded batch at P = 1 and at P = ``n_threads``: the
    resolved table's thread count, set around each timed call."""
    queries, table = workload.queries, load_kernels()

    def at(p):
        def run():
            saved, table.threads = getattr(table, "threads", 1), p
            try:
                return index.query_batch(queries, k)
            finally:
                table.threads = saved
        return run

    many = f"P={n_threads}"
    return bench_pair(name, workload, {"P=1": at(1), many: at(n_threads)},
                      {"P=1": {"threads": 1}, many: {"threads": n_threads}},
                      rounds)


def instrumented_snapshot(index, queries, k, max_batch_rows):
    """One extra observed sharded batch; returns the full snapshot dict."""
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    obs.enable(registry=registry)
    try:
        sharded_batch(index, queries, k, max_batch_rows)
    finally:
        obs.disable()
    return obs.full_snapshot(registry)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale run (seconds)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_exec.json")
    parser.add_argument("--rounds", type=int, default=None,
                        help="interleaved timing rounds per front-end")
    parser.add_argument("--max-batch-rows", type=int, default=None,
                        help="rows per shard of the sharded leg, set "
                             "through the executor's SHARD_LOOKUP_ROWS "
                             "(default: n_queries // 4, // 2 under --quick)")
    parser.add_argument("--min-ratio", type=float, default=0.95,
                        help="minimum sharded/unsharded throughput ratio")
    parser.add_argument("--threads", type=int, default=2,
                        help="also time the batch with the kernels on this "
                             "many threads against one (0 = skip)")
    args = parser.parse_args(argv)

    if args.quick:
        # Shards must still be real batches for the per-table fixed cost
        # to amortize: at this tiny scale 150-row shards pay a measurable
        # ~10% call-overhead tax, so the quick run splits the 600-query
        # batch in half rather than in quarters.
        scale = Scale(n_train=3000, n_queries=600, dim=32, k=RECALL_K,
                      n_tables=6, seed=0)
        rounds = args.rounds or 9
        width_multiple = 3.0
    else:
        # benchmarks/e2e's corpus shape and its serve_mixed bucket width.
        scale = Scale(n_train=100_000, n_queries=2000, dim=64, k=RECALL_K,
                      n_tables=10, seed=2012)
        rounds = args.rounds or 7
        width_multiple = 4.5

    workload = make_workload("labelme", scale)
    width = width_multiple * workload.reference_width
    k = RECALL_K
    max_batch_rows = args.max_batch_rows or max(
        scale.n_queries // (2 if args.quick else 4), 1)
    print(f"workload: labelme-like n={scale.n_train} q={scale.n_queries} "
          f"dim={scale.dim} L={scale.n_tables} "
          f"max_batch_rows={max_batch_rows}")

    results = []
    ratios = {}
    thread_ratios = {}
    all_match = True

    standard = StandardLSH(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                           bucket_width=width, seed=scale.seed).fit(
                               workload.train)
    bilevel = BiLevelLSH(BiLevelConfig(
        n_groups=scale.n_groups, n_hashes=scale.n_hashes,
        n_tables=scale.n_tables, bucket_width=width,
        seed=scale.seed)).fit(workload.train)
    for name, index in (("standard", standard), ("bilevel", bilevel)):
        rows, ratios[name], match = bench_front_end(
            name, index, workload, k, max_batch_rows, rounds)
        results.extend(rows)
        all_match &= match
        if args.threads:
            rows, thread_ratios[name], match = bench_threads(
                name, index, workload, k, args.threads, rounds)
            results.extend(rows)
            all_match &= match

    snapshot = instrumented_snapshot(standard, workload.queries, k,
                                     max_batch_rows)
    report = {
        "benchmark": "exec_sharding",
        "quick": bool(args.quick),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "kernels": str(native_status()["backend"]),
        "workload": {"name": "labelme", "n_train": scale.n_train,
                     "n_queries": scale.n_queries, "dim": scale.dim,
                     "k": k, "n_tables": scale.n_tables,
                     "bucket_width": width},
        "max_batch_rows": max_batch_rows,
        "rounds": rounds,
        "min_ratio": args.min_ratio,
        "threads": args.threads or None,
        "results": results,
        "throughput_ratio_sharded_to_unsharded": ratios,
        "throughput_ratio_p_threads_to_one": thread_ratios or None,
        "all_results_bit_identical": bool(all_match),
        "metrics": snapshot["metrics"],
        "metrics_derived": snapshot["derived"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{'method':<12}{'mode':<16}{'best batch s':>14}"
          f"{'QPS':>12}{'recall@10':>11}")
    for row in results:
        print(f"{row['method']:<12}{row['mode']:<16}"
              f"{row['batch_seconds_best']:>14.5f}{row['qps']:>12.0f}"
              f"{row[f'recall_at_{RECALL_K}']:>11.3f}")
    print(f"\nthroughput ratios (sharded/unsharded): "
          + ", ".join(f"{m}={r:.3f}" for m, r in ratios.items())
          + f" (gated: standard >= {args.min_ratio})")
    if thread_ratios:
        print(f"P={args.threads}/P=1 ratios "
              f"({os.cpu_count()} cpus, "
              f"{report['kernels']} kernels): "
              + ", ".join(f"{m}={r:.3f}" for m, r in thread_ratios.items())
              + " (informational, not gated)")
    print(f"report: {args.out}")

    if not all_match:
        print("FAIL: sharded results differ from unsharded", file=sys.stderr)
        return 1
    if ratios["standard"] < args.min_ratio:
        print(f"FAIL: standard sharded throughput ratio "
              f"{ratios['standard']:.3f} < {args.min_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
