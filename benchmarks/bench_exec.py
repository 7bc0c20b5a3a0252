#!/usr/bin/env python
"""Sharded vs unsharded execution-core benchmark.

``max_batch_rows`` (see ``repro.exec.run_plan``) is a bounded-memory
knob: a large batch is split into contiguous row shards, each run
through the same staged plan.  The knob is only honest if it is close
to free — this benchmark times the sharded and unsharded paths
interleaved (round-robin, so machine-state drift hits both equally) for
the StandardLSH and BiLevelLSH front-ends and fails loudly when

1. the shard results are not bit-identical to the unsharded run
   (``ids_match`` / ``dists_match`` — by construction the recalls are
   then equal too), or
2. sharded batch throughput drops below ``--min-ratio`` (default 0.95)
   of the unsharded throughput (min-statistics: the ratio of best
   times, robust to scheduler noise).

With ``--shard-workers N`` the benchmark additionally times the
process-sharded path (``repro.exec.ProcessShardExecutor``, the
SharedMemory-manifest spawn tier) against the in-process run on the
standard front-end, and records the numbers in the same report.
Process sharding pays a real IPC/reconstruction cost, so its ratio is
reported but not gated — only result equality is enforced.

Writes ``BENCH_exec.json`` next to the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_exec.py [--quick] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_exec.py --quick --shard-workers 2
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np
from conftest import interleaved_times, latency_row

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.metrics import recall_ratio
from repro.experiments.workloads import Scale, make_workload
from repro.lsh.index import StandardLSH

REPO_ROOT = Path(__file__).resolve().parent.parent
RECALL_K = 10


def bench_front_end(name, index, workload, k, max_batch_rows, rounds):
    """Interleaved unsharded/sharded timing of one fitted index."""
    queries = workload.queries
    exact_ids, _ = workload.ground_truth.neighbors(RECALL_K)
    timings = interleaved_times({
        "unsharded": lambda: index.query_batch(queries, k),
        "sharded": lambda: index.query_batch(
            queries, k, max_batch_rows=max_batch_rows),
    }, rounds)
    rows = []
    outputs = {}
    for mode, timing in timings.items():
        ids, dists, _ = timing.result
        outputs[mode] = (ids, dists)
        recall = float(recall_ratio(exact_ids, ids[:, :RECALL_K]).mean())
        rows.append(latency_row(timing, queries.shape[0], extra={
            "method": name,
            "mode": mode,
            "max_batch_rows": (max_batch_rows if mode == "sharded"
                               else None),
            "batch_seconds_best": timing.best,
            f"recall_at_{RECALL_K}": recall,
        }))
    ids_match = bool(np.array_equal(outputs["unsharded"][0],
                                    outputs["sharded"][0]))
    dists_match = bool(np.array_equal(outputs["unsharded"][1],
                                      outputs["sharded"][1]))
    # Throughput ratio sharded/unsharded from best (min) times.
    ratio = timings["unsharded"].best / timings["sharded"].best
    for row in rows:
        row["ids_match"] = ids_match
        row["dists_match"] = dists_match
    return rows, ratio, ids_match and dists_match


def bench_process_sharded(index, workload, k, n_workers, rounds):
    """Interleaved in-process vs process-sharded timing (standard only)."""
    from repro.exec import ProcessShardExecutor

    queries = workload.queries
    exact_ids, _ = workload.ground_truth.neighbors(RECALL_K)
    with ProcessShardExecutor(index, n_workers=n_workers) as executor:
        timings = interleaved_times({
            "in-process": lambda: index.query_batch(queries, k),
            "process-sharded": lambda: executor.query_batch(queries, k),
        }, rounds)
    rows = []
    outputs = {}
    for mode, timing in timings.items():
        ids, dists, _ = timing.result
        outputs[mode] = (ids, dists)
        recall = float(recall_ratio(exact_ids, ids[:, :RECALL_K]).mean())
        rows.append(latency_row(timing, queries.shape[0], extra={
            "method": "standard",
            "mode": mode,
            "shard_workers": (n_workers if mode == "process-sharded"
                              else None),
            "batch_seconds_best": timing.best,
            f"recall_at_{RECALL_K}": recall,
        }))
    ids_match = bool(np.array_equal(outputs["in-process"][0],
                                    outputs["process-sharded"][0]))
    dists_match = bool(np.array_equal(outputs["in-process"][1],
                                      outputs["process-sharded"][1]))
    for row in rows:
        row["ids_match"] = ids_match
        row["dists_match"] = dists_match
    ratio = timings["in-process"].best / timings["process-sharded"].best
    return rows, ratio, ids_match and dists_match


def instrumented_snapshot(index, queries, k, max_batch_rows, n_workers):
    """One extra observed batch; returns the full snapshot dict.

    With ``n_workers`` the batch runs through a fresh
    :class:`ProcessShardExecutor` so the report's metrics section shows
    the cross-process plane (worker counters drained over shared
    memory) rather than the in-process path.
    """
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    obs.enable(registry=registry)
    try:
        if n_workers:
            from repro.exec import ProcessShardExecutor
            with ProcessShardExecutor(index,
                                      n_workers=n_workers) as executor:
                executor.query_batch(queries, k,
                                     max_batch_rows=max_batch_rows)
        else:
            index.query_batch(queries, k, max_batch_rows=max_batch_rows)
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
                        help="shard size (default: n_queries // 4, "
                             "// 2 under --quick)")
    parser.add_argument("--min-ratio", type=float, default=0.95,
                        help="minimum sharded/unsharded throughput ratio")
    parser.add_argument("--shard-workers", type=int, default=0,
                        help="also time ProcessShardExecutor with this many "
                             "spawn workers (0 = skip)")
    args = parser.parse_args(argv)

    if args.quick:
        # Shards must still be real batches for the per-table fixed cost
        # to amortize: at this tiny scale 150-row shards pay a measurable
        # ~10% call-overhead tax, so the quick run splits the 600-query
        # batch in half rather than in quarters.
        scale = Scale(n_train=3000, n_queries=600, dim=32, k=RECALL_K,
                      n_tables=6, seed=0)
        rounds = args.rounds or 9
    else:
        scale = Scale(n_train=20000, n_queries=2000, dim=64, k=RECALL_K,
                      n_tables=10, seed=0)
        rounds = args.rounds or 7

    workload = make_workload("labelme", scale)
    width = 3.0 * workload.reference_width
    k = RECALL_K
    max_batch_rows = args.max_batch_rows or max(
        scale.n_queries // (2 if args.quick else 4), 1)
    print(f"workload: labelme-like n={scale.n_train} q={scale.n_queries} "
          f"dim={scale.dim} L={scale.n_tables} "
          f"max_batch_rows={max_batch_rows}")

    results = []
    ratios = {}
    all_match = True

    standard = StandardLSH(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                           bucket_width=width, seed=scale.seed).fit(
                               workload.train)
    rows, ratio, match = bench_front_end("standard", standard, workload, k,
                                         max_batch_rows, rounds)
    results.extend(rows)
    ratios["standard"] = ratio
    all_match &= match

    process_ratio = None
    if args.shard_workers:
        rows, process_ratio, match = bench_process_sharded(
            standard, workload, k, args.shard_workers, rounds)
        results.extend(rows)
        all_match &= match

    bilevel = BiLevelLSH(BiLevelConfig(
        n_groups=scale.n_groups, n_hashes=scale.n_hashes,
        n_tables=scale.n_tables, bucket_width=width,
        seed=scale.seed)).fit(workload.train)
    rows, ratio, match = bench_front_end("bilevel", bilevel, workload, k,
                                         max_batch_rows, rounds)
    results.extend(rows)
    ratios["bilevel"] = ratio
    all_match &= match

    snapshot = instrumented_snapshot(standard, workload.queries, k,
                                     max_batch_rows, args.shard_workers)
    report = {
        "benchmark": "exec_sharding",
        "quick": bool(args.quick),
        "platform": platform.platform(),
        "workload": {"name": "labelme", "n_train": scale.n_train,
                     "n_queries": scale.n_queries, "dim": scale.dim,
                     "k": k, "n_tables": scale.n_tables,
                     "bucket_width": width},
        "max_batch_rows": max_batch_rows,
        "rounds": rounds,
        "min_ratio": args.min_ratio,
        "shard_workers": args.shard_workers or None,
        "results": results,
        "throughput_ratio_sharded_to_unsharded": ratios,
        "throughput_ratio_process_sharded_to_in_process": process_ratio,
        "all_results_bit_identical": bool(all_match),
        "metrics": snapshot["metrics"],
        "metrics_derived": snapshot["derived"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{'method':<12}{'mode':<12}{'best batch s':>14}"
          f"{'QPS':>12}{'recall@10':>11}")
    for row in results:
        print(f"{row['method']:<12}{row['mode']:<12}"
              f"{row['batch_seconds_best']:>14.5f}{row['qps']:>12.0f}"
              f"{row[f'recall_at_{RECALL_K}']:>11.3f}")
    worst = min(ratios, key=ratios.get)
    print(f"\nthroughput ratios (sharded/unsharded): "
          + ", ".join(f"{m}={r:.3f}" for m, r in ratios.items()))
    if process_ratio is not None:
        print(f"process-sharded/in-process ratio "
              f"({args.shard_workers} workers): {process_ratio:.3f} "
              "(informational, not gated)")
    print(f"report: {args.out}")

    if not all_match:
        print("FAIL: sharded results differ from unsharded", file=sys.stderr)
        return 1
    if ratios[worst] < args.min_ratio:
        print(f"FAIL: {worst} sharded throughput ratio "
              f"{ratios[worst]:.3f} < {args.min_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
