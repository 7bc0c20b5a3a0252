#!/usr/bin/env python
"""Observability + resilience overhead guard for the LSH query plan.

Times seven configurations of the same :class:`StandardLSH` batch query,
interleaved round-robin so machine drift cancels:

- ``plain``   — the plan's stages run directly with no observer
  (``run_validated``: bypasses even the once-per-batch
  ``obs.active()`` gate read);
- ``off``     — the public path with observability disabled AND no
  resilience policy installed (what every production query pays: one
  module-global read per batch for each gate — obs, faults, policy);
- ``metrics`` — observability enabled, metrics only (0% trace sampling);
- ``sampled`` — observability enabled with 1% per-query trace sampling;
- ``supervised`` — obs off but a :class:`ResiliencePolicy` threaded
  through the batch (per-table dispatch runs under ``policy.run``);
- ``sanitizer-off`` — the disabled path with the lock sanitizer module
  imported but not installed (the production state: the
  ``REPRO_SANITIZE_LOCKS`` gate is off, nothing is patched);
- ``sanitizer-on`` — the same batch with the sanitizer installed
  (instrumented lock factories + patched ``Future.result`` /
  ``queue.get`` / ``shutdown``), reported informationally.

Because ``query_batch`` consults the fault-injection and policy gates
unconditionally, the ``off`` vs ``plain`` guard doubles as the
resilience-disabled overhead proof: both gates are read and found empty
on every timed ``off`` batch.  ``supervised`` is reported (and bounded
loosely by ``--max-supervised-pct``) to keep the cost of the supervision
wrappers visible.

The guard compares *minimum* batch times (the low-noise statistic):
``off`` and ``sanitizer-off`` must each be within ``--max-disabled-pct``
(default 2%) of ``plain``, and ``sampled`` within ``--max-sampled-pct``
(default 10%).  A noisy
attempt is re-measured up to ``--retries`` times — scheduler
interference can fake a 2% delta at millisecond batch times, while a
real regression fails every attempt.  Exits nonzero when the last
attempt still violates a limit — CI runs this as the observability
overhead gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick] \
        [--metrics-out metrics.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from conftest import interleaved_times

from repro import obs
from repro.analysis import sanitizer
from repro.exec import ExecutionContext, run_validated
from repro.experiments.workloads import Scale, make_workload
from repro.lsh.index import StandardLSH
from repro.obs.registry import MetricsRegistry
from repro.resilience import ResiliencePolicy

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE_RATE = 0.01


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale run (seconds)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="interleaved timing rounds per configuration")
    parser.add_argument("--max-disabled-pct", type=float, default=2.0,
                        help="allowed %% overhead of the disabled path "
                             "(off vs plain)")
    parser.add_argument("--max-sampled-pct", type=float, default=10.0,
                        help="allowed %% overhead at 1%% trace sampling "
                             "(sampled vs plain)")
    parser.add_argument("--max-supervised-pct", type=float, default=25.0,
                        help="allowed %% overhead with a ResiliencePolicy "
                             "threaded through the batch (supervised vs "
                             "plain)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-measure attempts when an attempt exceeds "
                             "a limit (noise robustness)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="write the sampled run's metrics snapshot here")
    parser.add_argument("--traces-out", type=Path, default=None,
                        help="write the traces of one fully-sampled "
                             "sharded batch as a JSON artifact")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_obs_overhead.json")
    args = parser.parse_args(argv)

    if args.quick:
        scale = Scale(n_train=4000, n_queries=600, dim=32, k=10,
                      n_tables=6, seed=0)
        rounds = args.rounds or 7
    else:
        scale = Scale(n_train=20000, n_queries=2000, dim=64, k=10,
                      n_tables=10, seed=0)
        rounds = args.rounds or 9

    print(f"workload: labelme-like n={scale.n_train} q={scale.n_queries} "
          f"dim={scale.dim} L={scale.n_tables}, {rounds} rounds")
    workload = make_workload("labelme", scale)
    width = 3.0 * workload.reference_width
    index = StandardLSH(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                        bucket_width=width, seed=scale.seed).fit(
                            workload.train)
    queries, k = workload.queries, scale.k

    registry = MetricsRegistry()

    def run_plain():
        # The stage loop with the observer hard-wired to None: no gate
        # read, no StageTimer, nothing — the floor the public path chases.
        return run_validated(index.execution_plan("median"),
                             ExecutionContext.for_batch(queries, k))

    def run_off():
        obs.disable()
        return index.query_batch(queries, k)

    def run_metrics():
        obs.enable(registry=registry)
        try:
            return index.query_batch(queries, k)
        finally:
            obs.disable()

    def run_sampled():
        obs.enable(registry=registry, trace_sample_rate=TRACE_RATE)
        try:
            return index.query_batch(queries, k)
        finally:
            obs.disable()

    policy = ResiliencePolicy(max_retries=1)

    def run_supervised():
        obs.disable()
        policy.clear_failures()
        return index.query_batch(queries, k, policy=policy)

    def run_sanitizer_off():
        # Production state: the module is importable but nothing is
        # patched, so the disabled path must be byte-for-byte the same
        # work as ``off`` — the ≤2% gate proves the sanitizer costs
        # nothing unless REPRO_SANITIZE_LOCKS switches it on.
        assert not sanitizer.active()
        obs.disable()
        return index.query_batch(queries, k)

    def run_sanitizer_on():
        sanitizer.install()
        try:
            obs.disable()
            return index.query_batch(queries, k)
        finally:
            sanitizer.uninstall()

    configs = {
        "plain": run_plain,
        "off": run_off,
        "metrics": run_metrics,
        "sampled": run_sampled,
        "supervised": run_supervised,
        "sanitizer-off": run_sanitizer_off,
        "sanitizer-on": run_sanitizer_on,
    }
    attempts = 0
    while True:
        attempts += 1
        timings = interleaved_times(configs, rounds=rounds, warmup=2)
        base = timings["plain"].best
        disabled_pct = (timings["off"].best / base - 1.0) * 100.0
        sampled_pct = (timings["sampled"].best / base - 1.0) * 100.0
        supervised_pct = (timings["supervised"].best / base - 1.0) * 100.0
        sanitizer_off_pct = (timings["sanitizer-off"].best / base
                             - 1.0) * 100.0
        sanitizer_on_pct = (timings["sanitizer-on"].best / base
                            - 1.0) * 100.0
        if (disabled_pct <= args.max_disabled_pct
                and sampled_pct <= args.max_sampled_pct
                and supervised_pct <= args.max_supervised_pct
                and sanitizer_off_pct <= args.max_disabled_pct):
            break
        if attempts > args.retries:
            break
        print(f"attempt {attempts} noisy (disabled {disabled_pct:+.2f}%, "
              f"sampled {sampled_pct:+.2f}%, sanitizer-off "
              f"{sanitizer_off_pct:+.2f}%); re-measuring")

    rows = []
    for name, timing in timings.items():
        rows.append({
            "config": name,
            "batch_seconds_best": timing.best,
            "batch_seconds_p50": timing.p50,
            "overhead_pct_vs_plain": (timing.best / base - 1.0) * 100.0,
            "warmup_seconds": timing.warmup_seconds,
        })
    report = {
        "benchmark": "obs_overhead",
        "quick": bool(args.quick),
        "platform": platform.platform(),
        "workload": {"name": "labelme", "n_train": scale.n_train,
                     "n_queries": scale.n_queries, "dim": scale.dim,
                     "k": k, "n_tables": scale.n_tables,
                     "bucket_width": width},
        "rounds": rounds,
        "attempts": attempts,
        "trace_sample_rate": TRACE_RATE,
        "results": rows,
        "disabled_overhead_pct": disabled_pct,
        "sampled_overhead_pct": sampled_pct,
        "supervised_overhead_pct": supervised_pct,
        "sanitizer_off_overhead_pct": sanitizer_off_pct,
        "sanitizer_on_overhead_pct": sanitizer_on_pct,
        "max_disabled_pct": args.max_disabled_pct,
        "max_sampled_pct": args.max_sampled_pct,
        "max_supervised_pct": args.max_supervised_pct,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    if args.metrics_out is not None:
        args.metrics_out.write_text(
            json.dumps(obs.full_snapshot(registry), indent=2, sort_keys=True)
            + "\n")
        print(f"wrote metrics snapshot to {args.metrics_out}")

    if args.traces_out is not None:
        # One untimed, fully-sampled sharded batch: every query's
        # waterfall (stages + kernel spans) for a small slice, the CI
        # trace artifact.
        obs.enable(registry=MetricsRegistry(), trace_sample_rate=1.0)
        try:
            n_slice = min(64, scale.n_queries)
            index.query_batch(queries[:n_slice], k, max_batch_rows=16)
            traces = obs.recent_traces()
        finally:
            obs.disable()
        args.traces_out.write_text(
            json.dumps([t.to_dict() for t in traces], indent=2) + "\n")
        print(f"wrote {len(traces)} traces to {args.traces_out}")

    print(f"\n{'config':<14}{'best batch s':>14}{'p50 batch s':>13}"
          f"{'vs base':>10}")
    for row in rows:
        print(f"{row['config']:<14}{row['batch_seconds_best']:>14.5f}"
              f"{row['batch_seconds_p50']:>13.5f}"
              f"{row['overhead_pct_vs_plain']:>9.2f}%")
    print(f"wrote {args.out}")

    failures = []
    if disabled_pct > args.max_disabled_pct:
        failures.append(
            f"disabled-path overhead {disabled_pct:.2f}% exceeds "
            f"{args.max_disabled_pct:.2f}% (off vs plain)")
    if sampled_pct > args.max_sampled_pct:
        failures.append(
            f"1% trace-sampling overhead {sampled_pct:.2f}% exceeds "
            f"{args.max_sampled_pct:.2f}% (sampled vs plain)")
    if supervised_pct > args.max_supervised_pct:
        failures.append(
            f"supervised-dispatch overhead {supervised_pct:.2f}% exceeds "
            f"{args.max_supervised_pct:.2f}% (supervised vs plain)")
    if sanitizer_off_pct > args.max_disabled_pct:
        failures.append(
            f"sanitizer-off overhead {sanitizer_off_pct:.2f}% exceeds "
            f"{args.max_disabled_pct:.2f}% (sanitizer-off vs plain); "
            "the uninstalled sanitizer must be free")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"overhead guard OK: disabled {disabled_pct:+.2f}% "
              f"(limit {args.max_disabled_pct}%), sampled "
              f"{sampled_pct:+.2f}% (limit {args.max_sampled_pct}%), "
              f"supervised {supervised_pct:+.2f}% "
              f"(limit {args.max_supervised_pct}%), sanitizer-off "
              f"{sanitizer_off_pct:+.2f}% (limit {args.max_disabled_pct}%; "
              f"sanitizer-on {sanitizer_on_pct:+.2f}% informational)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
