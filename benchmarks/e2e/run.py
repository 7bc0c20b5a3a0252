"""One pinned end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload batch_plain --seed 1
    python3 benchmarks/e2e/run.py --workload serve_mixed --seed 1 --trace 1
    python3 -m benchmarks.e2e.run --workload solo_inprocess --smoke

Prepares the pinned inputs (cached under ``benchmarks/e2e/out``), runs
the workload for ``--seconds`` of timed passes, checks every answer,
prints every metric by name with its unit and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Without tracing the
metrics are the six end-to-end ones; with ``--trace 1`` they are the
per-layer ones (see README.md).  Exit code 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Sequence

if __package__ in (None, ""):       # run as a script: make the package path
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))

# One BLAS thread, asked for before numpy loads (the server process
# inherits it).  OpenBLAS would otherwise start one thread per CPU, and on
# the 2-CPU box their hand-offs were the largest single source of run-to-run
# noise: batch_plain's throughput moved 9-14 % between runs of the same
# code with two threads and 2-4 % with one (README.md, "measurement rule").
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from benchmarks.e2e import workloads as W  # noqa: E402

# The library is run from the checkout's source tree, never from an
# installed copy, and everything it writes stays inside the checkout.
if not os.path.isdir(os.path.join(W.SRC_DIR, "repro")):
    sys.stderr.write(f"error: no library source at {W.SRC_DIR}; the "
                     f"benchmark runs only inside a checkout of the repo\n")
    sys.exit(2)
sys.path.insert(0, W.SRC_DIR)
os.environ["REPRO_NATIVE_CACHE"] = os.path.join(W.OUT_DIR, "native")
os.environ["TMPDIR"] = os.path.join(W.OUT_DIR, "tmp")   # the C compiler's
os.makedirs(os.environ["TMPDIR"], exist_ok=True)

from benchmarks.e2e import measure  # noqa: E402

END_TO_END = W.END_TO_END
DEFAULT_SECONDS = 20.0
#: Passes the serve_mixed window is cut into, and the least an in-process
#: window may hold (fewer only under ``--smoke``).
N_PASSES = 10


def end_to_end_metrics(leg: Dict[str, Any]) -> Dict[str, float]:
    """The six end-to-end figures of one leg.

    Every timing is a per-pass (per-set-up) value.  Throughput and latency
    are the median over passes, so a slowdown that hits half the passes
    shows; ``setup_s`` is the lower quartile over the repeated set-ups
    (README.md, "The measurement rule").
    """
    passes = leg["passes"]
    return {
        "setup_s": measure.lower_quartile(leg["setups"]),
        "throughput_per_s": measure.median(
            [p.correct_rows / p.wall for p in passes]),
        "latency_ms_p50": measure.median(
            [1e3 * measure.median(p.latencies) for p in passes
             if p.latencies]),
        "recall_at_10": leg["quality"].recall,
        "error_ratio_at_10": leg["quality"].error_ratio,
        "peak_rss_mb": leg["peak_rss_mb"],
    }


def run_end_to_end(args: argparse.Namespace, inputs: W.Inputs,
                   ) -> Dict[str, Any]:
    from benchmarks.e2e.legs import IN_PROCESS, run_leg
    from benchmarks.e2e.serve import run_serve_leg

    setups = inputs.sizes.setups[args.workload]
    min_passes = 2 if args.smoke else N_PASSES
    if args.workload == "serve_mixed":
        leg = run_serve_leg(inputs, args.seed, args.seconds, setups,
                            min_passes)
    else:
        workload = IN_PROCESS[args.workload](inputs)
        try:
            leg = run_leg(workload, args.seed, args.seconds, setups,
                          min_passes)
        finally:
            workload.close()
    values = end_to_end_metrics(leg)
    units = {name: unit for name, unit, _better in END_TO_END}
    print(f"# {args.workload}: {len(leg['setups'])} timed set-ups, "
          f"{len(leg['passes'])} passes, "
          f"{sum(p.wall for p in leg['passes']):.1f} s timed")
    for name, unit, _better in END_TO_END:
        print(measure.format_metric(name, values[name], unit))
    for problem in leg.get("problems", [])[:20]:
        print(f"# failed: {problem}")
    return {"values": values, "units": units, "attempted": leg["attempted"],
            "failed": leg["failed"], "cpu": leg["cpu"],
            "passes": [{"wall_s": p.wall, "correct": p.correct_rows,
                        "latency_ms_p50": (1e3 * measure.median(p.latencies)
                                           if p.latencies else None)}
                       for p in leg["passes"]],
            "setups_s": leg["setups"]}


def run_traced(args: argparse.Namespace, inputs: W.Inputs) -> Dict[str, Any]:
    from benchmarks.e2e.layers import LAYER_METRICS, SPAN_LAYER, traced_run

    min_passes = 2 if args.smoke else 3
    result = traced_run(args.workload, inputs, args.seed, args.seconds,
                        min_passes)
    units = {name: unit for name, unit, *_rest in LAYER_METRICS}
    for note in result["notes"]:
        print(f"# {args.workload}: {note}")
    for name, unit, _call, moves, _better in LAYER_METRICS:
        print(measure.format_metric(name, result["values"][name], unit,
                                    "-> " + moves))
    print("# share of the traced pass wall, by span (self time)")
    for span, share in sorted(result["shares"].items(),
                              key=lambda item: -item[1]):
        print(f"share {span:<34} {share:8.4f}   "
              f"{SPAN_LAYER.get(span, '')}".rstrip())
    for line in result["predictions"]:
        print(line)
    return {"values": result["values"], "units": units,
            "attempted": result["attempted"], "failed": result["failed"],
            "shares": result["shares"], "predictions": result["predictions"],
            "cpu": None}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of operations, nothing else")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced leg")
    parser.add_argument("--smoke", action="store_true",
                        help="n = 2000, one set-up, two short passes: "
                             "plumbing only, the numbers mean nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)

    from repro.native.registry import native_backend

    if native_backend() is None:
        print("error: engine='native' is named on every workload and no "
              "native backend resolved (a C compiler or numba is needed)",
              file=sys.stderr)
        return 2
    inputs = W.prepare(args.smoke)
    env = measure.fingerprint()
    result = (run_traced if args.trace else run_end_to_end)(args, inputs)
    env["window"] = result["cpu"]
    disturbed = bool(result["cpu"] and result["cpu"]["disturbed"])
    metrics = {name: {"value": float(value), "unit": result["units"][name]}
               for name, value in result["values"].items()}
    final = {"correct": result["failed"] == 0,
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]), "metrics": metrics}
    record = dict(final, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                  disturbed=disturbed, env=env,
                  **{key: result[key] for key in
                     ("passes", "setups_s", "shares", "predictions")
                     if key in result})
    os.makedirs(W.OUT_DIR, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    path = os.path.join(W.OUT_DIR,
                        f"result-{kind}-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# env " + json.dumps(env, sort_keys=True))
    if disturbed:
        print(f"# DISTURBED: other processes took "
              f"{result['cpu']['other_cpu_share']:.1%} of the CPU over the "
              f"window (limit {measure.OTHER_CPU_LIMIT:.0%}); this run is "
              f"labelled in {os.path.relpath(path)}")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
