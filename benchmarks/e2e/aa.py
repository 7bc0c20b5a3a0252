"""A/A check: does the benchmark agree with itself?

Two sets of runs of the *same* checkout, interleaved (A B A B ...), run
``i`` of either set with seed ``i``.  For every workload and end-to-end
metric it prints both set medians, each set's quartile spread (distance
between the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), the furthest any run
sits from its set's median, and two bounds: the issue's (how far a median
may worsen before it is a regression; ``workloads.ISSUE_BOUND``) and
BENCHMARK.json's (what the harness that reads it holds a set's spread
to).  Exit code 1 if

* a pair of medians differs, in the worse direction, by more than the
  issue's bound,
* any run sits more than a tenth from its set's median,
* a set's quartile spread exceeds BENCHMARK.json's bound (``setup_s``
  excepted, as in that harness), or
* any operation failed.

The bounds of ``recall_at_10`` and ``error_ratio_at_10`` are absolute
differences, and so is every figure printed for them.

    python3 benchmarks/e2e/aa.py --runs 5 --markdown benchmarks/e2e/AA.md
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.measure import median, spread  # noqa: E402

TENTH = 0.10        # no run further than this from its set's median


def load_contract() -> Dict[str, object]:
    with open(os.path.join(W.REPO_ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    begin = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(W.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=W.REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result line "
                           f"(exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["disturbed"] = any(line.startswith("# DISTURBED")
                              for line in lines)
    result["wall_s"] = time.monotonic() - begin
    return result


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (at least 5)")
    parser.add_argument("--markdown", help="also write the table here")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    contract = load_contract()
    seconds = int(contract["run_seconds"])
    metrics = contract["end_to_end"]
    rows: List[str] = []
    problems: List[str] = []
    header = ("| workload | metric | unit | median A | median B | B vs A | "
              "issue bound | spread A | spread B | harness bound | "
              "worst run | verdict |")
    rows += [header, "|" + "---|" * 12]
    walls: List[str] = []
    for workload in W.WORKLOADS:
        sets: Dict[str, List[Dict[str, object]]] = {"A": [], "B": []}
        for seed in range(args.runs):
            for label in ("A", "B"):
                result = one_run(workload, seed, seconds)
                sets[label].append(result)
                print(f"{workload} set {label} seed {seed}: "
                      f"failed {result['failed']}/{result['attempted']}"
                      f"{' DISTURBED' if result['disturbed'] else ''}",
                      flush=True)
                if result["failed"] or not result["correct"]:
                    problems.append(f"{workload} set {label} seed {seed}: "
                                    f"{result['failed']} failed operations")
        wall = [float(r["wall_s"]) for runs in sets.values() for r in runs]
        walls.append(f"{workload} {median(wall):.1f} s (slowest "
                     f"{max(wall):.1f} s)")
        for spec in metrics:
            name, bound = spec["name"], float(spec["bound"])
            issue_bound = W.issue_bound(workload, name)
            absolute = spec["unit"] == "ratio"
            values = {label: [float(r["metrics"][name]["value"])
                              for r in runs] for label, runs in sets.items()}
            med = {label: median(v) for label, v in values.items()}
            scale = {label: 1.0 if absolute else m for label, m in med.items()}
            spr = {label: spread(v) * med[label] / scale[label]
                   for label, v in values.items()}
            drift = (med["B"] - med["A"]) / scale["A"]
            worse = drift if spec["better"] == "lower" else -drift
            worst = max(abs(v - med[label]) / scale[label]
                        for label, vs in values.items() for v in vs)
            reasons = []
            if worse > issue_bound:
                reasons.append("medians differ")
            if worst > (issue_bound if absolute else TENTH):
                reasons.append("run too far from its set's median")
            if name != "setup_s" and max(spr.values()) > bound:
                reasons.append("spread over bound")
            verdict = "ok" if not reasons else "FAIL: " + ", ".join(reasons)
            if reasons:
                problems.append(f"{workload}/{name}: {', '.join(reasons)}")
            fmt = ".4f" if absolute else ".2%"
            rows.append(
                f"| {workload} | {name} | {spec['unit']} | {med['A']:.6g} | "
                f"{med['B']:.6g} | {drift:+{fmt}} | {issue_bound:{fmt}} | "
                f"{spr['A']:{fmt}} | {spr['B']:{fmt}} | {bound:{fmt}} | "
                f"{worst:{fmt}} | {verdict} |")
    table = "\n".join(rows)
    wall_line = "Wall per run, start to exit: " + "; ".join(walls) + "."
    print(table)
    print(wall_line)
    for problem in problems:
        print("PROBLEM: " + problem)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(f"# A/A check\n\n`python3 benchmarks/e2e/aa.py --runs "
                     f"{args.runs}`: two interleaved sets of {args.runs} runs "
                     f"per workload ({seconds} s windows, seeds 0.."
                     f"{args.runs - 1}) on one checkout.\nSpread is the "
                     f"distance between the first and third quartile as a "
                     f"share of the median; `B vs A` is the move of the "
                     f"median; `worst run` is the furthest any run sits "
                     f"from its set's median (more than a tenth fails).  "
                     f"The two ratio metrics are judged and printed as "
                     f"absolute differences.\n\n{table}\n\n{wall_line}\n\n"
                     f"{'All pairs agree.' if not problems else 'Problems: ' + '; '.join(problems)}\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
