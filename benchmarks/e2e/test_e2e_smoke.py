"""Smoke test of the end-to-end benchmark (not part of tier-1:
``testpaths = ["tests"]``).  Run it by path:

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Drives ``run.py --smoke`` (n = 2000, one set-up, two short passes) for
every workload, untraced and traced, and checks the plumbing: every
metric is printed with its unit, the final JSON line has the agreed
shape, nothing failed, BENCHMARK.json names exactly what the code
emits, and the shared answer checker catches a corrupted answer.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import workloads as W  # noqa: E402
from benchmarks.e2e.layers import LAYER_METRICS  # noqa: E402
from benchmarks.e2e.verify import PointStore, check_answers  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", str(trace)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    lines, final = run_benchmark(workload, trace)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    expected = ({name: unit for name, unit, _better in W.END_TO_END}
                if trace == 0 else
                {name: unit for name, unit, *_rest in LAYER_METRICS})
    assert set(final["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert NAME.match(name) and UNIT.match(unit), (name, unit)
        entry = final["metrics"][name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == unit
        assert isinstance(entry["value"], float)
        assert np.isfinite(entry["value"])
        printed = [line.split() for line in lines
                   if line.startswith(name + " ")]
        assert printed and printed[0][2] == unit, name
    if trace == 0:
        assert all(final["metrics"][name]["value"] > 0 for name in expected)
        assert any(line.startswith("# env ") for line in lines)


def test_benchmark_json_names_what_the_code_emits():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(W.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in contract["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["end_to_end"]] == list(W.END_TO_END)
    # A quarter is the most the harness that reads the file accepts.
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] \
        == [(name, unit, better)
            for name, unit, _call, _moves, better in LAYER_METRICS]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))


def test_check_answers_counts_a_corrupted_answer_as_failed():
    from repro.evaluation.groundtruth import brute_force_knn

    rng = np.random.default_rng(5)
    train = rng.standard_normal((300, 8))
    queries = rng.standard_normal((6, 8))
    ids, dists = brute_force_knn(train, queries, W.K)
    store = PointStore(train)
    assert check_answers(queries, ids, dists, store, W.K).all()

    def verdict(change):
        bad_ids, bad_dists = ids.copy(), dists.copy()
        change(bad_ids, bad_dists)
        return check_answers(queries, bad_ids, bad_dists, store, W.K)

    def wrong_id(i, d):       # the distance no longer belongs to the id
        i[0, 3] = (i[0, 3] + 1) % 300

    def duplicate(i, d):
        i[1, 1], d[1, 1] = i[1, 0], d[1, 0]

    def out_of_range(i, d):
        i[2, 9] = 300

    def unsorted(i, d):
        i[3, [0, 1]], d[3, [0, 1]] = i[3, [1, 0]], d[3, [1, 0]]

    def padding_in_the_middle(i, d):
        i[4, 2], d[4, 2] = -1, np.inf

    for row, change in enumerate((wrong_id, duplicate, out_of_range,
                                  unsorted, padding_in_the_middle)):
        ok = verdict(change)
        assert not ok[row] and ok.sum() == len(ok) - 1, change.__name__
    # Padding at the tail is a correct answer; a deleted id is not.
    tail_ids, tail_dists = ids.copy(), dists.copy()
    tail_ids[5, 8:], tail_dists[5, 8:] = -1, np.inf
    assert check_answers(queries, tail_ids, tail_dists, store, W.K).all()
    banned = check_answers(queries, ids, dists, store, W.K,
                           forbidden=lambda row: ids[row, :1 if row == 5 else 0])
    assert not banned[5] and banned[:5].all()
