"""Smoke tests: the example scripts run to completion.

Only the fastest examples run in the suite (the rest exercise identical
API surface at larger sizes); each is executed in-process via runpy so
import errors and API drift in ``examples/`` break the build.
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

FAST_EXAMPLES = ["quickstart.py", "parameter_tuning.py",
                 "baseline_comparison.py", "gpu_simulation.py"]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, script))
    assert os.path.exists(path), path
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "recall" in out.lower()


@pytest.mark.parametrize("script", [
    "image_retrieval.py", "variance_study.py", "out_of_core.py",
    "incremental_updates.py",
])
def test_example_imports(script):
    # The slower examples are at least import-clean: their module-level
    # code (imports, constants) must execute without error.
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, script))
    assert os.path.exists(path), path
    runpy.run_path(path, run_name="not_main")
