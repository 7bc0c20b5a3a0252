"""Self-tests for the invariant checker (``repro.analysis`` + CLI).

Two halves: (a) the repository's own ``src/`` tree is clean under every
rule, and (b) each seeded-violation fixture under
``tests/fixtures/invariants/`` makes exactly its target rule fire — so a
refactor that silently disables a rule breaks the suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, analyze_paths, format_violations
from repro.analysis.checker import (
    ALL_RULES,
    RULE_SUMMARIES,
    analyze_modules,
    discover_files,
    parse_source,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "invariants"
CHECKER = REPO_ROOT / "tools" / "check_invariants.py"

#: fixture file -> the single rule it is allowed (and required) to trip.
FIXTURE_RULES = {
    "r1_direct_rng.py": "R1",
    "lsh/r2_missing_dtype.py": "R2",
    "r3_unlocked_mutation.py": "R3",
    "r3_callable_alias.py": "R3",
    "r3_bound_submit.py": "R3",
    "r4_untyped_api.py": "R4",
    "r5_silent_failure.py": "R5",
    "lsh/r6_raw_telemetry.py": "R6",
    "native/r6_worker_timing.py": "R6",
    "lsh/r7_swallowed_exception.py": "R7",
    "lsh/r8_inline_plumbing.py": "R8",
    "r9_direct_backend_import.py": "R9",
    "r10_lock_order.py": "R10",
    "lsh/r13_unlogged_mutation.py": "R13",
    "lsh/r14_adhoc_runtime.py": "R14",
}


def _check_source(source: str, rules=ALL_RULES, name: str = "fixture.py"):
    config = AnalysisConfig(rules=tuple(rules))
    return analyze_modules([parse_source(source, name)], config)


class TestRepoIsClean:
    def test_src_tree_has_no_violations(self):
        violations = analyze_paths([str(SRC)])
        assert violations == [], "\n" + format_violations(violations)

    def test_discovery_sees_the_whole_tree(self):
        files = discover_files([str(SRC)], AnalysisConfig())
        # Sanity: the walk really covers the package, not a subset.
        assert len(files) > 40
        assert any(f.name == "table.py" for f in files)
        assert not any("__pycache__" in f.parts for f in files)


class TestSeededFixtures:
    @pytest.mark.parametrize("relpath,rule", sorted(FIXTURE_RULES.items()))
    def test_fixture_trips_exactly_its_rule(self, relpath, rule):
        violations = analyze_paths([str(FIXTURES / relpath)])
        assert violations, f"{relpath} should trip {rule}"
        assert {v.rule for v in violations} == {rule}

    def test_all_rules_have_a_fixture(self):
        assert set(FIXTURE_RULES.values()) == set(ALL_RULES) == set(RULE_SUMMARIES)

    def test_fixture_directory_trips_every_rule_at_once(self):
        violations = analyze_paths([str(FIXTURES)])
        assert {v.rule for v in violations} == set(ALL_RULES)


class TestRuleDetails:
    def test_pragma_suppresses_a_violation(self):
        src = (
            "import numpy as np\n"
            "def noise(n: int) -> float:\n"
            "    return np.random.rand(n)  # invariant: disable=R1\n"
        )
        assert _check_source(src, rules=("R1",)) == []

    def test_pragma_only_suppresses_named_rule(self):
        src = (
            "import numpy as np\n"
            "def noise(n: int) -> float:\n"
            "    return np.random.rand(n)  # invariant: disable=R2\n"
        )
        assert [v.rule for v in _check_source(src, rules=("R1",))] == ["R1"]

    def test_r2_only_applies_on_hot_path(self):
        src = "import numpy as np\nx = np.zeros(3)\n"
        assert _check_source(src, rules=("R2",), name="plots/draw.py") == []
        hot = _check_source(src, rules=("R2",), name="lsh/fast.py")
        assert [v.rule for v in hot] == ["R2"]

    def test_r3_lock_scope_exempts_mutation(self):
        src = (
            "class T:\n"
            "    def lookup(self, code):\n"
            "        with self._overlay_lock:\n"
            "            self._overlay = None\n"
        )
        assert _check_source(src, rules=("R3",)) == []

    def test_r3_unreachable_mutation_is_allowed(self):
        # Same mutation, but nothing named like a worker root reaches it.
        src = (
            "class T:\n"
            "    def rebuild(self):\n"
            "        self._overlay = None\n"
        )
        assert _check_source(src, rules=("R3",)) == []

    def test_r4_resolves_optional_aliases(self):
        src = (
            "from typing import Optional\n"
            "MaybeInt = Optional[int]\n"
            "def f(x: MaybeInt = None) -> int:\n"
            "    return 0 if x is None else x\n"
        )
        assert _check_source(src, rules=("R4",)) == []

    def test_r5_allows_handled_exceptions(self):
        src = (
            "def f() -> int:\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        raise RuntimeError('context')\n"
        )
        assert _check_source(src, rules=("R5",)) == []

    def test_r6_flags_wall_clock_in_pipeline_module(self):
        src = (
            "import time\n"
            "def lookup() -> float:\n"
            "    return time.perf_counter()\n"
        )
        hot = _check_source(src, rules=("R6",), name="core/fast.py")
        assert [v.rule for v in hot] == ["R6"]

    def test_r6_only_applies_inside_telemetry_scope(self):
        src = (
            "import time\n"
            "def lookup() -> float:\n"
            "    return time.perf_counter()\n"
        )
        assert _check_source(src, rules=("R6",), name="plots/draw.py") == []

    def test_r6_exempts_the_obs_package(self):
        src = (
            "import time\n"
            "def now() -> float:\n"
            "    return time.perf_counter()\n"
        )
        assert _check_source(src, rules=("R6",), name="obs/core.py") == []

    def test_r6_flags_print_instrumentation(self):
        src = (
            "def rank(n: int) -> None:\n"
            "    print('ranked', n)\n"
        )
        hot = _check_source(src, rules=("R6",), name="lsh/rank.py")
        assert [v.rule for v in hot] == ["R6"]

    def test_r6_flags_from_time_import(self):
        src = "from time import perf_counter\n"
        hot = _check_source(src, rules=("R6",), name="hierarchy/walk.py")
        assert [v.rule for v in hot] == ["R6"]

    def test_r6_allows_non_clock_time_functions(self):
        src = (
            "import time\n"
            "def pause() -> None:\n"
            "    time.sleep(0.01)\n"
        )
        assert _check_source(src, rules=("R6",), name="lsh/retry.py") == []

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        violations = analyze_paths([str(bad)])
        assert len(violations) == 1
        assert violations[0].rule == "parse"

    def test_pragma_on_decorated_def(self):
        # A def's violations anchor to the `def` line, below the
        # decorators — the pragma must sit there, not on the decorator.
        src = (
            "def deco(f):  # invariant: disable=R4\n"
            "    return f\n"
            "@deco\n"
            "def api(x):  # invariant: disable=R4\n"
            "    return x\n"
        )
        assert _check_source(src, rules=("R4",)) == []
        misplaced = (
            "def deco(f):  # invariant: disable=R4\n"
            "    return f\n"
            "@deco  # invariant: disable=R4\n"
            "def api(x):\n"
            "    return x\n"
        )
        flagged = _check_source(misplaced, rules=("R4",))
        assert {v.rule for v in flagged} == {"R4"}

    def test_pragma_multi_rule_list(self):
        # One line tripping both R1 and R2; a single comma-separated
        # pragma suppresses both, a partial list leaves the rest live.
        line = "    return np.zeros(int(np.random.rand() * n))"
        src = ("import numpy as np\n"
               "def noise(n: int) -> object:\n")
        both = src + line + "  # invariant: disable=R1,R2\n"
        assert _check_source(both, rules=("R1", "R2"),
                             name="lsh/noise.py") == []
        partial = src + line + "  # invariant: disable=R1\n"
        left = _check_source(partial, rules=("R1", "R2"),
                             name="lsh/noise.py")
        assert [v.rule for v in left] == ["R2"]

    @pytest.mark.skipif(sys.version_info < (3, 10),
                        reason="match statements need Python 3.10+")
    def test_r3_flags_mutation_inside_match_arm(self):
        src = (
            "class T:\n"
            "    def lookup(self, code):\n"
            "        match code:\n"
            "            case 0:\n"
            "                self._overlay = None\n"
            "            case _:\n"
            "                pass\n"
        )
        flagged = _check_source(src, rules=("R3",))
        assert [v.rule for v in flagged] == ["R3"]
        assert flagged[0].line == 5

    def test_r3_follows_renamed_cross_module_import(self):
        # The PR 2 walk only matched callee *names*; a renamed import
        # (`from pkg.helpers import refresh as reload_table`) severed the
        # edge and hid the unlocked mutation.  The v2 symbol table keeps it.
        helpers = parse_source(
            "class GrowTable:\n"
            "    def grow(self):\n"
            "        self._starts.append(0)\n"
            "\n"
            "def refresh(table):\n"
            "    table.grow()\n",
            "pkg/helpers.py",
        )
        main = parse_source(
            "from pkg.helpers import refresh as reload_table\n"
            "\n"
            "def lookup_batch(table):\n"
            "    reload_table(table)\n",
            "pkg/query.py",
        )
        config = AnalysisConfig(rules=("R3",))
        flagged = analyze_modules([helpers, main], config)
        assert [(v.rule, v.path, v.line) for v in flagged] == [
            ("R3", "pkg/helpers.py", 3)]
        # Without the importing module the helper is unreachable: clean.
        assert analyze_modules([helpers], config) == []

    def test_r7_accepts_recording_via_resolved_helper(self):
        helpers = parse_source(
            "def soften(obs):\n"
            "    obs.record_fallback('stage')\n",
            "core/helpers.py",
        )
        main_src = (
            "from core.helpers import soften as absorb\n"
            "\n"
            "def step(obs):\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        absorb(obs)\n"
            "        return 0\n"
        )
        config = AnalysisConfig(rules=("R7",))
        main = parse_source(main_src, "core/run.py")
        assert analyze_modules([helpers, main], config) == []

    def test_r7_still_flags_non_recording_helper(self):
        helpers = parse_source(
            "def soften(obs):\n"
            "    obs.last_error = 'stage'\n",
            "core/helpers.py",
        )
        main = parse_source(
            "from core.helpers import soften as absorb\n"
            "\n"
            "def step(obs):\n"
            "    try:\n"
            "        return 1\n"
            "    except ValueError:\n"
            "        absorb(obs)\n"
            "        return 0\n",
            "core/run.py",
        )
        config = AnalysisConfig(rules=("R7",))
        flagged = analyze_modules([helpers, main], config)
        assert [v.rule for v in flagged] == ["R7"]

    def test_r10_flags_blocking_call_under_lock(self):
        src = (
            "import threading\n"
            "class D:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def run(self, fut):\n"
            "        with self._lock:\n"
            "            return fut.result()\n"
        )
        flagged = _check_source(src, rules=("R10",))
        assert [v.rule for v in flagged] == ["R10"]
        assert "Future.result" in flagged[0].message

    def test_r10_flags_blocking_reached_through_a_helper(self):
        src = (
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "def wait_done(fut):\n"
            "    return fut.result()\n"
            "def run(fut):\n"
            "    with LOCK:\n"
            "        return wait_done(fut)\n"
        )
        flagged = _check_source(src, rules=("R10",))
        assert [v.rule for v in flagged] == ["R10"]

    def test_r10_flags_abba_acquisition_cycle(self):
        src = (
            "import threading\n"
            "class P:\n"
            "    def __init__(self):\n"
            "        self._a_lock = threading.Lock()\n"
            "        self._b_lock = threading.Lock()\n"
            "    def one(self):\n"
            "        with self._a_lock:\n"
            "            with self._b_lock:\n"
            "                pass\n"
            "    def two(self):\n"
            "        with self._b_lock:\n"
            "            with self._a_lock:\n"
            "                pass\n"
        )
        flagged = _check_source(src, rules=("R10",))
        assert flagged and {v.rule for v in flagged} == {"R10"}

    def test_r10_reentrant_lock_nesting_is_clean(self):
        src = (
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._update_lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._update_lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._update_lock:\n"
            "            pass\n"
        )
        assert _check_source(src, rules=("R10",)) == []

    def test_r3_walks_from_the_shard_task(self):
        # What a runtime's shard pool runs is a worker root like the
        # ``n_jobs`` entries: a stage it reaches may not publish index
        # state outside a lock.
        src = (
            "class Plan:\n"
            "    def stage(self):\n"
            "        self._tables = []\n"
            "def _run_shard(plan, ctx, finite_row, rows):\n"
            "    plan.stage()\n"
        )
        flagged = _check_source(src, rules=("R3",))
        assert [(v.rule, v.line) for v in flagged] == [("R3", 3)]
        assert _check_source(src.replace("_run_shard", "_not_a_root"),
                             rules=("R3",)) == []


class TestCommandLine:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, str(CHECKER), *args],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )

    def test_clean_tree_exits_zero(self):
        proc = self._run("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "invariants OK" in proc.stdout

    def test_seeded_fixture_exits_one(self):
        proc = self._run(str(FIXTURES / "r1_direct_rng.py"))
        assert proc.returncode == 1
        assert "[R1]" in proc.stdout

    def test_rule_filter(self):
        # The R4 fixture is clean under R1 alone but dirty under R4.
        target = str(FIXTURES / "r4_untyped_api.py")
        assert self._run("--rules", "R1", target).returncode == 0
        assert self._run("--rules", "R4", target).returncode == 1

    def test_unknown_rule_is_a_usage_error(self):
        assert self._run("--rules", "R99", "src").returncode == 2

    def test_missing_path_is_a_usage_error(self):
        assert self._run("no/such/dir").returncode == 2

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule in ALL_RULES:
            assert rule in proc.stdout

    def test_json_mode_clean_tree(self):
        import json
        proc = self._run("--json", "src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["violations"] == []
        assert payload["checked"] > 40
        assert payload["rules"] == list(ALL_RULES)

    def test_json_mode_reports_violations(self):
        import json
        proc = self._run("--json", str(FIXTURES / "r1_direct_rng.py"))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        rules = {v["rule"] for v in payload["violations"]}
        assert rules == {"R1"}
        first = payload["violations"][0]
        assert set(first) == {"rule", "path", "line", "message"}

    def test_changed_only_with_no_changes_in_scope(self, tmp_path):
        # tmp_path is outside the repository, so git never reports its
        # files changed: the scoped set is empty and the gate passes.
        clean = tmp_path / "clean.py"
        clean.write_text("import random\n")  # would trip R1 if checked
        proc = self._run("--changed-only", str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no changed files" in proc.stdout

    def test_changed_only_json_is_empty_payload(self, tmp_path):
        import json
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        proc = self._run("--changed-only", "--json", str(clean))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload == {"violations": [], "checked": 0,
                           "rules": list(ALL_RULES)}

    def test_pragma_justification_flag(self, tmp_path):
        bare = tmp_path / "bare.py"
        bare.write_text(
            "import numpy as np\n"
            "def noise(n: int) -> object:\n"
            "    return np.random.rand(n)  # invariant: disable=R1\n"
        )
        justified = tmp_path / "justified.py"
        justified.write_text(
            "import numpy as np\n"
            "def noise(n: int) -> object:\n"
            "    return np.random.rand(n)"
            "  # invariant: disable=R1 — fixture entropy, not index state\n"
        )
        # Without the flag both files pass (the pragma suppresses R1).
        assert self._run(str(bare)).returncode == 0
        proc = self._run("--require-pragma-justification", str(bare))
        assert proc.returncode == 1
        assert "[pragma]" in proc.stdout
        assert self._run("--require-pragma-justification",
                         str(justified)).returncode == 0

    def test_head_passes_pragma_justification_gate(self):
        proc = self._run("--require-pragma-justification", "src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
