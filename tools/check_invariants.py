#!/usr/bin/env python
"""Gate the repository's machine-checked invariants (rules R1–R14).

Usage::

    python tools/check_invariants.py src/           # the standard gate
    python tools/check_invariants.py --rules R2,R4 src/repro/lsh
    python tools/check_invariants.py --changed-only # pre-commit speed
    python tools/check_invariants.py --json src/    # machine-readable
    python tools/check_invariants.py --list-rules

Exit codes:

- ``0`` — every checked file is clean (or ``--changed-only`` found no
  changed files in scope);
- ``1`` — at least one violation (including unjustified pragmas under
  ``--require-pragma-justification``);
- ``2`` — usage error (unknown rule, missing path, git failure under
  ``--changed-only``).

``--changed-only`` restricts analysis to files git reports as changed
(worktree + index + untracked) — a fast pre-commit subset.  Whole-program
rules (R3/R7/R10) then see only the changed files, so cross-file
findings can be missed; CI always runs the full tree.

The rules and their rationale are documented in DESIGN.md ("Invariants")
and implemented in ``src/repro/analysis/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.checker import (  # noqa: E402  (path bootstrap above)
    ALL_RULES,
    RULE_SUMMARIES,
    AnalysisConfig,
    analyze_paths,
    check_pragma_justifications,
    discover_files,
    format_violations,
)
from repro.analysis.core import load_module  # noqa: E402


def _git_changed_files(repo_root: Path) -> Optional[List[str]]:
    """Changed + untracked paths relative to ``repo_root``, or ``None`` on
    git failure (not a repo, git absent)."""
    changed: List[str] = []
    for cmd in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, cwd=str(repo_root), capture_output=True, text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        changed.extend(line.strip() for line in proc.stdout.splitlines()
                       if line.strip())
    return changed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_invariants",
        description="AST-based invariant checker for the Bi-level LSH repo.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--rules", default=",".join(ALL_RULES),
        help="comma-separated rule ids to enable (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule index and exit",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit violations as JSON ({violations: [...], checked: N})",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="restrict to files git reports changed (worktree, index, "
             "untracked); whole-program rules see only those files",
    )
    parser.add_argument(
        "--require-pragma-justification", action="store_true",
        help="additionally fail on '# invariant: disable=...' pragmas "
             "with no trailing justification text",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-violation output; exit code only",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule}  {RULE_SUMMARIES[rule]}")
        return 0

    rules = tuple(rule.strip() for rule in args.rules.split(",") if rule.strip())
    unknown = [rule for rule in rules if rule not in ALL_RULES]
    if unknown:
        parser.error(f"unknown rules: {', '.join(unknown)}")
    paths = args.paths or ["src"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    config = AnalysisConfig(rules=rules)
    if args.changed_only:
        changed = _git_changed_files(_REPO_ROOT)
        if changed is None:
            parser.error("--changed-only requires a working git checkout")
        changed_set = {Path(c).resolve() for c in changed}
        scoped = [
            str(f) for f in discover_files(paths, config)
            if f.resolve() in changed_set
        ]
        if not scoped:
            if args.json:
                print(json.dumps({"violations": [], "checked": 0,
                                  "rules": list(rules)}))
            elif not args.quiet:
                print("invariants OK (no changed files in scope)")
            return 0
        paths = scoped

    violations = list(analyze_paths(paths, config))
    if args.require_pragma_justification:
        pragma_modules = []
        for f in discover_files(paths, config):
            module, _err = load_module(f)
            if module is not None:
                pragma_modules.append(module)
        violations = sorted(
            violations + check_pragma_justifications(pragma_modules),
            key=lambda v: (v.path, v.line, v.rule, v.message),
        )

    if args.json:
        payload = {
            "violations": [
                {"rule": v.rule, "path": v.path, "line": v.line,
                 "message": v.message}
                for v in violations
            ],
            "checked": len(discover_files(paths, config)),
            "rules": list(rules),
        }
        print(json.dumps(payload, indent=2))
        return 1 if violations else 0

    if violations:
        if not args.quiet:
            print(format_violations(violations))
            print(f"\n{len(violations)} invariant violation(s) "
                  f"in {len({v.path for v in violations})} file(s)")
        return 1
    if not args.quiet:
        checked = ", ".join(paths)
        print(f"invariants OK ({', '.join(rules)}) over {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
