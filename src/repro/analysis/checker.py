"""Checker orchestration: file discovery, rule dispatch, reporting.

:func:`analyze_paths` is the single entry point used by both the CLI
(``tools/check_invariants.py``) and the self-tests.  Configuration lives
in :class:`AnalysisConfig`; the defaults encode this repository's
contracts (hot-path packages, guarded index attributes, worker-path
roots) and the fixture tests pin them down.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.concurrency import check_lock_order
from repro.analysis.core import ModuleInfo, Violation, load_module
from repro.analysis.rules import (
    build_alias_table,
    check_exec_centralized,
    check_explicit_dtype,
    check_locked_mutation,
    check_native_dispatch,
    check_no_silent_failure,
    check_obs_centralized,
    check_recorded_failures,
    check_rng_centralized,
    check_runtime_centralized,
    check_typed_api,
    check_wal_before_ack,
)

ALL_RULES: Tuple[str, ...] = (
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
    "R10", "R13", "R14",
)

#: Rules that need the interprocedural call graph.
_GRAPH_RULES = frozenset({"R3", "R7", "R10"})

#: Human-readable rule index, kept in sync with ``repro.analysis.rules``.
RULE_SUMMARIES: Dict[str, str] = {
    "R1": "rng-centralized: no np.random/random use outside utils/rng",
    "R2": "explicit-dtype: hot-path array constructions name their dtype",
    "R3": "locked-mutation: worker-reachable code mutates shared index "
          "state only under a declared lock",
    "R4": "typed-api: public functions carry complete type annotations",
    "R5": "no-silent-failure: no bare/silent except, no mutable defaults",
    "R6": "obs-centralized: pipeline modules emit telemetry only through "
          "repro.obs (no raw time.perf_counter()/print instrumentation)",
    "R7": "recorded-failures: pipeline except handlers re-raise or record "
          "the failure (policy.note_failure / obs record_*) — no silently "
          "swallowed errors outside the supervision boundary",
    "R8": "exec-centralized: front-end query_batch implementations "
          "delegate to repro.exec.run_plan, and gate reads / Deadline / "
          "StageTimer plumbing never reappears inline outside repro/exec",
    "R9": "native-dispatch: the compiled kernel backend (kernels_cext) "
          "is imported only by repro.native.registry — "
          "every compiled entry point is reached through load_kernels() "
          "resolution, never directly",
    "R10": "lock-order: the static lock-acquisition graph is acyclic, "
           "non-reentrant locks are never re-acquired while held, and no "
           "blocking call (Future.result, queue.get, shutdown(wait=True)) "
           "executes while holding a lock",
    "R13": "wal-before-ack: mutating public methods (insert/delete) on "
           "queryable index classes contain a write-ahead-log append "
           "(append_insert/append_delete), so every acknowledged write "
           "is replayable after a crash",
    "R14": "runtime-centralized: attachment wiring "
           "(attach_wal/attach_compactor) is never called "
           "outside attach_* lifecycle methods — process-lifetime "
           "attachment belongs to IndexRuntime",
}


@dataclass
class AnalysisConfig:
    """Knobs for the invariant checker (defaults match this repository)."""

    rules: Tuple[str, ...] = ALL_RULES
    #: Path suffixes exempt from R1 (the one module allowed to touch numpy's
    #: global RNG machinery).
    rng_module_suffixes: Tuple[str, ...] = ("utils/rng.py",)
    #: Packages whose modules form the dtype-sensitive hot path (R2).
    hot_path_parts: Tuple[str, ...] = ("lsh", "lattice", "core", "exec",
                                       "maintenance")
    #: Bare names of the batch-query entry points that execute on the
    #: ``n_jobs`` worker pool or a runtime's shard pool (``_run_shard``)
    #: — the roots of the R3 reachability walk.
    worker_roots: Tuple[str, ...] = (
        "query_batch", "candidate_sets", "gather_batch",
        "lookup_batch", "lookup", "lookup_many",
        "run_plan", "run_validated", "_run_shard",
    )
    #: ``self.<attr>`` names that constitute shared index state (R3).
    guarded_attrs: frozenset = field(default_factory=lambda: frozenset({
        "_starts", "_ends", "_overlay", "_base", "_bucket_codes",
        "_sorted_ids",
        "_tables", "_hierarchies", "_families", "_lattice",
        "_sq_norms", "_deleted", "_data", "_ids", "n_points",
        "group_indexes", "group_widths", "partitioner",
    }))
    #: Packages whose modules count as the instrumented pipeline (R6):
    #: telemetry there must flow through ``repro.obs``.
    telemetry_scope_parts: Tuple[str, ...] = (
        "lsh", "lattice", "core", "hierarchy", "gpu", "rptree", "cluster",
        "exec", "maintenance",
    )
    #: Extra packages R6 covers beyond the shared telemetry scope.  The
    #: native tier is worker-reachable (its kernels run inside shard
    #: workers, where an ad-hoc ``perf_counter``/``print`` would bypass
    #: the metrics registry entirely), so R6 polices it — but
    #: R7 does not: backend resolution legitimately catches broad import
    #: errors in its capability ladder.
    obs_extra_scope_parts: Tuple[str, ...] = ("native",)
    #: Path parts identifying the observability package itself, which is
    #: the one place allowed to read the wall clock (R6 exemption).  The
    #: resilience package shares the exemption: deadlines and backoff are
    #: clock reads by design, behind the same module-gate pattern.
    obs_module_parts: Tuple[str, ...] = ("obs", "resilience")
    #: Path parts exempt from R7: the supervision boundary itself (where
    #: ``except Exception`` is the mechanism), the obs layer, and the
    #: analysis package (handlers there report through Violations).
    resilience_exempt_parts: Tuple[str, ...] = ("obs", "resilience",
                                                "analysis")
    #: Front-end packages whose ``query_batch`` definitions must delegate
    #: to the shared executor, with no inline supervision plumbing (R8).
    exec_scope_parts: Tuple[str, ...] = ("lsh", "core", "gpu", "evaluation")
    #: Path parts identifying the execution core itself — the one place
    #: the R8-banned plumbing is supposed to live.
    exec_exempt_parts: Tuple[str, ...] = ("exec",)
    #: Path suffixes of the one module allowed to import the compiled
    #: kernel backends (R9): the native dispatch table.
    native_registry_suffixes: Tuple[str, ...] = ("native/registry.py",)
    #: Index front-end packages whose mutating public methods must append
    #: to the write-ahead log before acknowledging (R13).
    wal_scope_parts: Tuple[str, ...] = ("lsh", "core")
    #: Front-end packages (plus the CLI module) that must not call the
    #: ``attach_*`` mutators outside ``attach_*`` lifecycle defs (R14).
    runtime_scope_parts: Tuple[str, ...] = ("lsh", "core", "gpu",
                                            "evaluation", "cli")
    #: Path parts identifying the layers R14 exempts: the execution core
    #: and the runtime package itself, which owns the attachments.
    runtime_exempt_parts: Tuple[str, ...] = ("exec", "runtime")
    #: Directory names never descended into during file discovery.
    skip_dirs: Tuple[str, ...] = (
        "__pycache__", ".git", ".mypy_cache", ".ruff_cache", "build", "dist",
    )


def discover_files(paths: Sequence[str], config: AnalysisConfig) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not set(sub.parts) & set(config.skip_dirs):
                    files.append(sub)
        elif path.suffix == ".py":
            files.append(path)
    return files


def analyze_modules(
    modules: Sequence[ModuleInfo], config: AnalysisConfig
) -> List[Violation]:
    """Run every enabled rule over already-parsed modules."""
    violations: List[Violation] = []
    graph: Optional[CallGraph] = None
    if _GRAPH_RULES & set(config.rules):
        graph = CallGraph(modules)
    if "R1" in config.rules:
        violations += check_rng_centralized(modules, config.rng_module_suffixes)
    if "R2" in config.rules:
        violations += check_explicit_dtype(modules, config.hot_path_parts)
    if "R3" in config.rules and graph is not None:
        violations += check_locked_mutation(
            modules, graph, config.worker_roots, config.guarded_attrs
        )
    if "R4" in config.rules:
        aliases = build_alias_table(modules)
        violations += check_typed_api(modules, aliases)
    if "R5" in config.rules:
        violations += check_no_silent_failure(modules)
    if "R6" in config.rules:
        violations += check_obs_centralized(
            modules,
            config.telemetry_scope_parts + config.obs_extra_scope_parts,
            config.obs_module_parts,
        )
    if "R7" in config.rules and graph is not None:
        violations += check_recorded_failures(
            modules, graph, config.telemetry_scope_parts,
            config.resilience_exempt_parts
        )
    if "R8" in config.rules:
        violations += check_exec_centralized(
            modules, config.exec_scope_parts, config.exec_exempt_parts
        )
    if "R9" in config.rules:
        violations += check_native_dispatch(
            modules, config.native_registry_suffixes
        )
    if "R10" in config.rules and graph is not None:
        violations += check_lock_order(modules, graph)
    if "R13" in config.rules:
        violations += check_wal_before_ack(modules, config.wal_scope_parts)
    if "R14" in config.rules:
        violations += check_runtime_centralized(
            modules, config.runtime_scope_parts, config.runtime_exempt_parts
        )
    by_path = {module.posix_path: module for module in modules}
    kept = [
        v for v in violations
        if v.path not in by_path or not by_path[v.path].is_suppressed(v)
    ]
    return sorted(kept, key=lambda v: (v.path, v.line, v.rule, v.message))


def analyze_paths(
    paths: Sequence[str], config: Optional[AnalysisConfig] = None
) -> List[Violation]:
    """Check every ``.py`` file under ``paths``; returns sorted violations."""
    if config is None:
        config = AnalysisConfig()
    modules: List[ModuleInfo] = []
    violations: List[Violation] = []
    for path in discover_files(paths, config):
        module, parse_error = load_module(path)
        if parse_error is not None:
            violations.append(parse_error)
        elif module is not None:
            modules.append(module)
    return sorted(
        violations + analyze_modules(modules, config),
        key=lambda v: (v.path, v.line, v.rule, v.message),
    )


def check_pragma_justifications(
    modules: Sequence[ModuleInfo],
) -> List[Violation]:
    """Every ``# invariant: disable=...`` pragma must say *why*.

    A suppression with no trailing justification text is itself a finding
    (rule id ``pragma``): the pragma grants a permanent exemption, so the
    reviewer-facing reason has to live next to it, not in a commit
    message.  Enforced by the CLI's ``--require-pragma-justification``
    flag (the CI lint job runs with it on).
    """
    violations: List[Violation] = []
    for module in modules:
        for lineno, rules, justification in module.iter_pragmas():
            if not justification:
                violations.append(Violation(
                    "pragma", module.posix_path, lineno,
                    f"suppression of {', '.join(rules)} without a trailing "
                    "justification; write '# invariant: disable=... — "
                    "<why this exemption is sound>'",
                ))
    return violations


def format_violations(violations: Iterable[Violation]) -> str:
    """One ``path:line: [rule] message`` line per violation."""
    return "\n".join(violation.format() for violation in violations)


def parse_source(source: str, name: str = "<fixture>.py") -> ModuleInfo:
    """Parse an in-memory source string (used by the self-tests)."""
    return ModuleInfo(
        path=Path(name),
        tree=ast.parse(source),
        source_lines=source.splitlines(),
    )
