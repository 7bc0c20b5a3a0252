"""The repo-specific syntactic invariant rules (R1–R9, R13, R14).

Each rule is a pure function from parsed modules (plus shared context:
type-alias table, call graph) to a list of :class:`Violation`.  Rules are
deliberately syntactic and conservative — they enforce *discipline*
(explicit dtypes, centralized RNG, lock-guarded mutation), not semantics,
so a finding is always actionable at the flagged line: add the dtype,
route through ``utils/rng``, take the lock, or suppress with an
``# invariant: disable=Rn`` pragma and a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionNode
from repro.analysis.core import (
    ModuleInfo,
    Violation,
    dotted_attribute,
    is_self_attribute,
)

#: ``numpy`` array constructors whose default dtype depends on the input
#: (or is an implicit float64) — the hot path must name the dtype.
DTYPE_CONSTRUCTORS = frozenset({
    "array", "asarray", "ascontiguousarray", "asfortranarray",
    "zeros", "ones", "empty", "full",
    "arange", "linspace", "eye", "identity",
    "fromiter", "frombuffer", "fromfile", "fromstring",
})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "fill", "resize", "put", "partition",
})

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


# --------------------------------------------------------------------- R1

def check_rng_centralized(
    modules: Sequence[ModuleInfo], rng_module_suffixes: Tuple[str, ...]
) -> List[Violation]:
    """R1: randomness flows only through :mod:`repro.utils.rng`.

    Flags ``import random`` / ``from random import ...`` and any *call*
    into ``np.random.*`` / ``numpy.random.*``.  Non-call references (the
    type annotations ``np.random.Generator`` / ``np.random.SeedSequence``)
    stay legal — they name types, not entropy sources.
    """
    violations: List[Violation] = []
    for module in modules:
        if module.posix_path.endswith(rng_module_suffixes):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        violations.append(Violation(
                            "R1", module.posix_path, node.lineno,
                            "direct 'import random'; use repro.utils.rng instead",
                        ))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (
                    node.module or ""
                ).startswith("random."):
                    violations.append(Violation(
                        "R1", module.posix_path, node.lineno,
                        "direct 'from random import ...'; use repro.utils.rng "
                        "instead",
                    ))
            elif isinstance(node, ast.Call):
                dotted = dotted_attribute(node.func)
                if dotted and (
                    dotted.startswith("np.random.")
                    or dotted.startswith("numpy.random.")
                ):
                    violations.append(Violation(
                        "R1", module.posix_path, node.lineno,
                        f"direct call to {dotted}(); route seeds through "
                        "repro.utils.rng.ensure_rng/spawn_rngs",
                    ))
    return violations


# --------------------------------------------------------------------- R2

def check_explicit_dtype(
    modules: Sequence[ModuleInfo], hot_path_parts: Tuple[str, ...]
) -> List[Violation]:
    """R2: hot-path array constructions must name an explicit ``dtype=``.

    Applies only to modules under the hot-path packages (``lsh``,
    ``lattice``, ``core`` by default): there, an implicit dtype is how an
    ``int32`` code array or ``float32`` projection silently enters the
    packed-key pipeline and breaks the ``>u8`` byte-order contract.
    """
    violations: List[Violation] = []
    for module in modules:
        if not set(module.path_parts()) & set(hot_path_parts):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_attribute(node.func)
            if dotted is None or "." not in dotted:
                continue
            prefix, _, ctor = dotted.rpartition(".")
            if prefix not in ("np", "numpy") or ctor not in DTYPE_CONSTRUCTORS:
                continue
            if not any(kw.arg == "dtype" for kw in node.keywords):
                violations.append(Violation(
                    "R2", module.posix_path, node.lineno,
                    f"{dotted}(...) without an explicit dtype= in a hot-path "
                    "module; name the dtype so code/key arrays cannot drift",
                ))
    return violations


# --------------------------------------------------------------------- R3

def check_locked_mutation(
    modules: Sequence[ModuleInfo],
    graph: CallGraph,
    worker_roots: Tuple[str, ...],
    guarded_attrs: frozenset,
) -> List[Violation]:
    """R3: worker-reachable functions must not mutate shared index state
    outside a declared lock.

    The reachable set comes from the interprocedural graph's union walk:
    conservative by-name edges plus resolved edges, which add the
    aliasing cases the PR 2 walk missed (``fn = mod.mutator;
    pool.submit(fn)``, renamed imports, ``self.method`` through base
    classes).  Each reachable function's attribute-write summary already
    carries the lexically held lock set, so a write to a guarded
    ``self`` attribute (CSR offsets, overlay chunks, table lists, cached
    norms, tombstones) with an empty held set is a finding — including
    writes inside closures defined under a lock but executed later off
    it, and writes inside ``match`` arms.
    """
    path_index: Dict[str, ModuleInfo] = {m.posix_path: m for m in modules}
    reachable = graph.reachable_from(worker_roots)
    violations: List[Violation] = []
    for fnode in sorted(reachable, key=lambda n: (n.module_path, n.node.lineno)):
        if fnode.name in ("__init__", "__post_init__"):
            continue
        if fnode.module_path not in path_index:
            continue
        for write in fnode.attr_writes:
            if write.attr in guarded_attrs and not write.held_locks:
                violations.append(Violation(
                    "R3", fnode.module_path, write.line,
                    f"{fnode.qualname} is reachable from the n_jobs worker "
                    f"path (roots: {', '.join(worker_roots)}) but mutates "
                    f"{write.desc} without holding a declared lock",
                ))
    return violations


# --------------------------------------------------------------------- R4

def build_alias_table(modules: Sequence[ModuleInfo]) -> Dict[str, str]:
    """Module-level type aliases (``SeedLike = Union[None, ...]``) by name."""
    aliases: Dict[str, str] = {}
    for module in modules:
        for stmt in module.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                aliases[stmt.targets[0].id] = ast.unparse(stmt.value)
    return aliases


def _allows_none(annotation: ast.expr, aliases: Dict[str, str]) -> bool:
    text = ast.unparse(annotation)
    seen: Set[str] = set()
    while True:
        if any(token in text for token in ("None", "Optional", "Any", "object")):
            return True
        name = text.strip()
        if name in aliases and name not in seen:
            seen.add(name)
            text = aliases[name]
            continue
        return False


def _public_functions(
    module: ModuleInfo,
) -> Iterable[Tuple[str, ast.FunctionDef]]:
    """Top-level public functions and public methods (nested defs excluded)."""
    special = ("__init__", "__call__", "__post_init__")
    for stmt in module.tree.body:
        candidates: List[Tuple[str, ast.AST]] = []
        if isinstance(stmt, _FUNC_DEFS):
            candidates.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, _FUNC_DEFS):
                    candidates.append((f"{stmt.name}.{item.name}", item))
        for qualname, func in candidates:
            if not func.name.startswith("_") or func.name in special:
                yield qualname, func


def check_typed_api(
    modules: Sequence[ModuleInfo], aliases: Dict[str, str]
) -> List[Violation]:
    """R4: public API functions carry complete, honest type annotations.

    Every parameter (and ``*args`` / ``**kwargs``) of a public function
    or method must be annotated, the return type must be declared
    (``__init__``/``__post_init__`` excepted), and a ``= None`` default
    requires an annotation that admits ``None`` (``Optional[...]``,
    ``... | None``, or an alias resolving to one).
    """
    violations: List[Violation] = []
    for module in modules:
        for qualname, func in _public_functions(module):
            args = func.args
            positional = args.posonlyargs + args.args
            for arg in positional + args.kwonlyargs:
                if arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    violations.append(Violation(
                        "R4", module.posix_path, func.lineno,
                        f"{qualname}: parameter '{arg.arg}' lacks a type "
                        "annotation",
                    ))
            for star, prefix in ((args.vararg, "*"), (args.kwarg, "**")):
                if star is not None and star.annotation is None:
                    violations.append(Violation(
                        "R4", module.posix_path, func.lineno,
                        f"{qualname}: parameter '{prefix}{star.arg}' lacks a "
                        "type annotation",
                    ))
            if func.returns is None and func.name not in (
                "__init__", "__post_init__"
            ):
                violations.append(Violation(
                    "R4", module.posix_path, func.lineno,
                    f"{qualname}: missing return type annotation",
                ))
            defaults = list(zip(reversed(positional), reversed(args.defaults)))
            defaults += [
                (arg, default)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg, default in defaults:
                if (
                    isinstance(default, ast.Constant)
                    and default.value is None
                    and arg.annotation is not None
                    and not _allows_none(arg.annotation, aliases)
                ):
                    violations.append(Violation(
                        "R4", module.posix_path, func.lineno,
                        f"{qualname}: parameter '{arg.arg}' defaults to None "
                        f"but is annotated '{ast.unparse(arg.annotation)}' — "
                        "use Optional[...]",
                    ))
    return violations


# --------------------------------------------------------------------- R5

_MUTABLE_DEFAULTS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)
_IMMUTABLE_CALLS = frozenset({"tuple", "frozenset"})


def _is_silent_body(body: Sequence[ast.stmt]) -> bool:
    """True if an except body does nothing observable (pass/.../docstring)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def check_no_silent_failure(modules: Sequence[ModuleInfo]) -> List[Violation]:
    """R5: no bare/silent ``except`` and no mutable/shared default args.

    A bare ``except:`` (catches ``KeyboardInterrupt``/``SystemExit``) or a
    handler whose body is only ``pass`` hides failures the batch engine
    must surface.  Mutable literals and constructor calls as defaults are
    evaluated once and shared across calls — a classic aliasing bug, and
    with the thread-pooled dispatch a cross-thread one.
    """
    violations: List[Violation] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    violations.append(Violation(
                        "R5", module.posix_path, node.lineno,
                        "bare 'except:'; name the exception type",
                    ))
                elif _is_silent_body(node.body):
                    violations.append(Violation(
                        "R5", module.posix_path, node.lineno,
                        "silently swallowed exception (handler body does "
                        "nothing); handle, log or re-raise",
                    ))
            elif isinstance(node, _FUNC_DEFS):
                args = node.args
                all_defaults = list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]
                for default in all_defaults:
                    if isinstance(default, _MUTABLE_DEFAULTS):
                        violations.append(Violation(
                            "R5", module.posix_path, node.lineno,
                            f"{node.name}: mutable default argument "
                            f"'{ast.unparse(default)}'; use None and create "
                            "inside the function",
                        ))
                    elif isinstance(default, ast.Call):
                        callee = dotted_attribute(default.func) or "<call>"
                        if callee in _IMMUTABLE_CALLS:
                            continue
                        violations.append(Violation(
                            "R5", module.posix_path, node.lineno,
                            f"{node.name}: call default '{ast.unparse(default)}'"
                            " is evaluated once and shared across calls (and "
                            "threads); use None and construct per call",
                        ))
    return violations


# --------------------------------------------------------------------- R6

#: Wall-clock reads whose presence in a pipeline module marks ad-hoc
#: instrumentation (``time.<name>`` calls or ``from time import <name>``).
WALL_CLOCK_READS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
})


def check_obs_centralized(
    modules: Sequence[ModuleInfo],
    telemetry_scope_parts: Tuple[str, ...],
    obs_module_parts: Tuple[str, ...],
) -> List[Violation]:
    """R6: hot-path telemetry flows only through :mod:`repro.obs`.

    Inside the pipeline packages (``lsh``, ``lattice``, ``core``,
    ``hierarchy``, ``gpu``, ``rptree``, ``cluster`` by default), raw
    wall-clock reads (``time.perf_counter()`` and friends, or importing
    them from :mod:`time`) and ``print()`` calls are flagged: ad-hoc
    instrumentation bypasses the metrics registry's aggregation and label
    discipline, and — unlike the gated ``repro.obs`` sites — costs time
    even when observability is disabled.  The :mod:`repro.obs` package
    itself is exempt (it is where the clock reads are supposed to live);
    benchmarks and tools are outside the checked tree entirely.
    """
    violations: List[Violation] = []
    scope = set(telemetry_scope_parts)
    obs_parts = set(obs_module_parts)
    for module in modules:
        parts = set(module.path_parts())
        if parts & obs_parts or not parts & scope:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    names = [alias.name for alias in node.names
                             if alias.name in WALL_CLOCK_READS]
                    for name in names:
                        violations.append(Violation(
                            "R6", module.posix_path, node.lineno,
                            f"'from time import {name}' in a pipeline "
                            "module; emit telemetry through repro.obs "
                            "(StageTimer/Span) instead of timing inline",
                        ))
            elif isinstance(node, ast.Call):
                dotted = dotted_attribute(node.func)
                if dotted is None:
                    continue
                if dotted == "print":
                    violations.append(Violation(
                        "R6", module.posix_path, node.lineno,
                        "print() in a pipeline module; record a metric via "
                        "repro.obs or raise — stdout is not telemetry",
                    ))
                elif dotted.startswith("time."):
                    fn = dotted.split(".", 1)[1]
                    if fn in WALL_CLOCK_READS:
                        violations.append(Violation(
                            "R6", module.posix_path, node.lineno,
                            f"raw {dotted}() in a pipeline module; emit "
                            "telemetry through repro.obs (StageTimer/Span) "
                            "so it aggregates and gates off cleanly",
                        ))
    return violations


# --------------------------------------------------------------------- R7

#: Method names that record a handled failure into the resilience policy
#: or the observability layer — catching an exception is legal only if the
#: handler re-raises or makes one of these calls.
FAILURE_RECORDING_CALLS = frozenset({
    "note_failure", "record_failure", "record_fault", "record_retry",
    "record_fallback", "record_degraded", "record_deadline_exhausted",
})


def _handler_records_or_raises(
    handler: ast.ExceptHandler,
    module: ModuleInfo,
    graph: Optional[CallGraph],
) -> bool:
    """True if the handler re-raises or records the failure — directly,
    or through a helper the interprocedural graph can resolve."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            dotted = dotted_attribute(node.func)
            if dotted is not None:
                if dotted.rpartition(".")[2] in FAILURE_RECORDING_CALLS:
                    return True
    if graph is None:
        return False
    fnode = graph.node_covering(module.posix_path, handler.lineno)
    if fnode is None:
        return False
    end = int(getattr(handler, "end_lineno", None) or handler.lineno)
    for site in fnode.call_sites:
        if not handler.lineno <= site.line <= end:
            continue
        if site.resolved is not None and graph.transitively_records_failure(
                site.resolved, FAILURE_RECORDING_CALLS):
            return True
    return False


def check_recorded_failures(
    modules: Sequence[ModuleInfo],
    graph: CallGraph,
    telemetry_scope_parts: Tuple[str, ...],
    resilience_exempt_parts: Tuple[str, ...],
) -> List[Violation]:
    """R7: pipeline ``except`` handlers re-raise or record every failure.

    R5 already bans bare/empty handlers; R7 closes the remaining hole —
    a typed handler that *does* something (returns a default, logs to a
    local) but lets the error vanish from the batch's failure accounting.
    Inside the pipeline packages every handler must either contain a
    ``raise`` or call a failure-recording API
    (:meth:`ResiliencePolicy.note_failure`, ``Observer.record_*``) —
    since the v2 graph, calling a helper that the resolved call graph
    proves makes such a call (even under a renamed import) also counts.
    The supervision boundary itself — :mod:`repro.resilience`, where
    ``except Exception`` is the whole point — plus :mod:`repro.obs` and
    the analysis package are exempt.
    """
    violations: List[Violation] = []
    scope = set(telemetry_scope_parts)
    exempt = set(resilience_exempt_parts)
    for module in modules:
        parts = set(module.path_parts())
        if parts & exempt or not parts & scope:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _handler_records_or_raises(node, module, graph):
                continue
            violations.append(Violation(
                "R7", module.posix_path, node.lineno,
                "except handler swallows the failure: re-raise, or record "
                "it via ResiliencePolicy.note_failure / an obs record_* "
                "call so the batch's failure accounting stays honest",
            ))
    return violations


# --------------------------------------------------------------------- R8

#: Supervision-gate reads and stage-timing constructors owned by the
#: execution core: front-end modules must not call these inline.
EXEC_PLUMBING_CALLS = frozenset({
    "active_policy", "faults_active", "StageTimer",
})

#: Call tails a ``query_batch`` may delegate execution to: the staged
#: executor itself, or the runtime's ``submit`` (a thin front over
#: ``run_plan`` — see :mod:`repro.runtime.session`).
EXEC_DELEGATION_CALLS = frozenset({"run_plan", "submit"})


def _is_stub_def_body(body: Sequence[ast.stmt]) -> bool:
    """True for protocol/ABC stubs: only ``pass``/``...``/a docstring."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def check_exec_centralized(
    modules: Sequence[ModuleInfo],
    exec_scope_parts: Tuple[str, ...],
    exec_exempt_parts: Tuple[str, ...],
) -> List[Violation]:
    """R8: query execution is centralized in :mod:`repro.exec`.

    Inside the front-end packages (``lsh``, ``core``, ``gpu``,
    ``evaluation``), (a) every non-stub ``query_batch`` definition must
    delegate to :func:`repro.exec.run_plan` — the one executor that owns
    gate reads, deadlines, supervision, stage timing and batch sharding
    — either directly or through the runtime's ``submit`` (itself a thin
    front over ``run_plan``) — and (b) that
    executor-owned plumbing must not reappear inline: no
    ``active_policy()`` / ``faults_active()`` gate reads, no
    ``StageTimer`` construction, and no ``Deadline`` construction
    (``Deadline(...)`` or ``Deadline.from_ms(...)``).  Protocol/ABC
    stubs (bodies that are only ``...``/``pass``/a docstring) are
    exempt, as is the execution core itself — it is where this plumbing
    lives by design.
    """
    violations: List[Violation] = []
    scope = set(exec_scope_parts)
    exempt = set(exec_exempt_parts)
    for module in modules:
        parts = set(module.path_parts())
        if parts & exempt or not parts & scope:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, _FUNC_DEFS) and node.name == "query_batch":
                if _is_stub_def_body(node.body):
                    continue
                delegates = any(
                    isinstance(sub, ast.Call)
                    and (dotted_attribute(sub.func) or "").rpartition(".")[2]
                    in EXEC_DELEGATION_CALLS
                    for sub in ast.walk(node)
                )
                if not delegates:
                    violations.append(Violation(
                        "R8", module.posix_path, node.lineno,
                        "query_batch does not delegate to "
                        "repro.exec.run_plan (directly or via the "
                        "runtime's submit); front-end query "
                        "paths must execute through the shared staged "
                        "executor",
                    ))
            elif isinstance(node, ast.Call):
                dotted = dotted_attribute(node.func)
                if dotted is None:
                    continue
                tail = dotted.rpartition(".")[2]
                if tail in EXEC_PLUMBING_CALLS:
                    violations.append(Violation(
                        "R8", module.posix_path, node.lineno,
                        f"inline {dotted}() in a front-end module; gate "
                        "reads and stage timing belong to the execution "
                        "core (repro.exec.run_plan)",
                    ))
                elif dotted == "Deadline" or (
                    tail == "from_ms" and "Deadline" in dotted
                ):
                    violations.append(Violation(
                        "R8", module.posix_path, node.lineno,
                        f"inline {dotted}(...) deadline construction in a "
                        "front-end module; pass deadline_ms/deadline to "
                        "repro.exec.run_plan instead",
                    ))
    return violations


# --------------------------------------------------------------------- R9

#: The compiled-kernel backend modules.  Importing them anywhere except
#: the registry bypasses backend resolution (availability probing,
#: warn-once fallback, obs accounting) and couples callers to the
#: backend's presence.
NATIVE_BACKEND_MODULES = frozenset({
    "repro.native.kernels_cext",
})

#: Bare submodule names, for ``from repro.native import kernels_cext``.
_NATIVE_BACKEND_NAMES = frozenset(
    name.rpartition(".")[2] for name in NATIVE_BACKEND_MODULES
)


def check_native_dispatch(
    modules: Sequence[ModuleInfo],
    native_registry_suffixes: Tuple[str, ...],
) -> List[Violation]:
    """R9: compiled kernels are reachable only through the registry.

    The native tier's backend module (:mod:`repro.native.kernels_cext`)
    may be imported by exactly one module — the dispatch table in
    :mod:`repro.native.registry` — so every compiled entry point is
    reached through ``load_kernels()`` resolution: one availability
    probe, one warn-once fallback, one ``KERNEL_NAMES`` surface.  A
    direct import anywhere else would crash when that backend is absent
    and skip the fallback/obs accounting the registry provides.
    """
    violations: List[Violation] = []
    for module in modules:
        if module.posix_path.endswith(native_registry_suffixes):
            continue
        for node in ast.walk(module.tree):
            bad: Optional[str] = None
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in NATIVE_BACKEND_MODULES:
                        bad = alias.name
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod in NATIVE_BACKEND_MODULES:
                    bad = mod
                elif mod == "repro.native":
                    for alias in node.names:
                        if alias.name in _NATIVE_BACKEND_NAMES:
                            bad = f"repro.native.{alias.name}"
            if bad is not None:
                violations.append(Violation(
                    "R9", module.posix_path, node.lineno,
                    f"direct import of compiled backend {bad}; kernels "
                    "are dispatched only through "
                    "repro.native.registry.load_kernels()",
                ))
    return violations


# -------------------------------------------------------------------- R13

#: Calls that commit a mutation to the write-ahead log.  A mutating
#: public method satisfies R13 when one of these appears in its body
#: (behind the ``self._wal is not None`` gate by convention).
WAL_APPEND_CALLS = frozenset({
    "append_insert", "append_delete", "wal_append",
})


def check_wal_before_ack(
    modules: Sequence[ModuleInfo],
    wal_scope_parts: Tuple[str, ...],
) -> List[Violation]:
    """R13: mutating index methods log to the WAL before acknowledging.

    Inside the index front-end packages (``lsh``, ``core``), any class
    that answers queries (defines ``query_batch``) and accepts live
    mutation (defines a non-stub ``insert`` or ``delete``) is a durable
    surface: those mutating methods must contain a WAL append call
    (``append_insert`` / ``append_delete`` / ``wal_append``) so an
    acknowledged write can always be replayed after a crash
    (:mod:`repro.maintenance`).  The append is gated on an attached WAL
    at runtime; the rule checks that the *plumbing* exists, which is the
    part a refactor silently loses.  Protocol/ABC stubs are exempt.
    """
    violations: List[Violation] = []
    scope = set(wal_scope_parts)
    for module in modules:
        if not set(module.path_parts()) & scope:
            continue
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name: node for node in cls.body
                if isinstance(node, _FUNC_DEFS)
            }
            if "query_batch" not in methods:
                continue
            for name in ("insert", "delete"):
                method = methods.get(name)
                if method is None or _is_stub_def_body(method.body):
                    continue
                logs = any(
                    isinstance(sub, ast.Call)
                    and (dotted_attribute(sub.func) or "").rpartition(".")[2]
                    in WAL_APPEND_CALLS
                    for sub in ast.walk(method)
                )
                if not logs:
                    violations.append(Violation(
                        "R13", module.posix_path, method.lineno,
                        f"{cls.name}.{name} mutates a queryable index "
                        "without a WAL append; acknowledged writes must "
                        "reach the write-ahead log (append_insert/"
                        "append_delete) before the method returns",
                    ))
    return violations


# -------------------------------------------------------------------- R14

#: The stateful attachment mutators.  Process-lifetime wiring belongs to
#: :class:`repro.runtime.IndexRuntime` (``attach_maintenance`` /
#: ``open``); front-end classes may *define* ``attach_*`` methods (and
#: delegate among them), but calling one anywhere else re-creates the
#: ad-hoc per-call-site wiring the runtime layer exists to replace.
RUNTIME_ATTACH_CALLS = frozenset({"attach_wal", "attach_compactor"})


def check_runtime_centralized(
    modules: Sequence[ModuleInfo],
    runtime_scope_parts: Tuple[str, ...],
    runtime_exempt_parts: Tuple[str, ...],
) -> List[Violation]:
    """R14: attachment wiring belongs to the runtime.

    Inside the front-end packages and the CLI (``lsh``, ``core``,
    ``gpu``, ``evaluation``, ``cli``) the stateful attachment mutators
    (``attach_wal`` / ``attach_compactor``) must not be *called* outside
    a def itself named ``attach_*`` (the front-ends' delegation chains,
    e.g. BiLevelLSH fanning an attachment out to its group indexes).
    The runtime package and the execution core are exempt: they are
    where attachments are owned by design.  (That the index packages
    never import the runtime is ``tests/test_layering.py``'s line.)
    """
    violations: List[Violation] = []
    scope = set(runtime_scope_parts)
    exempt = set(runtime_exempt_parts)
    for module in modules:
        parts = set(module.path_parts())
        if parts & exempt or not parts & scope:
            continue
        violations.extend(_attach_calls_outside_attach_defs(module))
    return violations


def _attach_calls_outside_attach_defs(module: ModuleInfo) -> List[Violation]:
    """R14: flag ``attach_*`` mutator calls outside ``attach_*`` defs."""
    violations: List[Violation] = []

    def scan(node: ast.AST, owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            child_owner = (child.name if isinstance(child, _FUNC_DEFS)
                           else owner)
            if isinstance(child, ast.Call):
                tail = (dotted_attribute(child.func) or "").rpartition(".")[2]
                if tail in RUNTIME_ATTACH_CALLS \
                        and not (owner or "").startswith("attach_"):
                    violations.append(Violation(
                        "R14", module.posix_path, child.lineno,
                        f"{tail}() called outside repro.runtime; "
                        "process-lifetime attachment wiring belongs to "
                        "IndexRuntime (attach_maintenance/open)",
                    ))
            scan(child, child_owner)

    scan(module.tree, None)
    return violations
