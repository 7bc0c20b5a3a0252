"""Concurrency-correctness rules R10–R12 over the interprocedural graph.

These rules consume the per-function summaries the v2 call graph
(:mod:`repro.analysis.callgraph`) computes — locks acquired with their
lexical held-set, blocking calls, attribute writes — and lift them to
whole-program findings:

- **R10 lock-order** — the static lock-acquisition graph must be
  acyclic (a cycle is a deadlock waiting for the right interleaving),
  a non-reentrant lock must not be re-acquired while held, and no
  blocking call (``Future.result``, ``queue.get``,
  ``shutdown(wait=True)``, ...) may execute while any lock is held —
  the PR 4 hung-worker bug, generalized.  Interprocedural facts
  propagate over *resolved* edges only: the by-name fallback edges are
  deliberately excluded here because their over-approximation would
  drown the report in same-named false cycles.
- **R11 shm-read-only** — arrays reconstructed from the PR 6
  SharedMemory manifest are read-only by contract.  Within a function,
  names tainted by a view-factory call (``_segment_view`` without
  ``writeable=True``) must not be written through; attributes those
  views escape into must not be written in place anywhere reachable
  from the worker entry points.
- **R12 spawn-safe** — objects shipped to spawn-context worker
  processes (``Process(target=..., args=...)``,
  ``ProcessPoolExecutor.submit``) must not carry locks, open files,
  bound methods (which drag their whole instance), lambdas, or RNG
  state across the pickle boundary.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    MUTATING_METHODS,
    CallGraph,
    FunctionNode,
)
from repro.analysis.core import ModuleInfo, Violation, dotted_attribute

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


# -------------------------------------------------------------------- R10

def _strongly_connected(adj: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's SCC algorithm, iterative (the lock graph is tiny but the
    checker must not recurse arbitrarily deep on adversarial input)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Set[str]] = []
    counter = [0]

    for root in adj:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(adj.get(node, ()))
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                scc: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def check_lock_order(
    modules: Sequence[ModuleInfo], graph: CallGraph
) -> List[Violation]:
    """R10: the lock-acquisition order graph is acyclic and no blocking
    call runs while a lock is held.

    Edges come from two sources: a lexical ``with A: ... with B:``
    nesting, and a call made while holding ``A`` into a function whose
    resolved transitive closure acquires ``B``.  Self-edges are flagged
    only for locks not created via ``threading.RLock`` (an RLock nests
    under itself by design; a plain Lock self-deadlocks).
    """
    checked_paths = {m.posix_path for m in modules}
    # (held, acquired) -> first witness (path, line, description).
    edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
    for fnode in graph.nodes:
        if fnode.module_path not in checked_paths:
            continue
        for acq in fnode.lock_sites:
            for held in acq.held_locks:
                edges.setdefault((held, acq.lock_id), (
                    fnode.module_path, acq.line,
                    f"{fnode.qualname} acquires {acq.lock_id} while "
                    f"holding {held}",
                ))
        for site in fnode.call_sites:
            if not site.held_locks or site.resolved is None:
                continue
            for inner in sorted(graph.transitive_locks(site.resolved)):
                for held in site.held_locks:
                    edges.setdefault((held, inner), (
                        fnode.module_path, site.line,
                        f"{fnode.qualname} holds {held} across a call to "
                        f"{site.resolved}, which acquires {inner}",
                    ))

    violations: List[Violation] = []
    seen: Set[Tuple[str, int, str]] = set()

    def emit(path: str, line: int, message: str) -> None:
        key = (path, line, message)
        if key not in seen:
            seen.add(key)
            violations.append(Violation("R10", path, line, message))

    adj: Dict[str, Set[str]] = {}
    for (held, acquired), (path, line, desc) in edges.items():
        if held == acquired:
            if not graph.is_reentrant_lock(held):
                emit(path, line,
                     f"re-acquisition of non-reentrant lock {held} while "
                     f"already held ({desc}); a plain Lock self-deadlocks "
                     "here — use an RLock or restructure")
            continue
        adj.setdefault(held, set()).add(acquired)
        adj.setdefault(acquired, set())

    for scc in _strongly_connected(adj):
        if len(scc) < 2:
            continue
        order = ", ".join(sorted(scc))
        for (held, acquired), (path, line, desc) in sorted(edges.items()):
            if held in scc and acquired in scc and held != acquired:
                emit(path, line,
                     f"lock-order cycle among {{{order}}}: {desc}; pick one "
                     "global acquisition order for these locks")

    for fnode in graph.nodes:
        if fnode.module_path not in checked_paths:
            continue
        for blk in fnode.blocking_sites:
            if blk.held_locks:
                emit(fnode.module_path, blk.line,
                     f"{fnode.qualname} makes blocking call {blk.desc} "
                     f"while holding {blk.held_locks[-1]}; waiting under a "
                     "lock stalls every other acquirer (the PR 4 "
                     "hung-worker shape) — release first, or bound the "
                     "wait outside the lock")
        for site in fnode.call_sites:
            if not site.held_locks or site.resolved is None:
                continue
            found = graph.transitive_blocking(site.resolved)
            if found is not None:
                target, blk = found
                emit(fnode.module_path, site.line,
                     f"{fnode.qualname} holds {site.held_locks[-1]} across "
                     f"a call into {target}, which can block in {blk.desc};"
                     " move the wait outside the lock")
    return violations


# -------------------------------------------------------------------- R11

def _call_tail(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _is_view_factory_call(node: ast.AST,
                          factories: Tuple[str, ...]) -> Optional[bool]:
    """``True`` for a read-only view-factory call, ``False`` for the
    sanctioned ``writeable=True`` copy-in seam, ``None`` otherwise."""
    if not isinstance(node, ast.Call) or _call_tail(node) not in factories:
        return None
    for kw in node.keywords:
        if kw.arg == "writeable" and isinstance(kw.value, ast.Constant) \
                and kw.value.value is True:
            return False
    return True


def _expr_taints(node: ast.expr, taint: Set[str],
                 factories: Tuple[str, ...]) -> bool:
    """True when evaluating ``node`` can yield a read-only SHM view."""
    if _is_view_factory_call(node, factories):
        return True
    if isinstance(node, ast.Name):
        return node.id in taint
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get":  # arrays.get("deleted")
        return _expr_taints(node.func.value, taint, factories)
    if isinstance(node, ast.IfExp):
        return (_expr_taints(node.body, taint, factories)
                or _expr_taints(node.orelse, taint, factories))
    if isinstance(node, ast.Subscript):
        return _expr_taints(node.value, taint, factories)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_expr_taints(e, taint, factories) for e in node.elts)
    if isinstance(node, ast.Dict):
        return any(v is not None and _expr_taints(v, taint, factories)
                   for v in node.values)
    if isinstance(node, ast.DictComp):
        return _expr_taints(node.value, taint, factories)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return _expr_taints(node.elt, taint, factories)
    return False


def _tainted_locals(fnode: FunctionNode, factories: Tuple[str, ...],
                    adopters: Tuple[str, ...]) -> Set[str]:
    """Local names that may alias a read-only SHM view (small fixpoint).

    The parameters of an ``adopters`` function start out tainted: a
    worker calls it with views, and it keeps what it is given by
    reference.
    """
    taint: Set[str] = set()
    if fnode.name in adopters:
        args = fnode.node.args
        taint.update(a.arg for a in
                     (args.posonlyargs + args.args + args.kwonlyargs)[1:])
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fnode.node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _expr_taints(value, taint, factories):
                continue
            for target in targets:
                elements = target.elts if isinstance(target, ast.Tuple) \
                    else [target]
                for element in elements:
                    if isinstance(element, ast.Name) \
                            and element.id not in taint:
                        taint.add(element.id)
                        changed = True
    return taint


def _base_name(expr: ast.expr) -> Optional[str]:
    """Root ``Name`` of a subscript/attribute chain, if any."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def shm_escaped_attrs(graph: CallGraph,
                      shm_view_factories: Tuple[str, ...],
                      shm_adopter_names: Tuple[str, ...]) -> Set[str]:
    """The manifest-backed attribute set: every ``attr`` some function
    stores a read-only SHM view into (``obj.attr = <view>``)."""
    escaped: Set[str] = set()
    for fnode in graph.nodes:
        taint = _tainted_locals(fnode, shm_view_factories, shm_adopter_names)
        for node in ast.walk(fnode.node):
            if isinstance(node, ast.Assign) and \
                    _expr_taints(node.value, taint, shm_view_factories):
                escaped.update(
                    target.attr for target in node.targets
                    if isinstance(target, ast.Attribute)
                    and target.attr != "writeable")
    return escaped


def check_shm_read_only(
    modules: Sequence[ModuleInfo],
    graph: CallGraph,
    shm_view_factories: Tuple[str, ...],
    shm_root_names: Tuple[str, ...],
    shm_scope_parts: Tuple[str, ...],
    shm_adopter_names: Tuple[str, ...],
) -> List[Violation]:
    """R11: no statically-reachable write to SharedMemory-backed arrays.

    Two phases.  *Local*: inside any function, a name bound to a
    read-only view-factory result must not be written through
    (subscript/augmented assignment, mutating method,
    ``.flags.writeable``) — only the ``writeable=True`` copy-in seam may
    write.  *Escape*: attributes such views are stored into form the
    manifest-backed attribute set; any in-place write to one of those
    attributes in a function reachable from the worker entry points
    (within the scoped packages) is flagged, because in a worker that
    attribute aliases the shared read-only segment.
    """
    checked_paths = {m.posix_path for m in modules}
    violations: List[Violation] = []
    escaped_attrs = shm_escaped_attrs(graph, shm_view_factories,
                                      shm_adopter_names)

    local_findings: List[Tuple[str, int, str]] = []
    for fnode in graph.nodes:
        taint = _tainted_locals(fnode, shm_view_factories, shm_adopter_names)
        for node in ast.walk(fnode.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = list(node.targets) if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        # Plain rebinding is fine; augmented assignment on
                        # an ndarray view writes in place.
                        if isinstance(node, ast.AugAssign) \
                                and target.id in taint:
                            local_findings.append((
                                fnode.module_path, node.lineno,
                                f"{fnode.qualname}: augmented assignment to "
                                f"'{target.id}' mutates a SharedMemory-"
                                "reconstructed view; worker arrays are "
                                "read-only by contract"))
                        continue
                    base = _base_name(target)
                    if not isinstance(target, (ast.Subscript, ast.Attribute)):
                        continue
                    if isinstance(target, ast.Subscript) and \
                            _is_view_factory_call(target.value,
                                                  shm_view_factories):
                        local_findings.append((
                            fnode.module_path, node.lineno,
                            "write through a fresh read-only SHM view "
                            f"({_call_tail(target.value)}(...)[...] = ...); "
                            "copy-in writes must pass writeable=True"))
                        continue
                    if base is not None and base in taint:
                        desc = "augmented assignment to" \
                            if isinstance(node, ast.AugAssign) \
                            else "write through"
                        what = ast.unparse(target)
                        local_findings.append((
                            fnode.module_path, node.lineno,
                            f"{fnode.qualname}: {desc} '{what}' mutates a "
                            "SharedMemory-reconstructed view; worker arrays "
                            "are read-only by contract — route writes "
                            "through the writeable=True copy-in seam"))
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in MUTATING_METHODS:
                    base = _base_name(func.value)
                    if base is not None and base in taint:
                        local_findings.append((
                            fnode.module_path, node.lineno,
                            f"{fnode.qualname}: {base}.{func.attr}(...) "
                            "mutates a SharedMemory-reconstructed view; "
                            "worker arrays are read-only by contract"))

    for path, line, message in local_findings:
        if path in checked_paths:
            violations.append(Violation("R11", path, line, message))

    # ``self.<escaped>.flags.writeable = ...`` flips protection off on a
    # manifest-backed attribute (tainted locals are already flagged above).
    for fnode in graph.nodes:
        if fnode.module_path not in checked_paths:
            continue
        for node in ast.walk(fnode.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr == "writeable"):
                    continue
                dotted = dotted_attribute(target) or ""
                if dotted.startswith("self.") and any(
                        f".{attr}." in dotted for attr in escaped_attrs):
                    violations.append(Violation(
                        "R11", fnode.module_path, node.lineno,
                        f"{fnode.qualname} re-enables writeable on a "
                        "SHM-backed view; the read-only flag is the "
                        "cross-process safety contract"))

    if escaped_attrs:
        scope = set(shm_scope_parts)
        reachable = graph.reachable_from(shm_root_names)
        path_parts = {m.posix_path: set(m.path_parts()) for m in modules}
        for fnode in sorted(reachable,
                            key=lambda n: (n.module_path, n.node.lineno)):
            parts = path_parts.get(fnode.module_path)
            if parts is None or not parts & scope:
                continue
            if fnode.name in ("__init__", "__post_init__"):
                continue
            for write in fnode.attr_writes:
                if write.inplace and write.attr in escaped_attrs:
                    violations.append(Violation(
                        "R11", fnode.module_path, write.line,
                        f"{fnode.qualname} writes {write.desc} in place; "
                        f"'{write.attr}' is reconstructed from the "
                        "SharedMemory manifest in workers, where this "
                        "write would fault or corrupt shared state",
                    ))
    return violations


# -------------------------------------------------------------------- R12

_LOCK_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "Barrier",
})
_RNG_CTORS = frozenset({"ensure_rng", "spawn_rngs", "default_rng",
                        "Generator", "SeedSequence"})
_PROCESS_POOL_CTORS = frozenset({"ProcessPoolExecutor"})


def _shipped_exprs(call: ast.Call, tail: str,
                   pool_locals: Set[str]) -> List[ast.expr]:
    """Expressions that cross the spawn/pickle boundary in ``call``."""
    shipped: List[ast.expr] = []
    if tail == "Process":
        for kw in call.keywords:
            if kw.arg == "target":
                shipped.append(kw.value)
            elif kw.arg in ("args", "kwargs"):
                if isinstance(kw.value, (ast.Tuple, ast.List)):
                    shipped.extend(kw.value.elts)
                elif isinstance(kw.value, ast.Dict):
                    shipped.extend(v for v in kw.value.values
                                   if v is not None)
                else:
                    shipped.append(kw.value)
    elif tail == "submit":
        receiver = None
        if isinstance(call.func, ast.Attribute):
            receiver = _base_name(call.func.value)
        if receiver in pool_locals:
            shipped.extend(call.args)
            shipped.extend(kw.value for kw in call.keywords)
    return shipped


def _spawn_unsafe_reason(expr: ast.expr, lock_locals: Set[str],
                         file_locals: Set[str],
                         rng_locals: Set[str]) -> Optional[str]:
    """Why ``expr`` must not cross the spawn boundary, or ``None``."""
    if isinstance(expr, ast.Lambda):
        return "a lambda (unpicklable, and its closure ships by value)"
    if isinstance(expr, ast.Name):
        if expr.id == "self":
            return ("the whole instance — it drags every lock/file/RNG "
                    "attribute across the spawn boundary")
        if expr.id in lock_locals:
            return f"lock '{expr.id}' (locks do not survive pickling)"
        if expr.id in file_locals:
            return f"open file '{expr.id}' (file handles are per-process)"
        if expr.id in rng_locals:
            return (f"RNG '{expr.id}' (generator state forks on spawn; "
                    "ship a seed and rebuild with ensure_rng)")
        return None
    dotted = dotted_attribute(expr)
    if dotted is None:
        return None
    parts = dotted.split(".")
    for part in parts[1:]:
        lowered = part.lower()
        if "lock" in lowered:
            return f"'{dotted}' (locks do not survive pickling)"
        if "rng" in lowered or lowered == "_generator":
            return (f"'{dotted}' (RNG state forks on spawn; ship a seed "
                    "and rebuild with ensure_rng)")
        if lowered in ("_file", "_fh", "_fp") or lowered.endswith("_file"):
            return f"'{dotted}' (file handles are per-process)"
    return None


def check_spawn_safe(
    modules: Sequence[ModuleInfo], graph: CallGraph
) -> List[Violation]:
    """R12: nothing shipped to a spawn-context worker closes over locks,
    open files, bound methods, lambdas, or RNG state.

    Spawn pickles everything: a bound-method target serializes its whole
    instance (locks included), a lock argument either fails to pickle or
    arrives as an unrelated copy, and a shipped RNG silently forks its
    stream.  Flags ``Process(target=..., args=...)`` /
    ``ProcessPoolExecutor.submit(...)`` call sites.
    """
    checked_paths = {m.posix_path for m in modules}
    violations: List[Violation] = []
    for fnode in graph.nodes:
        if fnode.module_path not in checked_paths:
            continue
        lock_locals: Set[str] = set()
        file_locals: Set[str] = set()
        rng_locals: Set[str] = set()
        pool_locals: Set[str] = set()
        for node in ast.walk(fnode.node):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            ctor = _call_tail(node.value)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if ctor in _LOCK_CTORS:
                    lock_locals.add(target.id)
                elif ctor == "open":
                    file_locals.add(target.id)
                elif ctor in _RNG_CTORS:
                    rng_locals.add(target.id)
                elif ctor in _PROCESS_POOL_CTORS:
                    pool_locals.add(target.id)
        for node in ast.walk(fnode.node):
            if not isinstance(node, ast.Call):
                continue
            tail = _call_tail(node)
            if tail not in ("Process", "submit"):
                continue
            for expr in _shipped_exprs(node, tail, pool_locals):
                if isinstance(expr, ast.Attribute) and tail == "Process" \
                        and any(kw.arg == "target" and kw.value is expr
                                for kw in node.keywords):
                    dotted = dotted_attribute(expr) or f"<expr>.{expr.attr}"
                    violations.append(Violation(
                        "R12", fnode.module_path, expr.lineno,
                        f"{fnode.qualname} ships bound method '{dotted}' as "
                        "a spawn target; the method pickles its entire "
                        "instance (locks and all) — use a module-level "
                        "function taking plain data",
                    ))
                    continue
                reason = _spawn_unsafe_reason(
                    expr, lock_locals, file_locals, rng_locals)
                if reason is not None:
                    violations.append(Violation(
                        "R12", fnode.module_path, expr.lineno,
                        f"{fnode.qualname} ships {reason} to a spawn-"
                        "context worker; pass plain picklable data and "
                        "rebuild process-local state on the far side",
                    ))
    return violations
