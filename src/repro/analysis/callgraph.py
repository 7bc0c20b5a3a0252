"""Module-resolved, alias-aware interprocedural call graph (analysis v2).

The PR 2 graph was a name-indexed over-approximation: ``x.foo()`` created
an edge to *every* function named ``foo``.  That is the right failure
mode for a gate (false positives, never false negatives), but it cannot
see lock ordering, cannot follow a callable that was renamed on import
or aliased to a local, and cannot tell which ``self.method`` a receiver
resolves to.  This rewrite keeps the conservative by-name edges as a
fallback and layers *resolved* edges on top:

- **imports** — ``import repro.lsh.query as q; q.f()`` and
  ``from repro.lsh.table import morton_keys as mk; mk()`` resolve to the
  defining :class:`FunctionNode` when the target module is in the
  analyzed corpus;
- **class hierarchy** — ``self.method()`` resolves through the
  receiver's class and its (corpus-resolved) bases, depth-first;
- **callable aliases** — ``fn = self._stage_gather; pool.submit(fn)``
  follows the local assignment to the bound method;
- **shipped callables** — ``functools.partial(fn, ...)``,
  ``executor.submit(fn, ...)`` and ``Thread/Process(target=fn)`` create
  edges to ``fn`` (the PR 1/PR 6 dispatch idioms), including plain
  ``Name`` arguments the old graph ignored.

Beyond edges, every function carries the summaries the concurrency
rules (R3, R10) consume: the locks it acquires (``with self.<..lock..>``
scopes, identified per defining class), the blocking calls it makes
(``Future.result``, ``queue.get``, ``shutdown(wait=True)``, ...), the
``self.<attr>`` writes it performs, and — per
call site — the set of locks lexically held at the call.

Nested functions and lambdas are folded into their enclosing top-level
function or method, with one deliberate refinement over PR 2: a nested
def's body is summarized with an *empty* held-lock context, because the
dominant idiom here is a worker closure defined under a writer lock but
*executed* later on a pool thread that does not hold it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from repro.analysis.core import ModuleInfo, dotted_attribute

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Method names that mutate their receiver in place (shared with rules).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "fill", "resize", "put", "partition",
})

#: Callables whose first positional argument is a callable being shipped
#: for later execution (possibly on another thread or process).
_SHIP_FIRST_ARG = frozenset({"partial", "submit", "apply_async"})

#: Receiver-name fragments that mark ``.join()`` / ``.get()`` / ``.recv()``
#: as genuinely blocking (``", ".join`` and ``dict.get`` are not).
_JOIN_RECEIVERS = ("process", "thread", "worker", "pool")
_GET_RECEIVERS = ("queue",)
_RECV_RECEIVERS = ("conn", "pipe", "sock")


def module_dotted_name(module: ModuleInfo) -> str:
    """Dotted import path for ``module`` (``src/repro/lsh/table.py`` ->
    ``repro.lsh.table``); best-effort for paths outside a ``src`` root."""
    parts = list(module.path_parts())
    if "src" in parts:
        last = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One call inside a function body.

    ``name`` is the bare called name (the by-name fallback edge key, ``""``
    when there is none), ``resolved`` the key of the precisely resolved
    :class:`FunctionNode` (or ``None``), ``held_locks`` the lock ids
    lexically held at the call.
    """

    line: int
    name: str
    resolved: Optional[str]
    held_locks: Tuple[str, ...]


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with <lock>:`` acquisition and the locks already held."""

    lock_id: str
    line: int
    held_locks: Tuple[str, ...]


@dataclass(frozen=True)
class BlockingCall:
    """One potentially-blocking call (``Future.result``, ``queue.get``,
    ``shutdown(wait=True)``, ...) and the locks lexically held at it."""

    line: int
    desc: str
    held_locks: Tuple[str, ...]


@dataclass(frozen=True)
class AttrWrite:
    """One write to ``self.<attr>``: a rebinding (``self.x = ...``) or an
    in-place write through the object (``self.x[i] = v``, ``self.x += d``,
    ``self.x.append(...)``, ``self.x.flags.writeable = ...``)."""

    attr: str
    line: int
    desc: str
    held_locks: Tuple[str, ...]


class FunctionNode:
    """One top-level function or method plus its analysis summaries."""

    __slots__ = ("name", "qualname", "module", "module_path", "node",
                 "class_name", "call_sites", "lock_sites", "blocking_sites",
                 "attr_writes")

    def __init__(self, name: str, qualname: str, module: str,
                 module_path: str, node: ast.AST,
                 class_name: Optional[str]) -> None:
        self.name = name
        self.qualname = qualname
        self.module = module
        self.module_path = module_path
        self.node = node
        self.class_name = class_name
        self.call_sites: List[CallSite] = []
        self.lock_sites: List[LockAcquisition] = []
        self.blocking_sites: List[BlockingCall] = []
        self.attr_writes: List[AttrWrite] = []

    @property
    def key(self) -> str:
        """Corpus-unique identifier (module + qualified name)."""
        return f"{self.module}::{self.qualname}"

    def end_lineno(self) -> int:
        return int(getattr(self.node, "end_lineno", None)
                   or getattr(self.node, "lineno", 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionNode({self.key})"


class ClassInfo:
    """One class definition: its methods and corpus-resolved bases."""

    __slots__ = ("name", "module", "methods", "base_exprs", "bases")

    def __init__(self, name: str, module: str,
                 base_exprs: Sequence[str]) -> None:
        self.name = name
        self.module = module
        self.methods: Dict[str, FunctionNode] = {}
        self.base_exprs: Tuple[str, ...] = tuple(base_exprs)
        self.bases: List["ClassInfo"] = []

    def find_method(self, name: str,
                    _seen: Optional[Set[str]] = None) -> Optional[FunctionNode]:
        """Resolve ``name`` through this class then its bases, depth-first."""
        if name in self.methods:
            return self.methods[name]
        seen = _seen if _seen is not None else set()
        key = f"{self.module}.{self.name}"
        if key in seen:
            return None
        seen.add(key)
        for base in self.bases:
            found = base.find_method(name, seen)
            if found is not None:
                return found
        return None


def _lock_id_for(expr: ast.expr, owner: FunctionNode) -> Optional[str]:
    """Identity of a lock-ish ``with`` context expression, or ``None``.

    ``self._update_lock`` inside a method of ``StandardLSH`` becomes
    ``"StandardLSH._update_lock"``; a module-global ``_state_lock``
    becomes ``"<module>._state_lock"``; other dotted receivers keep the
    attribute name alone, which merges same-named locks conservatively.
    """
    if isinstance(expr, ast.Call):
        expr = expr.func
    dotted = dotted_attribute(expr)
    if dotted is None or "lock" not in dotted.lower():
        return None
    parts = dotted.split(".")
    if parts[0] == "self" and len(parts) == 2 and owner.class_name:
        return f"{owner.class_name}.{parts[1]}"
    if len(parts) == 1:
        return f"{owner.module}.{parts[0]}"
    return parts[-1]


def _blocking_desc(call: ast.Call, tail: str,
                   dotted: Optional[str]) -> Optional[str]:
    """Human-readable description if ``call`` is a known blocking call."""
    lowered = (dotted or "").lower()
    if tail == "result":
        return "Future.result()"
    if tail == "shutdown":
        for kw in call.keywords:
            if kw.arg == "wait" and isinstance(kw.value, ast.Constant) \
                    and kw.value.value is False:
                return None
        return "Executor.shutdown(wait=True)"
    if tail == "get" and any(frag in lowered for frag in _GET_RECEIVERS):
        return "queue.get()"
    if tail == "join" and any(frag in lowered for frag in _JOIN_RECEIVERS):
        return f"{dotted}()"
    if tail == "recv" and any(frag in lowered for frag in _RECV_RECEIVERS):
        return f"{dotted}()"
    if tail == "sleep" and dotted == "time.sleep":
        return "time.sleep()"
    return None


def _self_attr_base(expr: ast.expr) -> Optional[Tuple[str, str]]:
    """``(attr, suffix_desc)`` when ``expr`` writes through ``self.<attr>``.

    Unwraps subscripts and trailing attribute chains:
    ``self._x[i]`` -> ``("_x", "self._x[...]")``,
    ``self._x.flags.writeable`` -> ``("_x", "self._x.flags.writeable")``.
    Returns ``None`` for anything not rooted at ``self``.
    """
    node = expr
    suffix: List[str] = []
    while True:
        if isinstance(node, (ast.Subscript, ast.Starred)):
            suffix.append("[...]")
            node = node.value
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                attr = node.attr
                if suffix:
                    return attr, "self." + attr + "".join(reversed(suffix))
                return attr, f"self.{attr}"
            suffix.append("." + node.attr)
            node = node.value
        else:
            return None


class _FunctionSummarizer:
    """Single-pass walker filling one :class:`FunctionNode`'s summaries."""

    def __init__(self, graph: "CallGraph", fnode: FunctionNode) -> None:
        self.graph = graph
        self.fnode = fnode
        #: Local names aliased to resolvable callables (``fn = self._m``).
        self.aliases: Dict[str, str] = {}

    def run(self) -> None:
        root = self.fnode.node
        if isinstance(root, _FUNC_DEFS):
            defaults = list(root.args.defaults) + [
                d for d in root.args.kw_defaults if d is not None]
            for default in defaults:
                self._visit(default, ())
            for stmt in root.body:
                self._visit(stmt, ())

    # ------------------------------------------------------------ traversal

    def _visit(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            for item in node.items:
                self._visit(item.context_expr, new_held)
                lock_id = _lock_id_for(item.context_expr, self.fnode)
                if lock_id is not None:
                    self.fnode.lock_sites.append(LockAcquisition(
                        lock_id, node.lineno, new_held))
                    new_held = new_held + (lock_id,)
            for stmt in node.body:
                self._visit(stmt, new_held)
            return
        if isinstance(node, _FUNC_DEFS):
            # Nested def: folded into this node, but with an empty lock
            # context — closures defined under a lock typically execute
            # later, on a pool thread that does not hold it.
            for dec in node.decorator_list:
                self._visit(dec, held)
            for stmt in node.body:
                self._visit(stmt, ())
            return
        if isinstance(node, ast.Lambda):
            self._visit(node.body, ())
            return
        if isinstance(node, ast.Assign):
            self._record_writes(node.targets, node.lineno, held,
                                value=node.value)
            self._track_alias(node)
        elif isinstance(node, ast.AugAssign):
            self._record_writes([node.target], node.lineno, held)
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            self._record_writes([node.target], node.lineno, held,
                                value=node.value)
        elif isinstance(node, ast.Call):
            self._handle_call(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    # ------------------------------------------------------------- writes

    def _record_writes(self, targets: Sequence[ast.expr], line: int,
                       held: Tuple[str, ...],
                       value: Optional[ast.expr] = None) -> None:
        for target in targets:
            if isinstance(target, ast.Tuple):
                self._record_writes(list(target.elts), line, held)
                continue
            found = _self_attr_base(target)
            if found is None:
                continue
            attr, desc = found
            self.fnode.attr_writes.append(AttrWrite(attr, line, desc, held))

    # -------------------------------------------------------------- calls

    def _handle_call(self, call: ast.Call, held: Tuple[str, ...]) -> None:
        func = call.func
        name = ""
        dotted: Optional[str] = None
        resolved: Optional[FunctionNode] = None
        if isinstance(func, ast.Name):
            name = func.id
            dotted = name
            resolved = self._resolve_callable(func)
        elif isinstance(func, ast.Attribute):
            name = func.attr
            dotted = dotted_attribute(func)
            resolved = self._resolve_callable(func)
        self.fnode.call_sites.append(CallSite(
            call.lineno, name, resolved.key if resolved else None, held))
        # Mutating method on self.<attr>: self._extra.append(x) etc.
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            found = _self_attr_base(func.value)
            if found is not None:
                attr, desc = found
                self.fnode.attr_writes.append(AttrWrite(
                    attr, call.lineno, f"{desc}.{func.attr}(...)", held))
        blocking = _blocking_desc(call, name, dotted)
        if blocking is not None:
            self.fnode.blocking_sites.append(BlockingCall(
                call.lineno, blocking, held))
        self._handle_shipped_callables(call, name, held)
        self._handle_reference_args(call, held)

    def _handle_shipped_callables(self, call: ast.Call, name: str,
                                  held: Tuple[str, ...]) -> None:
        shipped: List[ast.expr] = []
        if name in _SHIP_FIRST_ARG and call.args:
            shipped.append(call.args[0])
        for kw in call.keywords:
            if kw.arg == "target":
                shipped.append(kw.value)
        for expr in shipped:
            resolved = self._resolve_callable(expr)
            bare = ""
            if isinstance(expr, ast.Name):
                bare = expr.id
            elif isinstance(expr, ast.Attribute):
                bare = expr.attr
            if resolved is not None or bare:
                self.fnode.call_sites.append(CallSite(
                    expr.lineno, bare, resolved.key if resolved else None,
                    held))

    def _handle_reference_args(self, call: ast.Call,
                               held: Tuple[str, ...]) -> None:
        """Callable references passed as arguments keep their bodies live.

        Attribute references keep the PR 2 by-name edge; ``Name``
        references contribute an edge only when they resolve to a corpus
        callable (a plain data argument must not widen the graph).
        """
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Attribute):
                resolved = self._resolve_callable(arg)
                self.fnode.call_sites.append(CallSite(
                    arg.lineno, arg.attr,
                    resolved.key if resolved else None, held))
            elif isinstance(arg, ast.Name):
                resolved = self._resolve_callable(arg)
                if resolved is not None:
                    self.fnode.call_sites.append(CallSite(
                        arg.lineno, "", resolved.key, held))

    # ---------------------------------------------------------- resolution

    def _track_alias(self, assign: ast.Assign) -> None:
        if len(assign.targets) != 1 or not isinstance(assign.targets[0],
                                                      ast.Name):
            return
        target = assign.targets[0].id
        resolved = self._resolve_callable(assign.value)
        if resolved is not None:
            self.aliases[target] = resolved.key
        else:
            self.aliases.pop(target, None)

    def _resolve_callable(self, expr: ast.expr) -> Optional[FunctionNode]:
        graph = self.graph
        if isinstance(expr, ast.Name):
            if expr.id in self.aliases:
                return graph.node_by_key(self.aliases[expr.id])
            return graph.resolve_name(self.fnode.module, expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_attribute(expr)
            if dotted is None:
                return None
            parts = dotted.split(".")
            if parts[0] == "self" and len(parts) == 2 \
                    and self.fnode.class_name:
                cls = graph.class_by_name(self.fnode.module,
                                          self.fnode.class_name)
                if cls is not None:
                    return cls.find_method(parts[1])
                return None
            return graph.resolve_dotted(self.fnode.module, dotted)
        return None


class CallGraph:
    """Precise + by-name call graph across all analyzed modules."""

    def __init__(self, modules: Iterable[ModuleInfo]):
        self.nodes: List[FunctionNode] = []
        self._by_name: Dict[str, List[FunctionNode]] = {}
        self._by_key: Dict[str, FunctionNode] = {}
        self._classes: Dict[str, ClassInfo] = {}
        #: Per-module symbol table: local name -> absolute dotted target.
        self._symbols: Dict[str, Dict[str, str]] = {}
        self._modules: List[ModuleInfo] = list(modules)
        self._rlock_attrs: Set[str] = set()
        self._trans_locks: Dict[str, FrozenSet[str]] = {}
        self._trans_blocking: Dict[str, Optional[Tuple[str, BlockingCall]]] = {}
        self._records_failure: Dict[str, bool] = {}

        for module in self._modules:
            self._index_module(module)
        self._resolve_bases()
        for node in self.nodes:
            _FunctionSummarizer(self, node).run()
        self._collect_rlock_attrs()

    # ------------------------------------------------------------- indexing

    def _index_module(self, module: ModuleInfo) -> None:
        dotted = module_dotted_name(module)
        symbols: Dict[str, str] = {}
        self._symbols[dotted] = symbols
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname is not None:
                        symbols[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        symbols[head] = head
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module is None or stmt.level:
                    continue  # relative imports stay unresolved (by-name)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    symbols[local] = f"{stmt.module}.{alias.name}"
            elif isinstance(stmt, _FUNC_DEFS):
                self._add_function(stmt, module, dotted, None)
                symbols[stmt.name] = f"{dotted}.{stmt.name}"
            elif isinstance(stmt, ast.ClassDef):
                bases = [dotted_attribute(b) for b in stmt.bases]
                info = ClassInfo(stmt.name, dotted,
                                 [b for b in bases if b is not None])
                self._classes[f"{dotted}.{stmt.name}"] = info
                symbols[stmt.name] = f"{dotted}.{stmt.name}"
                for item in stmt.body:
                    if isinstance(item, _FUNC_DEFS):
                        method = self._add_function(item, module, dotted,
                                                    stmt.name)
                        info.methods[item.name] = method
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                value = dotted_attribute(stmt.value)
                if value is not None:
                    head = value.split(".")[0]
                    if head in symbols:
                        rest = value.split(".")[1:]
                        symbols[stmt.targets[0].id] = ".".join(
                            [symbols[head]] + rest)

    def _add_function(self, node: "FunctionDefType", module: ModuleInfo,
                      dotted: str, class_name: Optional[str]) -> FunctionNode:
        name = node.name
        qualname = f"{class_name}.{name}" if class_name else name
        fnode = FunctionNode(name=name, qualname=qualname, module=dotted,
                             module_path=module.posix_path, node=node,
                             class_name=class_name)
        self.nodes.append(fnode)
        self._by_name.setdefault(name, []).append(fnode)
        self._by_key[fnode.key] = fnode
        return fnode

    def _resolve_bases(self) -> None:
        for key, info in self._classes.items():
            for base in info.base_exprs:
                target = self.resolve_class_dotted(info.module, base)
                if target is not None:
                    info.bases.append(target)

    def _collect_rlock_attrs(self) -> None:
        """Attribute names assigned ``threading.RLock()`` anywhere.

        Consumed by R10 to ignore reentrant self-acquisition (an RLock
        legally nests under itself; a plain Lock self-deadlocks).
        """
        for module in self._modules:
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)):
                    continue
                tail = (dotted_attribute(node.value.func) or "")
                if tail.rpartition(".")[2] != "RLock":
                    continue
                for target in node.targets:
                    found = _self_attr_base(target)
                    if found is not None:
                        self._rlock_attrs.add(found[0])
                    elif isinstance(target, ast.Name):
                        self._rlock_attrs.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        self._rlock_attrs.add(target.attr)

    # ------------------------------------------------------------ resolution

    def node_by_key(self, key: str) -> Optional[FunctionNode]:
        return self._by_key.get(key)

    def by_name(self, name: str) -> List[FunctionNode]:
        return list(self._by_name.get(name, []))

    def class_by_name(self, module: str,
                      class_name: str) -> Optional[ClassInfo]:
        return self._classes.get(f"{module}.{class_name}")

    def is_reentrant_lock(self, lock_id: str) -> bool:
        return lock_id.rpartition(".")[2] in self._rlock_attrs

    def _expand(self, module: str, dotted: str) -> str:
        """Rewrite ``dotted``'s head through ``module``'s symbol table."""
        head, _, rest = dotted.partition(".")
        symbols = self._symbols.get(module, {})
        if head in symbols:
            expanded = symbols[head]
            return f"{expanded}.{rest}" if rest else expanded
        return dotted

    def resolve_name(self, module: str, name: str) -> Optional[FunctionNode]:
        return self.resolve_dotted(module, name)

    def resolve_dotted(self, module: str,
                       dotted: str) -> Optional[FunctionNode]:
        """Resolve a dotted reference to a corpus function, if possible.

        A reference to a class resolves to its ``__init__`` (constructing
        is calling); ``Class.method`` resolves through the hierarchy.
        """
        absolute = self._expand(module, dotted)
        node = self._by_key.get(self._qualkey(absolute))
        if node is not None:
            return node
        cls = self._classes.get(absolute)
        if cls is not None:
            return cls.find_method("__init__")
        prefix, _, attr = absolute.rpartition(".")
        cls = self._classes.get(prefix)
        if cls is not None:
            return cls.find_method(attr)
        return None

    def resolve_class_dotted(self, module: str,
                             dotted: str) -> Optional[ClassInfo]:
        return self._classes.get(self._expand(module, dotted))

    @staticmethod
    def _qualkey(absolute: str) -> str:
        """``a.b.func`` -> ``a.b::func``; ``a.b.Cls.m`` handled by caller."""
        prefix, _, name = absolute.rpartition(".")
        return f"{prefix}::{name}"

    # ----------------------------------------------------------- reachability

    def reachable_from(self, root_names: Iterable[str]) -> Set[FunctionNode]:
        """Every node reachable from functions *named* in ``root_names``.

        Traversal follows the union of resolved edges and conservative
        by-name edges — resolution only ever adds reachability (aliased
        and shipped callables), never removes the PR 2 over-approximation.
        """
        roots = [node for name in root_names
                 for node in self._by_name.get(name, [])]
        seen: Set[FunctionNode] = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for target in self._edge_targets(current):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def _edge_targets(self, node: FunctionNode) -> Iterator[FunctionNode]:
        emitted: Set[int] = set()
        for site in node.call_sites:
            if site.resolved is not None:
                target = self._by_key.get(site.resolved)
                if target is not None and id(target) not in emitted:
                    emitted.add(id(target))
                    yield target
            if site.name:
                for target in self._by_name.get(site.name, []):
                    if id(target) not in emitted:
                        emitted.add(id(target))
                        yield target

    def node_covering(self, module_path: str,
                      line: int) -> Optional[FunctionNode]:
        """The function whose body spans ``line`` in ``module_path``."""
        best: Optional[FunctionNode] = None
        for node in self.nodes:
            if node.module_path != module_path:
                continue
            start = int(getattr(node.node, "lineno", 0))
            if start <= line <= node.end_lineno():
                if best is None or start > int(getattr(best.node, "lineno", 0)):
                    best = node
        return best

    # ------------------------------------------------- interprocedural facts

    def transitive_locks(self, key: str) -> FrozenSet[str]:
        """Locks acquired by ``key`` or anything it resolves into."""
        memo = self._trans_locks
        if key in memo:
            return memo[key]
        result: Set[str] = set()
        stack = [key]
        visited: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            node = self._by_key.get(current)
            if node is None:
                continue
            result.update(site.lock_id for site in node.lock_sites)
            for site in node.call_sites:
                if site.resolved is not None:
                    stack.append(site.resolved)
        frozen = frozenset(result)
        memo[key] = frozen
        return frozen

    def transitive_blocking(self, key: str,
                            ) -> Optional[Tuple[str, BlockingCall]]:
        """A representative blocking call reachable from ``key`` through
        resolved edges (``(node_key, call)``), or ``None``."""
        memo = self._trans_blocking
        if key in memo:
            return memo[key]
        stack = [key]
        visited: Set[str] = set()
        found: Optional[Tuple[str, BlockingCall]] = None
        while stack and found is None:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            node = self._by_key.get(current)
            if node is None:
                continue
            if node.blocking_sites:
                found = (current, node.blocking_sites[0])
                break
            for site in node.call_sites:
                if site.resolved is not None:
                    stack.append(site.resolved)
        memo[key] = found
        return found

    def transitively_records_failure(
            self, key: str, recording_calls: FrozenSet[str]) -> bool:
        """True when ``key`` (or anything it resolves into) makes a
        failure-recording call — the R7 interprocedural escape hatch."""
        memo = self._records_failure
        if key in memo:
            return memo[key]
        stack = [key]
        visited: Set[str] = set()
        found = False
        while stack and not found:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            node = self._by_key.get(current)
            if node is None:
                continue
            if any(site.name in recording_calls
                   for site in node.call_sites):
                found = True
                break
            for site in node.call_sites:
                if site.resolved is not None:
                    stack.append(site.resolved)
        memo[key] = found
        return found


#: Back-compat alias: union-typed function definitions.
FunctionDefType = Union[ast.FunctionDef, ast.AsyncFunctionDef]
