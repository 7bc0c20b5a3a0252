"""Concurrency-correctness rule R10 over the interprocedural graph.

The rule consumes the per-function summaries the v2 call graph
(:mod:`repro.analysis.callgraph`) computes — locks acquired with their
lexical held-set, blocking calls — and lifts them to
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
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.core import ModuleInfo, Violation


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
