"""Seeded R3 violation the PR 2 name-indexed graph could not see.

``gather_batch`` (a worker root) calls ``refresh`` — a module-level
alias of ``_grow_entry`` — which reaches the unguarded mutation in
``AliasedTable._grow``.  The old by-name walk looked for a function
*named* ``refresh``, found none, and stopped; the v2 graph resolves the
alias through the module symbol table.
"""

from __future__ import annotations

from typing import List


class AliasedTable:
    def __init__(self) -> None:
        self._starts: List[int] = []

    def _grow(self) -> None:
        self._starts.append(0)


def _grow_entry(table: AliasedTable) -> None:
    table._grow()


refresh = _grow_entry


def gather_batch(table: AliasedTable) -> None:
    refresh(table)
