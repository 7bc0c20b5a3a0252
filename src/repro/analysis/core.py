"""Shared plumbing for the invariant checker: parsed modules and findings.

A :class:`ModuleInfo` bundles one parsed source file with the bits every
rule needs (source lines for pragma suppression, dotted module name for
scoping decisions).  A :class:`Violation` is one finding; rules produce
them and the checker sorts, filters and formats them.

Suppression: a line may carry ``# invariant: disable=R2`` (comma-separated
rule ids, or ``all``) to exempt that single line.  The pragma is parsed
textually from the physical line the violation points at, so it works for
any rule without the rules knowing about it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

_PRAGMA = re.compile(r"#\s*invariant:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Violation:
    """One rule finding, pointing at a physical source line."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file plus the context rules need to scope checks."""

    path: Path
    tree: ast.Module
    source_lines: List[str] = field(default_factory=list)

    @property
    def posix_path(self) -> str:
        return self.path.as_posix()

    def path_parts(self) -> Tuple[str, ...]:
        """Path components with the ``.py`` suffix stripped from the last."""
        parts = list(self.path.parts)
        if parts:
            parts[-1] = re.sub(r"\.py$", "", parts[-1])
        return tuple(parts)

    def suppressed_rules(self, line: int) -> Tuple[str, ...]:
        """Rule ids disabled on ``line`` via an ``# invariant:`` pragma."""
        if not 1 <= line <= len(self.source_lines):
            return ()
        match = _PRAGMA.search(self.source_lines[line - 1])
        if match is None:
            return ()
        return tuple(part.strip() for part in match.group(1).split(",") if part.strip())

    def is_suppressed(self, violation: Violation) -> bool:
        rules = self.suppressed_rules(violation.line)
        return violation.rule in rules or "all" in rules

    def iter_pragmas(self) -> List[Tuple[int, Tuple[str, ...], str]]:
        """Every suppression pragma in the file, as
        ``(lineno, rule_ids, trailing_justification_text)``."""
        found: List[Tuple[int, Tuple[str, ...], str]] = []
        for lineno, line in enumerate(self.source_lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group(1).split(",")
                if part.strip()
            )
            found.append((lineno, rules, line[match.end():].strip()))
        return found


def load_module(path: Path) -> Tuple[Optional[ModuleInfo], Optional[Violation]]:
    """Parse ``path``; returns ``(module, None)`` or ``(None, violation)``.

    Unparseable files are findings, not crashes: a syntax error anywhere
    in the tree must fail the gate rather than silently skip the file.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Violation("parse", path.as_posix(), 1, f"unreadable file: {exc}")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Violation(
            "parse", path.as_posix(), exc.lineno or 1, f"syntax error: {exc.msg}"
        )
    return ModuleInfo(path=path, tree=tree, source_lines=source.splitlines()), None


def dotted_attribute(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
