"""Import layering: the serving package sits above the index packages.

``repro.runtime`` resolves a request against session defaults and calls
:func:`repro.exec.run_plan`; nothing below it may import it back.  An
index's ``query_batch`` calls ``run_plan`` itself, so an import of the
runtime from these packages is a layer re-grown — what rule R14's
``query_batch`` half used to demand the opposite of.  Walks the import
statements of ``src/repro`` (function-level ones included), so a
docstring may still *name* the runtime.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages that must not import ``repro.runtime``.
BELOW_RUNTIME = ("lsh", "core", "evaluation", "gpu", "exec", "native",
                 "hierarchy", "lattice", "rptree")


def runtime_imports(path: Path) -> list:
    """``(lineno, statement)`` of every import of the runtime in ``path``."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}"
                                for alias in node.names]
        else:
            continue
        if any(name == "repro.runtime" or name.startswith("repro.runtime.")
               for name in names):
            hits.append((node.lineno, ast.unparse(node)))
    return hits


@pytest.mark.parametrize("package", BELOW_RUNTIME)
def test_package_does_not_import_the_runtime(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files, f"src/repro/{package} has no modules - package moved?"
    offenders = [f"{path.relative_to(SRC)}:{lineno}: {statement}"
                 for path in files
                 for lineno, statement in runtime_imports(path)]
    assert not offenders, "\n".join(offenders)


def test_the_walk_sees_a_runtime_import(tmp_path):
    # The detector itself: every spelling, at any depth.
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import repro.runtime\n"
        "from repro import runtime\n"
        "def f():\n"
        "    from repro.runtime.session import QueryRequest\n"
        "    from repro.exec import run_plan  # allowed\n")
    assert [lineno for lineno, _ in runtime_imports(sample)] == [1, 2, 4]
