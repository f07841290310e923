"""Every name a library module imports, or defines as private, is used in that module.

Stdlib-only stand-in for a linter's unused-import and unused-private-name
rules. ``__init__.py`` is exempt from the import rule: its imports are the
package's re-exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def unreferenced_private_names(source: str) -> list[str]:
    """Module-level ``_x`` definitions that no other top-level statement reads.

    A function that only calls itself is unreferenced too.
    """
    tree = ast.parse(source)
    reads = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body
    ]
    found = []
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for j, r in enumerate(reads) if j != i):
                found.append(f"line {stmt.lineno}: {name}")
    return found


def test_checker_flags_an_unused_name():
    source = "import os\nfrom json import dumps, loads\nfrom .x import y as z\nloads('1')\n"
    assert unused_imports(source) == ["line 2: dumps", "line 1: os", "line 3: z"]


def test_checker_flags_an_unreferenced_private_name():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f(n):\n    return _f(n - 1)\n"
        "def _g():\n    return _B\n"
        "class _C:\n    pass\n"
        "def public():\n    return _g()\n"
    )
    assert unreferenced_private_names(source) == ["line 1: _A", "line 4: _f", "line 8: _C"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_module_references_every_private_name(module):
    assert unreferenced_private_names((SRC / module).read_text()) == []
