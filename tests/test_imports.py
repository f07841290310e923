"""Every name a library module imports, or defines as private, is used in that module.

Stdlib-only stand-in for a linter's unused-import and unused-private-name
rules. ``__init__.py`` is exempt from the import rule: its imports are the
package's re-exports. Every import from within the package sits at module
top level, so the modules import one another one way, visibly.
"""
import ast
import os
import subprocess
import sys
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


def nested_package_imports(source: str) -> list[str]:
    """``from .x import`` statements anywhere but at module top level."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top
    ]


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


def test_checker_flags_a_nested_package_import():
    source = (
        "from .a import b\nimport json\n"
        "def f():\n    from .c import d\n    import os\n    return b, d, os\n"
        "class K:\n    from . import e\n"
    )
    assert nested_package_imports(source) == ["line 4: from .c", "line 8: from ."]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_module_references_every_private_name(module):
    assert unreferenced_private_names((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_package_imports_sit_at_module_top_level(module):
    assert nested_package_imports((SRC / module).read_text()) == []


def test_the_cli_loads_the_standard_library_only():
    # `import uailab.cli` starts every command, so a third-party import there
    # adds its load time and memory to every run.
    probe = (
        "import sys; before = set(sys.modules); import uailab.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert not {"jsonschema", "referencing", "rpds"} & set(loaded)
    assert set(loaded) - sys.stdlib_module_names <= {"uailab", "__mp_main__"}, loaded


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == []
