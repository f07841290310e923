"""The level fold has one reading, :func:`uailab.semimeasure._folded`.

Stdlib-only rule in the style of ``test_one_node_loop.py``. In the modules
whose readers count over ``semimeasure._distinct_nodes``, only ``_folded``
may call it, and only ``_folded`` may catch every error (a bare ``except``,
or one naming ``Exception`` or ``BaseException``). So the rule for falling
back to the walk, which raises the error again in its order, is written
once; each reader keeps only its own reason to walk.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
MODULES = ["semimeasure.py", "mixture.py", "transforms.py", "adversary.py"]
ONE = ["_folded"]
BROAD = {"Exception", "BaseException"}


def _catches_all(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return kind is None or any(isinstance(n, ast.Name) and n.id in BROAD for n in names)


def _calls_fold(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
    return name == "_distinct_nodes"


def fold_readers(source: str) -> tuple[list[str], list[str]]:
    """(functions that catch every error, functions that call ``_distinct_nodes``),
    each by the name of the innermost function whose own body holds it."""
    catchers, callers = [], []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and _catches_all(node):
            catchers.append(owner)
        if _calls_fold(node):
            callers.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return catchers, callers


def test_rule_flags_broad_catchers_and_fold_callers():
    source = (
        "def _folded(a):\n    try:\n        return list(_distinct_nodes(a))\n"
        "    except Exception:\n        return None\n"
        "def reader(a):\n    try:\n        return semimeasure._distinct_nodes(a)\n"
        "    except (ValueError, BaseException):\n        pass\n"
        "def outer():\n    def inner():\n        try:\n            pass\n        except:\n"
        "            pass\n    return inner\n"
        "def narrow():\n    try:\n        pass\n    except TypeError:\n        pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
    )
    assert fold_readers(source) == (["_folded", "reader", "inner", None], ["_folded", "reader"])


@pytest.mark.parametrize("module", MODULES)
def test_only_the_shared_fold_reads_the_fold_and_catches_every_error(module):
    catchers, callers = fold_readers((SRC / module).read_text())
    want = ONE if module == "semimeasure.py" else []
    assert (catchers, callers) == (want, want)
