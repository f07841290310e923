"""The level fold has one reading, :func:`uailab.semimeasure._folded`, and
one per-slot reading, :func:`uailab.semimeasure._slots`.

Stdlib-only rule in the style of ``test_one_node_loop.py``. In the modules
whose readers count over ``semimeasure._distinct_nodes``, only ``_folded``
may call it, and only ``_folded`` may catch every error (a bare ``except``,
or one naming ``Exception`` or ``BaseException``). So the rule for falling
back to the walk, which raises the error again in its order, is written
once. Only ``_slots`` and the check's ``_row_counts`` may call ``_folded``,
and only ``_slots`` and the check's ``_columns`` may call ``walk``: a reader
that compares two evaluators, or names what it finds, takes its levels from
``_slots``, which owns the choice between the fold and the walk, and grows
no fallback of its own.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
MODULES = ["semimeasure.py", "mixture.py", "transforms.py", "adversary.py"]
ONE = ["_folded"]
BROAD = {"Exception", "BaseException"}
# the functions that may call each reading of the fold and the walk
READERS = {"_folded": ["_slots", "_row_counts"], "walk": ["_slots", "_columns"]}


def _catches_all(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return kind is None or any(isinstance(n, ast.Name) and n.id in BROAD for n in names)


def _calls(node: ast.AST, callee: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
    return name == callee


def fold_readers(source: str, callee: str = "_distinct_nodes") -> tuple[list[str], list[str]]:
    """(functions that catch every error, functions that call ``callee``),
    each by the name of the innermost function whose own body holds it."""
    catchers, callers = [], []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and _catches_all(node):
            catchers.append(owner)
        if _calls(node, callee):
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


def test_rule_flags_readers_of_the_fold_and_the_walk():
    source = (
        "def _slots(a):\n    return _folded(a) or walk(a)\n"
        "def _row_counts(a):\n    return semimeasure._folded(a)\n"
        "def _columns(a):\n    return walk(a, gains)\n"
        "def reader(a):\n    nodes = _folded(a)\n    return nodes or semimeasure.walk(a)[0]\n"
        "def outer(a):\n    return lambda: walk(a)\n"
        "def weight(a):\n    return _checked_walk(a)\n"
    )
    assert fold_readers(source, "_folded")[1] == ["_slots", "_row_counts", "reader"]
    assert fold_readers(source, "walk")[1] == ["_slots", "_columns", "reader", "outer"]


@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("callee", READERS)
def test_only_the_slots_and_the_check_read_the_fold_and_the_walk(module, callee):
    callers = fold_readers((SRC / module).read_text(), callee)[1]
    assert callers == (READERS[callee] if module == "semimeasure.py" else [])
