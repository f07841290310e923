"""Counts are checked in one place: :func:`uailab.core.count`.

Stdlib-only rule in the style of ``test_one_node_loop.py``. A function checks
a count by hand when an ``if`` whose test compares one of its count
parameters with an integer literal, or asks for that parameter's type,
raises. Outside ``core`` no module may: every depth, horizon, budget and
arity goes through ``count``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "core.py")
COUNTS = {
    "depth",
    "horizon",
    "steps",
    "program_bits",
    "max_len",
    "max_steps",
    "max_output",
    "action_arity",
    "percept_arity",
}


def _int_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _checks(test: ast.expr, names: set[str]) -> set[str]:
    """The ``names`` that ``test`` compares with an int literal or asks the type of."""
    found = set()
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_int_literal, operands)):
                found |= {o.id for o in operands if isinstance(o, ast.Name) and o.id in names}
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
            arg = node.args[0]
            if node.func.id in ("type", "isinstance") and isinstance(arg, ast.Name):
                found |= {arg.id} & names
    return found


def hand_checks(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each ``if`` that checks a count parameter of
    its function by hand and raises in its body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
        names = params & COUNTS
        for node in ast.walk(fn):
            if isinstance(node, ast.If) and any(
                isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)
            ):
                found.extend((fn.name, name) for name in sorted(_checks(node.test, names)))
    return found


def test_rule_flags_a_sign_or_type_check_of_a_count_parameter():
    source = (
        "def plan(nu, horizon):\n    if horizon < 1:\n        raise ValueError(horizon)\n"
        "def build(fn, action_arity=2):\n"
        "    if type(action_arity) is not int or action_arity <= 0:\n"
        "        raise TypeError(action_arity)\n"
        "def trace(xi, steps):\n    if -1 >= steps:\n        raise ValueError\n"
        "def shallow(depth):\n    if depth == -1:\n        raise ValueError\n"
        # not a hand check: another name, no raise, a count parameter against a variable
        "def walk(n_actions):\n    if n_actions < 1:\n        raise ValueError\n"
        "def run(max_output=None):\n    if max_output is not None:\n        return 1\n"
        "def deeper(depth, limit):\n    if depth > limit:\n        raise ValueError\n"
        "def level(depth):\n    if depth == 0:\n        return ()\n"
    )
    assert hand_checks(source) == [
        ("plan", "horizon"),
        ("build", "action_arity"),
        ("trace", "steps"),
        ("shallow", "depth"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_core_checks_a_count_by_hand(module):
    assert hand_checks((SRC / module).read_text()) == []
