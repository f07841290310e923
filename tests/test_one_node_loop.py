"""The context tree has one node loop, :func:`uailab.semimeasure.walk`, and
the opcode tree one, ``uailab.utm._Walk.tables``.

Stdlib-only rule in the style of ``test_imports.py``. A function runs its
own node loop when a ``while`` loop in it pops a stack or a queue, by
``x.pop()`` or ``x.popleft()`` or by a name bound to either. In the modules
whose readers walk contexts, only ``walk`` may; every check, comparison and
probe reads the columns it files. In ``utm``, only ``tables`` may: the
joint, played and chronological enumerations are modes of one walk.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
# the functions each module may run a node loop in
LOOPS = {
    "semimeasure.py": ["walk"],
    "mixture.py": [],
    "transforms.py": [],
    "adversary.py": [],
    "utm.py": ["tables"],
}
POPS = ("pop", "popleft")


def _pops(loop: ast.While, aliases: set[str]) -> bool:
    """Whether ``loop`` calls a ``pop`` or ``popleft``, or one of their ``aliases``."""
    for node in ast.walk(loop):
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr in POPS:
                return True
            if isinstance(fn, ast.Name) and fn.id in aliases:
                return True
    return False


def node_loops(source: str) -> list[str]:
    """Names of the functions (nested ones by their own name) whose own body
    holds a ``while`` loop that pops a stack or a queue."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, todo = [], list(fn.body)  # statements of fn, not of functions nested in it
        while todo:
            stmt = todo.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            own.append(stmt)
            todo.extend(ast.iter_child_nodes(stmt))
        aliases = {  # pop = stack.pop, or pop, push = stack.pop, stack.append
            target.id
            for node in own
            if isinstance(node, ast.Assign)
            for target, value in _pairs(node)
            if isinstance(target, ast.Name)
            and isinstance(value, ast.Attribute)
            and value.attr in POPS
        }
        if any(isinstance(node, ast.While) and _pops(node, aliases) for node in own):
            found.append(fn.name)
    return found


def _pairs(node: ast.Assign) -> list[tuple[ast.AST, ast.AST]]:
    """(target, value) pairs of an assignment, tuples unpacked one level."""
    pairs = []
    for target in node.targets:
        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
            pairs.extend(zip(target.elts, node.value.elts))
        else:
            pairs.append((target, node.value))
    return pairs


def test_rule_flags_a_stack_loop_by_pop_or_its_alias():
    source = (
        "def walk(stack):\n    pop, push = stack.pop, stack.append\n"
        "    while stack:\n        push(pop())\n"
        "def check(stack):\n    def step(x):\n        return x\n"
        "    while stack:\n        step(stack.pop())\n"
        "def outer(stack):\n    def inner():\n        while stack:\n            stack.pop()\n"
        "    return inner\n"
        "def scan(slot, width):\n    while slot >= width:\n        slot -= width\n"
        "def drain(queue):\n    get = queue.popleft\n    while queue:\n        get()\n"
    )
    assert sorted(node_loops(source)) == ["check", "drain", "inner", "walk"]


@pytest.mark.parametrize("module", sorted(LOOPS))
def test_only_the_walk_runs_a_node_loop(module):
    assert node_loops((SRC / module).read_text()) == LOOPS[module]
