"""The agents have one value recursion: ``agents._action_values``.

Stdlib-only rule in the style of ``test_one_node_loop.py``. A function is
self-recursive when its own body, not that of a function nested in it, calls
its own name. In ``agents.py`` only the expectimax recursion may, which
``policy_value`` folds by the sum, and the brute-force oracle's inner
``value``, which enumerates policies independently of it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn: ast.AST) -> list[ast.AST]:
    """The nodes of ``fn``'s body, not of the functions or classes nested in it."""
    own, todo = [], list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            continue
        own.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return own


def self_recursive(source: str) -> list[str]:
    """Names of the functions (nested ones by their own name) that call themselves."""
    return sorted(
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, FUNCTIONS)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == fn.name
            for node in _own_nodes(fn)
        )
    )


def test_rule_flags_a_self_call_but_not_a_nested_or_outer_one():
    source = (
        "def top(n):\n    return top(n - 1) if n else 0\n"
        "def outer(n):\n    def recurse(k):\n        return recurse(k - 1) if k else 0\n"
        "    return recurse(n)\n"
        "def caller(n):\n    def caller_inner():\n        return caller(n)\n"
        "    return caller_inner\n"
        "def method_like(obj):\n    return obj.method_like()\n"
    )
    assert self_recursive(source) == ["recurse", "top"]


def test_agents_have_one_value_recursion_besides_the_oracle():
    source = (SRC / "agents.py").read_text()
    assert self_recursive(source) == ["_action_values", "value"]
    (policy_value,) = (
        fn
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, FUNCTIONS) and fn.name == "policy_value"
    )
    nested = [
        node.lineno
        for node in ast.walk(policy_value)
        if node is not policy_value and isinstance(node, (*FUNCTIONS, ast.Lambda))
    ]
    assert nested == []  # policy_value folds the shared recursion, with no walk of its own
