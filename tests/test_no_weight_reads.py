"""No library module reads a policy by ``weight``.

Stdlib-only rule in the style of ``test_one_node_loop.py``. ``Policy.weight``
is the fold of a policy's walk from the root, one fold per call. Inside the
library every reader walks the policy instead: ``check_policy`` folds the
check walk's columns, and ``policy_value`` extends the dual's walk. A call
``x.weight(...)`` in any module of ``src/uailab`` fails here; defining
``weight`` or reading a mixture's ``weights`` does not.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"


def weight_calls(source: str) -> list[int]:
    """Line numbers of the calls ``<expression>.weight(...)`` in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "weight"
    )


def test_rule_flags_a_weight_call_but_not_its_definition():
    source = (
        "def check(pi):\n    return pi.weight((), ())\n"
        "def mixed(mixture):\n    return mixture.weights, mixture.weight\n"
        "class Policy:\n    def weight(self, actions, percepts):\n        return 1\n"
        "total = sum(p.weight(a, e) for p in policies)\n"
    )
    assert weight_calls(source) == [2, 8]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_library_module_calls_weight(module):
    assert weight_calls((SRC / module).read_text()) == []
