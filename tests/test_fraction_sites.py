"""In ``uailab.utm`` a ``Fraction`` is built only where a mass leaves the
module as one: in the public views of the enumerated tables,
``JointEnumApprox.table`` and ``ChronEnumApprox.tables`` (``_Tables``), and
in ``ChronEnumApprox.eval``. The walk, the cache, the memo and every other
reader hold integer numerators by code.

Stdlib-only rule in the style of ``test_one_node_loop.py``. A function
builds a ``Fraction`` when its own body, or a lambda in it, names
``Fraction`` outside an annotation: to call it, or to hand it on as a
callable.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
# the functions of utm that may build a Fraction
BUILDERS = ["ChronEnumApprox.eval", "JointEnumApprox.table", "_Tables.__init__"]


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation of ``tree``."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            roots += [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def fraction_sites(source: str) -> list[str]:
    """Qualified names (``Class.method``, ``outer.inner``) of the functions
    whose own body names ``Fraction`` outside an annotation, sorted; a name
    at module or class level counts as ``<module>`` or the class."""
    tree = ast.parse(source)
    skip, sites = _annotations(tree), set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if id(child) in skip:
                continue
            named = (
                isinstance(child, ast.Name) and child.id == "Fraction"
                or isinstance(child, ast.Attribute) and child.attr == "Fraction"
            )
            if named:
                sites.add(".".join(scope) or "<module>")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if inner else scope)

    visit(tree, ())
    return sorted(sites)


def test_rule_finds_every_use_of_fraction_outside_annotations():
    source = (
        "from fractions import Fraction\nimport fractions\n"
        "X: Fraction = 0\n"
        "def typed(x: Fraction, *rest: Fraction) -> dict[int, Fraction]:\n    return {}\n"
        "def call(n):\n    return Fraction(n, 8)\n"
        "def handed(ns):\n    return list(map(Fraction, ns))\n"
        "class View:\n"
        "    def __init__(self, unit):\n"
        "        self.mass = lambda n: fractions.Fraction(n, unit)\n"
        "def outer():\n    def inner():\n        return Fraction(1)\n    return inner\n"
    )
    assert fraction_sites(source) == ["View.__init__", "call", "handed", "outer.inner"]


def test_only_the_views_and_eval_build_a_fraction_in_utm():
    assert fraction_sites((SRC / "utm.py").read_text()) == BUILDERS
