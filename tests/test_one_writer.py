"""Scenario outputs have one writer: :func:`uailab.experiments.run_scenario`.

Stdlib-only rule in the style of ``test_one_count_rule.py``. A scenario's
runner returns its tables and its failure count and writes no file, so that
what it found reaches disk, and becomes an exit code, in one place. In every
module, only ``run_scenario`` may name ``_write_csv``, and no ``_scenario_*``
function may mention ``out_dir``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uailab"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, assigns, passes by keyword or takes."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, (ast.arg, ast.keyword)) and n.arg:
            found.add(n.arg)
    return found


def csv_writers(source: str) -> list[str]:
    """The innermost enclosing function (or ``<module>``) of each mention of
    ``_write_csv`` other than its own definition."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == "_write_csv") or (
                isinstance(child, ast.Attribute) and child.attr == "_write_csv"
            ):
                found.append(where)
            visit(child, child.name if isinstance(child, FUNCTIONS) else where)

    visit(ast.parse(source), "<module>")
    return found


def runners_reading_out_dir(source: str) -> list[str]:
    return [
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, FUNCTIONS) and fn.name.startswith("_scenario_") and "out_dir" in _names(fn)
    ]


def test_rule_flags_a_runner_that_writes():
    source = (
        "def _write_csv(path, header, rows):\n    pass\n"
        "def _scenario_a(cfg):\n    _write_csv(cfg.out_dir / 'a.csv', (), [])\n"
        "def _scenario_b(cfg, out_dir=None):\n    return 0\n"
        "def helper(cfg):\n    emit = experiments._write_csv\n    return emit\n"
        "def run_scenario(cfg):\n    _write_csv(cfg.out_dir / 'x.csv', (), [])\n"
        # not a fault: a runner that names neither
        "def _scenario_c(cfg):\n    return cfg.budget('depth')\n"
    )
    assert csv_writers(source) == ["_scenario_a", "helper", "run_scenario"]
    assert runners_reading_out_dir(source) == ["_scenario_a", "_scenario_b"]


@pytest.mark.parametrize("module", MODULES)
def test_only_run_scenario_writes_scenario_outputs(module):
    source = (SRC / module).read_text()
    assert csv_writers(source) == (["run_scenario"] if module == "experiments.py" else [])
    assert runners_reading_out_dir(source) == []
