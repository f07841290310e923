"""The benchmark tracer still finds every name it patches, and restores them.

``perfbench/tracer.py`` binds uailab functions, methods and properties by
name. A rename or a removed ``eval`` would otherwise only show in a traced
benchmark run; here it fails the suite.
"""
import inspect
import sys
from pathlib import Path

import uailab  # noqa: F401  (loads every submodule the tracer patches)


def _bindings() -> dict:
    """Every attribute of every loaded uailab module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "uailab" and not name.startswith("uailab."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, bound in vars(value).items():
                    out[(name, attr, member)] = bound
    return out


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    try:
        tracer.install()  # raises if a traced name is gone
        patched = {key for key, value in _bindings().items() if before.get(key) is not value}
    finally:
        tracer.uninstall()
    assert ("uailab.semimeasure", "check_chronological") in patched
    assert ("uailab.semimeasure", "CheckReport", "violations") in patched
    assert ("uailab.transforms", "EnvView", "eval") in patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
