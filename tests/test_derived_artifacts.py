"""``scripts/derive_expected.py`` reproduces the committed derived artifacts.

Each ``derive_*`` payload, serialized as the script writes it, must equal the
bytes of ``src/uailab/data/derived/<name>.json``. Nothing is written.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "derive_expected.py"
DERIVED = ROOT / "src" / "uailab" / "data" / "derived"


def _derive_module():
    spec = importlib.util.spec_from_file_location("derive_expected", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["thm8_gap", "thm10_normalized", "thm11_convergence"])
def test_derive_expected_reproduces_the_committed_artifact(name):
    derive = getattr(_derive_module(), "derive_" + name.split("_")[0])
    text = json.dumps(derive(), indent=1, sort_keys=True) + "\n"
    assert text.encode() == (DERIVED / f"{name}.json").read_bytes()
