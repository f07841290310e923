"""Every scenario's CSVs at default budgets are the bytes the benchmark expects.

``perfbench/reference_digests.json`` holds the SHA-256 of each CSV the
benchmark's scenario units write at default budgets, ``thm11_convergence``
at ``--jobs 2`` included. This suite reruns them with the cache off (see
conftest.py) and only reads that file, so a change to any output byte fails
here as well as at the benchmark's digest gate.
"""
import hashlib
import json
from pathlib import Path

import pytest

from uailab.experiments import SCENARIOS, ScenarioConfig, run_scenario

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json"
UNITS = [(name, 1) for name in sorted(SCENARIOS)] + [("thm11_convergence", 2)]


@pytest.mark.parametrize("scenario, jobs", UNITS, ids=[f"{s}-jobs{j}" for s, j in UNITS])
def test_default_budget_csvs_match_the_reference_digests(tmp_path, scenario, jobs):
    reference = json.loads(REFERENCE.read_text())["default"]
    want = reference[scenario if jobs == 1 else f"{scenario}_jobs{jobs}"]
    assert run_scenario(ScenarioConfig(scenario, tmp_path, jobs=jobs)) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }
    assert got == want
