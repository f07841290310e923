"""Every scenario's CSVs at default budgets are the bytes the benchmark expects.

``perfbench/reference_digests.json`` holds the SHA-256 of each CSV the
benchmark's scenario units write at default budgets, ``thm11_convergence``
at ``--jobs 2`` included. This suite reruns the units that file names, with
the cache off (see conftest.py), and only reads it, so a change to any output
byte fails here as well as at the benchmark's digest gate. A unit named
``<scenario>_jobs2`` runs at ``--jobs 2``, as the benchmark reads it; the
file's other units are enumeration calls, not scenarios. A scenario the file
does not name is not run here.
"""
import hashlib
import json
from pathlib import Path

import pytest

from uailab.experiments import SCENARIOS, ScenarioConfig, run_scenario

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json"
DIGESTS = json.loads(REFERENCE.read_text())["default"]
UNITS = sorted(
    (2 if unit.endswith("_jobs2") else 1, unit.removesuffix("_jobs2"), unit)
    for unit in DIGESTS
    if unit.removesuffix("_jobs2") in SCENARIOS
)


@pytest.mark.parametrize("jobs, scenario, unit", UNITS, ids=[f"{s}-jobs{j}" for j, s, _ in UNITS])
def test_default_budget_csvs_match_the_reference_digests(tmp_path, jobs, scenario, unit):
    want = DIGESTS[unit]
    assert run_scenario(ScenarioConfig(scenario, tmp_path, jobs=jobs)) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }
    assert got == want
