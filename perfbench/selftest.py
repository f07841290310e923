"""Self-tests of the benchmark, run in its small-budget smoke mode.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the library's own test suite.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracer import Tracer  # noqa: E402

uailab = bench.load_uailab()
from uailab import utm  # noqa: E402


@pytest.fixture
def smoke(tmp_path, monkeypatch):
    monkeypatch.setenv(utm.CACHE_ENV_VAR, str(tmp_path / "cache"))
    utm.clear_memo()
    ctx = bench.UnitContext("smoke", 0, bench.smoke_configs(tmp_path / "configs"))
    return ctx, bench.load_reference("smoke")


def _pass(workload: str, ctx, reference, pass_dir: Path, warm: Path | None = None):
    return bench.run_pass(workload, ctx, pass_dir, random.Random(0), reference, warm)


def _run(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_digest_gate_catches_flipped_csv_byte(tmp_path, smoke):
    ctx, reference = smoke
    unit = bench.Unit("thm8_gap", "scenario")
    out_dir = tmp_path / "out"
    code = bench.call_unit(unit, ctx, out_dir)
    digests, errors = bench.unit_digests(unit, code, out_dir)
    assert errors == []
    assert bench.digest_errors(unit.name, digests, reference[unit.name]) == []

    csv_path = sorted(out_dir.glob("*.csv"))[0]
    data = bytearray(csv_path.read_bytes())
    data[len(data) // 2] ^= 0x01
    csv_path.write_bytes(bytes(data))
    digests, _ = bench.unit_digests(unit, code, out_dir)
    assert bench.digest_errors(unit.name, digests, reference[unit.name]) == [
        f"thm8_gap: digest mismatch in {csv_path.name}"
    ]


def test_digest_gate_catches_corrupted_cache_value(tmp_path, smoke):
    ctx, reference = smoke
    warm = tmp_path / "warm"
    bench.setup_child("enum_warm", "smoke", warm, tmp_path / "setup")
    clean = _pass("enum_warm", ctx, reference, tmp_path / "p0", warm)
    assert clean.errors == [] and clean.cache_files_written == 0

    (entry,) = warm.glob("*_joint_*.json")
    payload = json.loads(entry.read_text())
    key = sorted(payload["table"])[-1]
    payload["table"][key] = "1/3" if payload["table"][key] != "1/3" else "1/5"
    entry.write_text(json.dumps(payload, sort_keys=True))
    corrupted = _pass("enum_warm", ctx, reference, tmp_path / "p1", warm)
    assert corrupted.failed_units == {"enum_joint"}
    assert corrupted.errors == ["enum_joint: digest mismatch in table"]


def test_cache_listing_tells_cold_from_warm(tmp_path, smoke):
    ctx, reference = smoke
    cold = _pass("enum_cold", ctx, reference, tmp_path / "cold")
    assert cold.errors == [] and cold.cache_hits == 0
    assert cold.cache_files_written == cold.cache_entries > 0

    warm = tmp_path / "warm"
    bench.setup_child("enum_warm", "smoke", warm, tmp_path / "setup")
    hit = _pass("enum_warm", ctx, reference, tmp_path / "hit", warm)
    assert hit.errors == [] and hit.cache_files_written == 0
    assert hit.cache_hits == hit.cache_entries == cold.cache_entries


def test_tracer_counts_check_contexts():
    tracer = Tracer()
    original = uailab.check_semimeasure
    tracer.install()
    try:
        tracer.active = True
        report = uailab.check_semimeasure(uailab.copy_machine(), 3)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert uailab.check_semimeasure is original
    metrics = tracer.layer_metrics()
    assert metrics["semimeasure.check_contexts"] == len(report.rows) > 0
    assert metrics["semimeasure.eval_calls"] > 0
    assert metrics["semimeasure.check_s"] > 0


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    return result


def test_traced_counts_repeat_and_cover_every_layer_metric():
    catalogue = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    runs = [_result(_run("--workload", "claims_default", "--seed", str(s), "--seconds", "1",
                         "--trace", "1", "--smoke")) for s in (1, 2)]
    names = [m["name"] for m in catalogue["per_layer"]]
    assert list(runs[0]["metrics"]) == names
    for m in catalogue["per_layer"]:
        if m["unit"] == "count":
            assert runs[0]["metrics"][m["name"]] == runs[1]["metrics"][m["name"]], m["name"]
    assert runs[0]["metrics"]["semimeasure.check_contexts"]["value"] > 0
    assert runs[0]["metrics"]["experiments.csv_files"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    catalogue = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    result = _result(_run("--workload", "enum_warm", "--seed", "5", "--seconds", "1", "--smoke"))
    assert list(result["metrics"]) == [m["name"] for m in catalogue["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _copy_benchmark(dest: Path, with_sources: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(bench.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(bench.SRC, dest / "src", ignore=ignore)


def test_digest_mismatch_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    reference_path = tmp_path / "perfbench" / "reference_digests.json"
    reference = json.loads(reference_path.read_text())
    digests = reference["smoke"]["thm8_gap"]
    digests["gap_trace.csv"] = "0" * 64
    reference_path.write_text(json.dumps(reference))
    proc = _run("--workload", "claims_default", "--seed", "1", "--seconds", "1", "--smoke",
                cwd=tmp_path)
    assert proc.returncode == 1
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is False and result["failed"] >= 1
    assert meta["meta"]["failed_ratio"] == result["failed"] / result["attempted"]
    assert "thm8_gap: digest mismatch in gap_trace.csv" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    proc = _run("--workload", "enum_cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
