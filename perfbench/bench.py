"""Workloads, units, passes and the output-digest gate of the uailab benchmark.

A workload is a fixed list of units. A pass runs every unit once, back to
back in one process, in an order shuffled by the workload seed: a closed
loop with a single client. Every unit starts from empty in-process
enumeration memos (``uailab.utm.clear_memo``), as a fresh ``uailab run``
process would, and ``UAILAB_CACHE_DIR`` always points inside the work
directory, never at the user's cache.

Each unit's outputs are digested (SHA-256) and compared with reference
digests captured once on the seed code (``reference_digests.json``). A
mismatch, a non-zero exit or an exception fails the unit.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"

CLAIMS_SCENARIOS = (
    "sanity_checks",
    "thm7_drop",
    "thm8_gap",
    "thm10_normalized",
    "thm11_convergence",
    "conj9_search",
    "agents_compare",
)

# Budgets of the small smoke mode used by the benchmark's own tests.
SMOKE_BUDGETS = {
    "depth": 3,
    "transform_depth": 3,
    "consistency_depth": 2,
    "trace_steps": 20,  # thm8_gap compares 20 steps with its committed oracle run
    "program_bits": 6,
    "machine_steps": 60,
    "horizon": 2,
    "sequence_length": 4,
    "probe_depth": 2,
    "normalized_trace_len": 4,
}

# enumerate_joint(bits, steps, max_len) and check_chronological(ChronEnumApprox(bits, steps), depth)
ENUM_CALLS = {
    "default": {"joint": (21, 200, 16), "chron": (15, 200, 5)},
    "smoke": {"joint": (9, 60, 8), "chron": (6, 60, 3)},
}

# Where each workload points UAILAB_CACHE_DIR.
CACHE_MODES = {
    "claims_default": "unit",  # a fresh, empty directory for every unit
    "enum_cold": "pass",  # a fresh, empty directory for every pass
    "enum_warm": "warm",  # one directory filled during set-up, read-only in passes
}

# Per-unit timings reported as medians across passes (seconds).
_ENUM_UNIT_METRICS = {"enum_joint_s": ("enum_joint",), "enum_chron_check_s": ("enum_chron_check",)}
UNIT_METRICS = {
    "claims_default": {
        "sanity_checks_s": ("sanity_checks",),
        "thm11_convergence_s": ("thm11_convergence",),
        "thm11_convergence_jobs2_s": ("thm11_convergence_jobs2",),
        "agents_compare_s": ("agents_compare",),
        "conj9_search_s": ("conj9_search",),
        "trace_scenarios_s": ("thm7_drop", "thm8_gap", "thm10_normalized"),
    },
    "enum_cold": _ENUM_UNIT_METRICS,
    "enum_warm": _ENUM_UNIT_METRICS,
}

WORKLOADS = tuple(CACHE_MODES)

# The CPU speed of a shared host drifts by tens of percent within minutes,
# more than any change worth measuring. So after every timed unit and set-up
# a run also times a fixed Fraction workload, like the library's hot path,
# for a tenth of the time just measured: sampled in proportion to the work,
# it follows the same drift. Each pass is scaled by the probe iterations run
# during it, set-up by all those of the run, to the time on a host on which
# one probe iteration takes PROBE_REF_S.
PROBE_REF_S = 0.01
PROBE_SHARE = 0.1


def _probe_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 4)
    return total


class HostSpeed:
    """Probe iterations run after timed work, and their time."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.iterations = 0

    @classmethod
    def combined(cls, parts: list[HostSpeed]) -> HostSpeed:
        total = cls()
        total.seconds = sum(p.seconds for p in parts)
        total.iterations = sum(p.iterations for p in parts)
        return total

    def sample(self, work_seconds: float) -> None:
        """Run the probe for PROBE_SHARE of ``work_seconds``, at least once."""
        start = time.perf_counter()
        while True:
            _probe_work()
            self.iterations += 1
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_SHARE * work_seconds:
                break
        self.seconds += elapsed

    @property
    def probe_s(self) -> float:
        return self.seconds / self.iterations

    @property
    def scale(self) -> float:
        """Factor from wall time on this host to time at the reference speed."""
        return PROBE_REF_S / self.probe_s


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no uailab sources)."""


def load_uailab():
    """Import uailab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "uailab" / "__init__.py").is_file():
        raise BenchError(f"no uailab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import uailab

    if not Path(uailab.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"uailab imported from {uailab.__file__}, not from {SRC}")
    return uailab


@dataclass(frozen=True)
class Unit:
    name: str  # key in the reference digests
    kind: str  # scenario | enum_joint | enum_chron
    jobs: int = 1

    @property
    def scenario(self) -> str:
        return self.name.removesuffix("_jobs2")


def units_for(workload: str) -> list[Unit]:
    if workload == "claims_default":
        units = [Unit(name, "scenario") for name in CLAIMS_SCENARIOS]
        return units + [Unit("thm11_convergence_jobs2", "scenario", jobs=2)]
    if workload in ("enum_cold", "enum_warm"):
        return [Unit("enum_joint", "enum_joint"), Unit("enum_chron_check", "enum_chron")]
    raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _table_text(table: dict) -> str:
    from uailab.core import frac_str

    return "\n".join(
        f"{''.join(map(str, key))}:{frac_str(value)}" for key, value in sorted(table.items())
    )


def csv_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV a scenario wrote (``summary.txt`` carries a timestamp)."""
    return {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.glob("*.csv"))}


def joint_digests(approx) -> dict[str, str]:
    return {"table": _sha(_table_text(approx.table))}


def chron_digests(approx, report) -> dict[str, str]:
    tables = "\n".join(
        f"{''.join(map(str, tape))}|{_sha(_table_text(table))}"
        for tape, table in sorted(approx.tables.items())
    )
    from uailab.core import frac_str

    counts = {
        "kind": report.kind,
        "depth": report.depth,
        "contexts": len(report.rows),
        "violations": len(report.violations),
        "monotone_violations": len(report.monotone_violations),
        "strict": report.strict_rows,
        "equal": report.equal_rows,
        "root_mass": frac_str(report.root_mass),
        "ok": report.ok,
    }
    return {"tables": _sha(tables), "report": _sha(json.dumps(counts, sort_keys=True))}


def load_reference(mode: str) -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE.read_text())[mode]


def digest_errors(name: str, got: dict[str, str], want: dict[str, str] | None) -> list[str]:
    if want is None:
        return [f"{name}: no reference digests"]
    if got == want:
        return []
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k) != want.get(k)]
    return [f"{name}: digest mismatch in {', '.join(bad)}"]


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def smoke_configs(config_dir: Path) -> dict[str, Path]:
    """One config file per scenario with the smoke budgets."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for scenario in CLAIMS_SCENARIOS:
        path = config_dir / f"{scenario}.json"
        raw = {"schema_version": 1, "scenario": scenario, "budgets": SMOKE_BUDGETS}
        path.write_text(json.dumps(raw))
        paths[scenario] = path
    return paths


@dataclass
class UnitContext:
    mode: str  # default | smoke
    seed: int
    configs: dict[str, Path] = field(default_factory=dict)  # smoke configs by scenario


def call_unit(unit: Unit, ctx: UnitContext, out_dir: Path):
    """Run one unit through uailab's public entry points; returns its raw output."""
    if unit.kind == "scenario":
        from uailab import cli

        argv = ["run", unit.scenario, "--out", str(out_dir), "--jobs", str(unit.jobs)]
        argv += ["--seed", str(ctx.seed)]
        if ctx.mode == "smoke":
            argv += ["--config", str(ctx.configs[unit.scenario])]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    if unit.kind == "enum_joint":
        from uailab import enumerate_joint

        bits, steps, max_len = ENUM_CALLS[ctx.mode]["joint"]
        return enumerate_joint(bits, steps, max_len=max_len)
    from uailab import ChronEnumApprox, check_chronological

    bits, steps, depth = ENUM_CALLS[ctx.mode]["chron"]
    approx = ChronEnumApprox(bits, steps)
    return approx, check_chronological(approx, depth)


def unit_digests(unit: Unit, output, out_dir: Path) -> tuple[dict[str, str], list[str]]:
    if unit.kind == "scenario":
        errors = [] if output == 0 else [f"{unit.name}: exit code {output}"]
        return csv_digests(out_dir), errors
    if unit.kind == "enum_joint":
        return joint_digests(output), []
    return chron_digests(*output), []


def cache_listing(cache_dir: Path) -> dict[str, tuple[int, int, int]]:
    if not cache_dir.is_dir():
        return {}
    listing = {}
    for entry in os.scandir(cache_dir):
        if entry.is_file():
            st = entry.stat()
            listing[entry.name] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return listing


@dataclass
class PassResult:
    unit_s: dict[str, float] = field(default_factory=dict)  # wall time
    digests: dict[str, dict[str, str]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    failed_units: set[str] = field(default_factory=set)
    cache_files_written: int = 0
    cache_bytes_written: int = 0
    cache_entries: int = 0  # in the pass's cache directories when it ended
    cache_hits: int = 0  # of those, entries already there, unchanged, when it began
    csv_files: int = 0
    csv_bytes: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    host: HostSpeed = field(default_factory=HostSpeed)

    @property
    def pass_s(self) -> float:
        return sum(self.unit_s.values())

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured in this pass, at the reference host speed."""
        return seconds * self.host.scale

    def fail(self, unit: str, messages: list[str]) -> None:
        if messages:
            self.errors.extend(messages)
            self.failed_units.add(unit)


def run_pass(
    workload: str,
    ctx: UnitContext,
    pass_dir: Path,
    rng: random.Random,
    reference: dict[str, dict[str, str]],
    warm_cache: Path | None = None,
    tracer=None,
) -> PassResult:
    """Run every unit of the workload once, in an order drawn from ``rng``."""
    from uailab import utm

    result = PassResult()
    units = units_for(workload)
    rng.shuffle(units)
    cache_mode = CACHE_MODES[workload]
    initial: dict[Path, dict] = {}  # each cache directory as the pass found it
    for unit in units:
        out_dir = pass_dir / unit.name
        if cache_mode == "unit":
            cache_dir = pass_dir / f"cache-{unit.name}"
        elif cache_mode == "pass":
            cache_dir = pass_dir / "cache"
        else:
            cache_dir = warm_cache
        os.environ[utm.CACHE_ENV_VAR] = str(cache_dir)
        before = cache_listing(cache_dir)
        initial.setdefault(cache_dir, before)
        utm.clear_memo()
        gc.collect()
        output = None
        start = time.perf_counter()
        try:
            if tracer is None:
                output = call_unit(unit, ctx, out_dir)
            else:
                tracer.active = True
                category = "experiments.scenario" if unit.kind == "scenario" else "bench.unit"
                output = tracer.unit(unit.name, category, call_unit, unit, ctx, out_dir)
        except Exception as exc:  # a failing unit is counted, not fatal
            result.fail(unit.name, [f"{unit.name}: {type(exc).__name__}: {exc}"])
        finally:
            result.unit_s[unit.name] = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        result.host.sample(result.unit_s[unit.name])
        after = cache_listing(cache_dir)
        written = [name for name, stat in after.items() if before.get(name) != stat]
        result.cache_files_written += len(written)
        result.cache_bytes_written += sum(after[name][0] for name in written)
        if cache_mode == "warm" and written:
            result.fail(unit.name, [f"{unit.name}: wrote {len(written)} files to the warm cache"])
        if unit.name in result.failed_units:
            continue
        digests, errors = unit_digests(unit, output, out_dir)
        result.digests[unit.name] = digests
        result.fail(unit.name, errors + digest_errors(unit.name, digests, reference.get(unit.name)))
        if unit.kind == "scenario":
            for csv_path in out_dir.glob("*.csv"):
                result.csv_files += 1
                result.csv_bytes += csv_path.stat().st_size
    for cache_dir, found in initial.items():
        final = cache_listing(cache_dir)
        result.cache_entries += len(final)
        result.cache_hits += sum(1 for name, stat in final.items() if found.get(name) == stat)
    jobs1 = result.digests.get("thm11_convergence")
    jobs2 = result.digests.get("thm11_convergence_jobs2")
    if jobs1 is not None and jobs2 is not None and jobs1 != jobs2:
        message = "thm11_convergence: --jobs 2 differs from --jobs 1"
        result.fail("thm11_convergence_jobs2", [message])
    if tracer is not None:
        result.layer = tracer.layer_metrics()
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_child(workload: str, mode: str, cache_dir: Path, work: Path) -> dict:
    """Body of one set-up process: import uailab and prepare the workload.

    For ``enum_warm`` this fills ``cache_dir`` by running the enumeration
    units cold; the digests it returns let the parent cross-check the warm
    passes against this cold run.
    """
    load_uailab()
    from uailab import utm

    units = units_for(workload)
    ctx = UnitContext(mode, 0, smoke_configs(work / "configs") if mode == "smoke" else {})
    digests = {}
    if CACHE_MODES[workload] == "warm":
        os.environ[utm.CACHE_ENV_VAR] = str(cache_dir)
        for unit in units:
            utm.clear_memo()
            output = call_unit(unit, ctx, cache_dir)
            digests[unit.name], _ = unit_digests(unit, output, cache_dir)
    return {"units": [u.name for u in units], "digests": digests}


@dataclass
class Setup:
    seconds: list[float] = field(default_factory=list)  # wall time of each set-up process
    host: HostSpeed = field(default_factory=HostSpeed)
    errors: list[str] = field(default_factory=list)
    warm_cache: Path | None = None  # enum_warm only: the filled cache directory
    cold_digests: dict[str, dict[str, str]] = field(default_factory=dict)  # of that fill


def run_setup(workload: str, mode: str, work: Path, repeats: int, reference: dict) -> Setup:
    """Time ``repeats`` set-up processes, each importing uailab afresh."""
    setup = Setup()
    for i in range(repeats):
        setup_dir = work / f"setup-{i}"
        cache_dir = setup_dir / "cache"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload]
        cmd += ["--cache-dir", str(cache_dir), "--work-dir", str(setup_dir)]
        if mode == "smoke":
            cmd.append("--smoke")
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        setup.seconds.append(time.perf_counter() - start)
        setup.host.sample(setup.seconds[-1])
        if proc.returncode != 0:
            tail = proc.stderr.strip()[-500:]
            setup.errors.append(f"set-up process exited {proc.returncode}: {tail}")
            continue
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, got in report["digests"].items():
            setup.errors += digest_errors(f"set-up {name}", got, reference.get(name))
        if CACHE_MODES[workload] == "warm" and setup.warm_cache is None:
            setup.warm_cache = cache_dir
            setup.cold_digests = report["digests"]
        else:
            shutil.rmtree(setup_dir, ignore_errors=True)
    if CACHE_MODES[workload] == "warm" and setup.warm_cache is None:
        raise BenchError("no set-up process filled the warm cache: " + "; ".join(setup.errors))
    return setup
