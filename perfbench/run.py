"""Benchmark of the uailab reproduction: one workload per process.

    python3 perfbench/run.py --workload claims_default --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --capture-reference

A run times set-up (``setup_s``, the median of several set-up processes),
then runs passes over the workload's units until ``--seconds`` have elapsed.
With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics. The line before the result records
the machine, the source, the seed, the cache mode and the per-unit timings.
The last line of standard output is the result object; the exit code is 0
only when every unit ran and matched its reference digests.

See perfbench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from bench import ROOT, BenchError  # noqa: E402

SETUP_REPEATS = 3
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"


def _catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    files = sorted((bench.SRC / "uailab").rglob("*.py"))
    return bench._sha("".join(bench._sha(p.read_bytes()) for p in files))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _measure(args, work: Path) -> tuple[dict, dict, int, int]:
    """Set up, run passes, return (metrics, meta, attempted, failed)."""
    uailab = bench.load_uailab()
    mode = "smoke" if args.smoke else "default"
    reference = bench.load_reference(mode)
    # A traced run reports no setup_s, so it sets up once.
    repeats = 1 if args.trace else SETUP_REPEATS
    setup = bench.run_setup(args.workload, mode, work, repeats, reference)
    configs = bench.smoke_configs(work / "configs") if args.smoke else {}
    ctx = bench.UnitContext(mode, args.seed, configs)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rng = random.Random(args.seed)
    plain, traced = [], []
    peak_rss_mb = None
    start = time.perf_counter()
    try:
        k = 0
        while True:
            use_tracer = tracer is not None and k % 2 == 1
            if use_tracer:
                tracer.reset()
            result = bench.run_pass(
                args.workload,
                ctx,
                work / f"pass-{k}",
                rng,
                reference,
                warm_cache=setup.warm_cache,
                tracer=tracer if use_tracer else None,
            )
            for name, cold in setup.cold_digests.items():
                if name in result.digests and result.digests[name] != cold:
                    result.fail(name, [f"{name}: warm result differs from the cold fill"])
            (traced if use_tracer else plain).append(result)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            k += 1
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    passes = plain + traced
    for message in setup.errors + [m for r in passes for m in r.errors]:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = len(setup.seconds) + sum(len(r.unit_s) for r in passes)
    failed = len(setup.errors) + sum(len(r.failed_units) for r in passes)

    host = bench.HostSpeed.combined([setup.host] + [r.host for r in passes])
    metrics: dict[str, float] = {}
    if tracer is None:
        metrics["setup_s"] = _median(setup.seconds) * host.scale
        metrics["pass_s"] = _median([r.scaled(r.pass_s) for r in plain])
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        layer, failed_counts = _layer_metrics(traced, plain)
        failed += failed_counts
        metrics.update(layer)
        metrics["failed_ratio"] = failed / attempted
    unit_s = {
        metric: _median([r.scaled(sum(r.unit_s.get(u, 0.0) for u in units)) for r in plain])
        for metric, units in bench.UNIT_METRICS[args.workload].items()
    }
    meta = {
        "workload": args.workload,
        "mode": mode,
        "seed": args.seed,
        "cache_mode": bench.CACHE_MODES[args.workload],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine_hash": uailab.MACHINE_HASH,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "probe_s": host.probe_s,
        "raw_setup_s": _median(setup.seconds),
        "raw_pass_s": _median([r.pass_s for r in plain]),
        "unit_medians_s": unit_s,
        "failed_ratio": failed / attempted,
    }
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(tracer.span_records()))
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, meta, attempted, failed


def _layer_metrics(traced: list, plain: list) -> tuple[dict, int]:
    """Per-layer metrics: counts from the first traced pass, scaled times as medians.

    Counts must repeat exactly in every traced pass; a count that does not
    is reported on stderr and counted as one failure.
    """
    units = {m["name"]: m["unit"] for m in _catalogue()["per_layer"]}
    per_pass = []
    for r in traced:
        values = {
            name: r.scaled(value) if units.get(name) == "s" else value
            for name, value in r.layer.items()
        }
        values["utm.cache_files_written"] = r.cache_files_written
        values["utm.cache_bytes_written"] = r.cache_bytes_written
        values["utm.cache_hit_ratio"] = r.cache_hits / r.cache_entries if r.cache_entries else 0.0
        values["experiments.csv_files"] = r.csv_files
        values["experiments.csv_bytes"] = r.csv_bytes
        per_pass.append(values)
    out, failed = {}, 0
    for name, value in per_pass[0].items():
        if units.get(name) == "count":
            if any(p[name] != value for p in per_pass):
                print(f"FAILED count {name} differs between traced passes", file=sys.stderr)
                failed += 1
            out[name] = value
        else:
            out[name] = _median([p[name] for p in per_pass])
    out["trace.overhead_ratio"] = _median([r.scaled(r.pass_s) for r in traced]) / _median(
        [r.scaled(r.pass_s) for r in plain]
    )
    return out, failed


def _result_line(metrics: dict, section: str, correct: bool, attempted: int, failed: int) -> str:
    catalogue = _catalogue()[section]
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in catalogue
            },
        }
    )


@contextmanager
def _work_dir(prefix: str):
    """A scratch directory inside the checkout, also used as TMPDIR."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    tmp = work / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def run_workload(args) -> int:
    with _work_dir(f"{args.workload}-") as work:
        metrics, meta, attempted, failed = _measure(args, work)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"meta": meta}))
    print(_result_line(metrics, section, failed == 0, attempted, failed))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; prints a metric table."""
    results, code = {}, 0
    for workload in bench.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            code = 1
        if len(lines) < 2:
            print(f"== {workload}: exit {proc.returncode}, no result")
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        results[workload] = result
        print(f"== {workload}  (exit {proc.returncode}, seed {meta['seed']}, "
              f"cache {meta['cache_mode']}, python {meta['python']}, nproc {meta['nproc']}, "
              f"machine {meta['machine_hash'][:12]}, commit {meta['git_commit'][:12]}, "
              f"passes {meta['passes']}+{meta['traced_passes']} traced)")
        for name, entry in result["metrics"].items():
            print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")
        for name, value in meta["unit_medians_s"].items():
            print(f"  {name:36s} {value:>16.6g} s")
        print(f"  {'failed_ratio':36s} {meta['failed_ratio']:>16.6g} ratio")
    print(json.dumps(results))
    return code


def capture_reference() -> int:
    """Write reference_digests.json from one cold run of every unit."""
    bench.load_uailab()
    from uailab import MACHINE_HASH, utm

    reference = {"machine_hash": MACHINE_HASH, "commit": _git_commit()}
    with _work_dir("capture-") as work:
        for mode in ("default", "smoke"):
            ctx = bench.UnitContext(mode, 0, bench.smoke_configs(work / "configs"))
            digests = {}
            for workload in ("claims_default", "enum_cold"):
                for unit in bench.units_for(workload):
                    out_dir = work / mode / unit.name
                    os.environ[utm.CACHE_ENV_VAR] = str(work / mode / f"cache-{unit.name}")
                    utm.clear_memo()
                    output = bench.call_unit(unit, ctx, out_dir)
                    digests[unit.name], errors = bench.unit_digests(unit, output, out_dir)
                    if errors:
                        raise BenchError("; ".join(errors))
            if digests["thm11_convergence"] != digests["thm11_convergence_jobs2"]:
                raise BenchError("thm11_convergence: --jobs 2 differs from --jobs 1")
            reference[mode] = digests
    bench.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {bench.REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small budgets (self-tests)")
    parser.add_argument("--capture-reference", action="store_true")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.capture_reference:
            return capture_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_child:
            mode = "smoke" if args.smoke else "default"
            print(json.dumps(bench.setup_child(args.workload, mode, args.cache_dir, args.work_dir)))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
