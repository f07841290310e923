"""Command line interface: run scenarios, list them, validate configs.

    uailab run <scenario> [--config FILE] [--out DIR] [--seed N] [--jobs K]
    uailab list
    uailab check --config FILE

Exit codes: 0 success, 1 an invariant violated where none was expected,
2 configuration error. The enumeration cache directory is taken from the
UAILAB_CACHE_DIR environment variable (set it empty to disable caching).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import ComponentFormatError, UndefinedConditionalError
from .experiments import (
    SCHEMA_VERSION,
    SCENARIOS,
    ConfigError,
    config_from_dict,
    run_scenario,
    validate_config_dict,
)
from .utm import CACHE_ENV_VAR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uailab",
        description="Exact-arithmetic experiments on universal mixtures and embedded agents.",
        epilog=f"Cache directory env var: {CACHE_ENV_VAR}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario")
    run_p.add_argument("scenario", help="scenario name (see `uailab list`)")
    run_p.add_argument("--config", type=Path, help="JSON config file")
    run_p.add_argument("--out", type=Path, help="output directory")
    run_p.add_argument("--seed", type=int, help="recorded in the summary")
    run_p.add_argument("--jobs", type=int, help="parallel workers (overrides the config)")

    sub.add_parser("list", help="list available scenarios")

    check_p = sub.add_parser("check", help="validate a config file")
    check_p.add_argument("--config", type=Path, required=True)
    return parser


def _load_raw_config(path: Path | None, scenario: str | None) -> dict:
    if path is None:
        return {"schema_version": SCHEMA_VERSION, "scenario": scenario}
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("; ".join(validate_config_dict(raw)))
    if scenario is not None:
        raw.setdefault("scenario", scenario)
        if raw["scenario"] != scenario:
            raise ConfigError(
                f"config names scenario {raw['scenario']!r} but {scenario!r} was requested"
            )
    return raw


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(SCENARIOS):
            info = SCENARIOS[name]
            print(f"{name:20s} {info.description}")
            print(f"{'':20s} claims: {', '.join(info.claims)}")
            print(f"{'':20s} budgets: {', '.join(f'{k}={v}' for k, v in info.budgets.items())}")
        return 0

    if args.command == "check":
        try:
            errors = validate_config_dict(_load_raw_config(args.config, None))
        except ConfigError as exc:
            errors = [str(exc)]
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        if errors:
            return 2
        print("config ok")
        return 0

    # run
    try:
        raw = _load_raw_config(args.config, args.scenario)
        if args.jobs is not None:
            raw["jobs"] = args.jobs  # checked against the config's range
        cfg = config_from_dict(raw, out_dir=args.out)
        if args.seed is not None:
            cfg.seed = args.seed
        code = run_scenario(cfg)
    except (ConfigError, ComponentFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UndefinedConditionalError as exc:
        print(f"undefined conditional: {exc}", file=sys.stderr)
        return 1
    print(f"{cfg.scenario}: exit {code}; outputs in {cfg.out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
