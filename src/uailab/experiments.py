"""Scenario harness: configuration, execution, CSV/report emission.

Each shipped scenario exercises one or more entries of the claim catalog
(numbered theorems, equations, and one conjecture about universal mixtures
and embedded agents) as a finite, machine-checkable experiment. Scenarios
are fully deterministic: identical configs produce byte-identical CSV rows,
regardless of the parallelism degree; only the summary's first line carries
a timestamp. Exact values are emitted as "num/den" strings alongside float
approximations (floats never feed back into any verdict).

Exit codes: 0 success, 1 an invariant violated where none was expected,
2 configuration error.
"""
from __future__ import annotations

import csv
import datetime as _dt
import json
import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .adversary import copy_conditional_trace, domination_probe, greedy_antipredict
from .agents import dualistic_aixi_action, expectimax_action, joint_aixi_action, one_step_action
from .core import ONE, ZERO, ComponentFormatError, frac_str, history_from_symbols, prob
from .mixture import EnvMixture, JointMixture, check_predictive_consistency, uniform_prior
from .semimeasure import (
    ActionEchoJoint,
    ChronEnv,
    JointSemimeasure,
    NoisyCopyEnv,
    Policy,
    _reject_unknown_keys,
    anticopy_machine,
    check_chronological,
    check_scope,
    check_semimeasure,
    complement_env,
    constant_policy,
    contexts,
    copy_machine,
    defective_uniform,
    leaky_copy,
    mu_id,
    table_component,
    times_ratio,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from .transforms import (
    check_env_dual_roundtrip,
    check_normalization_dominance,
    check_representation_roundtrip,
    env,
    env_view_ratio_probe,
    factoring_check,
    normalize,
)
from .utm import ChronEnumApprox, _whole_opcodes, enumerate_joint

F = Fraction

SCHEMA_VERSION = 1

_DERIVED_DIR = Path(__file__).parent / "data" / "derived"


class ConfigError(ValueError):
    """Scenario configuration rejected; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Built-in components and scenario mixtures
# ---------------------------------------------------------------------------


def builtin_components() -> dict[str, JointSemimeasure | ChronEnv]:
    """Every built-in component, by name (checked exhaustively by sanity)."""
    return {
        "uniform_measure": uniform_measure(),
        "copy_machine": copy_machine(),
        "anticopy_machine": anticopy_machine(),
        "leaky_copy": leaky_copy(F(3, 4)),
        "defective_uniform": defective_uniform(F(1, 4)),
        "noisy_copy_joint": ActionEchoJoint(F(3, 4), F(1, 4)),
        "mu_id": mu_id(),
        "complement_env": complement_env(),
        "uniform_env": uniform_env(),
        "noisy_copy_env": NoisyCopyEnv(F(3, 4), F(1, 4)),
    }


@dataclass(frozen=True)
class MixtureDef:
    """A named scenario mixture: a joint view and/or an environment view."""

    name: str
    joint: JointMixture | None
    chron: EnvMixture | None


def scenario_mixtures() -> dict[str, MixtureDef]:
    """The shipped scenario mixtures (all weights exact, priors as given)."""
    copy_uniform_joint = JointMixture(
        [copy_machine(), uniform_measure()],
        uniform_prior(2),
        names=("copy", "uniform"),
    )
    copy_uniform_chron = EnvMixture(
        [mu_id(), uniform_env()], uniform_prior(2), names=("mu_id", "uniform_env")
    )
    adversary_joint = JointMixture(
        [
            copy_machine(),
            uniform_measure(),
            anticopy_machine(),
            ActionEchoJoint(F(3, 4), F(1, 4)),
        ],
        (F(1, 8), F(3, 8), F(1, 8), F(3, 8)),
        names=("copy", "uniform", "anticopy", "noisy_copy"),
    )
    adversary_chron = EnvMixture(
        [mu_id(), uniform_env(), NoisyCopyEnv(F(3, 4), F(1, 4))],
        (F(1, 2), F(1, 4), F(1, 4)),
        names=("mu_id", "uniform_env", "noisy_copy_env"),
    )
    learnable_joint = JointMixture(
        [
            copy_machine(),
            anticopy_machine(),
            uniform_measure(),
            ActionEchoJoint(F(3, 4), F(1, 4)),
        ],
        uniform_prior(4),
        names=("copy", "anticopy", "uniform", "noisy_copy"),
    )
    learnable_chron = EnvMixture(
        [mu_id(), complement_env(), uniform_env(), NoisyCopyEnv(F(3, 4), F(1, 4))],
        uniform_prior(4),
        names=("mu_id", "complement", "uniform_env", "noisy_copy_env"),
    )
    halting_joint = JointMixture(
        [leaky_copy(F(3, 4)), defective_uniform(F(1, 4))],
        uniform_prior(2),
        names=("leaky_copy", "defective_uniform"),
    )
    return {
        "copy_vs_uniform": MixtureDef("copy_vs_uniform", copy_uniform_joint, copy_uniform_chron),
        "adversary_rich": MixtureDef("adversary_rich", adversary_joint, adversary_chron),
        "learnable_deterministic": MixtureDef(
            "learnable_deterministic", learnable_joint, learnable_chron
        ),
        "halting_contrast": MixtureDef("halting_contrast", halting_joint, None),
    }


@dataclass(frozen=True)
class PairScenario:
    """Environments and policies with factored (or overridden) pair weights."""

    name: str
    envs: tuple[ChronEnv, ...]
    env_weights: tuple[Fraction, ...]
    policies: tuple[Policy, ...]
    policy_weights: tuple[Fraction, ...]


def pair_scenarios() -> dict[str, PairScenario]:
    return {
        "factored_pair": PairScenario(
            "factored_pair",
            (mu_id(), uniform_env()),
            (F(1, 2), F(1, 2)),
            (uniform_policy(),),
            (ONE,),
        ),
        "hetero_pair": PairScenario(
            "hetero_pair",
            (mu_id(), uniform_env()),
            (F(1, 2), F(1, 2)),
            (constant_policy(1), uniform_policy()),
            (F(1, 2), F(1, 2)),
        ),
    }


def mixture_from_dict(definition: dict) -> MixtureDef:
    """Build a mixture from a scenario-file definition.

    Components are either {"builtin": name} references or inline table
    component definitions; weights are exact rational strings. Any other
    shape is a ``ComponentFormatError`` (docs/scenario_format.md, "Mixture files").
    """
    arrays = ("components", "weights")
    if not isinstance(definition, dict) or any(type(definition.get(k)) is not list for k in arrays):
        raise ComponentFormatError(f"mixture needs components and weights arrays: {definition!r}")
    _reject_unknown_keys("mixture", definition, ("name", *arrays))
    if not isinstance(name := definition.get("name", "custom"), str):
        raise ComponentFormatError(f"mixture name must be a string, got {name!r}")
    registry = builtin_components()

    def build(entry: dict):
        if not isinstance(entry, dict):
            raise ComponentFormatError(f"mixture component must be an object, got {entry!r}")
        if "builtin" in entry:
            _reject_unknown_keys("builtin component entry", entry, ("builtin",))
            name = entry["builtin"]
            if not isinstance(name, str) or name not in registry:
                raise ComponentFormatError(
                    f"unknown builtin {name!r}; available: {sorted(registry)}"
                )
            return registry[name]
        return table_component(entry)

    weights = tuple(prob(w) for w in definition["weights"])
    components = tuple(build(e) for e in definition["components"])
    joints = [c for c in components if isinstance(c, JointSemimeasure)]
    chrons = [c for c in components if isinstance(c, ChronEnv)]
    if joints and chrons:
        raise ComponentFormatError("mixture must be all-joint or all-environment")
    if joints:
        return MixtureDef(name, JointMixture(joints, weights), None)
    return MixtureDef(name, None, EnvMixture(chrons, weights))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

CONFIG_KEYS = ("schema_version", "scenario", "budgets", "mixture", "jobs", "seed", "out_dir")


def _int_errors(path: str, value: Any, low: int, high: int) -> list[str]:
    """A JSON integer in [low, high]: ``2.0`` and ``true`` are not integers."""
    if type(value) is not int:
        return [f"{path}: {value!r} is not of type 'integer'"]
    return [] if low <= value <= high else [f"{path}: {value!r} is not in [{low}, {high}]"]


@dataclass
class ScenarioConfig:
    """Validated, fully-resolved scenario configuration."""

    scenario: str
    out_dir: Path
    budgets: dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    seed: int | None = None
    mixture: dict | None = None

    def budget(self, key: str) -> int:
        """The configured value, else the scenario's own default (undeclared: KeyError)."""
        return self.budgets.get(key, SCENARIOS[self.scenario].budgets[key])


def validate_config_dict(raw: Any) -> list[str]:
    """``path: message`` diagnostics for a raw config dict (empty list = valid).

    The rules that join scenario and mixture wait for every other rule to hold."""
    if not isinstance(raw, dict):
        return [f"<root>: {raw!r} is not of type 'object'"]
    required = ("schema_version", "scenario")
    errors = [f"<root>: {k!r} is a required property" for k in required if k not in raw]
    errors += [f"<root>: unknown key {k!r}" for k in raw if k not in CONFIG_KEYS]
    version, scenario = raw.get("schema_version", SCHEMA_VERSION), raw.get("scenario")
    if type(version) is not int or version != SCHEMA_VERSION:
        errors.append(f"schema_version: {SCHEMA_VERSION} was expected")
    for key in ("scenario", "out_dir"):
        if not isinstance(raw.get(key, ""), str):
            errors.append(f"{key}: {raw[key]!r} is not of type 'string'")
    if isinstance(scenario, str) and scenario not in SCENARIOS:
        available = ", ".join(sorted(SCENARIOS))
        errors.append(f"scenario: unknown scenario {scenario!r}; available: {available}")
    budgets = raw.get("budgets", {})
    if not isinstance(budgets, dict):
        errors.append(f"budgets: {budgets!r} is not of type 'object'")
        budgets = {}
    known = {key for info in SCENARIOS.values() for key in info.budgets}  # any scenario, any of them
    for key, value in budgets.items():
        if key not in known:
            errors.append(f"budgets: unknown key {key!r}")
        else:
            errors += _int_errors(f"budgets/{key}", value, 0, 10**6)
    if "jobs" in raw:
        errors += _int_errors("jobs", raw["jobs"], 1, 64)
    if raw.get("seed") is not None and type(raw["seed"]) is not int:
        errors.append(f"seed: {raw['seed']!r} is not of type 'integer', 'null'")
    if "mixture" not in raw:
        return errors
    try:
        joint = mixture_from_dict(raw["mixture"]).joint
        if errors:
            return errors
        readers = [name for name, info in SCENARIOS.items() if info.reads_mixture]
        if scenario not in readers:
            return [f"mixture: only {' and '.join(readers)} reads one, not {scenario}"]
        if joint is None:
            return [f"mixture: {scenario} needs a joint mixture"]
        greedy_antipredict(joint, 0)  # the trace's alphabet rule, no steps
    except ValueError as exc:  # ComponentFormatError
        errors.append(f"mixture: {exc}")
    return errors


def config_from_dict(raw: dict, out_dir: Path | None = None) -> ScenarioConfig:
    errors = validate_config_dict(raw)
    if errors:
        raise ConfigError("; ".join(errors))
    return ScenarioConfig(
        scenario=raw["scenario"],
        out_dir=Path(out_dir or raw.get("out_dir", Path("uailab_runs") / raw["scenario"])),
        budgets=dict(raw.get("budgets", {})),
        jobs=raw.get("jobs", 1),
        seed=raw.get("seed"),
        mixture=raw.get("mixture"),
    )


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(c) for c in row])


def _sym_str(symbols: Iterable[int]) -> str:
    return "".join(str(s) for s in symbols) or "eps"


def _exact_float(value: Fraction | None) -> tuple[str, str]:
    """The exact "num/den" column and its float companion; blank for None."""
    if value is None:
        return "", ""
    return frac_str(value), repr(float(value))


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map, optionally across processes (deterministic)."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with multiprocessing.Pool(min(jobs, len(items))) as pool:  # the platform's start method
        return pool.map(fn, items)


@dataclass
class ScenarioOutcome:
    exit_code: int
    lines: list[str]


# ---------------------------------------------------------------------------
# sanity_checks
# ---------------------------------------------------------------------------


def _enum_budget_grid(max_bits: int, max_steps: int) -> list[tuple[int, int]]:
    grid = [(3, 60), (6, 60), (6, 200), (9, 200), (10, 200)]
    return [(b, s) for b, s in grid if b <= max_bits and s <= max_steps]


def _scenario_sanity(cfg: ScenarioConfig) -> ScenarioOutcome:
    depth = cfg.budget("depth")
    tdepth = cfg.budget("transform_depth")
    cdepth = cfg.budget("consistency_depth")
    lines: list[str] = []
    failures = 0

    # Defining conditions for every built-in component and scenario mixture.
    rows = []
    mixtures = scenario_mixtures()
    subjects: list[tuple[str, Any]] = list(builtin_components().items())
    for mdef in mixtures.values():
        if mdef.joint is not None:
            subjects.append((f"mixture:{mdef.name}:joint", mdef.joint))
        if mdef.chron is not None:
            subjects.append((f"mixture:{mdef.name}:env", mdef.chron))
    subjects.append(("normalized:copy_vs_uniform", normalize(mixtures["copy_vs_uniform"].joint)))
    with check_scope([component for _, component in subjects], depth):
        for name, component in subjects:
            if isinstance(component, JointSemimeasure):
                report = check_semimeasure(component, depth)
            else:
                report = check_chronological(component, depth)
            ok = report.ok and report.declaration_verified is not False
            failures += 0 if ok else 1
            rows.append(
                (
                    name,
                    report.kind,
                    report.depth,
                    report.contexts,
                    len(report.violations),
                    report.strict_rows,
                    report.equal_rows,
                    frac_str(report.root_mass),
                    report.declared_measure,
                    "ok" if ok else "VIOLATION",
                )
            )
    _write_csv(
        cfg.out_dir / "component_checks.csv",
        (
            "component",
            "check",
            "depth",
            "contexts",
            "violations",
            "strict",
            "equal",
            "root_mass",
            "declared_measure",
            "verdict",
        ),
        rows,
    )
    lines.append(f"component checks: {len(rows)} subjects, {failures} failures")

    # Enumeration approximations at a budget grid.
    enum_rows = []
    machine, reports = None, ()
    for bits, steps in _enum_budget_grid(cfg.budget("program_bits"), cfg.budget("machine_steps")):
        # Adjacent points of one machine (its bits in whole opcodes) share their checks.
        if machine != (_whole_opcodes(bits), steps):
            machine = (_whole_opcodes(bits), steps)
            reports = (
                check_semimeasure(enumerate_joint(bits, steps, max_len=depth + 2), depth),
                check_chronological(ChronEnumApprox(bits, steps), depth),
            )
        for mode, report in zip(("joint", "chron"), reports):
            ok = report.ok
            failures += 0 if ok else 1
            enum_rows.append(
                (
                    mode,
                    bits,
                    steps,
                    report.depth,
                    len(report.violations),
                    frac_str(report.root_mass),
                    "ok" if ok else "VIOLATION",
                )
            )
    _write_csv(
        cfg.out_dir / "enumeration_checks.csv",
        ("mode", "program_bits", "machine_steps", "depth", "violations", "root_mass", "verdict"),
        enum_rows,
    )
    lines.append(f"enumeration checks: {len(enum_rows)} budget points")

    # Transform identities.
    transform_rows = []
    env_pairs = [
        ("mu_id+uniform_policy", mu_id(), uniform_policy()),
        ("uniform_env+uniform_policy", uniform_env(), uniform_policy()),
        ("noisy_copy+uniform_policy", NoisyCopyEnv(F(3, 4), F(1, 4)), uniform_policy()),
        ("mu_id+constant_policy", mu_id(), constant_policy(1)),
    ]
    for name, nu, pi in env_pairs:
        mismatches, skipped = check_env_dual_roundtrip(nu, pi, tdepth)
        failures += len(mismatches)
        transform_rows.append(("env_dual_roundtrip", name, tdepth, len(mismatches), skipped))
    for name, nu in (("mu_id", mu_id()), ("noisy_copy", NoisyCopyEnv(F(3, 4), F(1, 4)))):
        mismatches, skipped = check_representation_roundtrip(nu, None, tdepth)
        failures += len(mismatches)
        transform_rows.append(("representation_roundtrip", name, tdepth, len(mismatches), skipped))
    joints = [mdef for mdef in mixtures.values() if mdef.joint is not None]
    with check_scope([mdef.joint for mdef in joints], tdepth):
        for mdef in joints:
            violations, skipped = check_normalization_dominance(mdef.joint, tdepth)
            failures += len(violations)
            transform_rows.append(
                ("normalization_dominance", mdef.name, tdepth, len(violations), skipped)
            )
    _write_csv(
        cfg.out_dir / "transform_checks.csv",
        ("check", "subject", "depth", "mismatches", "skipped"),
        transform_rows,
    )
    lines.append(f"transform identities: {len(transform_rows)} suites")

    # Factoring: identities hold for factored priors, fail with witness otherwise.
    pairs = pair_scenarios()
    fact_rows = []
    for pname, pair in pairs.items():
        report = factoring_check(
            pair.envs, pair.env_weights, pair.policies, pair.policy_weights, tdepth
        )
        failures += 0 if report.ok else 1
        fact_rows.append(
            (
                pname,
                "factored",
                len(report.joint_rows),
                len(report.joint_mismatches),
                len(report.env_rows),
                len(report.env_mismatches),
                "ok" if report.ok else "VIOLATION",
            )
        )
    hetero = pairs["hetero_pair"]
    non_factored = factoring_check(
        hetero.envs,
        hetero.env_weights,
        hetero.policies,
        hetero.policy_weights,
        tdepth,
        pair_weights={(0, 0): F(1, 2), (1, 1): F(1, 2)},
    )
    witness = non_factored.env_mismatches[0].witness if non_factored.env_mismatches else None
    if not non_factored.env_mismatches:
        failures += 1  # the counterexample must produce a witness
    fact_rows.append(
        (
            "hetero_pair",
            "non_factored",
            len(non_factored.joint_rows),
            len(non_factored.joint_mismatches),
            len(non_factored.env_rows),
            len(non_factored.env_mismatches),
            f"witness={witness}" if witness else "MISSING-WITNESS",
        )
    )
    _write_csv(
        cfg.out_dir / "factoring_checks.csv",
        (
            "pair",
            "prior",
            "joint_contexts",
            "joint_mismatches",
            "env_contexts",
            "env_mismatches",
            "verdict",
        ),
        fact_rows,
    )
    # Row-level report of the counterexample (witness, lhs, rhs, verdict).
    _write_csv(
        cfg.out_dir / "factoring_witnesses.csv",
        ("witness", "lhs", "rhs", "verdict"),
        [
            (row.witness, frac_str(row.lhs), frac_str(row.rhs), row.verdict)
            for row in non_factored.env_rows
        ],
    )
    exact = "exact" if all(row[-1] == "ok" for row in fact_rows[:-1]) else "VIOLATED"
    witnessed = "witnessed" if witness else "MISSING"
    lines.append(f"factoring: identities {exact} for factored priors; counterexample {witnessed}")

    # Predictive/posterior consistency for every joint scenario mixture.
    cons_rows = []
    for mdef in joints:
        mismatches = check_predictive_consistency(mdef.joint, cdepth)
        failures += len(mismatches)
        cons_rows.append((mdef.name, cdepth, len(mismatches)))
    _write_csv(
        cfg.out_dir / "consistency_checks.csv",
        ("mixture", "depth", "mismatches"),
        cons_rows,
    )
    mismatched = sum(row[-1] for row in cons_rows)
    agreement = f"{mismatched} MISMATCHES" if mismatched else "exact agreement"
    lines.append(f"predictive vs posterior-weighted conditionals: {agreement}")

    code = 0 if failures == 0 else 1
    lines.append(f"total failures: {failures}")
    return ScenarioOutcome(code, lines)


# ---------------------------------------------------------------------------
# thm7_drop
# ---------------------------------------------------------------------------


def _trace_rows(trace) -> list[tuple]:
    return [
        (step.t, step.action, frac_str(step.conditional), *_exact_float(step.cumulative))
        for step in trace.steps
    ]


_TRACE_HEADER = (
    "t",
    "action",
    "conditional",
    "cumulative_product_exact_as_fraction",
    "cumulative_product_float",
)


def _first_drop(trace, threshold: Fraction) -> int | None:
    for step in trace.steps:
        if step.cumulative < threshold:
            return step.t
    return None


def _scenario_thm7(cfg: ScenarioConfig) -> ScenarioOutcome:
    steps = cfg.budget("trace_steps")
    lines: list[str] = []
    failures = 0

    mdef = (
        mixture_from_dict(cfg.mixture)
        if cfg.mixture is not None
        else scenario_mixtures()["adversary_rich"]
    )
    trace = greedy_antipredict(mdef.joint, steps)
    _write_csv(cfg.out_dir / "trace_finite.csv", _TRACE_HEADER, _trace_rows(trace))

    # Telescoping exactness: the recorded product equals the environment-view
    # value of the played (a, a) pair.
    view = env(mdef.joint)
    for step in trace.steps:
        played = trace.actions[: step.t]
        if view.eval(played, played) != step.cumulative:
            failures += 1
    lines.append(
        f"finite mixture ({mdef.name}): {len(trace.steps)} steps, truncated={trace.truncated}, "
        f"final={frac_str(trace.final_product)}"
    )
    for threshold in (F(1, 2), F(1, 4), F(1, 8)):
        lines.append(
            f"  first step below {frac_str(threshold)}: {_first_drop(trace, threshold)}"
        )

    # The same drop under program-enumeration approximations of growing class.
    enum_steps = cfg.budget("machine_steps")
    max_len = 16
    for bits in (3, 6, 9):
        if bits > cfg.budget("program_bits"):
            continue
        approx = enumerate_joint(bits, enum_steps, max_len=max_len)
        enum_trace = greedy_antipredict(approx, min(steps, max_len // 2))
        _write_csv(cfg.out_dir / f"trace_enum_L{bits}.csv", _TRACE_HEADER, _trace_rows(enum_trace))
        lines.append(
            f"enumeration L={bits}, S={enum_steps}: {len(enum_trace.steps)} steps, "
            f"truncated={enum_trace.truncated}, final={frac_str(enum_trace.final_product)}"
        )
    if failures:
        lines.append(f"telescoping products FAILED at {failures} of {len(trace.steps)} steps")
    else:
        lines.append("drop persists as the program class grows; products recorded exactly")
    return ScenarioOutcome(0 if failures == 0 else 1, lines)


# ---------------------------------------------------------------------------
# thm8_gap
# ---------------------------------------------------------------------------


def load_derived(name: str) -> dict:
    path = _DERIVED_DIR / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"missing derived artifact {path}; run scripts/derive_expected.py")
    return json.loads(path.read_text())


def _scenario_thm8(cfg: ScenarioConfig) -> ScenarioOutcome:
    derived = load_derived("thm8_gap")
    mixtures = scenario_mixtures()["adversary_rich"]
    joint, chron = mixtures.joint, mixtures.chron
    assert joint is not None and chron is not None
    w_id = prob(derived["w_id"])
    recorded_T = int(derived["T"])
    steps = max(cfg.budget("trace_steps"), recorded_T)

    trace = greedy_antipredict(joint, steps)
    lines: list[str] = []
    failures = 0
    rows = []
    previous_ratio: Fraction | None = None
    ratio_strictly_increasing = True
    drop_step: int | None = None
    for step in trace.steps:
        played = trace.actions[: step.t]
        env_side = chron.eval(played, played)
        # The chronological mixture keeps the identity environment's full
        # prior weight on every copy sequence: exact lower bound.
        if env_side < w_id:
            failures += 1
        ratio = env_side / step.cumulative
        if previous_ratio is not None and ratio <= previous_ratio:
            ratio_strictly_increasing = False
        previous_ratio = ratio
        if drop_step is None and step.cumulative < w_id:
            drop_step = step.t
        rows.append(
            (
                step.t,
                step.action,
                frac_str(step.conditional),
                *_exact_float(step.cumulative),
                frac_str(env_side),
                *_exact_float(ratio),
            )
        )
    _write_csv(
        cfg.out_dir / "gap_trace.csv",
        (
            "t",
            "action",
            "conditional",
            "joint_view_product",
            "joint_view_product_float",
            "env_view_value",
            "ratio_env_over_joint",
            "ratio_float",
        ),
        rows,
    )
    # So far only the steps below the bound have counted as failures.
    held = f"FAILED at {failures} of {len(trace.steps)} steps" if failures else "held at every step"
    lines.append(f"identity-env weight bound w_id = {frac_str(w_id)} {held}")
    lines.append(f"joint-view product first below w_id at step {drop_step} (recorded T = {recorded_T})")
    lines.append(f"ratio env-view/joint-view strictly increasing: {ratio_strictly_increasing}")

    if drop_step is None or drop_step > recorded_T:
        failures += 1
    if not ratio_strictly_increasing:
        failures += 1
    # A shorter run is checked against the committed prefix of its length.
    committed = derived["trace"][:steps]
    live = [(str(r[0]), str(r[1]), r[2], r[3], r[5], r[6]) for r in rows[: len(committed)]]
    recorded = [
        (
            str(entry["t"]),
            str(entry["action"]),
            entry["conditional"],
            entry["joint_view_product"],
            entry["env_view_value"],
            entry["ratio"],
        )
        for entry in committed
    ]
    if live != recorded:
        failures += 1
        lines.append("MISMATCH against the committed oracle run")
    else:
        lines.append(f"trace matches the committed oracle run ({len(committed)} steps)")
    return ScenarioOutcome(0 if failures == 0 else 1, lines)


# ---------------------------------------------------------------------------
# thm10_normalized
# ---------------------------------------------------------------------------


def _scenario_thm10(cfg: ScenarioConfig) -> ScenarioOutcome:
    derived = load_derived("thm10_normalized")
    length = cfg.budget("normalized_trace_len")
    actions = tuple(int(c) for c in derived["actions"])[:length]
    lines: list[str] = []
    failures = 0

    mixtures = scenario_mixtures()
    main = normalize(mixtures["copy_vs_uniform"].joint)
    main_trace = copy_conditional_trace(main, actions)
    _write_csv(cfg.out_dir / "normalized_main.csv", _TRACE_HEADER, _trace_rows(main_trace))
    conds = [s.conditional for s in main_trace.steps]
    increasing = all(b > a for a, b in zip(conds, conds[1:]))
    committed = [prob(c) for c in derived["main_conditionals"]][: len(conds)]
    if conds != committed or not increasing:
        failures += 1
    lines.append(
        f"normalized copy_vs_uniform: conditionals strictly increasing={increasing}, "
        f"final={frac_str(conds[-1]) if conds else 'none (empty trace)'}"
    )

    contrast = mixtures["halting_contrast"].joint
    raw_trace = copy_conditional_trace(contrast, actions)
    _write_csv(cfg.out_dir / "contrast_unnormalized.csv", _TRACE_HEADER, _trace_rows(raw_trace))
    bound = prob(derived["contrast_bound"])
    raw_ok = all(s.conditional < bound for s in raw_trace.steps)
    if not raw_ok:
        failures += 1
    lines.append(
        f"unnormalized defective contrast: every conditional < {frac_str(bound)}: {raw_ok}"
    )

    hat_trace = copy_conditional_trace(normalize(contrast), actions)
    _write_csv(cfg.out_dir / "contrast_normalized.csv", _TRACE_HEADER, _trace_rows(hat_trace))
    floor = prob(derived["normalized_contrast_floor"])
    floor_step = int(derived["normalized_contrast_step"])
    hat_ok = all(
        s.conditional > floor for s in hat_trace.steps if s.t >= floor_step
    )
    if not hat_ok:
        failures += 1
    lines.append(
        f"normalizing the same mixture lifts conditionals above {frac_str(floor)} "
        f"from step {floor_step}: {hat_ok}"
    )
    return ScenarioOutcome(0 if failures == 0 else 1, lines)


# ---------------------------------------------------------------------------
# thm11_convergence
# ---------------------------------------------------------------------------


def _percept_for(env_kind: str, action: int) -> int:
    """The percept a deterministic environment emits for ``action``."""
    if env_kind == "identity":
        return action
    if env_kind == "complement":
        return 1 - action
    raise ConfigError(f"unknown deterministic environment {env_kind!r}")


def _conditional_stats_chunk(args) -> tuple[list[Fraction], list[Fraction]]:
    """Per-step (min, max) of the correct-percept conditional over a chunk.

    One chunk covers action sequences whose integer encodings (first action
    most significant) lie in [start, stop). It walks the tree of their
    shared prefixes depth first, one mixture step per symbol, so each
    prefix is evaluated once. Conditionals are the normalized (or raw)
    environment-view predictions of the percept the deterministic
    environment will emit.
    """
    mixture, env_kind, n, start, stop, normalized = args
    mins: list[Fraction] = [ONE] * n
    maxs: list[Fraction] = [ZERO] * n

    def visit(state, code: int, t: int) -> None:
        width = 1 << (n - 1 - t)  # action sequences below each child
        for a in (0, 1):
            child_code = 2 * code + a
            if child_code * width >= stop or (child_code + 1) * width <= start:
                continue
            pending_mass, pending = mixture.extend(state, a)
            correct_percept = _percept_for(env_kind, a)
            if normalized:
                kids = [mixture.extend(pending, e) for e in range(mixture.percept_arity)]
                correct, child = kids[correct_percept]
                denom, m = sum(m for m, _ in kids), 2 * t + 2
            else:
                correct, child = mixture.extend(pending, correct_percept)
                denom, m = pending_mass, 2 * t + 1
            cond = times_ratio(mixture, ONE, correct, 2 * t + 2, denom, m)
            if cond < mins[t]:
                mins[t] = cond
            if cond > maxs[t]:
                maxs[t] = cond
            if t + 1 < n:
                visit(child, child_code, t + 1)

    if n:
        visit(mixture.root()[1], 0, 0)
    return mins, maxs


def _conditional_stats(
    stats: Sequence[tuple[JointSemimeasure, Sequence[str], bool]], n: int, jobs: int
) -> list[tuple[list[Fraction], list[Fraction]]]:
    """Per-step (min, max) of each statistic (mixture, env kinds, normalized),
    folded over its chunks: those of all of them go through one :func:`parallel_map`."""
    per_chunk = max(1, 2**n // max(1, jobs * 4))
    chunks = [
        (i, (mixture, env_kind, n, start, min(2**n, start + per_chunk), normalized))
        for i, (mixture, env_kinds, normalized) in enumerate(stats)
        for env_kind in env_kinds
        for start in range(0, 2**n, per_chunk)
    ]
    results = parallel_map(_conditional_stats_chunk, [chunk for _, chunk in chunks], jobs)
    folded = [([ONE] * n, [ZERO] * n) for _ in stats]
    for (i, _), (mins, maxs) in zip(chunks, results):
        folded[i] = (list(map(min, folded[i][0], mins)), list(map(max, folded[i][1], maxs)))
    return folded


def _write_stats(path: Path, mins: Sequence[Fraction], maxs: Sequence[Fraction]) -> None:
    """Per-step min and max conditionals, each as an exact and a float column."""
    _write_csv(
        path,
        ("t", "min_conditional", "min_float", "max_conditional", "max_float"),
        [(t + 1, *_exact_float(mins[t]), *_exact_float(maxs[t])) for t in range(len(mins))],
    )


def _scenario_thm11(cfg: ScenarioConfig) -> ScenarioOutcome:
    derived = load_derived("thm11_convergence")
    n = cfg.budget("sequence_length")
    epsilon = prob(derived["epsilon"])
    t_star = int(derived["t_star"])
    lines: list[str] = []
    failures = 0

    mixtures = scenario_mixtures()
    main = mixtures["learnable_deterministic"].joint
    contrast = mixtures["halting_contrast"].joint
    assert main is not None and contrast is not None
    (mins, maxs), (raw_mins, raw_maxs) = _conditional_stats(
        [(main, ("identity", "complement"), True), (contrast, ("identity",), False)], n, cfg.jobs
    )
    _write_stats(cfg.out_dir / "normalized_min_conditionals.csv", mins, maxs)
    threshold = ONE - epsilon
    ok = all(mins[t] > threshold for t in range(t_star - 1, n))
    if not ok:
        failures += 1
    committed = [prob(c) for c in derived["min_conditionals"]]
    if n != len(committed):
        lines.append(
            f"oracle comparison skipped: sequence_length {n} differs from the "
            f"committed run's length {len(committed)}"
        )
    elif mins != committed:
        failures += 1
        lines.append("MISMATCH against the committed oracle run")
    lines.append(
        f"normalized predictor: min correct-percept conditional over all {2 ** n} action "
        f"sequences x {{identity, complement}} exceeds 1 - {frac_str(epsilon)} from step "
        f"{t_star}: {ok}"
    )

    _write_stats(cfg.out_dir / "unnormalized_contrast_conditionals.csv", raw_mins, raw_maxs)
    contrast_fails = all(raw_maxs[t] <= threshold for t in range(t_star - 1, n))
    if not contrast_fails:
        failures += 1
    lines.append(
        "unnormalized defective contrast misses the same bound at every step "
        f"from {t_star}: {contrast_fails} (normalization is the difference)"
    )
    return ScenarioOutcome(0 if failures == 0 else 1, lines)


# ---------------------------------------------------------------------------
# conj9_search
# ---------------------------------------------------------------------------


def _scenario_conj9(cfg: ScenarioConfig) -> ScenarioOutcome:
    depth = cfg.budget("probe_depth")
    lines: list[str] = []
    rows = []
    mixtures = scenario_mixtures()
    for name in ("copy_vs_uniform", "adversary_rich"):
        mdef = mixtures[name]
        assert mdef.joint is not None and mdef.chron is not None
        joint_view = env(mdef.joint)
        for d in range(1, depth + 1):
            forward = domination_probe(joint_view, mdef.chron, d)
            backward = domination_probe(mdef.chron, joint_view, d)
            for direction, report in (
                ("joint_view_over_env_mixture", forward),
                ("env_mixture_over_joint_view", backward),
            ):
                rows.append(
                    (
                        name,
                        direction,
                        d,
                        *_exact_float(report.max_ratio),
                        report.witness,
                        len(report.unbounded_witnesses),
                        report.contexts_checked,
                    )
                )
    _write_csv(
        cfg.out_dir / "domination_sweep.csv",
        (
            "mixture",
            "direction",
            "depth",
            "max_ratio",
            "max_ratio_float",
            "witness",
            "unbounded_witnesses",
            "contexts",
        ),
        rows,
    )
    lines.append("domination sweep recorded (evidence only; no pass/fail verdict)")

    # Factored pair weights make the two views coincide; the diagonal grid
    # (each env glued to its own policy) is where the joint view's
    # action-evidence effect shows up.
    hetero = pair_scenarios()["hetero_pair"]
    probe_rows = []
    for grid_name, pair_weights in (
        ("factored", None),
        ("diagonal", {(0, 0): F(1, 2), (1, 1): F(1, 2)}),
    ):
        for d in range(1, depth + 1):
            probe = env_view_ratio_probe(
                hetero.envs,
                hetero.env_weights,
                hetero.policies,
                hetero.policy_weights,
                d,
                pair_weights=pair_weights,
            )
            probe_rows.append(
                (
                    grid_name,
                    d,
                    *_exact_float(probe.max_ratio),
                    probe.witness,
                    probe.undefined_mu
                    + probe.undefined_xi
                    + len(probe.unbounded_witnesses)
                    + probe.skipped_zero_zero,
                )
            )
    _write_csv(
        cfg.out_dir / "env_view_ratio.csv",
        ("pair_weights", "depth", "max_ratio", "max_ratio_float", "witness", "skipped"),
        probe_rows,
    )
    lines.append("env-of-mixture vs mixture-of-envs ratio recorded per depth")
    return ScenarioOutcome(0, lines)


# ---------------------------------------------------------------------------
# agents_compare
# ---------------------------------------------------------------------------


def _scenario_agents(cfg: ScenarioConfig) -> ScenarioOutcome:
    horizon = cfg.budget("horizon")
    lines: list[str] = []
    rows = []
    failures = 0
    agreements = 0
    mixtures = scenario_mixtures()
    for name in ("copy_vs_uniform", "adversary_rich"):
        mdef = mixtures[name]
        assert mdef.joint is not None and mdef.chron is not None
        # Every complete history of at most two steps.
        histories = [history_from_symbols(x) for x in contexts(mdef.joint, 4) if len(x) % 2 == 0]
        joint_belief = env(mdef.joint)
        for h in histories:
            one_step = one_step_action(joint_belief, h)
            if one_step != expectimax_action(joint_belief, h, 1):
                failures += 1  # definitional coincidence at horizon 1
            for m in range(1, horizon + 1):
                joint_choice = joint_aixi_action(mdef.joint, h, m)
                dual_choice = dualistic_aixi_action(mdef.chron, h, m)
                agree = joint_choice == dual_choice
                agreements += int(agree)
                rows.append(
                    (
                        name,
                        _sym_str(h.symbols()),
                        m,
                        joint_choice,
                        dual_choice,
                        one_step,
                        agree,
                    )
                )
    _write_csv(
        cfg.out_dir / "decision_matrix.csv",
        (
            "mixture",
            "history",
            "horizon",
            "joint_view_action",
            "env_view_action",
            "one_step_action",
            "joint_equals_env_view",
        ),
        rows,
    )
    lines.append(
        f"decision matrix over {len(histories)} histories x horizons 1..{horizon}: "
        f"{agreements}/{len(rows)} agreements (descriptive; equality is not asserted)"
    )
    verified = f"FAILED at {failures} histories" if failures else "verified"
    lines.append(f"one-step rule equals expectimax at horizon 1 ({verified})")
    return ScenarioOutcome(0 if failures == 0 else 1, lines)


# ---------------------------------------------------------------------------
# Registry and entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioInfo:
    """A scenario's runner and claims, and all it reads: each budget key with
    its default (docs/scenario_format.md), and whether it takes a mixture."""

    runner: Callable[[ScenarioConfig], ScenarioOutcome]
    claims: tuple[str, ...]
    description: str
    budgets: dict[str, int]
    reads_mixture: bool = False


SCENARIOS: dict[str, ScenarioInfo] = {
    "sanity_checks": ScenarioInfo(
        _scenario_sanity,
        (
            "Def. 1",
            "Def. 2",
            "Def. 3",
            "Def. 4",
            "Def. 5",
            "Eq. 1",
            "Eq. 2",
            "Eq. 3",
            "Eq. 4",
            "Eq. 7",
            "Eq. 8",
            "Eq. 10",
        ),
        "defining conditions, transform identities, factoring, and consistency suites",
        dict(depth=6, transform_depth=5, consistency_depth=4, program_bits=10, machine_steps=200),
    ),
    "thm7_drop": ScenarioInfo(
        _scenario_thm7,
        ("Theorem 6", "Theorem 7", "Eq. 2", "Eq. 8"),
        "greedy adversary drives the joint-view copy product toward zero",
        dict(trace_steps=20, program_bits=10, machine_steps=200),
        reads_mixture=True,
    ),
    "thm8_gap": ScenarioInfo(
        _scenario_thm8,
        ("Theorem 8", "Eq. 3", "Eq. 10", "Def. 5"),
        "environment-side mixture keeps its identity-env floor while the joint view drops",
        dict(trace_steps=20),
    ),
    "thm10_normalized": ScenarioInfo(
        _scenario_thm10,
        ("Theorem 10", "Eq. 11"),
        "normalization restores adversarial learning of checkable structure",
        dict(normalized_trace_len=8),
    ),
    "thm11_convergence": ScenarioInfo(
        _scenario_thm11,
        ("Theorem 11", "Eq. 11"),
        "normalized predictor learns deterministic environments on every action sequence",
        dict(sequence_length=10),
    ),
    "conj9_search": ScenarioInfo(
        _scenario_conj9,
        ("Conjecture 9", "Def. 5"),
        "exploratory domination-ratio sweeps in both directions",
        dict(probe_depth=4),
    ),
    "agents_compare": ScenarioInfo(
        _scenario_agents,
        ("Eq. 5", "Eq. 6", "Eq. 9"),
        "joint-view, environment-view, and one-step agents on shared mixtures",
        dict(horizon=3),
    ),
}


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute a scenario, emit its CSVs and summary, return the exit code.

    The config is checked first by :func:`validate_config_dict`, as if it
    were read from a file, so a config built in Python meets the same rules.
    """
    fields = {k: v for k, v in vars(cfg).items() if k != "out_dir" and v is not None}
    errors = validate_config_dict({"schema_version": SCHEMA_VERSION, **fields})
    if errors:
        raise ConfigError("; ".join(errors))
    info = SCENARIOS[cfg.scenario]
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file in the way
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}")
    outcome = info.runner(cfg)
    summary = cfg.out_dir / "summary.txt"
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    body = [
        f"# generated: {stamp}",
        f"scenario: {cfg.scenario}",
        f"claims: {', '.join(info.claims)}",
        f"description: {info.description}",
        f"seed: {cfg.seed}",
        f"budgets: {json.dumps({k: cfg.budget(k) for k in info.budgets}, sort_keys=True)}",
        *outcome.lines,
        f"exit_code: {outcome.exit_code}",
    ]
    summary.write_text("\n".join(body) + "\n")
    return outcome.exit_code
