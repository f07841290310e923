"""Scenario harness: configuration, execution, CSV/report emission.

Each shipped scenario exercises one or more entries of the claim catalog
(numbered theorems, equations, and one conjecture about universal mixtures
and embedded agents) as a finite, machine-checkable experiment. Scenarios
are fully deterministic: identical configs produce byte-identical CSV rows,
whatever their ``jobs``, which no scenario reads; only the summary's first
line carries a timestamp. Exact values are emitted as "num/den" strings
alongside float approximations (floats never feed back into any verdict).

Exit codes: 0 success, 1 a nonzero failure count (an invariant violated
where none was expected), 2 a configuration error or an unwritable output path.
"""
from __future__ import annotations

import csv
import datetime as _dt
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .adversary import _domination_reports, copy_conditional_trace, greedy_antipredict
from .agents import _Planner, one_step_action
from .core import ONE, ComponentFormatError, frac_str, history_from_symbols, prob
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
    _ratio_reports,
    check_env_dual_roundtrip,
    check_normalization_dominance,
    check_representation_roundtrip,
    env,
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
    """The shipped scenario mixtures of the built-in components (all weights
    exact, priors as given)."""
    c = builtin_components()
    copy_uniform_joint = JointMixture(
        [c["copy_machine"], c["uniform_measure"]],
        uniform_prior(2),
        names=("copy", "uniform"),
    )
    copy_uniform_chron = EnvMixture(
        [c["mu_id"], c["uniform_env"]], uniform_prior(2), names=("mu_id", "uniform_env")
    )
    adversary_joint = JointMixture(
        [c["copy_machine"], c["uniform_measure"], c["anticopy_machine"], c["noisy_copy_joint"]],
        (F(1, 8), F(3, 8), F(1, 8), F(3, 8)),
        names=("copy", "uniform", "anticopy", "noisy_copy"),
    )
    adversary_chron = EnvMixture(
        [c["mu_id"], c["uniform_env"], c["noisy_copy_env"]],
        (F(1, 2), F(1, 4), F(1, 4)),
        names=("mu_id", "uniform_env", "noisy_copy_env"),
    )
    learnable_joint = JointMixture(
        [c["copy_machine"], c["anticopy_machine"], c["uniform_measure"], c["noisy_copy_joint"]],
        uniform_prior(4),
        names=("copy", "anticopy", "uniform", "noisy_copy"),
    )
    learnable_chron = EnvMixture(
        [c["mu_id"], c["complement_env"], c["uniform_env"], c["noisy_copy_env"]],
        uniform_prior(4),
        names=("mu_id", "complement", "uniform_env", "noisy_copy_env"),
    )
    halting_joint = JointMixture(
        [c["leaky_copy"], c["defective_uniform"]],
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


# Each environment of a pair glued to its own policy: pair weights that do not
# factor, where the joint view's action evidence shows (the counterexample).
_DIAGONAL_GRID = {(0, 0): F(1, 2), (1, 1): F(1, 2)}


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
    info = SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    least, most = (info.least, info.most) if info else ({}, {})  # this scenario's alone
    for key, value in budgets.items():
        if key not in known:
            errors.append(f"budgets: unknown key {key!r}")
        else:
            errors += _int_errors(f"budgets/{key}", value, least.get(key, 0), most.get(key, 10**6))
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
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(c) for c in row])


def _stale_csvs(out_dir: Path, kept: Iterable[str]) -> list[Path]:
    """The CSVs that the summary of an earlier run in ``out_dir`` names on
    its ``files:`` line and that are not ``kept``: plain file names only,
    so a summary can name nothing outside the directory."""
    try:
        lines = (out_dir / "summary.txt").read_text().splitlines()
    except (OSError, UnicodeDecodeError):  # no earlier run, or no summary it wrote
        return []
    named = [line[len("files: ") :].split(", ") for line in lines if line.startswith("files: ")]
    return [
        out_dir / name
        for name in (named[-1] if named else [])
        if name.endswith(".csv") and name == Path(name).name and name not in kept
    ]


def _sym_str(symbols: Iterable[int]) -> str:
    return "".join(str(s) for s in symbols) or "eps"


def _exact_float(value: Fraction | None) -> tuple[str, str]:
    """The exact "num/den" column and its float companion; blank for None."""
    if value is None:
        return "", ""
    return frac_str(value), repr(float(value))


Table = tuple[Sequence[str], list[tuple]]


@dataclass
class ScenarioOutcome:
    """A runner's summary lines, its CSV tables by file name in write order, and its failures."""

    lines: list[str]
    tables: dict[str, Table]
    failures: int


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
    tables: dict[str, Table] = {}
    failures = 0

    # Defining conditions for every built-in component and scenario mixture.
    rows = []
    mixtures = scenario_mixtures()
    components = builtin_components()
    subjects: list[tuple[str, Any]] = list(components.items())
    for mdef in mixtures.values():
        if mdef.joint is not None:
            subjects.append((f"mixture:{mdef.name}:joint", mdef.joint))
        if mdef.chron is not None:
            subjects.append((f"mixture:{mdef.name}:env", mdef.chron))
    subjects.append(("normalized:copy_vs_uniform", normalize(mixtures["copy_vs_uniform"].joint)))
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
    tables["component_checks.csv"] = (
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
    tables["enumeration_checks.csv"] = (
        ("mode", "program_bits", "machine_steps", "depth", "violations", "root_mass", "verdict"),
        enum_rows,
    )
    lines.append(f"enumeration checks: {len(enum_rows)} budget points")

    # Transform identities.
    transform_rows = []
    mu, noisy = components["mu_id"], components["noisy_copy_env"]
    env_pairs = [
        ("mu_id+uniform_policy", mu, uniform_policy()),
        ("uniform_env+uniform_policy", components["uniform_env"], uniform_policy()),
        ("noisy_copy+uniform_policy", noisy, uniform_policy()),
        ("mu_id+constant_policy", mu, constant_policy(1)),
    ]
    for name, nu, pi in env_pairs:
        mismatches, skipped = check_env_dual_roundtrip(nu, pi, tdepth)
        failures += len(mismatches)
        transform_rows.append(("env_dual_roundtrip", name, tdepth, len(mismatches), skipped))
    for name, nu in (("mu_id", mu), ("noisy_copy", noisy)):
        mismatches, skipped = check_representation_roundtrip(nu, None, tdepth)
        failures += len(mismatches)
        transform_rows.append(("representation_roundtrip", name, tdepth, len(mismatches), skipped))
    joints = [mdef for mdef in mixtures.values() if mdef.joint is not None]
    for mdef in joints:
        violations, skipped = check_normalization_dominance(mdef.joint, tdepth)
        failures += len(violations)
        transform_rows.append(
            ("normalization_dominance", mdef.name, tdepth, len(violations), skipped)
        )
    tables["transform_checks.csv"] = (
        ("check", "subject", "depth", "mismatches", "skipped"),
        transform_rows,
    )
    lines.append(f"transform identities: {len(transform_rows)} suites")

    # Factoring: the identities hold exactly under the factored prior of each
    # pair, and the diagonal grid breaks them with a witness.
    pairs = pair_scenarios()
    runs = [(name, pair, None) for name, pair in pairs.items()]
    fact_rows, witnesses = [], []
    for pname, pair, grid in [*runs, ("hetero_pair", pairs["hetero_pair"], _DIAGONAL_GRID)]:
        report = factoring_check(
            pair.envs, pair.env_weights, pair.policies, pair.policy_weights, tdepth, grid
        )
        if grid is None:
            ok, verdict = report.ok, "ok" if report.ok else "VIOLATION"
        else:  # the counterexample must produce a witness
            ok = bool(report.env_mismatches)
            verdict = f"witness={report.env_mismatches[0].witness}" if ok else "MISSING-WITNESS"
            witnesses = [
                (row.witness, frac_str(row.lhs), frac_str(row.rhs), row.verdict)
                for row in report.env_rows
            ]
        failures += 0 if ok else 1
        fact_rows.append(
            (
                pname,
                "factored" if grid is None else "non_factored",
                len(report.joint_rows),
                len(report.joint_mismatches),
                len(report.env_rows),
                len(report.env_mismatches),
                verdict,
            )
        )
    tables["factoring_checks.csv"] = (
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
    tables["factoring_witnesses.csv"] = (("witness", "lhs", "rhs", "verdict"), witnesses)
    exact = "exact" if all(row[-1] == "ok" for row in fact_rows[:-1]) else "VIOLATED"
    witnessed = "MISSING" if fact_rows[-1][-1] == "MISSING-WITNESS" else "witnessed"
    lines.append(f"factoring: identities {exact} for factored priors; counterexample {witnessed}")

    # Predictive/posterior consistency for every joint scenario mixture.
    cons_rows = []
    for mdef in joints:
        mismatches = check_predictive_consistency(mdef.joint, cdepth)
        failures += len(mismatches)
        cons_rows.append((mdef.name, cdepth, len(mismatches)))
    tables["consistency_checks.csv"] = (("mixture", "depth", "mismatches"), cons_rows)
    mismatched = sum(row[-1] for row in cons_rows)
    agreement = f"{mismatched} MISMATCHES" if mismatched else "exact agreement"
    lines.append(f"predictive vs posterior-weighted conditionals: {agreement}")

    lines.append(f"total failures: {failures}")
    return ScenarioOutcome(lines, tables, failures)


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
    tables: dict[str, Table] = {"trace_finite.csv": (_TRACE_HEADER, _trace_rows(trace))}

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
        drop_step = next((step.t for step in trace.steps if step.cumulative < threshold), None)
        lines.append(f"  first step below {frac_str(threshold)}: {drop_step}")

    # The same drop under program-enumeration approximations of growing class.
    enum_steps = cfg.budget("machine_steps")
    max_len = 16
    for bits in (3, 6, 9):
        if bits > cfg.budget("program_bits"):
            continue
        approx = enumerate_joint(bits, enum_steps, max_len=max_len)
        enum_trace = greedy_antipredict(approx, min(steps, max_len // 2))
        tables[f"trace_enum_L{bits}.csv"] = (_TRACE_HEADER, _trace_rows(enum_trace))
        lines.append(
            f"enumeration L={bits}, S={enum_steps}: {len(enum_trace.steps)} steps, "
            f"truncated={enum_trace.truncated}, final={frac_str(enum_trace.final_product)}"
        )
    if failures:
        lines.append(f"telescoping products FAILED at {failures} of {len(trace.steps)} steps")
    else:
        lines.append("drop persists as the program class grows; products recorded exactly")
    return ScenarioOutcome(lines, tables, failures)


# ---------------------------------------------------------------------------
# thm8_gap
# ---------------------------------------------------------------------------


def load_derived(name: str) -> dict:
    path = _DERIVED_DIR / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"missing derived artifact {path}; run scripts/derive_expected.py")
    return json.loads(path.read_text())


def gap_rows(mdef: MixtureDef, steps: int) -> tuple[Any, list[tuple]]:
    """The greedy anti-prediction trace of ``mdef``'s joint mixture for ``steps``
    moves, and a row per step: (step, the chronological mixture's value of the
    played copy pair, the ratio of that value to the joint view's product)."""
    assert mdef.joint is not None and mdef.chron is not None
    trace = greedy_antipredict(mdef.joint, steps)
    played = [trace.actions[: step.t] for step in trace.steps]
    env_sides = [mdef.chron.eval(actions, actions) for actions in played]
    return trace, [(s, v, v / s.cumulative) for s, v in zip(trace.steps, env_sides)]


def gap_entry(step: Any, env_side: Fraction, ratio: Fraction) -> dict:
    """A gap row's committed form: one entry of the derived thm8 trace."""
    keys = ("conditional", "joint_view_product", "env_view_value", "ratio")
    exact = (step.conditional, step.cumulative, env_side, ratio)
    return {"t": step.t, "action": step.action, **dict(zip(keys, map(frac_str, exact)))}


def _scenario_thm8(cfg: ScenarioConfig) -> ScenarioOutcome:
    derived = load_derived("thm8_gap")
    w_id = prob(derived["w_id"])
    recorded_T = int(derived["T"])
    budget = cfg.budget("trace_steps")
    steps = max(budget, recorded_T)
    lines: list[str] = []
    if steps != budget:
        lines.append(f"trace_steps {budget} raised to the recorded T = {recorded_T}")

    trace, gap = gap_rows(scenario_mixtures()["adversary_rich"], steps)
    # The chronological mixture keeps the identity environment's full
    # prior weight on every copy sequence: exact lower bound.
    failures = sum(env_side < w_id for _, env_side, _ in gap)
    ratios = [ratio for _, _, ratio in gap]
    ratio_strictly_increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    drop_step = next((step.t for step, _, _ in gap if step.cumulative < w_id), None)
    rows = [
        (*row, frac_str(env_side), *_exact_float(ratio))
        for row, (_, env_side, ratio) in zip(_trace_rows(trace), gap)
    ]
    gap_table = (
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
    held = f"FAILED at {failures} of {len(gap)} steps" if failures else "held at every step"
    lines.append(f"identity-env weight bound w_id = {frac_str(w_id)} {held}")
    lines.append(f"joint-view product first below w_id at step {drop_step} (recorded T = {recorded_T})")
    lines.append(f"ratio env-view/joint-view strictly increasing: {ratio_strictly_increasing}")

    if drop_step is None or drop_step > recorded_T:
        failures += 1
    if not ratio_strictly_increasing:
        failures += 1
    # A shorter run is checked against the committed prefix of its length.
    committed = derived["trace"][:steps]
    if [gap_entry(*row) for row in gap[: len(committed)]] != committed:
        failures += 1
        lines.append("MISMATCH against the committed oracle run")
    else:
        lines.append(f"trace matches the committed oracle run ({len(committed)} steps)")
    return ScenarioOutcome(lines, {"gap_trace.csv": gap_table}, failures)


# ---------------------------------------------------------------------------
# thm10_normalized
# ---------------------------------------------------------------------------


def normalized_traces(mixtures: dict[str, MixtureDef], actions: Sequence[int]) -> tuple:
    """thm10's three copy-conditional traces along ``actions``: of the normalized
    ``copy_vs_uniform`` joint mixture, then of the defective ``halting_contrast``
    one, raw and normalized."""
    contrast = mixtures["halting_contrast"].joint
    predictors = (normalize(mixtures["copy_vs_uniform"].joint), contrast, normalize(contrast))
    return tuple(copy_conditional_trace(xi, actions) for xi in predictors)


def _scenario_thm10(cfg: ScenarioConfig) -> ScenarioOutcome:
    derived = load_derived("thm10_normalized")
    length = cfg.budget("normalized_trace_len")
    actions = tuple(int(c) for c in derived["actions"])[:length]
    lines: list[str] = []
    failures = 0
    if len(actions) != length:
        lines.append(f"normalized_trace_len {length} capped at the {len(actions)} committed actions")

    traces = normalized_traces(scenario_mixtures(), actions)
    names = ("normalized_main.csv", "contrast_unnormalized.csv", "contrast_normalized.csv")
    tables = {name: (_TRACE_HEADER, _trace_rows(t)) for name, t in zip(names, traces)}
    main_trace, raw_trace, hat_trace = traces
    conds = [s.conditional for s in main_trace.steps]
    increasing = all(b > a for a, b in zip(conds, conds[1:]))
    committed = [prob(c) for c in derived["main_conditionals"]][: len(conds)]
    if conds != committed or not increasing:
        failures += 1
    lines.append(
        f"normalized copy_vs_uniform: conditionals strictly increasing={increasing}, "
        f"final={frac_str(conds[-1]) if conds else 'none (empty trace)'}"
    )

    bound = prob(derived["contrast_bound"])
    raw_ok = all(s.conditional < bound for s in raw_trace.steps)
    if not raw_ok:
        failures += 1
    lines.append(
        f"unnormalized defective contrast: every conditional < {frac_str(bound)}: {raw_ok}"
    )

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
    return ScenarioOutcome(lines, tables, failures)


# ---------------------------------------------------------------------------
# thm11_convergence
# ---------------------------------------------------------------------------


def _conditional_stats(
    mixture: JointSemimeasure, env_kind: str, n: int, normalized: bool
) -> tuple[list[Fraction], list[Fraction]]:
    """Per-step (min, max) of the correct-percept conditional over every action
    sequence of length ``n``. It walks them level by level, one mixture step
    per symbol, each distinct state of a level once (one that cannot be hashed
    unmerged): ``extend`` is pure, so equal states have equal subtrees.
    Conditionals are the normalized (or raw) environment-view predictions of
    the percept the deterministic ``env_kind`` environment will emit.
    """
    emits = {"identity": (0, 1), "complement": (1, 0)}[env_kind]  # the percept of each action
    mins, maxs = [], []
    level = [mixture.root()[1]]
    for t in range(n):
        merged, unmerged, conds = {}, [], []  # dicts keep insertion order: a deterministic walk
        for state in level:
            for a in (0, 1):
                pending_mass, pending = mixture.extend(state, a)
                if normalized:
                    kids = [mixture.extend(pending, e) for e in range(mixture.percept_arity)]
                    correct, child = kids[emits[a]]
                    denom, m = sum(m for m, _ in kids), 2 * t + 2
                else:
                    correct, child = mixture.extend(pending, emits[a])
                    denom, m = pending_mass, 2 * t + 1
                conds.append(times_ratio(mixture, ONE, correct, 2 * t + 2, denom, m))
                try:
                    merged[child] = None
                except TypeError:
                    unmerged.append(child)
        mins.append(min(conds))
        maxs.append(max(conds))
        level = [*merged, *unmerged]
    return mins, maxs


def _stats_table(mins: Sequence[Fraction], maxs: Sequence[Fraction]) -> Table:
    """Per-step min and max conditionals, each as an exact and a float column."""
    return (
        ("t", "min_conditional", "min_float", "max_conditional", "max_float"),
        [(t + 1, *_exact_float(mins[t]), *_exact_float(maxs[t])) for t in range(len(mins))],
    )


def convergence_stats(mixtures: dict[str, MixtureDef], n: int) -> list:
    """thm11's two statistics over every action sequence of length ``n``: the
    normalized ``learnable_deterministic`` joint mixture's against the identity
    and complement environments, then the raw ``halting_contrast`` one's against
    the identity environment (see :func:`_conditional_stats`)."""
    main = mixtures["learnable_deterministic"].joint
    contrast = mixtures["halting_contrast"].joint
    assert main is not None and contrast is not None
    (id_mins, id_maxs), (co_mins, co_maxs) = (
        _conditional_stats(main, kind, n, True) for kind in ("identity", "complement")
    )
    return [
        (list(map(min, id_mins, co_mins)), list(map(max, id_maxs, co_maxs))),
        _conditional_stats(contrast, "identity", n, False),
    ]


def _scenario_thm11(cfg: ScenarioConfig) -> ScenarioOutcome:
    derived = load_derived("thm11_convergence")
    n = cfg.budget("sequence_length")
    epsilon = prob(derived["epsilon"])
    t_star = int(derived["t_star"])
    lines: list[str] = []
    failures = 0

    (mins, maxs), (raw_mins, raw_maxs) = convergence_stats(scenario_mixtures(), n)
    tables = {
        "normalized_min_conditionals.csv": _stats_table(mins, maxs),
        "unnormalized_contrast_conditionals.csv": _stats_table(raw_mins, raw_maxs),
    }
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

    contrast_fails = all(raw_maxs[t] <= threshold for t in range(t_star - 1, n))
    if not contrast_fails:
        failures += 1
    lines.append(
        "unnormalized defective contrast misses the same bound at every step "
        f"from {t_star}: {contrast_fails} (normalization is the difference)"
    )
    return ScenarioOutcome(lines, tables, failures)


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
        # One walk per direction reports every depth.
        forward = _domination_reports(joint_view, mdef.chron, depth)
        backward = _domination_reports(mdef.chron, joint_view, depth)
        for d in range(1, depth + 1):
            for direction, report in (
                ("joint_view_over_env_mixture", forward[d]),
                ("env_mixture_over_joint_view", backward[d]),
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
    tables: dict[str, Table] = {}
    tables["domination_sweep.csv"] = (
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
    for grid_name, pair_weights in (("factored", None), ("diagonal", _DIAGONAL_GRID)):
        reports = _ratio_reports(
            hetero.envs,
            hetero.env_weights,
            hetero.policies,
            hetero.policy_weights,
            depth,
            pair_weights,
        )
        for d, probe in enumerate(reports[1:], start=1):
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
    tables["env_view_ratio.csv"] = (
        ("pair_weights", "depth", "max_ratio", "max_ratio_float", "witness", "skipped"),
        probe_rows,
    )
    lines.append("env-of-mixture vs mixture-of-envs ratio recorded per depth")
    return ScenarioOutcome(lines, tables, 0)


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
        # One planner per belief: every history and horizon shares its memo.
        joint_planner, env_planner = _Planner(joint_belief), _Planner(mdef.chron)
        for h in histories:
            one_step = one_step_action(joint_belief, h)
            if one_step != joint_planner.action(h, 1):
                failures += 1  # definitional coincidence at horizon 1
            for m in range(1, horizon + 1):
                joint_choice = joint_planner.action(h, m)
                dual_choice = env_planner.action(h, m)
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
    matrix = (
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
    return ScenarioOutcome(lines, {"decision_matrix.csv": matrix}, failures)


# ---------------------------------------------------------------------------
# Registry and entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioInfo:
    """A scenario's runner and claims, and all it reads: each budget key with
    its default (docs/scenario_format.md), the least value of a key below
    which its checks cannot hold (0 where none is given), the most past which
    its outputs cannot be written (10**6 where none is given), and whether it
    takes a mixture."""

    runner: Callable[[ScenarioConfig], ScenarioOutcome]
    claims: tuple[str, ...]
    description: str
    budgets: dict[str, int]
    reads_mixture: bool = False
    least: dict[str, int] = field(default_factory=dict)
    most: dict[str, int] = field(default_factory=dict)


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
        # The diagonal grid's first witness is an environment context of one
        # step, which a joint depth of 2 reaches.
        least=dict(transform_depth=2),
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
        # From n = 5,526 an exact CSV cell passes Python's 4,300-digit limit
        # for printing an int (docs/machine.md).
        most=dict(sequence_length=4096),
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
    """Execute a scenario, then write its CSVs and summary; return the exit code.

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
    exit_code = 1 if outcome.failures else 0
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    body = [
        f"# generated: {stamp}",
        f"scenario: {cfg.scenario}",
        f"claims: {', '.join(info.claims)}",
        f"description: {info.description}",
        f"seed: {cfg.seed}",
        f"budgets: {json.dumps({k: cfg.budget(k) for k in info.budgets}, sort_keys=True)}",
        *outcome.lines,
        f"files: {', '.join(outcome.tables) or 'none'}",
        f"exit_code: {exit_code}",
    ]
    try:
        # An earlier run into the same directory leaves no CSV this one does not write.
        for path in _stale_csvs(cfg.out_dir, outcome.tables):
            path.unlink(missing_ok=True)
        for name, (header, rows) in outcome.tables.items():
            path = cfg.out_dir / name
            _write_csv(path, header, rows)
        path = cfg.out_dir / "summary.txt"
        path.write_text("\n".join(body) + "\n")
    except OSError as exc:  # e.g. a directory in the way
        raise ConfigError(f"cannot write output file {path}: {exc}")
    return exit_code
