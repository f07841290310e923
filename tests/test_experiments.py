import csv
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uailab import experiments
from uailab.adversary import AdversaryTrace
from uailab.agents import expectimax_action
from uailab.core import ComponentFormatError
from uailab.experiments import (
    SCENARIOS,
    SCHEMA_VERSION,
    ConfigError,
    ScenarioConfig,
    ScenarioInfo,
    ScenarioOutcome,
    builtin_components,
    config_from_dict,
    load_derived,
    mixture_from_dict,
    run_scenario,
    scenario_mixtures,
    validate_config_dict,
)

F = Fraction

# Every budget key some scenario declares; a config may give any of them to any scenario.
BUDGET_KEYS = sorted({key for info in SCENARIOS.values() for key in info.budgets})
# Small enough for every scenario to run in a moment.
SMALL = {"depth": 2, "transform_depth": 2, "consistency_depth": 1, "probe_depth": 1}
SMALL.update(horizon=1, sequence_length=4, normalized_trace_len=2, trace_steps=2)


def run_cli(*args, **kwargs):
    # The child imports the uailab this process imported, installed or not.
    src = str(Path(experiments.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "uailab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def summary_body(out_dir: Path) -> str:
    # Everything after the timestamped header line is the deterministic region.
    lines = (out_dir / "summary.txt").read_text().splitlines()
    assert lines[0].startswith("# generated:")
    return "\n".join(lines[1:])


def test_scenarios_cover_required_catalog():
    covered = {label for info in SCENARIOS.values() for label in info.claims}
    required = (
        {f"Theorem {n}" for n in (6, 7, 8, 10, 11)}
        | {f"Eq. {n}" for n in range(1, 12)}
        | {"Conjecture 9"}
    )
    missing = required - covered
    assert not missing, missing


def test_every_summary_names_its_claims(tmp_path):
    cfg = ScenarioConfig("thm10_normalized", tmp_path)
    assert run_scenario(cfg) == 0
    body = summary_body(tmp_path)
    assert "claims: Theorem 10, Eq. 11" in body


def test_unknown_scenario_lists_available(tmp_path):
    with pytest.raises(ConfigError) as err:
        run_scenario(ScenarioConfig("mystery", tmp_path))
    for name in SCENARIOS:
        assert name in str(err.value)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_scenario_builds_the_shipped_mixtures_once(tmp_path, monkeypatch, scenario):
    calls = []
    build = experiments.scenario_mixtures
    monkeypatch.setattr(experiments, "scenario_mixtures", lambda: calls.append(1) or build())
    run_scenario(ScenarioConfig(scenario, tmp_path, budgets=SMALL))
    assert len(calls) == 1


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_scenario_reads_the_budgets_it_declares(tmp_path, monkeypatch, scenario):
    asked = set()
    real = ScenarioConfig.budget
    monkeypatch.setattr(ScenarioConfig, "budget", lambda cfg, k: asked.add(k) or real(cfg, k))
    SCENARIOS[scenario].runner(ScenarioConfig(scenario, tmp_path, budgets=SMALL))
    assert asked == set(SCENARIOS[scenario].budgets)


def test_a_new_scenario_and_its_budget_disturb_no_other(tmp_path, monkeypatch):
    shipped = sorted(SCENARIOS)

    def shipped_outputs(out: Path, budgets: dict) -> dict[str, str | bytes]:
        outputs = {}
        for scenario in shipped:
            assert run_scenario(ScenarioConfig(scenario, out / scenario, budgets=budgets)) == 0
            outputs[scenario] = summary_body(out / scenario)
            for path in sorted((out / scenario).glob("*.csv")):
                outputs[f"{scenario}/{path.name}"] = path.read_bytes()
        return outputs

    before = shipped_outputs(tmp_path / "before", {})

    def runner(cfg):
        key = cfg.budget("throwaway_key")
        return ScenarioOutcome([f"read {key}"], {"throwaway.csv": (("key",), [(key,)])}, 0)

    throwaway = ScenarioInfo(
        runner,
        ("Eq. 1",),
        "a scenario with a budget key of its own",
        {"throwaway_key": 3},
    )
    monkeypatch.setitem(SCENARIOS, "throwaway", throwaway)
    assert shipped_outputs(tmp_path / "after", {"throwaway_key": 5}) == before
    assert run_scenario(ScenarioConfig("throwaway", tmp_path / "new")) == 0
    body = summary_body(tmp_path / "new")
    assert 'budgets: {"throwaway_key": 3}' in body and "read 3" in body
    assert (tmp_path / "new" / "throwaway.csv").read_bytes() == b"key\r\n3\r\n"


ENV_MIXTURE = {"components": [{"builtin": "mu_id"}], "weights": ["1"]}


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dict(scenario="thm8_gap", mixture=ENV_MIXTURE), "only thm7_drop reads one"),
        (dict(scenario="thm7_drop", mixture=ENV_MIXTURE), "thm7_drop needs a joint mixture"),
        (dict(scenario="thm8_gap", budgets={"trace_steps": -1}), "budgets/trace_steps"),
    ],
)
def test_run_scenario_checks_a_config_built_in_python(tmp_path, cfg, message):
    # The rules of validate_config_dict hold without config_from_dict too.
    with pytest.raises(ConfigError, match=message):
        run_scenario(ScenarioConfig(out_dir=tmp_path / "out", **cfg))
    assert not (tmp_path / "out").exists()


def test_cli_list_names_all_scenarios():
    result = run_cli("list")
    assert result.returncode == 0
    for name, info in SCENARIOS.items():
        assert name in result.stdout
        marks = {key: f" (>= {low})" for key, low in info.least.items()}
        marks.update({key: f" (<= {high})" for key, high in info.most.items()})
        budgets = ", ".join(f"{key}={value}{marks.get(key, '')}" for key, value in info.budgets.items())
        assert f"{'':20s} budgets: {budgets}\n" in result.stdout
    assert "transform_depth=5 (>= 2)" in result.stdout
    assert "sequence_length=10 (<= 4096)" in result.stdout


def test_cli_unknown_scenario_exit_2(tmp_path):
    result = run_cli("run", "mystery", "--out", str(tmp_path / "x"))
    assert result.returncode == 2
    assert "sanity_checks" in result.stderr


def test_cli_check_validates_configs(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": "thm7_drop",
                "budgets": {"trace_steps": 5, "program_bits": 6},
            }
        )
    )
    assert run_cli("check", "--config", str(good)).returncode == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "scenario": "thm7_drop"}))
    result = run_cli("check", "--config", str(bad))
    assert result.returncode == 2
    assert "schema_version" in result.stderr

    ugly = tmp_path / "ugly.json"
    ugly.write_text(json.dumps({"schema_version": 1, "scenario": "thm7_drop", "bogus": 1}))
    assert run_cli("check", "--config", str(ugly)).returncode == 2

    missing = run_cli("check", "--config", str(tmp_path / "absent.json"))
    assert missing.returncode == 2


def test_validate_config_reports_paths():
    errors = validate_config_dict(
        {"schema_version": 1, "scenario": "thm7_drop", "budgets": {"depth": -2}}
    )
    assert any("budgets/depth" in e for e in errors)
    assert validate_config_dict({"schema_version": 1, "scenario": "nope"})


def test_config_defaults_and_overrides():
    cfg = config_from_dict(
        {
            "schema_version": 1,
            "scenario": "thm7_drop",
            "budgets": {"trace_steps": 7},
        },
        out_dir="somewhere",
    )
    assert cfg.budget("trace_steps") == 7
    assert cfg.budget("program_bits") == SCENARIOS["thm7_drop"].budgets["program_bits"]
    with pytest.raises(KeyError):
        cfg.budget("depth")  # a key thm7_drop does not read has no default there
    # Without out_dir each scenario writes to a directory of its own.
    cfg = config_from_dict({"schema_version": 1, "scenario": "thm8_gap"})
    assert cfg.out_dir == Path("uailab_runs") / "thm8_gap"
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "scenario": "thm7_drop", "jobs": 0})


def test_trace_csv_has_contracted_columns(tmp_path):
    cfg = ScenarioConfig(
        "thm7_drop", tmp_path, budgets={"trace_steps": 4, "program_bits": 6}
    )
    assert run_scenario(cfg) == 0
    header = (tmp_path / "trace_finite.csv").read_text().splitlines()[0]
    assert header == (
        "t,action,conditional,cumulative_product_exact_as_fraction,"
        "cumulative_product_float"
    )
    row = (tmp_path / "trace_finite.csv").read_text().splitlines()[1].split(",")
    assert "/" in row[2] and "/" in row[3]  # exact fractions, re-checkable
    float(row[4])  # labeled float column parses as a float


def test_thm7_emits_enumeration_sweep(tmp_path):
    cfg = ScenarioConfig(
        "thm7_drop", tmp_path, budgets={"trace_steps": 4, "program_bits": 9}
    )
    assert run_scenario(cfg) == 0
    for bits in (3, 6, 9):
        assert (tmp_path / f"trace_enum_L{bits}.csv").exists()


def test_determinism_two_runs_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_scenario(ScenarioConfig("thm10_normalized", out)) == 0
    csvs_a = sorted(p.name for p in out_a.glob("*.csv"))
    assert csvs_a == sorted(p.name for p in out_b.glob("*.csv"))
    for name in csvs_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert summary_body(out_a) == summary_body(out_b)


def test_custom_mixture_config_for_thm7(tmp_path):
    definition = {
        "name": "custom_pair",
        "components": [
            {"builtin": "copy_machine"},
            {
                "kind": "joint_table",
                "alphabet": {"actions": 2, "percepts": 2},
                "conditionals": {"": ["1/2", "1/2"]},
                "default_rule": "uniform",
                "declared_measure": True,
            },
        ],
        "weights": ["1/2", "1/2"],
    }
    cfg = ScenarioConfig(
        "thm7_drop", tmp_path, budgets={"trace_steps": 3, "program_bits": 3},
        mixture=definition,
    )
    assert run_scenario(cfg) == 0
    assert "custom_pair" in summary_body(tmp_path)


def test_mixture_from_dict_rejects_mixed_kinds():
    with pytest.raises(ComponentFormatError, match="all-joint or all-environment"):
        mixture_from_dict(
            {
                "components": [{"builtin": "copy_machine"}, {"builtin": "mu_id"}],
                "weights": ["1/2", "1/2"],
            }
        )
    with pytest.raises(ComponentFormatError, match="unknown builtin 'nope'"):
        mixture_from_dict({"components": [{"builtin": "nope"}], "weights": ["1"]})


def test_derived_artifacts_present_and_consistent():
    thm8 = load_derived("thm8_gap")
    assert thm8["w_id"] == "1/2"
    assert int(thm8["T"]) <= 30
    thm11 = load_derived("thm11_convergence")
    assert int(thm11["t_star"]) <= 10
    assert F(thm11["epsilon"]) > 0


def test_scenario_mixture_registry_views_align():
    # Where a mixture carries both views, the env view of each joint
    # component with the uniform filler is the paired environment.
    mixtures = scenario_mixtures()
    assert set(mixtures) == {
        "copy_vs_uniform",
        "adversary_rich",
        "learnable_deterministic",
        "halting_contrast",
    }
    cu = mixtures["copy_vs_uniform"]
    assert cu.joint is not None and cu.chron is not None
    from uailab.transforms import chron_to_joint

    rebuilt = chron_to_joint(cu.chron.components[0], None)
    for x in [(1, 1), (0, 1), (1, 1, 0, 0)]:
        assert rebuilt.eval(x) == cu.joint.components[0].eval(x)


THREE_ACTIONS_TWO_PERCEPTS = {
    "kind": "joint_table",
    "alphabet": {"actions": 3, "percepts": 2},
    "conditionals": {},
    "default_rule": "uniform",
}
BAD_MIXTURES = {
    "unparsable_weight": {"components": [{"builtin": "copy_machine"}], "weights": ["abc"]},
    "missing_weights": {"components": [{"builtin": "copy_machine"}]},
    "zero_denominator": {"components": [{"builtin": "copy_machine"}], "weights": ["1/0"]},
    "builtin_not_a_string": {"components": [{"builtin": ["copy_machine"]}], "weights": ["1"]},
    # thm7_drop plays its adversary against a joint mixture only
    "all_environment": {"components": [{"builtin": "mu_id"}], "weights": ["1"]},
    # ... whose every action has a copy percept
    "more_actions_than_percepts": {"components": [THREE_ACTIONS_TWO_PERCEPTS], "weights": ["1"]},
    # the mixture's own shape
    "not_an_object": ["copy_machine"],
    "components_not_an_array": {"components": "x", "weights": ["1"]},
    "component_not_an_object": {"components": ["copy_machine"], "weights": ["1"]},
    "weights_not_an_array": {"components": [{"builtin": "copy_machine"}], "weights": "1"},
    "weight_a_float": {"components": [{"builtin": "copy_machine"}], "weights": [1.0]},
    "name_not_a_string": {"name": 5, "components": [{"builtin": "copy_machine"}], "weights": ["1"]},
    "unknown_key": {"nmae": "typo", "components": [{"builtin": "copy_machine"}], "weights": ["1"]},
}
# What mixture_from_dict itself refuses, and the words that say why
MALFORMED_MIXTURES = {
    "not_an_object": "mixture needs components and weights arrays",
    "missing_weights": "mixture needs components and weights arrays",
    "components_not_an_array": "mixture needs components and weights arrays",
    "weights_not_an_array": "mixture needs components and weights arrays",
    "component_not_an_object": "mixture component must be an object, got 'copy_machine'",
    "weight_a_float": "floats are not exact",
    "name_not_a_string": "mixture name must be a string, got 5",
    "unknown_key": "mixture has unknown key 'nmae'",
    "builtin_not_a_string": "unknown builtin \\['copy_machine'\\]",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MIXTURES))
def test_mixture_from_dict_refuses_malformed_input(case):
    with pytest.raises(ComponentFormatError, match=MALFORMED_MIXTURES[case]):
        mixture_from_dict(BAD_MIXTURES[case])


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("case", sorted(BAD_MIXTURES))
def test_bad_mixture_input_exits_2_without_traceback(tmp_path, case, command):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": "thm7_drop",
                "budgets": {"trace_steps": 2, "program_bits": 0},
                "mixture": BAD_MIXTURES[case],
            }
        )
    )
    if command == "check":
        result = run_cli("check", "--config", str(config))
    else:
        result = run_cli("run", "thm7_drop", "--config", str(config), "--out", str(tmp_path / "o"))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "mixture" in result.stderr


def _cli_exit_and_stderr(capsys, command, config, out, scenario="thm7_drop"):
    from uailab import cli

    if command == "check":
        code = cli.main(["check", "--config", str(config)])
    else:
        code = cli.main(["run", scenario, "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
def test_mixture_for_a_scenario_that_reads_none_exits_2(tmp_path, capsys, command):
    # thm8_gap reads no mixture: a run would ignore it without a word.
    mixture = {"components": [{"builtin": "copy_machine"}], "weights": ["1"]}
    raw = {"schema_version": SCHEMA_VERSION, "scenario": "thm8_gap", "mixture": mixture}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code, err = _cli_exit_and_stderr(capsys, command, config, tmp_path / "o", "thm8_gap")
    assert (code, err) == (2, "config error: mixture: only thm7_drop reads one, not thm8_gap\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("value", [[], 3, "x"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(value))
    code, err = _cli_exit_and_stderr(capsys, command, config, tmp_path / "o")
    assert code == 2
    assert err == f"config error: <root>: {value!r} is not of type 'object'\n"


# Where the config wants an integer, a JSON float or boolean is refused,
# however integral: `2.0` once passed `check` and then crashed `run`.
NOT_INTEGERS = [
    *((f"budgets/{key}", value) for key in BUDGET_KEYS for value in (2.0, True)),
    *((key, value) for key in ("jobs", "seed") for value in (2.0, True)),
    *(("schema_version", value) for value in (1.0, True)),
]


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("path, value", NOT_INTEGERS)
def test_float_or_bool_for_an_integer_exits_2_naming_it(tmp_path, capsys, command, path, value):
    raw = {"schema_version": SCHEMA_VERSION, "scenario": "thm7_drop"}
    budget = path.removeprefix("budgets/")
    raw.update({"budgets": {budget: value}} if budget != path else {path: value})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code, err = _cli_exit_and_stderr(capsys, command, config, tmp_path / "o")
    assert code == 2
    assert err.startswith(f"config error: {path}: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, content):
    config = tmp_path
    if content is not None:
        config = tmp_path / "config.json"
        config.write_bytes(content)
    code, err = _cli_exit_and_stderr(capsys, command, config, tmp_path / "o")
    assert code == 2
    assert err.startswith(f"config error: cannot read config file {config}: ")


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
def test_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, below):
    (tmp_path / "f").write_text("")
    out = tmp_path / "f" / "o" if below else tmp_path / "f"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "scenario": "thm7_drop"}))
    code, err = _cli_exit_and_stderr(capsys, "run", config, out)
    assert code == 2
    assert err.startswith(f"config error: cannot create output directory {out}: ")


@pytest.mark.parametrize(
    "scenario, name", [("agents_compare", "decision_matrix.csv"), ("thm10_normalized", "summary.txt")]
)
def test_out_file_that_cannot_be_written_exits_2(tmp_path, capsys, scenario, name):
    from uailab import cli

    (tmp_path / name).mkdir()
    assert cli.main(["run", scenario, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output file {tmp_path / name}: ")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_summary_names_the_csvs_the_run_wrote(tmp_path, monkeypatch, scenario):
    from uailab import cli

    written = []
    write = experiments._write_csv
    record = lambda path, *rest: written.append(path.name) or write(path, *rest)  # noqa: E731
    monkeypatch.setattr(experiments, "_write_csv", record)
    out = tmp_path / "out"
    assert cli.main(["run", scenario, "--out", str(out)]) == 0
    files = [line for line in summary_body(out).splitlines() if line.startswith("files:")]
    assert written and files == [f"files: {', '.join(written)}"]  # in write order
    assert sorted(written) == sorted(p.name for p in out.iterdir() if p.name != "summary.txt")


def test_a_rerun_removes_the_csvs_only_the_earlier_run_wrote(tmp_path):
    # thm7_drop writes one trace_enum CSV per program length it sweeps: at
    # default budgets 3, 6 and 9 bits, at program_bits 3 only 3. A file the
    # earlier summary does not name stays, and so does one it names that
    # is not a plain CSV name in the directory.
    out = tmp_path / "out"
    assert run_scenario(ScenarioConfig("thm7_drop", out)) == 0
    first = sorted(p.name for p in out.glob("*.csv"))
    assert {"trace_enum_L6.csv", "trace_enum_L9.csv"} <= set(first)
    (out / "notes.csv").write_text("mine\n")
    assert run_scenario(ScenarioConfig("thm7_drop", out, budgets={"program_bits": 3})) == 0
    files = [line for line in summary_body(out).splitlines() if line.startswith("files:")]
    written = files[0][len("files: ") :].split(", ")
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(written + ["notes.csv"])
    assert "trace_enum_L3.csv" in written and "trace_enum_L6.csv" not in written
    # a hand-edited files: line names a file outside the directory, and one
    # that is no CSV: neither is removed
    (tmp_path / "outside.csv").write_text("keep\n")
    summary = out / "summary.txt"
    summary.write_text(summary.read_text().replace("files: ", "files: ../outside.csv, summary.txt, "))
    assert run_scenario(ScenarioConfig("thm7_drop", out, budgets={"program_bits": 3})) == 0
    assert (tmp_path / "outside.csv").read_text() == "keep\n" and (out / "notes.csv").exists()


def test_a_runner_that_raises_leaves_no_csv(tmp_path, monkeypatch):
    def fails(*args, **kwargs):
        raise RuntimeError("enumeration failed")

    # sanity_checks enumerates after its component checks have their rows.
    monkeypatch.setattr(experiments, "enumerate_joint", fails)
    with pytest.raises(RuntimeError, match="enumeration failed"):
        run_scenario(ScenarioConfig("sanity_checks", tmp_path, budgets=SMALL))
    assert list(tmp_path.glob("*.csv")) == []


def test_thm10_says_when_it_caps_its_trace_length(tmp_path):
    actions = len(load_derived("thm10_normalized")["actions"])
    cfg = ScenarioConfig("thm10_normalized", tmp_path, budgets={"normalized_trace_len": actions + 4})
    assert run_scenario(cfg) == 0
    line = f"normalized_trace_len {actions + 4} capped at the {actions} committed actions"
    assert line in summary_body(tmp_path).splitlines()
    assert len((tmp_path / "normalized_main.csv").read_text().splitlines()) == 1 + actions
    default = tmp_path / "default"
    assert run_scenario(ScenarioConfig("thm10_normalized", default)) == 0
    assert "capped" not in summary_body(default)


def test_thm8_says_when_it_raises_its_trace_steps(tmp_path):
    recorded_T = int(load_derived("thm8_gap")["T"])
    assert run_scenario(ScenarioConfig("thm8_gap", tmp_path, budgets={"trace_steps": 0})) == 0
    line = f"trace_steps 0 raised to the recorded T = {recorded_T}"
    assert line in summary_body(tmp_path).splitlines()
    assert len((tmp_path / "gap_trace.csv").read_text().splitlines()) == 1 + recorded_T
    default = tmp_path / "default"
    assert run_scenario(ScenarioConfig("thm8_gap", default)) == 0
    assert "raised" not in summary_body(default)


def test_missing_config_keeps_its_message(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    for command in ("check", "run"):
        code, err = _cli_exit_and_stderr(capsys, command, missing, tmp_path / "o")
        assert (code, err) == (2, f"config error: config file not found: {missing}\n")


BAD_TABLE_FIELDS = {
    "conditionals_list": ("conditionals", {"conditionals": ["1"]}),
    "conditionals_row_string": ("conditionals", {"conditionals": {"": "1/2"}}),
    "conditionals_row_numbers": ("conditionals", {"conditionals": {"": [0.5, 0.5]}}),
    "alphabet_list": ("alphabet", {"alphabet": ["2"]}),
    "alphabet_zero": ("alphabet", {"alphabet": {"actions": 0}}),
    "alphabet_string": ("alphabet", {"alphabet": {"percepts": "2"}}),
    "alphabet_typo": ("alphabet has unknown key 'percept'", {"alphabet": {"percept": 3}}),
    "field_typo": (
        "table component has unknown key 'conditional'",
        {"conditional": {"": ["1", "0"]}, "default rule": "uniform"},
    ),
    # a builtin reference holds nothing but its name
    "builtin_with_table_fields": (
        "builtin component entry has unknown key 'kind'",
        {"builtin": "copy_machine"},
    ),
    "default_rule_number": ("default_rule", {"default_rule": 3}),
    "declared_measure_string": ("declared_measure", {"declared_measure": "false"}),
    "declared_measure_number": ("declared_measure", {"declared_measure": 1}),
    "declared_measure_null": ("declared_measure", {"declared_measure": None}),
    # a context outside the alphabet, or with a character that is no digit
    "context_action": ("context (7,) holds", {"conditionals": {"7": ["1/2", "1/2"]}}),
    "context_percept": ("context (0, 2) holds", {"conditionals": {"02": ["1/2", "1/2"]}}),
    "context_letter": ("context (0, 'x') holds", {"conditionals": {"0x": ["1/2", "1/2"]}}),
    # digits outside 0-9: Arabic-Indic and fullwidth one
    "context_arabic_indic": (
        "context ('\u0661',) holds",
        {"conditionals": {"\u0661": ["1", "0"]}},
    ),
    "context_fullwidth": (
        "context (0, '\uff11') holds",
        {"conditionals": {"0\uff11": ["1", "0"]}},
    ),
    "env_context": (
        "context ((5,), (9, 2)) holds",
        {"kind": "env_table", "conditionals": {"5|92": ["1/2", "1/2"]}},
    ),
    "env_context_letter": (
        "context ((), ('a',)) holds",
        {"kind": "env_table", "conditionals": {"|a": ["1/2", "1/2"]}},
    ),
    "env_context_fullwidth": (
        "context ((), ('\uff11',)) holds",
        {"kind": "env_table", "conditionals": {"|\uff11": ["1/2", "1/2"]}},
    ),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("case", sorted(BAD_TABLE_FIELDS))
def test_bad_table_field_exits_2_naming_it(tmp_path, capsys, case, command):
    field, bad = BAD_TABLE_FIELDS[case]
    component = {"kind": "joint_table", "conditionals": {"": ["1/2", "1/2"]}, **bad}
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": "thm7_drop",
                "budgets": {"trace_steps": 2, "program_bits": 0},
                "mixture": {"components": [component], "weights": ["1"]},
            }
        )
    )
    code, err = _cli_exit_and_stderr(capsys, command, config, tmp_path / "o")
    assert code == 2
    assert err.startswith("config error: mixture: ") and field in err


@pytest.mark.parametrize("jobs, accepted", [(0, False), (1, True), (64, True), (65, False)])
def test_jobs_is_range_checked_though_no_scenario_reads_it(jobs, accepted):
    raw = {"schema_version": 1, "scenario": "thm11_convergence", "jobs": jobs}
    errors = validate_config_dict(raw)
    assert errors == ([] if accepted else [f"jobs: {jobs} is not in [1, 64]"])
    if accepted:
        assert config_from_dict(raw).jobs == jobs
    else:
        with pytest.raises(ConfigError):
            config_from_dict(raw)


def test_cli_jobs_flag_overrides_config(tmp_path, monkeypatch):
    from uailab import cli

    seen = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: seen.append(cfg.jobs) or 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "scenario": "thm10_normalized", "jobs": 4}))
    out = ["--config", str(config), "--out", str(tmp_path / "o")]
    assert cli.main(["run", "thm10_normalized", *out, "--jobs", "1"]) == 0
    assert cli.main(["run", "thm10_normalized", *out]) == 0
    assert cli.main(["run", "thm10_normalized", *out, "--jobs", "0"]) == 2
    assert seen == [1, 4]


def test_thm11_names_both_lengths_when_it_skips_the_oracle(tmp_path):
    cfg = ScenarioConfig("thm11_convergence", tmp_path, budgets={"sequence_length": 4})
    assert run_scenario(cfg) == 0
    committed = len(load_derived("thm11_convergence")["min_conditionals"])
    assert (
        f"oracle comparison skipped: sequence_length 4 differs from the committed "
        f"run's length {committed}"
    ) in summary_body(tmp_path)
    default = tmp_path / "default"
    assert run_scenario(ScenarioConfig("thm11_convergence", default)) == 0
    assert "oracle comparison skipped" not in summary_body(default)


def test_sanity_summary_says_what_the_run_found(tmp_path, monkeypatch):
    # With its grid dropped, the counterexample's run has the factored prior: no witness.
    budgets = {"depth": 2, "transform_depth": 2, "consistency_depth": 1}
    mismatch = [(((0,), 1), F(1, 2), F(1, 3))]
    monkeypatch.setattr(experiments, "check_predictive_consistency", lambda *args: mismatch)
    factoring = experiments.factoring_check
    monkeypatch.setattr(experiments, "factoring_check", lambda *args: factoring(*args[:5]))
    assert run_scenario(ScenarioConfig("sanity_checks", tmp_path, budgets=budgets)) == 1
    assert "MISSING-WITNESS" in (tmp_path / "factoring_checks.csv").read_text()
    body = summary_body(tmp_path)
    assert "factoring: identities exact for factored priors; counterexample MISSING" in body
    assert "conditionals: 4 MISMATCHES" in body
    assert "witnessed" not in body and "exact agreement" not in body


@pytest.mark.parametrize("depth", [0, 1])
def test_sanity_refuses_a_transform_depth_below_the_first_witness(tmp_path, depth):
    config = tmp_path / "config.json"
    raw = {"schema_version": 1, "scenario": "sanity_checks", "budgets": {"transform_depth": depth}}
    config.write_text(json.dumps(raw))
    for args in (("check",), ("run", "sanity_checks", "--out", str(tmp_path / "out"))):
        result = run_cli(*args, "--config", str(config))
        assert result.returncode == 2
        assert f"budgets/transform_depth: {depth} is not in [2, " in result.stderr
    assert not (tmp_path / "out").exists()
    # The floor is sanity_checks' own: a budget set that serves every scenario still does.
    assert validate_config_dict({**raw, "scenario": "conj9_search"}) == []


def test_thm11_refuses_a_sequence_length_past_its_ceiling(tmp_path, monkeypatch):
    # Past the ceiling an exact CSV cell could not be printed: refused before any walk.
    ceiling = SCENARIOS["thm11_convergence"].most["sequence_length"]
    budgets = {"sequence_length": ceiling + 1}
    raw = {"schema_version": 1, "scenario": "thm11_convergence", "budgets": budgets}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    message = f"budgets/sequence_length: {ceiling + 1} is not in [0, {ceiling}]"
    for args in (("check",), ("run", "thm11_convergence", "--out", str(tmp_path / "out"))):
        result = run_cli(*args, "--config", str(config))
        assert result.returncode == 2
        assert message in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()
    monkeypatch.setattr(experiments, "_conditional_stats", None)  # a walk would fail
    with pytest.raises(ConfigError, match=message.replace("[", r"\[")):
        run_scenario(ScenarioConfig("thm11_convergence", tmp_path / "out", budgets=budgets))
    assert validate_config_dict({**raw, "budgets": {"sequence_length": ceiling}}) == []
    # The ceiling is thm11's own: a budget set that serves every scenario still does.
    assert validate_config_dict({**raw, "scenario": "conj9_search"}) == []


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_sanity_witnesses_the_counterexample_from_the_least_transform_depth(tmp_path, depth):
    budgets = {"depth": 1, "transform_depth": depth, "consistency_depth": 1, "program_bits": 3}
    assert run_scenario(ScenarioConfig("sanity_checks", tmp_path, budgets=budgets)) == 0
    with (tmp_path / "factoring_checks.csv").open(newline="") as fh:
        rows = [(row[0], row[1], row[-1]) for row in list(csv.reader(fh))[1:]]
    assert rows[:2] == [("factored_pair", "factored", "ok"), ("hetero_pair", "factored", "ok")]
    (pair, prior, verdict), = rows[2:]
    assert (pair, prior) == ("hetero_pair", "non_factored") and verdict.startswith("witness=(")
    assert len((tmp_path / "factoring_witnesses.csv").read_text().splitlines()) > 1


def test_agents_summary_says_what_the_run_found(tmp_path, monkeypatch):
    wrong = lambda belief, h: 1 - expectimax_action(belief, h, 1)  # noqa: E731
    monkeypatch.setattr(experiments, "one_step_action", wrong)
    cfg = ScenarioConfig("agents_compare", tmp_path, budgets={"horizon": 1})
    assert run_scenario(cfg) == 1
    body = summary_body(tmp_path)
    assert "one-step rule equals expectimax at horizon 1 (FAILED at 42 histories)" in body
    assert "(verified)" not in body


def test_thm10_with_an_empty_trace_exits_0(tmp_path, capsys):
    from uailab import cli

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": "thm10_normalized",
                "budgets": {"normalized_trace_len": 0},
            }
        )
    )
    out = tmp_path / "o"
    assert cli.main(["run", "thm10_normalized", "--config", str(config), "--out", str(out)]) == 0
    assert "final=none (empty trace)" in summary_body(out)
    for name in ("normalized_main", "contrast_unnormalized", "contrast_normalized"):
        assert len((out / f"{name}.csv").read_text().splitlines()) == 1  # header only


def test_thm8_short_run_matches_the_committed_prefix(tmp_path):
    cfg = ScenarioConfig("thm8_gap", tmp_path, budgets={"trace_steps": 5})
    assert run_scenario(cfg) == 0
    body = summary_body(tmp_path)
    assert "trace matches the committed oracle run (5 steps)" in body
    assert "MISMATCH" not in body
    assert len((tmp_path / "gap_trace.csv").read_text().splitlines()) == 1 + 5


def test_thm8_trace_that_stops_early_mismatches(tmp_path, monkeypatch):
    real = experiments.greedy_antipredict

    def stops_early(xi, steps):
        return AdversaryTrace(real(xi, steps).steps[:3], truncated=True)

    monkeypatch.setattr(experiments, "greedy_antipredict", stops_early)
    cfg = ScenarioConfig("thm8_gap", tmp_path, budgets={"trace_steps": 5})
    assert run_scenario(cfg) == 1
    assert "MISMATCH against the committed oracle run" in summary_body(tmp_path)


def test_thm8_summary_reports_steps_below_the_weight_bound(tmp_path, monkeypatch):
    real = experiments.load_derived
    monkeypatch.setattr(experiments, "load_derived", lambda name: {**real(name), "w_id": "1"})
    cfg = ScenarioConfig("thm8_gap", tmp_path, budgets={"trace_steps": 5})
    assert run_scenario(cfg) == 1
    body = summary_body(tmp_path)
    assert "identity-env weight bound w_id = 1/1 FAILED at 5 of 5 steps" in body
    assert "held" not in body


def test_thm7_summary_reports_products_the_env_view_disagrees_with(tmp_path, monkeypatch):
    disagrees = SimpleNamespace(eval=lambda percepts, actions: F(-1))
    monkeypatch.setattr(experiments, "env", lambda joint: disagrees)
    cfg = ScenarioConfig("thm7_drop", tmp_path, budgets={"trace_steps": 4})
    assert run_scenario(cfg) == 1
    body = summary_body(tmp_path)
    assert "telescoping products FAILED at 4 of 4 steps" in body
    assert "recorded exactly" not in body


JOINT_TABLE = {
    "kind": "joint_table",
    "conditionals": {"": ["1/2", "1/2"], "0": ["1", "0"]},
    "default_rule": "uniform",
}
MIXTURES = st.fixed_dictionaries(
    {
        "components": st.lists(
            st.sampled_from(sorted(builtin_components())).map(lambda n: {"builtin": n})
            | st.sampled_from([JOINT_TABLE, THREE_ACTIONS_TWO_PERCEPTS]),
            min_size=1,
            max_size=3,
        ),
        "weights": st.lists(
            st.sampled_from(["1/2", "1/3", "1/4", "1", "0", "2", "-1/2", "x"]),
            min_size=1,
            max_size=3,
        ),
    }
)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(SCENARIOS)),
    st.fixed_dictionaries({key: st.integers(0, 3) for key in BUDGET_KEYS}),
    st.none() | MIXTURES,
)
@example(
    "thm7_drop",
    dict.fromkeys(BUDGET_KEYS, 1),
    {"components": [THREE_ACTIONS_TWO_PERCEPTS], "weights": ["1"]},
)
def test_random_configs_exit_0_1_or_2(scenario, budgets, mixture):
    """Every budget is drawn from 0..3: the runs stay short, and zero and
    one-step budgets are the edge cases that have crashed before."""
    from uailab import cli

    raw = {"schema_version": SCHEMA_VERSION, "scenario": scenario, "budgets": budgets}
    if mixture is not None:
        raw["mixture"] = mixture
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        checked = cli.main(["check", "--config", str(config)])
        assert checked in (0, 2)
        out = str(Path(tmp) / "out")
        ran = cli.main(["run", scenario, "--config", str(config), "--out", out])
        assert ran in (0, 1, 2)
        # `check` catches every configuration error that `run` reports
        assert checked == 2 or ran != 2
