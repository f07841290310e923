import json
import multiprocessing
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uailab import experiments
from uailab.adversary import AdversaryTrace
from uailab.experiments import (
    DEFAULT_BUDGETS,
    SCENARIOS,
    SCHEMA_VERSION,
    ConfigError,
    ScenarioConfig,
    _conditional_stats,
    builtin_components,
    claim_map,
    config_from_dict,
    load_derived,
    mixture_from_dict,
    run_scenario,
    scenario_mixtures,
    validate_config_dict,
)

F = Fraction


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "uailab.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def summary_body(out_dir: Path) -> str:
    # Everything after the timestamped header line is the deterministic region.
    lines = (out_dir / "summary.txt").read_text().splitlines()
    assert lines[0].startswith("# generated:")
    return "\n".join(lines[1:])


def test_claim_map_covers_required_catalog():
    covered = {label for labels in claim_map().values() for label in labels}
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


def test_cli_list_names_all_scenarios():
    result = run_cli("list")
    assert result.returncode == 0
    for name in SCENARIOS:
        assert name in result.stdout


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
    assert cfg.budget("depth") == DEFAULT_BUDGETS["depth"]
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
    with pytest.raises(Exception):
        mixture_from_dict(
            {
                "components": [{"builtin": "copy_machine"}, {"builtin": "mu_id"}],
                "weights": ["1/2", "1/2"],
            }
        )
    with pytest.raises(Exception):
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


BAD_MIXTURES = {
    "unparsable_weight": {"components": [{"builtin": "copy_machine"}], "weights": ["abc"]},
    "missing_weights": {"components": [{"builtin": "copy_machine"}]},
    "zero_denominator": {"components": [{"builtin": "copy_machine"}], "weights": ["1/0"]},
    "builtin_not_a_string": {"components": [{"builtin": ["copy_machine"]}], "weights": ["1"]},
}


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


def _cli_exit_and_stderr(capsys, command, config, out):
    from uailab import cli

    if command == "check":
        code = cli.main(["check", "--config", str(config)])
    else:
        code = cli.main(["run", "thm7_drop", "--config", str(config), "--out", str(out)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("value", [[], 3, "x"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(value))
    code, err = _cli_exit_and_stderr(capsys, command, config, tmp_path / "o")
    assert code == 2
    assert err == f"config error: <root>: {value!r} is not of type 'object'\n"


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
    "default_rule_number": ("default_rule", {"default_rule": 3}),
    "declared_measure_string": ("declared_measure", {"declared_measure": "false"}),
    "declared_measure_number": ("declared_measure", {"declared_measure": 1}),
    "declared_measure_null": ("declared_measure", {"declared_measure": None}),
    # a context outside the alphabet, or with a character that is no digit
    "context_action": ("context (7,) holds", {"conditionals": {"7": ["1/2", "1/2"]}}),
    "context_percept": ("context (0, 2) holds", {"conditionals": {"02": ["1/2", "1/2"]}}),
    "context_letter": ("context (0, 'x') holds", {"conditionals": {"0x": ["1/2", "1/2"]}}),
    "env_context": (
        "context ((5,), (9, 2)) holds",
        {"kind": "env_table", "conditionals": {"5|92": ["1/2", "1/2"]}},
    ),
    "env_context_letter": (
        "context ((), ('a',)) holds",
        {"kind": "env_table", "conditionals": {"|a": ["1/2", "1/2"]}},
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
    # At transform depth 1 the non-factored prior has no witness yet.
    budgets = {"depth": 2, "transform_depth": 1, "consistency_depth": 1}
    mismatch = [(((0,), 1), F(1, 2), F(1, 3))]
    monkeypatch.setattr(experiments, "check_predictive_consistency", lambda *args: mismatch)
    assert run_scenario(ScenarioConfig("sanity_checks", tmp_path, budgets=budgets)) == 1
    assert "MISSING-WITNESS" in (tmp_path / "factoring_checks.csv").read_text()
    body = summary_body(tmp_path)
    assert "factoring: identities exact for factored priors; counterexample MISSING" in body
    assert "conditionals: 4 MISMATCHES" in body
    assert "witnessed" not in body and "exact agreement" not in body


def test_agents_summary_says_what_the_run_found(tmp_path, monkeypatch):
    wrong = lambda belief, h: 1 - experiments.expectimax_action(belief, h, 1)  # noqa: E731
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


def test_conditional_stats_under_spawn_equal_one_job():
    mixture = scenario_mixtures()["learnable_deterministic"].joint
    want = _conditional_stats(mixture, ("identity", "complement"), 4, 1, True)
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert multiprocessing.get_start_method() == "spawn"
        got = _conditional_stats(mixture, ("identity", "complement"), 4, 2, True)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert got == want


JOINT_TABLE = {
    "kind": "joint_table",
    "conditionals": {"": ["1/2", "1/2"], "0": ["1", "0"]},
    "default_rule": "uniform",
}
MIXTURES = st.fixed_dictionaries(
    {
        "components": st.lists(
            st.sampled_from(sorted(builtin_components())).map(lambda n: {"builtin": n})
            | st.just(JOINT_TABLE),
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
    st.fixed_dictionaries({key: st.integers(0, 3) for key in DEFAULT_BUDGETS}),
    st.none() | MIXTURES,
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
        assert cli.main(["check", "--config", str(config)]) in (0, 2)
        out = str(Path(tmp) / "out")
        assert cli.main(["run", scenario, "--config", str(config), "--out", out]) in (0, 1, 2)
