from fractions import Fraction
from itertools import product

import pytest

from uailab import semimeasure
from uailab.core import ComponentFormatError
from uailab.mixture import EnvMixture, JointMixture
from uailab.semimeasure import (
    ActionEchoJoint,
    CheckRow,
    ChronEnv,
    JointSemimeasure,
    MixturePolicy,
    NoisyCopyEnv,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    anticopy_machine,
    check_chronological,
    check_policy,
    check_semimeasure,
    compare,
    complement_env,
    constant_policy,
    copy_machine,
    defective_uniform,
    mu_id,
    table_component,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from uailab.transforms import env

F = Fraction


class RawJoint(JointSemimeasure):
    """Arbitrary eval table for exercising the checker on bad inputs."""

    def __init__(self, table):
        self.table = table

    def eval(self, x):
        return self.table.get(tuple(x), F(0))


class RawEnv(ChronEnv):
    def __init__(self, table):
        self.table = table

    def eval(self, percepts, actions):
        return self.table.get((tuple(percepts), tuple(actions)), F(0))


def test_uniform_measure_checks_with_equality():
    report = check_semimeasure(uniform_measure(), 4)
    assert report.ok
    assert report.strict_rows == 0
    assert report.equal_rows == len(report.rows)
    assert report.declaration_verified is True


def test_defective_component_strict_everywhere():
    # nu(x) = 2^-2l(x): each side evaluated independently below.
    nu = defective_uniform(F(1, 4))
    report = check_semimeasure(nu, 4)
    assert report.ok
    assert report.strict_rows == len(report.rows)
    for x in [(), (0,), (1, 1), (0, 1, 0)]:
        lhs = F(1, 4) ** len(x)
        rhs = sum(F(1, 4) ** (len(x) + 1) for _ in range(2))
        assert nu.eval(x) == lhs and lhs > rhs


def test_checker_reports_violation_at_root():
    bad = RawJoint({(): F(1), (0,): F(7, 10), (1,): F(2, 5)})
    report = check_semimeasure(bad, 1)
    assert not report.ok
    assert report.violations[0].context == ()
    assert report.violations[0].rhs == F(11, 10)


def test_report_fields_but_rows_build_no_check_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a CheckRow was built")

    monkeypatch.setattr(semimeasure, "CheckRow", no_rows)
    bad_env = RawEnv({((), ()): F(1), ((0,), (0,)): F(3, 5), ((1,), (0,)): F(3, 5)})
    reports = [
        check_semimeasure(uniform_measure(), 4),
        check_semimeasure(RawJoint({(): F(1, 4), (0,): F(1, 2)}), 2),  # not monotone
        check_chronological(NoisyCopyEnv(F(3, 4), F(1, 4)), 3),
        check_chronological(bad_env, 1),  # violates the condition
        check_policy(uniform_policy(3), 3),
    ]
    for report in reports:
        report.contexts, report.strict_rows, report.equal_rows
        report.ok, report.declaration_verified, report.monotone_violations
        if report.ok:
            assert report.violations == ()
    with pytest.raises(AssertionError, match="a CheckRow was built"):
        reports[3].violations
    with pytest.raises(AssertionError, match="a CheckRow was built"):
        reports[0].rows
    assert reports[1].monotone_violations == ((0,),)


def test_report_counts_build_no_rows(monkeypatch):
    built, reads = [], []
    init, verdict = CheckRow.__init__, CheckRow.verdict.fget
    monkeypatch.setattr(CheckRow, "__init__", lambda row, *a: built.append(a) or init(row, *a))
    counted = property(lambda row: reads.append(row) or verdict(row))
    monkeypatch.setattr(CheckRow, "verdict", counted)
    bad = RawEnv({((), ()): F(1), ((0,), (0,)): F(3, 5), ((1,), (0,)): F(3, 5)})
    for report in (check_chronological(mu_id(), 2), check_chronological(bad, 1)):
        for _ in range(3):
            report.strict_rows, report.equal_rows, report.ok, report.declaration_verified
        assert built == [] and reads == []  # counts come from the walk's numerators
        assert report.contexts == len(report.rows) == len(built)
        assert report.rows is report.rows  # built once
        assert (report.strict_rows, report.equal_rows, len(report.violations)) == tuple(
            [r.verdict for r in report.rows].count(v) for v in ("strict", "equal", "violation")
        )
        built.clear(), reads.clear()
    assert [r.context for r in report.violations] == [((), (), 0)]


def test_mu_id_chronological_equality_depth_4():
    report = check_chronological(mu_id(), 4)
    assert report.ok
    assert report.strict_rows == 0
    assert report.declaration_verified is True


def test_mu_id_copies_the_action_everywhere():
    env = mu_id()
    assert env.eval((1,), (1,)) == 1
    assert env.eval((1,), (0,)) == 0
    # No history dependence: the same conditional after any prefix.
    for prefix_a, prefix_e in [((0,), (0,)), ((1, 0), (1, 0))]:
        assert env.eval(prefix_e + (1,), prefix_a + (1,)) == env.eval(prefix_e, prefix_a)


def test_chronological_checker_flags_oversum():
    bad = RawEnv(
        {
            ((), ()): F(1),
            ((0,), (0,)): F(3, 5),
            ((1,), (0,)): F(3, 5),
        }
    )
    report = check_chronological(bad, 1)
    assert not report.ok
    assert any(r.context == ((), (), 0) and r.rhs == F(6, 5) for r in report.violations)


def test_copy_machine_values():
    nu = copy_machine()
    assert nu.eval((1, 1)) == F(1, 2)
    assert nu.eval((1, 0)) == 0
    assert nu.eval((1,)) == F(1, 2)
    assert nu.eval((1, 1, 0, 0)) == F(1, 4)


def test_copy_machine_mass_one_per_consistent_length_class():
    nu = copy_machine()
    for n in range(1, 4):
        total = F(0)
        for odd in product((0, 1), repeat=n):
            x = []
            for sym in odd:
                x.extend((sym, sym))
            total += nu.eval(tuple(x))
        assert total == 1


def test_env_of_positive_joint_passes_chronological():
    from uailab.transforms import env

    report = check_chronological(env(uniform_measure()), 3)
    assert report.ok


def test_markov_table_passes_depth_5():
    rows = {(): (F(1, 2), F(1, 2))}
    for length in range(1, 6):
        for ctx in product((0, 1), repeat=length):
            rows[ctx] = tuple(
                F(3, 4) if s == ctx[-1] else F(1, 4) for s in (0, 1)
            )
    nu = TableJoint(rows, default="uniform", declared_measure=True)
    report = check_semimeasure(nu, 5)
    assert report.ok
    assert report.declaration_verified is True


def test_empty_table_uniform_default_is_uniform_measure():
    nu = TableJoint({}, default="uniform")
    uni = uniform_measure()
    for length in range(4):
        for x in product((0, 1), repeat=length):
            assert nu.eval(x) == uni.eval(x)


def test_table_rejects_oversum_naming_context():
    with pytest.raises(ComponentFormatError) as err:
        TableJoint({(0,): (F(3, 5), F(1, 2))})
    assert "(0,)" in str(err.value)


def test_halt_default_makes_defect_explicit():
    nu = TableJoint({(): (F(1, 2), F(1, 2))}, default="halt")
    assert nu.eval((0,)) == F(1, 2)
    assert nu.eval((0, 1)) == 0
    assert check_semimeasure(nu, 3).ok


def test_table_component_loader_joint_and_env():
    joint = table_component(
        {
            "kind": "joint_table",
            "alphabet": {"actions": 2, "percepts": 2},
            "conditionals": {"": ["1/2", "1/2"], "0": ["3/4", "1/4"]},
            "default_rule": "uniform",
            "declared_measure": True,
        }
    )
    assert joint.eval((0, 0)) == F(3, 8)
    env_c = table_component(
        {
            "kind": "env_table",
            "alphabet": {"actions": 2, "percepts": 2},
            "conditionals": {"|1": ["0", "1"]},
            "default_rule": "halt",
        }
    )
    assert env_c.eval((1,), (1,)) == 1
    assert env_c.eval((0,), (1,)) == 0
    with pytest.raises(ComponentFormatError):
        table_component({"kind": "mystery"})


def test_builtin_declarations_verified_to_depth_6():
    from uailab.experiments import builtin_components

    for name, component in builtin_components().items():
        if isinstance(component, JointSemimeasure):
            report = check_semimeasure(component, 6)
        else:
            report = check_chronological(component, 6)
        assert report.ok, name
        assert report.declaration_verified is True, name
        assert report.root_mass <= 1


def test_monotonicity_checked_independently():
    bad = RawJoint({(): F(1, 4), (0,): F(1, 2)})
    report = check_semimeasure(bad, 0)
    assert (0,) in report.monotone_violations


def test_policies_satisfy_swapped_chronological_condition():
    for pi in (
        uniform_policy(),
        constant_policy(1),
        MixturePolicy((uniform_policy(), constant_policy(0)), (F(1, 2), F(1, 2))),
    ):
        report = check_policy(pi, 3)
        assert report.ok, pi


def test_echo_like_components_match_and_mismatch():
    assert anticopy_machine().eval((1, 0)) == F(1, 2)
    assert anticopy_machine().eval((1, 1)) == 0
    noisy = ActionEchoJoint(F(3, 4), F(1, 4))
    assert noisy.eval((1, 1)) == F(3, 8)
    assert noisy.eval((1, 0)) == F(1, 8)
    assert complement_env().eval((0, 1), (1, 0)) == 1
    assert NoisyCopyEnv(F(3, 4), F(1, 4)).eval((1,), (1,)) == F(3, 4)


def test_table_env_context_shape_enforced():
    with pytest.raises(ComponentFormatError):
        TableEnv({((0,), (0,)): (F(1, 2), F(1, 2))})  # needs one more action


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: TableJoint({(2,): (F(1, 2), F(1, 2))}), "(2,)"),
        (lambda: TableJoint({(0, 1): (1, 0)}, percept_arity=1), "(0, 1)"),
        (lambda: TableJoint({(0, -1): (1, 0)}), "(0, -1)"),
        (lambda: TableEnv({((), (2,)): (1, 0)}), "((), (2,))"),
        (lambda: TableEnv({((3,), (0, 1)): (1, 0)}), "((3,), (0, 1))"),
        (lambda: TableEnv({((0,), (1, 2)): (1, 0, 0)}, percept_arity=3), "((0,), (1, 2))"),
    ],
)
def test_table_context_outside_the_alphabet_rejected(build, named):
    with pytest.raises(ComponentFormatError, match="outside the alphabet") as err:
        build()
    assert named in str(err.value)
    # The same symbols inside a larger alphabet are accepted.
    assert TableJoint({(2,): (1,)}, "uniform", 3, 1).eval((2, 0)) == F(1, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StationaryPolicy((F(-1, 2), F(3, 2))),
        lambda: StationaryPolicy((F(3, 4), F(1, 2))),
        lambda: MixturePolicy((), ()),
        lambda: MixturePolicy((uniform_policy(),), ()),
        lambda: MixturePolicy((uniform_policy(),), (F(0),)),
    ],
    ids=["negative_mass", "oversum", "empty_mixture", "weight_count", "zero_weight"],
)
def test_bad_policies_are_rejected_at_construction(build):
    with pytest.raises(ComponentFormatError):
        build()


def test_point_queries_reject_symbols_outside_the_alphabet():
    """-1 and the arity at an action and at a percept position: never Python's
    negative indexing, never a bare IndexError."""
    mixture = JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])
    joints = [uniform_measure(), TableJoint({(): (F(1, 2), F(1, 4))}, "uniform"), mixture]
    envs = [
        mu_id(),
        TableEnv({}, "uniform"),
        EnvMixture([mu_id(), uniform_env()], [F(1, 2), F(1, 2)]),
        env(mixture),
    ]
    for nu in joints:
        for bad in (-1, 2):
            for x, position in (((bad,), 0), ((0, 1, 1, bad), 3)):
                with pytest.raises(ComponentFormatError, match="outside the alphabet") as err:
                    nu.eval(x)
                assert f"context {x!r}" in str(err.value)
                assert f"position {position}" in str(err.value)
    for nu in envs:
        for bad in (-1, 2):
            for context, position in ((((0, bad), (0, 0)), 3), (((0, 0), (bad, 0)), 0)):
                with pytest.raises(ComponentFormatError, match="outside the alphabet") as err:
                    nu.eval(*context)
                assert f"context {context!r}" in str(err.value)
                assert f"position {position}" in str(err.value)


def test_negative_depth_is_rejected():
    for check, args in (
        (check_semimeasure, (copy_machine(), -1)),
        (check_chronological, (mu_id(), -1)),
        (compare, (mu_id(), mu_id(), -1)),
        (check_policy, (uniform_policy(), -1)),
    ):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            check(*args)
    assert check_policy(uniform_policy(), 0).contexts == 0
