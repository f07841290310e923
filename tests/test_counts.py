"""Every count a public call takes follows one rule, :func:`uailab.core.count`.

A depth, horizon, step or bit budget, arity or symbol index is an ``int``
(never a bool, float, string or None) of at least its least value; any other
value is a ``ComponentFormatError`` that names the parameter, and the least
value itself is accepted.
"""
from fractions import Fraction

import pytest

from uailab.adversary import domination_probe, greedy_antipredict
from uailab.agents import (
    brute_force_action,
    dualistic_aixi_action,
    expectimax_action,
    expectimax_value,
    joint_aixi_action,
    policy_value,
)
from uailab.core import EMPTY_HISTORY, ComponentFormatError, History, count
from uailab.mixture import (
    JointMixture,
    check_predictive_consistency,
    harmonic_prior,
    uniform_prior,
)
from uailab.semimeasure import (
    DeterministicPolicy,
    NoisyCopyEnv,
    TableEnv,
    TableJoint,
    check_chronological,
    check_policy,
    check_semimeasure,
    compare,
    constant_policy,
    contexts,
    copy_machine,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
    walk,
)
from uailab.transforms import (
    check_env_dual_roundtrip,
    check_normalization_dominance,
    check_representation_roundtrip,
    env_view_ratio_probe,
    factoring_check,
)
from uailab.utm import PROGRAM_ECHO, ChronEnumApprox, enumerate_chron, enumerate_joint, run_program

F = Fraction
HALVES = [F(1, 2), F(1, 2)]
NOISY = NoisyCopyEnv(F(3, 4), F(1, 4))


def _mixture():
    return JointMixture([copy_machine(), uniform_measure()], uniform_prior(2))


def _walk(depth):
    return walk((True, 2, 2), depth, (1, 0), lambda state, s: (1, state))


# (case id, call of the value, parameter name, least value)
CASES = [
    ("walk.depth", _walk, "depth", 0),
    ("contexts.depth", lambda v: list(contexts(copy_machine(), v)), "depth", 0),
    ("check_semimeasure.depth", lambda v: check_semimeasure(copy_machine(), v), "depth", 0),
    ("check_chronological.depth", lambda v: check_chronological(mu_id(), v), "depth", 0),
    ("check_policy.depth", lambda v: check_policy(uniform_policy(), v), "depth", 0),
    ("compare.depth", lambda v: compare(mu_id(), mu_id(), v), "depth", 0),
    ("domination_probe.depth", lambda v: domination_probe(mu_id(), NOISY, v), "depth", 0),
    (
        "env_view_ratio_probe.depth",
        lambda v: env_view_ratio_probe([mu_id()], [1], [uniform_policy()], [1], v),
        "depth",
        0,
    ),
    (
        "factoring_check.depth",
        lambda v: factoring_check([mu_id(), NOISY], HALVES, [uniform_policy()], [1], v),
        "depth",
        0,
    ),
    (
        "check_env_dual_roundtrip.depth",
        lambda v: check_env_dual_roundtrip(mu_id(), uniform_policy(), v),
        "depth",
        0,
    ),
    (
        "check_representation_roundtrip.depth",
        lambda v: check_representation_roundtrip(NOISY, None, v),
        "depth",
        0,
    ),
    (
        "check_normalization_dominance.depth",
        lambda v: check_normalization_dominance(copy_machine(), v),
        "depth",
        0,
    ),
    (
        "check_predictive_consistency.depth",
        lambda v: check_predictive_consistency(_mixture(), v),
        "depth",
        0,
    ),
    ("greedy_antipredict.steps", lambda v: greedy_antipredict(_mixture(), v), "steps", 0),
    ("policy_value.horizon", lambda v: policy_value(uniform_policy(), NOISY, v), "horizon", 1),
    (
        "expectimax_action.horizon",
        lambda v: expectimax_action(NOISY, EMPTY_HISTORY, v),
        "horizon",
        1,
    ),
    ("expectimax_value.horizon", lambda v: expectimax_value(NOISY, EMPTY_HISTORY, v), "horizon", 1),
    (
        "joint_aixi_action.horizon",
        lambda v: joint_aixi_action(copy_machine(), EMPTY_HISTORY, v),
        "horizon",
        1,
    ),
    (
        "dualistic_aixi_action.horizon",
        lambda v: dualistic_aixi_action(NOISY, EMPTY_HISTORY, v),
        "horizon",
        1,
    ),
    (
        "brute_force_action.horizon",
        lambda v: brute_force_action(NOISY, EMPTY_HISTORY, v),
        "horizon",
        1,
    ),
    ("ChronEnumApprox.program_bits", lambda v: ChronEnumApprox(v, 20), "program_bits", 0),
    ("ChronEnumApprox.steps", lambda v: ChronEnumApprox(3, v), "steps", 0),
    ("enumerate_joint.program_bits", lambda v: enumerate_joint(v, 20, 4), "program_bits", 0),
    ("enumerate_joint.steps", lambda v: enumerate_joint(3, v, 4), "steps", 0),
    ("enumerate_joint.max_len", lambda v: enumerate_joint(3, 20, v), "max_len", 0),
    ("enumerate_chron.program_bits", lambda v: enumerate_chron(v, 20, [1]), "program_bits", 0),
    ("enumerate_chron.steps", lambda v: enumerate_chron(3, v, [1]), "steps", 0),
    ("run_program.max_steps", lambda v: run_program(PROGRAM_ECHO, [1], v), "max_steps", 0),
    ("run_program.max_output", lambda v: run_program(PROGRAM_ECHO, [1], 20, v), "max_output", 0),
    (
        "DeterministicPolicy.action_arity",
        lambda v: DeterministicPolicy(lambda h: 0, v),
        "action_arity",
        1,
    ),
    ("TableJoint.action_arity", lambda v: TableJoint({}, "halt", v, 2), "action_arity", 1),
    ("TableJoint.percept_arity", lambda v: TableJoint({}, "uniform", 2, v), "percept_arity", 1),
    ("TableEnv.action_arity", lambda v: TableEnv({}, "uniform", v, 2), "action_arity", 1),
    ("TableEnv.percept_arity", lambda v: TableEnv({}, "halt", 2, v), "percept_arity", 1),
    (
        "check_policy.percept_arity",
        lambda v: check_policy(uniform_policy(), 2, v),
        "percept_arity",
        1,
    ),
    ("uniform_measure.action_arity", lambda v: uniform_measure(v, 2), "action_arity", 1),
    ("uniform_measure.percept_arity", lambda v: uniform_measure(2, v), "percept_arity", 1),
    ("uniform_env.percept_arity", uniform_env, "percept_arity", 1),
    ("uniform_policy.action_arity", uniform_policy, "action_arity", 1),
    ("constant_policy.action_arity", lambda v: constant_policy(0, v), "action_arity", 1),
    ("uniform_prior.n", uniform_prior, "n", 1),
    ("harmonic_prior.n", harmonic_prior, "n", 1),
    ("History.action", lambda v: History((v,), ()), "symbol index", 0),
    ("History.percept", lambda v: History((0,), (v,)), "symbol index", 0),
]

# Besides least - 1, each refused value passes a check by sign alone, or dies
# in ``range`` or a comparison.
NOT_INTS = {"bool": True, "float": 1.5, "str": "2", "none": None}


@pytest.mark.parametrize(
    "call, what, least, value",
    [
        pytest.param(call, what, least, NOT_INTS.get(bad, least - 1), id=f"{name}-{bad}")
        for name, call, what, least in CASES
        for bad in ("too_small", *NOT_INTS)
        if not (what == "max_output" and bad == "none")  # None: no output limit
    ],
)
def test_a_count_that_is_not_an_int_of_at_least_its_least_is_refused_by_name(
    call, what, least, value
):
    with pytest.raises(ComponentFormatError, match=f"^{what} must be >= {least} \\(an int\\)"):
        call(value)


@pytest.mark.parametrize("call, least", [(c[1], c[3]) for c in CASES], ids=[c[0] for c in CASES])
def test_the_least_count_is_accepted(call, least):
    call(least)


def test_count_returns_the_value_and_names_it():
    assert count(0, "depth") == 0
    assert count(3, "horizon", 1) == 3
    with pytest.raises(ComponentFormatError, match=r"^horizon must be >= 1 \(an int\), got 0$"):
        count(0, "horizon", 1)
    with pytest.raises(ValueError, match=r"got True$"):  # still a ValueError
        count(True, "depth")
