"""Every exact value a walk consumer returns is a ``Fraction``, never a float.

Built-in components walk with ``int`` numerators over a scale, and every
reader converts them with ``exact_mass`` before dividing. An ``int / int``
that slipped past the conversion would be a float; here every checker,
``compare``, the probes, expectimax, the one-step values, both adversary
traces and thm11's conditional statistics run on the shipped components and
mixtures, and every exact value they return is checked for its type.

Floats stay out at construction too. Every component, policy and mixture
constructor applies one rule, ``core.exact_masses``, to its masses or
weights: an entry is an ``int`` or a ``Fraction``, never a bool, float or
string; none is negative; a row sums to at most 1; and a weight list has
one positive weight per item and at least one item. Each constructor is
given each kind of bad value here and must raise ``ComponentFormatError``;
what it accepts it keeps as ``Fraction``s.
"""
from fractions import Fraction

import pytest

from uailab.adversary import copy_conditional_trace, domination_probe, greedy_antipredict
from uailab.agents import expectimax_value, one_step_action_values
from uailab.core import ComponentFormatError, History
from uailab.experiments import _conditional_stats, builtin_components, scenario_mixtures
from uailab.mixture import (
    EnvMixture,
    JointMixture,
    check_predictive_consistency,
    dual_mixture,
    posterior_weights,
)
from uailab.semimeasure import (
    ActionEchoJoint,
    ChronEnv,
    IIDEnv,
    JointSemimeasure,
    MixturePolicy,
    NoisyCopyEnv,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    check_chronological,
    check_policy,
    check_semimeasure,
    compare,
    constant_policy,
    copy_machine,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from uailab.transforms import (
    check_env_dual_roundtrip,
    check_normalization_dominance,
    chron_to_joint,
    env,
    env_view_ratio_probe,
    factoring_check,
    normalize,
)
from uailab.utm import ChronEnumApprox, enumerate_joint

F = Fraction


def components() -> dict:
    """The shipped components and mixtures, with an enumeration of each kind."""
    found = dict(builtin_components())
    for name, mdef in scenario_mixtures().items():
        found.update({f"{name}:joint": mdef.joint, f"{name}:env": mdef.chron})
    found["enumerate_joint"] = enumerate_joint(9, 200, 8)
    found["ChronEnumApprox"] = ChronEnumApprox(9, 200)
    found["normalized"] = normalize(found["copy_vs_uniform:joint"])
    return {name: c for name, c in found.items() if c is not None}


SHIPPED = components()
JOINTS = [c for c in SHIPPED.values() if isinstance(c, JointSemimeasure)]
ENVS = [c for c in SHIPPED.values() if isinstance(c, ChronEnv)]


def assert_exact(*values):
    for value in values:
        assert type(value) is Fraction, value


def assert_rows_exact(rows):
    for row in rows:
        assert_exact(row.lhs, row.rhs)


def defined(fn, *args):
    """``fn(*args)``, or None where a view or a normalization is undefined."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return None


@pytest.mark.parametrize("name", SHIPPED)
def test_checks_report_fractions(name):
    nu = SHIPPED[name]
    joint = isinstance(nu, JointSemimeasure)
    report = check_semimeasure(nu, 3) if joint else check_chronological(nu, 2)
    assert report.contexts == len(report.rows)
    assert_exact(report.root_mass)
    assert_rows_exact(report.rows)
    assert_rows_exact(report.violations)
    if joint:
        rows, _ = check_normalization_dominance(nu, 3)
        assert_rows_exact(rows)


def test_policy_check_and_predictive_consistency_report_fractions():
    report = check_policy(uniform_policy(3), 3)
    assert report.contexts == len(report.rows)
    assert_exact(report.root_mass)
    assert_rows_exact(report.rows)
    for mdef in scenario_mixtures().values():
        if mdef.joint is not None:
            for _, lhs, rhs in check_predictive_consistency(mdef.joint, 2):
                assert_exact(lhs, rhs)


def test_compare_and_probes_return_fractions():
    full = uniform_measure()  # positive everywhere: its view is always defined
    for mu in ENVS:
        for xi in (mu_id(), ENVS[-1], env(full)):
            rows, _, _ = compare(mu, xi, 2)
            assert_rows_exact(rows)
        assert_exact(domination_probe(mu, env(full), 2).max_ratio)
        assert_rows_exact(check_env_dual_roundtrip(mu, uniform_policy(), 2)[0])
    for mu in JOINTS:
        assert_exact(domination_probe(mu, full, 3).max_ratio)
        rows, _, _ = compare(env(mu), env(full), 2)
        assert_rows_exact(rows)
    envs, weights = [mu_id(), uniform_env()], [F(1, 2), F(1, 2)]
    probe = env_view_ratio_probe(envs, weights, [uniform_policy()], [F(1)], 2)
    assert_exact(probe.max_ratio)
    pair_mix = dual_mixture(envs, weights, [uniform_policy()], [F(1)])
    rows, _, _ = compare(env(pair_mix), EnvMixture(envs, weights), 2)
    assert_rows_exact(rows)
    report = factoring_check(envs, weights, [uniform_policy()], [F(1)], 3)
    assert_rows_exact(report.joint_rows + report.env_rows)


def test_planners_return_fractions():
    mixed = EnvMixture([mu_id(), env(uniform_measure())], [F(1, 2), F(1, 2)])
    checked = 0
    for belief in ENVS + [env(mu) for mu in JOINTS] + [mixed]:
        for history in (History(), History((1,), (1,))):
            values = defined(one_step_action_values, belief, history)
            if values is not None:
                assert_exact(*values.values())
                checked += 1
            value = defined(expectimax_value, belief, history, 2)
            if value is not None:
                assert_exact(value)
    assert checked > len(ENVS)


def test_adversary_traces_and_thm11_stats_return_fractions():
    for xi in JOINTS + [normalize(mu) for mu in JOINTS]:
        for trace in (
            defined(greedy_antipredict, xi, 4),
            copy_conditional_trace(xi, (1, 0, 1, 1)),
        ):
            for step in trace.steps if trace else ():
                assert_exact(step.conditional, step.cumulative)
    for mdef in scenario_mixtures().values():
        if mdef.joint is not None:
            for normalized in (False, True):
                mins, maxs = _conditional_stats(mdef.joint, ("identity",), 3, 1, normalized)
                assert_exact(*mins, *maxs)


POLICIES = (uniform_policy(), constant_policy(0))
JOINT_PAIR = (copy_machine(), uniform_measure())
ENV_PAIR = (mu_id(), uniform_env())
HALVES = (F(1, 2), F(1, 2))

# Each builds one constructor from a row of two masses.
MASS_ROWS = {
    "ProductJoint": lambda row: ProductJoint(row, HALVES),
    "ActionEchoJoint": lambda row: ActionEchoJoint(*row),
    "NoisyCopyEnv": lambda row: NoisyCopyEnv(*row),
    "IIDEnv": IIDEnv,
    "TableJoint": lambda row: TableJoint({(): row}),
    "TableEnv": lambda row: TableEnv({((), (0,)): row}),
    "StationaryPolicy": StationaryPolicy,
    "chron_to_joint filler": lambda row: chron_to_joint(mu_id(), row),
    # A missing pair weighs 0, so the pair grid is a row of masses, not a weight list.
    "dual_mixture pair weights": lambda row: dual_mixture(
        [mu_id()], [1], POLICIES, HALVES, dict(zip([(0, 0), (0, 1)], row))
    ),
}
BAD_ROWS = {
    "float": (0.5, F(1, 4)),
    "bool": (True, F(0)),
    "negative": (F(-1, 4), F(1, 2)),
    "sum 5/4": (F(3, 4), F(1, 2)),
}

# Each builds one constructor from a weight list over its first n items.
WEIGHT_LISTS = {
    "MixturePolicy": lambda w, n: MixturePolicy(POLICIES[:n], w),
    "JointMixture": lambda w, n: JointMixture(JOINT_PAIR[:n], w),
    "EnvMixture": lambda w, n: EnvMixture(ENV_PAIR[:n], w),
    "dual_mixture env weights": lambda w, n: dual_mixture(ENV_PAIR[:n], w, POLICIES, HALVES),
    "dual_mixture policy weights": lambda w, n: dual_mixture([mu_id()], [1], POLICIES[:n], w),
}
BAD_WEIGHTS = {
    "float": ((0.5, F(1, 4)), 2),
    "bool": ((True,), 1),  # True would pass as the weight 1
    "negative": ((F(-1, 4), F(1, 2)), 2),
    "sum 5/4": ((F(3, 4), F(1, 2)), 2),
    "zero": ((F(1, 2), 0), 2),
    "length mismatch": ((F(1, 2),), 2),
    "no items": ((), 0),
}
BAD_CASES = {
    **{
        f"{name}-{bad}": (build, (row,))
        for name, build in MASS_ROWS.items()
        for bad, row in BAD_ROWS.items()
    },
    **{
        f"{name}-{bad}": (build, args)
        for name, build in WEIGHT_LISTS.items()
        for bad, args in BAD_WEIGHTS.items()
    },
}


@pytest.mark.parametrize("case", BAD_CASES)
def test_every_constructor_rejects_inexact_or_invalid_masses(case):
    build, args = BAD_CASES[case]
    with pytest.raises(ComponentFormatError):
        build(*args)


# Each is given a mass row or weight list that is not a sequence at all.
NOT_SEQUENCES = {
    "StationaryPolicy": lambda: StationaryPolicy(5),
    "IIDEnv": lambda: IIDEnv(5),
    "chron_to_joint filler": lambda: chron_to_joint(mu_id(), 5),
    "MixturePolicy": lambda: MixturePolicy(POLICIES, 5),
    "JointMixture": lambda: JointMixture(JOINT_PAIR, 5),
    "dual_mixture env weights": lambda: dual_mixture(ENV_PAIR, None, POLICIES, HALVES),
}


@pytest.mark.parametrize("case", NOT_SEQUENCES)
def test_a_mass_row_that_is_not_a_sequence_is_rejected(case):
    with pytest.raises(ComponentFormatError, match="must be a sequence"):
        NOT_SEQUENCES[case]()


def test_pair_weights_off_the_grid_are_rejected():
    # (3, 0) names no environment: the grid's weights sum to 1, but the
    # mixture would keep only the (0, 0) half.
    grid = {(0, 0): F(1, 2), (3, 0): F(1, 2)}
    with pytest.raises(ComponentFormatError, match="outside the"):
        dual_mixture([mu_id()], [1], [uniform_policy()], [1], grid)
    with pytest.raises(ComponentFormatError, match="outside the"):
        dual_mixture([mu_id()], [1], POLICIES, HALVES, {(0, 2): F(1, 2)})
    assert dual_mixture([mu_id()], [1], POLICIES, HALVES, {(0, 1): F(1, 2)}).weights == (F(1, 2),)


def test_constructors_keep_fractions():
    policy = StationaryPolicy((1, 0))
    assert policy.probs == (F(1), F(0))
    assert_exact(*policy.probs, policy.weight((0, 0), (0,)))
    joint = JointMixture(JOINT_PAIR[:1], (1,))
    for built in (
        joint,
        EnvMixture(ENV_PAIR[:1], [1]),
        dual_mixture([mu_id()], [1], POLICIES[:1], [1]),
        MixturePolicy(POLICIES[:1], (1,)),
    ):
        assert built.weights == (F(1),)
        assert_exact(*built.weights)
    state = posterior_weights(joint, History(), 0)
    assert_exact(state.mixture_mass, *state.posterior)
