"""Every exact value a walk consumer returns is a ``Fraction``, never a float.

Built-in components walk with ``int`` numerators over a scale, and every
reader converts them with ``exact_mass`` before dividing. An ``int / int``
that slipped past the conversion would be a float; here every checker,
``compare``, the probes, expectimax, the one-step values, both adversary
traces and thm11's conditional statistics run on the shipped components and
mixtures, and every exact value they return is checked for its type.
"""
from fractions import Fraction

import pytest

from uailab.adversary import copy_conditional_trace, domination_probe, greedy_antipredict
from uailab.agents import expectimax_value, one_step_action_values
from uailab.core import History
from uailab.experiments import _conditional_stats, builtin_components, scenario_mixtures
from uailab.mixture import EnvMixture, check_predictive_consistency
from uailab.semimeasure import (
    ChronEnv,
    JointSemimeasure,
    check_chronological,
    check_policy,
    check_semimeasure,
    compare,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from uailab.transforms import (
    check_env_dual_roundtrip,
    check_normalization_dominance,
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
    assert_rows_exact(probe.rows)
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
