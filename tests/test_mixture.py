from fractions import Fraction
from itertools import product

import pytest

from uailab.core import ComponentFormatError, EMPTY_HISTORY, History, UndefinedConditionalError
from uailab.mixture import (
    EnvMixture,
    JointMixture,
    MixturePolicy,
    check_predictive_consistency,
    harmonic_prior,
    posterior_weights,
    predictive,
    uniform_prior,
)
from uailab.semimeasure import (
    IIDEnv,
    NoisyCopyEnv,
    ProductJoint,
    check_chronological,
    check_semimeasure,
    constant_policy,
    copy_machine,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from uailab.adversary import domination_probe
from uailab.transforms import dual_mixture

F = Fraction


@pytest.fixture
def copy_uniform():
    return JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])


def test_joint_eval_oracle_value(copy_uniform):
    # Independent evaluation: 1/2 * 1/2 + 1/2 * 1/4.
    assert copy_uniform.eval((1, 1)) == F(3, 8)


def test_root_mass_respects_weight_condition(copy_uniform):
    assert copy_uniform.eval(()) <= 1


def test_degenerate_mixture_is_its_component():
    single = JointMixture([copy_machine()], [F(1)])
    for x in [(1,), (1, 1), (0, 1)]:
        assert single.eval(x) == copy_machine().eval(x)


def test_predictive_oracle_value(copy_uniform):
    dist = predictive(copy_uniform, EMPTY_HISTORY, 1)
    assert dist[1] == F(3, 4)
    assert dist[0] == F(1, 4)


def test_predictive_point_mass_for_deterministic_component():
    single = JointMixture([copy_machine()], [F(1)])
    dist = predictive(single, EMPTY_HISTORY, 1)
    assert dist == {0: F(0), 1: F(1)}


def test_predictive_zero_prefix_errors():
    single = JointMixture([copy_machine()], [F(1)])
    dead = History((1,), (0,))  # inconsistent with copying
    with pytest.raises(UndefinedConditionalError):
        predictive(single, dead, 1)


def test_posterior_oracle_value(copy_uniform):
    state = posterior_weights(copy_uniform, History((1,), (1,)), 1)
    assert state.component_masses == (F(1, 4), F(1, 8))
    assert state.mixture_mass == F(3, 16)
    assert state.posterior[0] == F(2, 3)
    assert state.posterior[1] == F(1, 3)


def test_posterior_preserves_prior_ratio_without_evidence():
    mix = JointMixture([uniform_measure(), uniform_measure()], [F(1, 3), F(2, 3)])
    state = posterior_weights(mix, EMPTY_HISTORY, 0)
    assert state.posterior == (F(1, 3), F(2, 3))


def test_posterior_zero_mass_component_gets_zero(copy_uniform):
    state = posterior_weights(copy_uniform, History((1,), (0,)), 0)
    assert state.posterior[0] == 0
    assert state.posterior[1] == 1


def test_posterior_normalization_identity(copy_uniform):
    # sum_i w_i(ae) * xi(ae) == sum_i w_i nu_i(ae), literally checkable even
    # with zero-mass components.
    for t in range(3):
        for actions in product((0, 1), repeat=t):
            for percepts in product((0, 1), repeat=t):
                h = History(actions, percepts)
                for a in (0, 1):
                    prefix = h.with_action(a).symbols()
                    if copy_uniform.eval(prefix) == 0:
                        continue
                    state = posterior_weights(copy_uniform, h, a)
                    lhs = sum(state.posterior) * state.mixture_mass
                    rhs = sum(
                        w * m for w, m in zip(state.prior, state.component_masses)
                    )
                    assert lhs == rhs


def test_predictive_equals_posterior_weighted_conditionals_depth_4():
    from uailab.experiments import scenario_mixtures

    for mdef in scenario_mixtures().values():
        if mdef.joint is None:
            continue
        assert check_predictive_consistency(mdef.joint, 4) == [], mdef.name


def test_mixture_closure_checks_depth_6():
    from uailab.experiments import scenario_mixtures

    for mdef in scenario_mixtures().values():
        if mdef.joint is not None:
            assert check_semimeasure(mdef.joint, 6).ok, mdef.name
        if mdef.chron is not None:
            assert check_chronological(mdef.chron, 6).ok, mdef.name


def test_inclusion_domination_depth_6():
    from uailab.experiments import scenario_mixtures

    for mdef in scenario_mixtures().values():
        if mdef.joint is None:
            continue
        for component, weight in zip(mdef.joint.components, mdef.joint.weights):
            report = domination_probe(component, mdef.joint, 6)
            assert not report.unbounded_witnesses
            assert report.max_ratio is not None and report.max_ratio <= 1 / weight


def test_env_mixture_oracle_values():
    mix = EnvMixture([mu_id(), uniform_env()], [F(1, 2), F(1, 2)])
    assert mix.eval((1,), (1,)) == F(3, 4)
    assert mix.eval((0,), (1,)) == F(1, 4)
    single = EnvMixture([mu_id()], [F(1)])
    assert single.eval((1, 0), (1, 0)) == mu_id().eval((1, 0), (1, 0))


def test_dual_mixture_identity_and_grid():
    uniform_joint = dual_mixture(
        [uniform_env()], [F(1)], [uniform_policy()], [F(1)]
    )
    uni = uniform_measure()
    for length in range(4):
        for x in product((0, 1), repeat=length):
            assert uniform_joint.eval(x) == uni.eval(x)

    mu_joint = dual_mixture([mu_id()], [F(1)], [uniform_policy()], [F(1)])
    assert mu_joint.eval((1, 1)) == F(1, 2)

    grid = dual_mixture(
        [mu_id(), uniform_env()],
        [F(1, 2), F(1, 2)],
        [uniform_policy(), constant_policy(0)],
        [F(1, 4), F(3, 4)],
    )
    assert len(grid.components) == 4
    assert set(grid.weights) == {F(1, 8), F(3, 8)}


def test_priors():
    assert uniform_prior(4) == (F(1, 4),) * 4
    assert harmonic_prior(3) == (F(1, 2), F(1, 6), F(1, 12))
    assert sum(harmonic_prior(10)) <= 1


def test_weight_validation():
    with pytest.raises(Exception):
        JointMixture([uniform_measure()], [F(0)])
    with pytest.raises(Exception):
        JointMixture([uniform_measure(), uniform_measure()], [F(3, 4), F(1, 2)])
    with pytest.raises(Exception):
        EnvMixture([mu_id()], [F(1), F(1)])


def test_mixtures_reject_members_of_another_kind_or_alphabet():
    three_actions = ProductJoint((F(1, 3),) * 3, (F(1, 2), F(1, 2)))
    half = [F(1, 2), F(1, 2)]
    # Read from the first member, the arity would skip action 2 (or index past 2).
    for members in ([uniform_measure(), three_actions], [three_actions, uniform_measure()]):
        with pytest.raises(ComponentFormatError, match="one alphabet"):
            JointMixture(members, half)
    with pytest.raises(ComponentFormatError, match="one alphabet"):
        EnvMixture([uniform_env(), IIDEnv((F(1, 3),) * 3)], half)
    with pytest.raises(ComponentFormatError, match="is not a JointSemimeasure"):
        JointMixture([uniform_measure(), NoisyCopyEnv()], half)
    with pytest.raises(ComponentFormatError, match="is not a ChronEnv"):
        EnvMixture([mu_id(), copy_machine()], half)
    with pytest.raises(ComponentFormatError, match="one alphabet"):
        MixturePolicy((uniform_policy(3), uniform_policy(2)), (F(1, 2), F(1, 2)))
    with pytest.raises(ComponentFormatError, match="is not a Policy"):
        MixturePolicy((uniform_policy(), mu_id()), half)
