from fractions import Fraction
from itertools import product

import pytest

from uailab.core import ComponentFormatError, NormalizationError, UndefinedConditionalError
from uailab.mixture import EnvMixture, JointMixture
from uailab.semimeasure import (
    NoisyCopyEnv,
    check_semimeasure,
    complement_env,
    constant_policy,
    copy_machine,
    defective_uniform,
    leaky_copy,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from uailab.transforms import (
    check_env_dual_roundtrip,
    check_normalization_dominance,
    check_representation_roundtrip,
    chron_to_joint,
    dual,
    env,
    env_view_ratio_probe,
    factoring_check,
    normalize,
)

F = Fraction


def test_env_of_uniform_is_uniform_environment():
    view = env(uniform_measure())
    for t in range(4):
        for actions in product((0, 1), repeat=t):
            for percepts in product((0, 1), repeat=t):
                assert view.eval(percepts, actions) == F(1, 2) ** t


def test_env_of_copy_forces_the_copy():
    # nu("11") / nu("1") = (1/2) / (1/2).
    assert env(copy_machine()).eval((1,), (1,)) == 1


def test_env_zero_prefix_is_hard_error():
    dead = JointMixture([copy_machine()], [F(1)])
    view = env(dead)
    # A zero conditional with a positive prefix is a value, not an error...
    assert view.eval((1,), (0,)) == 0
    # ...but conditioning on the resulting zero-mass prefix is undefined.
    with pytest.raises(UndefinedConditionalError) as err:
        view.eval((1, 0), (0, 0))
    assert err.value.context == (0, 1, 0)
    # A base with zero mass on action 0 errors as soon as a query conditions
    # on that action.
    never_zero = dual(mu_id(), constant_policy(1))
    with pytest.raises(UndefinedConditionalError):
        env(never_zero).eval((0,), (0,))


def test_dual_identity_and_oracle_values():
    uni = dual(uniform_env(), uniform_policy())
    ref = uniform_measure()
    for length in range(5):
        for x in product((0, 1), repeat=length):
            assert uni.eval(x) == ref.eval(x)
    assert dual(mu_id(), uniform_policy()).eval((1, 1)) == F(1, 2)
    assert dual(mu_id(), constant_policy(1)).eval((0, 0)) == 0


def test_dual_passes_semimeasure_check():
    assert check_semimeasure(dual(mu_id(), uniform_policy()), 5).ok
    assert check_semimeasure(dual(NoisyCopyEnv(F(3, 4), F(0)), constant_policy(1)), 5).ok


def test_env_dual_roundtrip_depth_5():
    pairs = [
        (mu_id(), uniform_policy()),
        (uniform_env(), uniform_policy()),
        (NoisyCopyEnv(F(3, 4), F(1, 4)), uniform_policy()),
        (complement_env(), uniform_policy()),
        (mu_id(), constant_policy(1)),
    ]
    for nu, pi in pairs:
        mismatches, _ = check_env_dual_roundtrip(nu, pi, 5)
        assert mismatches == []


def test_representation_roundtrip_depth_5():
    for nu in (mu_id(), uniform_env(), NoisyCopyEnv(F(3, 4), F(1, 4))):
        for filler in (None, (F(1, 3), F(2, 3))):
            mismatches, _ = check_representation_roundtrip(nu, filler, 5)
            assert mismatches == []


def test_chron_to_joint_values_and_point_filler():
    joint = chron_to_joint(mu_id(), None)
    assert joint.eval((1, 1)) == F(1, 2)
    pointed = chron_to_joint(mu_id(), (F(1), F(0)))
    assert pointed.eval((1,)) == 0  # action 1 never filled


@pytest.mark.parametrize("filler", [(F(1),), (F(1, 3), F(1, 3), F(1, 3)), (F(-1, 2), F(3, 2))])
def test_chron_to_joint_rejects_a_bad_filler(filler):
    with pytest.raises(ComponentFormatError):
        chron_to_joint(mu_id(), filler)


def test_normalized_conditional_rejects_symbols_outside_the_alphabet():
    predictor = normalize(uniform_measure())
    for x, bad in (((), -1), ((), 2), ((0,), -1), ((0,), 2)):
        with pytest.raises(ComponentFormatError, match="outside the alphabet") as err:
            predictor.conditional(x, bad)
        assert f"context {x + (bad,)!r}" in str(err.value)
        assert f"position {len(x)}" in str(err.value)
    assert predictor.conditional((0,), 1) == F(1, 2)


def test_normalize_oracle_values():
    # Conditionals (1/4, 1/4) rescale to (1/2, 1/2).
    hat = normalize(defective_uniform(F(1, 4)))
    assert hat.conditional((), 0) == F(1, 2)
    assert hat.conditional((), 1) == F(1, 2)
    # A proper measure is left unchanged.
    hat_uni = normalize(uniform_measure())
    for length in range(4):
        for x in product((0, 1), repeat=length):
            assert hat_uni.eval(x) == uniform_measure().eval(x)


def test_normalize_zero_continuation_errors():
    dead = JointMixture([copy_machine()], [F(1)])
    hat = normalize(dead)
    with pytest.raises(NormalizationError):
        hat.conditional((1, 0), 0)  # all continuations of a dead branch


def test_normalized_predictor_is_a_measure():
    hat = normalize(JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)]))
    report = check_semimeasure(hat, 5)
    assert report.ok
    assert report.strict_rows == 0


def test_normalization_dominance_depth_5():
    from uailab.experiments import scenario_mixtures

    for mdef in scenario_mixtures().values():
        if mdef.joint is None:
            continue
        violations, _ = check_normalization_dominance(mdef.joint, 5)
        assert violations == [], mdef.name


def test_factoring_identities_hold_for_factored_priors():
    trivial = factoring_check((mu_id(),), (F(1),), (uniform_policy(),), (F(1),), depth=3)
    assert trivial.ok  # one env, one policy: equality is immediate
    report = factoring_check(
        (mu_id(), uniform_env()),
        (F(1, 2), F(1, 2)),
        (uniform_policy(),),
        (F(1),),
        depth=3,
    )
    assert report.ok
    report2 = factoring_check(
        (mu_id(), uniform_env()),
        (F(1, 2), F(1, 2)),
        (constant_policy(1), uniform_policy()),
        (F(1, 2), F(1, 2)),
        depth=4,
    )
    assert report2.ok


def test_factoring_fails_with_witness_for_non_factored_prior():
    report = factoring_check(
        (mu_id(), uniform_env()),
        (F(1, 2), F(1, 2)),
        (constant_policy(0), constant_policy(1)),
        (F(1, 2), F(1, 2)),
        depth=3,
        pair_weights={(0, 0): F(1, 2), (1, 1): F(1, 2)},
    )
    assert report.env_mismatches
    witness = report.env_mismatches[0]
    assert witness.lhs != witness.rhs
    # Hand-checked counterexample: conditioning on action 1 selects the
    # uniform-env/always-1 pair, halving the copy conditional.
    row = next(r for r in report.env_rows if r.witness == ((1,), (1,)))
    assert row.lhs == F(1, 2)
    assert row.rhs == F(3, 4)


def test_env_view_ratio_probe_records_excess():
    # A non-product mixture (each env glued to its own policy) makes the
    # joint view exceed the env mixture: actions are evidence about the env.
    report = env_view_ratio_probe(
        (mu_id(), uniform_env()),
        (F(1, 2), F(1, 2)),
        (constant_policy(1), uniform_policy()),
        (F(1, 2), F(1, 2)),
        depth=2,
        pair_weights={(0, 0): F(1, 2), (1, 1): F(1, 2)},
    )
    assert report.max_ratio is not None
    assert report.max_ratio > 1
    # Hand-checked: conditioning on action 1 shifts belief toward the
    # identity env, lifting the copy conditional to 5/6 against 3/4.
    row = next(r for r in report.rows if r.witness == ((1,), (1,)))
    assert row.lhs == F(5, 6)
    assert row.rhs == F(3, 4)


def test_env_view_ratio_probe_is_one_for_shared_policy():
    # A single shared policy factors out: the two views coincide exactly.
    report = env_view_ratio_probe(
        (mu_id(), uniform_env()),
        (F(1, 2), F(1, 2)),
        (uniform_policy(),),
        (F(1),),
        depth=3,
    )
    assert report.max_ratio == 1
