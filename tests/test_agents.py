from fractions import Fraction
from itertools import product

import pytest

from uailab.agents import (
    brute_force_action,
    dualistic_aixi_action,
    expectimax_action,
    expectimax_value,
    joint_aixi_action,
    one_step_action,
    one_step_action_values,
    policy_value,
)
from uailab.core import (
    BINARY_PERCEPTS,
    EMPTY_HISTORY,
    ZERO,
    ComponentFormatError,
    History,
    PerceptAlphabet,
    PerceptSymbol,
    UndefinedConditionalError,
)
from uailab.mixture import EnvMixture, JointMixture, MixturePolicy
from uailab.semimeasure import (
    ChronEnv,
    DeterministicPolicy,
    IIDEnv,
    NoisyCopyEnv,
    StationaryPolicy,
    TableJoint,
    constant_policy,
    copy_machine,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
)
from uailab.transforms import chron_to_joint, env

F = Fraction


class MemoEnv(ChronEnv):
    """Caches raw masses; shared by expectimax and the oracle (data only)."""

    def __init__(self, base):
        self.base = base
        self.action_arity = base.action_arity
        self.percept_arity = base.percept_arity
        self.memo = {}

    def eval(self, percepts, actions):
        key = (tuple(percepts), tuple(actions))
        if key not in self.memo:
            self.memo[key] = self.base.eval(*key)
        return self.memo[key]


class RecordingEnv(MemoEnv):
    def __init__(self, base):
        super().__init__(base)
        self.queries = []

    def eval(self, percepts, actions):
        self.queries.append((tuple(percepts), tuple(actions)))
        return super().eval(percepts, actions)


def histories_to_depth(depth):
    out = [EMPTY_HISTORY]
    frontier = [EMPTY_HISTORY]
    for _ in range(depth):
        frontier = [h.child(a, e) for h in frontier for a in (0, 1) for e in (0, 1)]
        out.extend(frontier)
    return out


def planning_beliefs():
    mixtures = {
        "copy_uniform": JointMixture(
            [copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)]
        ),
    }
    return {
        "mu_id": mu_id(),
        "noisy_copy": NoisyCopyEnv(F(3, 4), F(1, 4)),
        "uniform_env": uniform_env(),
        "env_of_copy_uniform": env(mixtures["copy_uniform"]),
        "defective_env": IIDEnv((F(1, 4), F(1, 4))),
    }


def test_policy_value_oracle_uniform_on_mu_id():
    # Enumerating both actions by hand: reward 1 only under action 1.
    assert policy_value(uniform_policy(), mu_id(), 1) == F(1, 2)


def test_policy_value_deterministic_two_steps():
    assert policy_value(constant_policy(1), mu_id(), 2) == 2


def test_policy_value_rejects_a_policy_action_outside_the_alphabet():
    # constant_policy(5) used to weigh every action 0, for a value of 0.
    with pytest.raises(ComponentFormatError, match="constant action 5"):
        policy_value(constant_policy(5), mu_id(), 2)
    with pytest.raises(ComponentFormatError) as err:
        policy_value(DeterministicPolicy(lambda h: 5), mu_id(), 2)
    assert f"chose 5 at {EMPTY_HISTORY!r}" in str(err.value)


def test_policy_value_zero_reward_percepts():
    zero = PerceptAlphabet(
        symbols=(PerceptSymbol("a", F(0)), PerceptSymbol("b", F(0))),
        reward_bounds=(F(0), F(0)),
    )
    assert policy_value(uniform_policy(), mu_id(), 3, percepts=zero) == 0


def scratch_policy_value(pi, nu, horizon, percepts=BINARY_PERCEPTS, history=EMPTY_HISTORY):
    """The former ``policy_value``, frozen: one ``eval`` of the whole prefix
    per node instead of one walk step."""

    def recurse(actions, percs, remaining):
        total = ZERO
        for a in range(nu.action_arity):
            w = pi.weight(actions + (a,), percs)
            if w == 0:
                continue
            for e in range(nu.percept_arity):
                mass = nu.eval(percs + (e,), actions + (a,))
                if mass == 0:
                    continue
                total += percepts.reward(e) * w * mass
                if remaining > 1:
                    total += recurse(actions + (a,), percs + (e,), remaining - 1)
        return total

    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return recurse(history.actions, history.percepts, horizon)


def valued(fn, *args):
    """``fn(*args)``, or the type of the error it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def test_policy_value_walk_equals_the_frozen_recursion():
    copy_uniform = JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])
    beliefs = [
        mu_id(),
        NoisyCopyEnv(F(3, 4), F(1, 4)),
        env(copy_uniform),
        EnvMixture(
            [mu_id(), NoisyCopyEnv(F(3, 4), F(1, 4)), IIDEnv((F(1, 4), F(1, 2)))],
            [F(1, 4), F(1, 2), F(1, 8)],
        ),
        env(copy_machine()),  # undefined after a mismatched step
    ]
    nothing = StationaryPolicy((F(0), F(0)))  # weighs every action 0
    policies = [
        uniform_policy(),
        constant_policy(1),
        StationaryPolicy((F(1, 3), F(0))),
        nothing,
        DeterministicPolicy(lambda h: h.percepts[-1] if h.percepts else 0),  # reads the history
        MixturePolicy((uniform_policy(), constant_policy(0)), (F(1, 4), F(1, 2))),
    ]
    thirds = PerceptAlphabet((PerceptSymbol(0, F(1, 3)), PerceptSymbol(1, F(1))), (F(0), F(1)))
    shifted = PerceptAlphabet((PerceptSymbol(0, F(-1)), PerceptSymbol(1, F(0))), (F(-1), F(0)))
    raised = set()
    for nu in beliefs:
        for pi in policies:
            for h in histories_to_depth(2):
                for horizon in (1, 2, 3):
                    for percepts in (BINARY_PERCEPTS, thirds, shifted):
                        args = (pi, nu, horizon, percepts, h)
                        got = valued(policy_value, *args)
                        assert got == valued(scratch_policy_value, *args), (nu, h, horizon)
                        if pi is nothing:  # it never steps nu, so never raises
                            assert got == 0, (nu, h, horizon)
                        if isinstance(got, type):
                            raised.add(got)
    assert raised == {UndefinedConditionalError}
    for horizon in (0, -1):
        with pytest.raises(ValueError):
            policy_value(uniform_policy(), mu_id(), horizon)
    # A history outside the belief's alphabet is refused by name, never by IndexError.
    for outside in (History((5,), (0,)), History((0, 1), (1, 2))):
        for call in (
            lambda h: policy_value(uniform_policy(), mu_id(), 1, BINARY_PERCEPTS, h),
            lambda h: expectimax_action(mu_id(), h, 1),
            lambda h: joint_aixi_action(copy_machine(), h, 1),
            lambda h: one_step_action_values(mu_id(), h),
        ):
            with pytest.raises(ComponentFormatError, match="outside the alphabet"):
                call(outside)


def test_a_deterministic_policy_is_asked_once_per_history():
    """A re-planning agent wrapped as a policy plans once per history of the
    ``policy_value`` recursion, not once per action node: the actions of a
    history share one answer."""
    calls = []

    def echo(h):
        calls.append(h)
        return h.percepts[-1] if h.percepts else 0

    value = policy_value(DeterministicPolicy(echo), NoisyCopyEnv(F(3, 4), F(1, 4)), 8)
    assert value == F(1793, 512)
    # Both percepts stay live, so t steps in there are 2**t histories: 2**8 - 1
    # histories in all, each asked once.
    assert len(calls) == len(set(calls)) == 2**8 - 1 == 255


def test_expectimax_mu_id_prefers_copy_reward():
    assert expectimax_action(mu_id(), EMPTY_HISTORY, 1) == 1


def test_expectimax_tie_breaks_lexicographically():
    assert expectimax_action(uniform_env(), EMPTY_HISTORY, 1) == 0
    assert expectimax_action(uniform_env(), History((1,), (0,)), 3) == 0


def test_expectimax_oracle_equivalence():
    # Spec-level equivalence: expectimax equals exhaustive enumeration of
    # all deterministic policies, histories to depth 2, horizons to 3,
    # shared lexicographic tie rule.
    for name, belief in planning_beliefs().items():
        shared = MemoEnv(belief)
        for h in histories_to_depth(2):
            for m in (1, 2, 3):
                got = expectimax_action(shared, h, m)
                want = brute_force_action(shared, h, m)
                assert got == want, (name, h, m)


def test_value_bounds_and_horizon_monotonicity():
    for name, belief in planning_beliefs().items():
        values = [expectimax_value(belief, EMPTY_HISTORY, m) for m in (1, 2, 3)]
        for m, v in zip((1, 2, 3), values):
            assert 0 <= v <= m
    mu_values = [expectimax_value(mu_id(), EMPTY_HISTORY, m) for m in (1, 2, 3, 4)]
    assert all(b >= a for a, b in zip(mu_values, mu_values[1:]))
    assert mu_values == [1, 2, 3, 4]


def test_joint_aixi_examples():
    only_mu = chron_to_joint(mu_id(), None)
    assert joint_aixi_action(only_mu, EMPTY_HISTORY, 1) == 1
    assert joint_aixi_action(uniform_measure(), EMPTY_HISTORY, 1) == 0  # tie
    mix = JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])
    assert joint_aixi_action(mix, EMPTY_HISTORY, 1) == 1


def test_joint_aixi_never_conditions_on_future_actions():
    mix = JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])
    recorder = RecordingEnv(env(mix))
    root = History((1,), (1,))
    expectimax_action(recorder, root, 3)
    assert recorder.queries
    for percepts, actions in recorder.queries:
        assert len(percepts) == len(actions)
        assert len(actions) <= len(root.actions) + 3


def test_dualistic_examples():
    from uailab.mixture import EnvMixture

    single = EnvMixture([mu_id()], [F(1)])
    assert dualistic_aixi_action(single, EMPTY_HISTORY, 1) == 1
    ties = EnvMixture([uniform_env(), uniform_env()], [F(1, 2), F(1, 2)])
    assert dualistic_aixi_action(ties, EMPTY_HISTORY, 1) == 0


def test_one_step_examples_and_error():
    assert one_step_action(mu_id(), EMPTY_HISTORY) == 1
    assert one_step_action(uniform_env(), EMPTY_HISTORY) == 0  # tie
    values = one_step_action_values(mu_id(), EMPTY_HISTORY)
    assert values == {0: F(0), 1: F(1)}
    dead_mix = JointMixture([copy_machine()], [F(1)])
    with pytest.raises(UndefinedConditionalError):
        one_step_action(env(dead_mix), History((1,), (0,)))


def test_one_step_agrees_with_expectimax_at_horizon_one():
    for name, belief in planning_beliefs().items():
        for h in histories_to_depth(3):
            try:
                greedy = one_step_action(belief, h)
            except (UndefinedConditionalError, ZeroDivisionError):
                continue  # zero-mass history: the greedy rule is undefined
            assert greedy == expectimax_action(belief, h, 1), (name, h)


@pytest.mark.parametrize("size", [1, 3])
def test_planners_refuse_a_percept_alphabet_of_another_size(size):
    # One symbol once escaped as IndexError, and three went unread without a word.
    percepts = PerceptAlphabet(tuple(PerceptSymbol(i, F(0)) for i in range(size)), (F(0), F(0)))
    for call in (
        lambda: expectimax_value(mu_id(), EMPTY_HISTORY, 2, percepts),
        lambda: expectimax_action(mu_id(), EMPTY_HISTORY, 2, percepts),
        lambda: one_step_action(mu_id(), EMPTY_HISTORY, percepts),
        lambda: policy_value(uniform_policy(), mu_id(), 2, percepts),
        lambda: brute_force_action(mu_id(), EMPTY_HISTORY, 2, percepts),
    ):
        with pytest.raises(ComponentFormatError, match=f"has {size} symbols, the belief 2 "):
            call()


def test_expectimax_action_validates_horizon():
    assert expectimax_action(mu_id(), EMPTY_HISTORY, 2) == 1
    for planner in (expectimax_action, expectimax_value):
        for horizon in (0, -3):
            with pytest.raises(ValueError):
                planner(mu_id(), EMPTY_HISTORY, horizon)


def planned(planner, *args):
    """``planner(*args)``, or the type of the error it raised."""
    try:
        return planner(*args)
    except ZeroDivisionError as exc:
        return type(exc)


def test_planners_leave_undefined_actions_out():
    # The view of this table gives action 1 zero mass after (0, 0), both
    # actions after (0, 1), and action 0 after (1, 1): undefined actions.
    joint = TableJoint(
        {
            (): (F(1, 2), F(1, 2)),
            (1,): (F(1, 4), F(3, 4)),
            (0, 0): (F(1), F(0)),
            (0, 1): (F(0), F(0)),
            (1, 1): (F(0), F(1)),
        },
        "uniform",
    )
    belief = env(joint)
    for h in histories_to_depth(2):
        x = h.symbols()
        # Some root action is defined: every pending prefix up to it has joint mass.
        live = all(joint.eval(x[: i + 1]) for i in range(0, len(x), 2)) and any(
            joint.eval(x + (a,)) for a in (0, 1)
        )
        for m in (1, 2, 3):
            got = planned(expectimax_action, belief, h, m)
            assert got == planned(brute_force_action, MemoEnv(belief), h, m), (h, m)
            assert (got in (0, 1)) if live else (got is UndefinedConditionalError), (h, m)
    assert expectimax_action(belief, History((1,), (1,)), 1) == 1  # 0 is undefined there
    assert set(one_step_action_values(belief, History((0,), (0,)))) == {0}
    assert one_step_action(belief, History((1,), (1,))) == 1
    assert one_step_action(belief, EMPTY_HISTORY) == expectimax_action(belief, EMPTY_HISTORY, 1)
    # Every root action undefined: every planner raises the same error.
    nowhere = env(TableJoint({(): (F(0), F(0))}, "uniform"))
    for planner, args in (
        (expectimax_action, (nowhere, EMPTY_HISTORY, 2)),
        (expectimax_value, (nowhere, EMPTY_HISTORY, 2)),
        (brute_force_action, (nowhere, EMPTY_HISTORY, 2)),
        (one_step_action_values, (nowhere, EMPTY_HISTORY)),
        (expectimax_action, (belief, History((0,), (1,)), 1)),
        (brute_force_action, (belief, History((0,), (1,)), 1)),
        (one_step_action_values, (belief, History((0,), (1,)))),
    ):
        with pytest.raises(UndefinedConditionalError):
            planner(*args)


def test_expectimax_on_defective_belief_uses_received_mass():
    # The defective env leaks half the mass per step; both actions tie, the
    # value counts only realized reward mass: 1/4 at horizon 1.
    belief = IIDEnv((F(1, 4), F(1, 4)))
    assert expectimax_value(belief, EMPTY_HISTORY, 1) == F(1, 4)
    assert expectimax_action(belief, EMPTY_HISTORY, 1) == 0
