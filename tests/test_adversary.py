from fractions import Fraction
from itertools import product
from typing import Any

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab.adversary import (
    AdversaryStep,
    AdversaryTrace,
    copy_conditional_trace,
    domination_probe,
    greedy_antipredict,
)
from uailab.core import ONE, ComponentFormatError, UndefinedConditionalError
from uailab.experiments import scenario_mixtures
from uailab.mixture import EnvMixture, JointMixture
from uailab.semimeasure import (
    JointSemimeasure,
    TableJoint,
    anticopy_machine,
    copy_machine,
    defective_uniform,
    leaky_copy,
    mu_id,
    times_ratio,
    uniform_env,
    uniform_measure,
)
from uailab.transforms import env, normalize
from uailab.utm import enumerate_joint

F = Fraction


def test_greedy_tiebreak_and_recorded_conditional():
    mix = JointMixture([copy_machine(), anticopy_machine()], [F(3, 4), F(1, 4)])
    trace = greedy_antipredict(mix, 1)
    step = trace.steps[0]
    # Both actions give copy-conditional 3/4: tie resolves to action 0.
    assert step.action == 0
    assert step.conditional == F(3, 4)


def test_greedy_cannot_hurt_the_pure_copier():
    trace = greedy_antipredict(copy_machine(), 6)
    assert all(s.conditional == 1 for s in trace.steps)
    assert trace.final_product == 1


def test_greedy_on_uniform_measure_is_memoryless():
    trace = greedy_antipredict(uniform_measure(), 8)
    assert all(s.conditional == F(1, 2) for s in trace.steps)
    assert trace.final_product == F(1, 2) ** 8


def test_greedy_truncates_on_dead_prefix():
    # The pure anticopy machine zeroes every copy continuation immediately.
    trace = greedy_antipredict(anticopy_machine(), 5)
    assert trace.truncated
    assert len(trace.steps) == 1
    assert trace.steps[0].conditional == 0


def test_telescoping_product_equals_env_view():
    mix = JointMixture(
        [copy_machine(), uniform_measure(), anticopy_machine()],
        [F(1, 4), F(1, 2), F(1, 4)],
    )
    trace = greedy_antipredict(mix, 8)
    view = env(mix)
    for step in trace.steps:
        played = trace.actions[: step.t]
        assert view.eval(played, played) == step.cumulative
    products = [s.cumulative for s in trace.steps]
    assert all(b <= a for a, b in zip(products, products[1:]))  # factors <= 1


def test_greedy_step_choice_attains_the_minimum():
    mix = JointMixture(
        [copy_machine(), uniform_measure(), anticopy_machine()],
        [F(1, 4), F(1, 2), F(1, 4)],
    )
    trace = greedy_antipredict(mix, 6)
    prefix = ()
    for step in trace.steps:
        conds = {}
        for a in (0, 1):
            pending = prefix + (a,)
            if mix.eval(pending) > 0:
                conds[a] = mix.eval(pending + (a,)) / mix.eval(pending)
        assert step.conditional == min(conds.values())
        best = min(a for a, c in conds.items() if c == step.conditional)
        assert step.action == best
        prefix = prefix + (step.action, step.action)


def test_normalized_uniform_trace_is_half_forever():
    hat = normalize(uniform_measure())
    trace = copy_conditional_trace(hat, (1, 0, 1, 1))
    assert [s.conditional for s in trace.steps] == [F(1, 2)] * 4


def test_normalized_copy_mixture_learns_the_copier():
    # Bayes walk by hand: odds double each step, conditionals
    # (2^t + 1) / (2^t + 2) strictly increasing toward 1.
    mix = JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])
    trace = copy_conditional_trace(normalize(mix), (1,) * 8)
    conds = [s.conditional for s in trace.steps]
    assert conds[:3] == [F(3, 4), F(5, 6), F(9, 10)]
    assert all(b > a for a, b in zip(conds, conds[1:]))
    assert conds[-1] == F(257, 258)


def test_unnormalized_defective_mixture_stays_below_one():
    # The best copier in class leaks a quarter of its mass per step, so the
    # raw conditionals are bounded by 3/4 at every step (proved exactly by
    # the mass identity lc_t = (3/8) lc_{t-1}).
    mix = JointMixture(
        [leaky_copy(F(3, 4)), defective_uniform(F(1, 4))], [F(1, 2), F(1, 2)]
    )
    trace = copy_conditional_trace(mix, (1,) * 8)
    conds = [s.conditional for s in trace.steps]
    assert conds[0] == F(7, 12)
    assert conds[1] == F(37, 52)
    assert all(c < F(3, 4) for c in conds)
    hat_trace = copy_conditional_trace(normalize(mix), (1,) * 8)
    assert all(s.conditional > F(3, 4) for s in hat_trace.steps)


def test_copy_trace_truncates_on_dead_prefix():
    trace = copy_conditional_trace(copy_machine(), (1, 0))
    full = copy_conditional_trace(anticopy_machine(), (1, 1))
    assert not trace.truncated and len(trace.steps) == 2
    assert full.truncated and full.steps[0].conditional == 0


def test_domination_inclusion_bound():
    mix = JointMixture([copy_machine(), uniform_measure()], [F(1, 4), F(3, 4)])
    report = domination_probe(copy_machine(), mix, 5)
    assert report.max_ratio is not None and report.max_ratio <= 4
    assert not report.unbounded_witnesses
    # Hand check of the witness it found: all-zero strings maximize the
    # copier's share, ratio (1/4) / (1/16 + 3/64) = 16/7.
    assert report.max_ratio == F(16, 7)
    assert report.witness == (0, 0, 0, 0)


def test_domination_unbounded_witness():
    report = domination_probe(uniform_measure(), copy_machine(), 2)
    assert report.unbounded_witnesses  # uniform mass where copy has none


def test_domination_probe_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        domination_probe(uniform_measure(), mu_id(), 3)
    # One kind over two alphabets: compare refuses it, naming both sides.
    three, two = "ProductJoint of 3 actions and 2 percepts", "ProductJoint of 2 actions and 2 percepts"
    for mu, xi, sides in (
        (uniform_measure(3, 2), uniform_measure(), f"{three} with {two}"),
        (uniform_env(3), mu_id(), "IIDEnv of 2 actions and 3 percepts with NoisyCopyEnv of 2 actions"),
        (uniform_measure(), uniform_measure(3, 2), f"{two} with {three}"),
    ):
        with pytest.raises(ComponentFormatError, match=sides):
            domination_probe(mu, xi, 2)


def test_theorem8_shadow_identity_floor():
    # Any chronological mixture holding the identity env at weight w keeps
    # value >= w on every copy sequence: exhaustive to depth 5 plus traces.
    from itertools import product as iproduct

    w_id = F(1, 2)
    chron = EnvMixture([mu_id(), uniform_env()], [w_id, F(1, 2)])
    for t in range(6):
        for actions in iproduct((0, 1), repeat=t):
            assert chron.eval(actions, actions) >= w_id
    joint = JointMixture(
        [uniform_measure(), anticopy_machine()], [F(1, 2), F(1, 2)]
    )
    trace = greedy_antipredict(joint, 10)
    for step in trace.steps:
        played = trace.actions[: step.t]
        assert chron.eval(played, played) >= w_id
        assert chron.eval(played, played) / step.cumulative >= 1


def test_traces_refuse_an_action_or_copy_outside_the_alphabet():
    mix = JointMixture([copy_machine(), uniform_measure()], [F(1, 2), F(1, 2)])
    for actions, position in (((-1,), 0), ((5,), 0), ((True,), 0), ((1, 2), 2)):
        with pytest.raises(ComponentFormatError, match=f"at position {position},"):
            copy_conditional_trace(mix, actions)
    # Action 2 of three has no copy among two percepts: the copy is refused.
    with pytest.raises(ComponentFormatError, match="holds 2 at position 1,"):
        copy_conditional_trace(uniform_measure(3, 2), (2,))
    for steps in (0, 1):
        with pytest.raises(ComponentFormatError, match="3 actions and 2 percepts"):
            greedy_antipredict(uniform_measure(3, 2), steps)
    # A percept for every action is all a trace needs.
    assert greedy_antipredict(uniform_measure(2, 3), 2).final_product == F(1, 9)
    assert copy_conditional_trace(uniform_measure(2, 3), (1, 0)).final_product == F(1, 9)


# ---------------------------------------------------------------------------
# The two trace loops as they were before they became one, frozen: the
# reference oracle of the one loop, on every input those loops accepted.
# ---------------------------------------------------------------------------


def scratch_copy_step(xi: JointSemimeasure, n: int, state: Any, action: int):
    denom, pending = xi.extend(state, action)
    if denom == 0:
        raise UndefinedConditionalError(action, "copy conditional of the pending action")
    mass, child = xi.extend(pending, action)
    return times_ratio(xi, ONE, mass, n + 2, denom, n + 1), child


def scratch_greedy_antipredict(xi, steps):
    trace: list[AdversaryStep] = []
    state = xi.root()[1]
    cumulative = ONE
    for t in range(1, steps + 1):
        candidates = []
        for a in range(xi.action_arity):
            try:
                conditional, child = scratch_copy_step(xi, 2 * (t - 1), state, a)
            except UndefinedConditionalError:
                continue
            candidates.append((conditional, a, child))
        if not candidates:
            return AdversaryTrace(tuple(trace), truncated=True)
        conditional, action, state = min(candidates)  # ties: smallest action
        cumulative *= conditional
        trace.append(AdversaryStep(t, action, conditional, cumulative))
        if cumulative == 0:
            return AdversaryTrace(tuple(trace), truncated=True)
    return AdversaryTrace(tuple(trace), truncated=False)


def scratch_copy_conditional_trace(xi, actions):
    trace: list[AdversaryStep] = []
    state = xi.root()[1]
    cumulative = ONE
    for t, a in enumerate(tuple(actions), start=1):
        try:
            conditional, state = scratch_copy_step(xi, 2 * (t - 1), state, a)
        except ZeroDivisionError:  # undefined or unnormalizable conditional
            return AdversaryTrace(tuple(trace), truncated=True)
        cumulative *= conditional
        trace.append(AdversaryStep(t, a, conditional, cumulative))
        if cumulative == 0:
            return AdversaryTrace(tuple(trace), truncated=True)
    return AdversaryTrace(tuple(trace), truncated=False)


def assert_traces_equal_the_frozen_loops(xi, steps, sequences):
    """Whole traces, truncation flags included, at every step count to
    ``steps`` and along every supplied sequence; returns the supplied traces."""
    for n in range(steps + 1):
        assert greedy_antipredict(xi, n) == scratch_greedy_antipredict(xi, n), (xi, n)
    traces = [copy_conditional_trace(xi, actions) for actions in sequences]
    assert traces == [scratch_copy_conditional_trace(xi, actions) for actions in sequences]
    return traces


def every_sequence(n_actions, length):
    return [a for n in range(length + 1) for a in product(range(n_actions), repeat=n)]


# A failing oracle test reports its first falsifying example unshrunk: each
# shrink step would walk every trace again through both loops.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def copy_tables(draw):
    """Joint tables to depth 4 with a percept for every action, whose rows
    may be zero (a dead copy, so a truncation) or equal (ties)."""
    n_actions, n_percepts = draw(st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 3)]))

    def row(arity):
        onehot = [tuple(F(int(i == j)) for i in range(arity)) for j in (0, arity - 1)]
        even = [(F(1, arity),) * arity, (F(1, arity + 1),) * arity]
        return st.sampled_from([(F(0),) * arity, *even, *onehot, (F(1, 2), *even[1][1:])])

    alphabet = [range(n_actions), range(n_percepts)] * 2
    keys = [x for n in range(5) for x in product(*alphabet[:n])]
    rows = {x: draw(row(n_percepts if len(x) % 2 else n_actions)) for x in keys}
    return TableJoint(rows, draw(st.sampled_from(["halt", "uniform"])), n_actions, n_percepts)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(copy_tables(), copy_tables(), st.data())
def test_one_trace_loop_equals_the_frozen_loops(table, table2, data):
    for xi in (table, normalize(table)):
        actions = data.draw(st.lists(st.integers(0, xi.action_arity - 1), max_size=6))
        sequences = [*every_sequence(xi.action_arity, 3), tuple(actions)]
        assert_traces_equal_the_frozen_loops(xi, 6, sequences)
    if (table.action_arity, table.percept_arity) == (table2.action_arity, table2.percept_arity):
        mix = JointMixture([table, table2], [F(1, 2), F(1, 3)])
        assert_traces_equal_the_frozen_loops(mix, 6, every_sequence(mix.action_arity, 3))


def test_one_trace_loop_on_shipped_enumerated_and_dead_predictors():
    one_way = TableJoint({(): (F(1), F(0)), (0,): (F(1, 2), F(1, 2))}, "uniform")
    approx = enumerate_joint(9, 200, 16)
    shipped = [m.joint for m in scenario_mixtures().values() if m.joint is not None]
    # (predictor, greedy steps, supplied sequences, whether one must die)
    cases = [(xi, 8, every_sequence(2, 4), False) for xi in shipped]
    cases += [
        (approx, 8, every_sequence(2, 5), True),  # the enumeration's copies die out
        (anticopy_machine(), 4, [(1, 1), (0,), (1, 0, 1)], True),
        (one_way, 4, [(1,), (0, 1), (0, 0, 1), (0, 0, 0, 0)], True),
        (JointMixture([anticopy_machine(), one_way], [F(1, 2)] * 2), 4, [(1, 1, 1), (0, 1, 0)], True),
    ]
    for xi, steps, sequences, dies in cases:
        for x in (xi, normalize(xi)):
            traces = assert_traces_equal_the_frozen_loops(x, steps, sequences)
            assert any(t.truncated for t in traces) or not dies, x
