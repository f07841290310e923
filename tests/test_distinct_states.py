"""The two exact folds over the (action, percept) tree step each distinct
walk state once, against plain loops that merge nothing.

thm11's statistics (``experiments._conditional_stats``) walk level by level,
and the expectimax recursion (``agents._action_values``) keeps a memo for one
planner. Both merge equal walk states, since ``extend`` is a pure
function of (state, symbol). The oracles here evaluate whole prefixes with
``eval`` and share nothing between them: thm11's is a loop over all 2^n
action sequences, expectimax's the brute-force policy enumeration and a
recursion with no memo. The drawn mixtures include a table, whose state
carries its context so that nothing merges, and a dual of a deterministic
policy, whose state holds a list and cannot be hashed.
"""
import multiprocessing
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab import agents, experiments
from uailab.agents import brute_force_action, expectimax_action, expectimax_value, policy_value
from uailab.core import (
    BINARY_PERCEPTS,
    EMPTY_HISTORY,
    ONE,
    ZERO,
    History,
    UndefinedConditionalError,
)
from uailab.experiments import (
    ScenarioConfig,
    _conditional_stats,
    _scenario_agents,
    convergence_stats,
    run_scenario,
    scenario_mixtures,
)
from uailab.mixture import EnvMixture, JointMixture
from uailab.semimeasure import (
    ActionEchoJoint,
    DeterministicPolicy,
    IIDEnv,
    NoisyCopyEnv,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    constant_policy,
    mu_id,
    uniform_policy,
)
from uailab.transforms import dual, env

F = Fraction
EMITS = {"identity": (0, 1), "complement": (1, 0)}
MASSES = st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 4), F(1), F(0)])
PAIRS = st.tuples(MASSES, MASSES).filter(lambda p: sum(p) <= 1)
# A failure reports its first example unshrunk: each shrink step runs the
# plain oracles again.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def outcome(fn, *args):
    """``fn(*args)``, or the class of the error it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, UndefinedConditionalError) as error:
        return type(error)


# ---------------------------------------------------------------------------
# thm11's statistics
# ---------------------------------------------------------------------------


def sequence_loop(mixture, env_kinds, normalized, n):
    """Per-step (min, max) of the correct-percept conditional over every action
    sequence of length ``n`` and every env kind, each conditional built from
    ``mixture.eval`` of whole prefixes."""
    mins, maxs = [ONE] * n, [ZERO] * n
    for kind in env_kinds:
        for actions in product((0, 1), repeat=n):
            x = ()
            for t, a in enumerate(actions):
                e = EMITS[kind][a]
                if normalized:
                    denom = sum(mixture.eval(x + (a, s)) for s in range(mixture.percept_arity))
                else:
                    denom = mixture.eval(x + (a,))
                cond = mixture.eval(x + (a, e)) / denom
                mins[t], maxs[t] = min(mins[t], cond), max(maxs[t], cond)
                x += (a, e)
    return mins, maxs


def assert_stats_equal_the_loop(mixture, env_kind, normalized, n):
    want = outcome(sequence_loop, mixture, (env_kind,), normalized, n)
    if want in (ZeroDivisionError, UndefinedConditionalError):
        assert outcome(_conditional_stats, mixture, env_kind, n, normalized) is want
    else:
        assert _conditional_stats(mixture, env_kind, n, normalized) == want


# thm11's three walks: (mixture, env kind, normalized).
SHIPPED_WALKS = [
    ("learnable_deterministic", "identity", True),
    ("learnable_deterministic", "complement", True),
    ("halting_contrast", "identity", False),
]


@pytest.mark.parametrize("name, env_kind, normalized", SHIPPED_WALKS)
@pytest.mark.parametrize("n", range(7))
def test_shipped_stats_equal_the_sequence_loop(n, name, env_kind, normalized):
    mixture = scenario_mixtures()[name].joint
    assert_stats_equal_the_loop(mixture, env_kind, normalized, n)


@pytest.mark.parametrize("n", range(7))
def test_convergence_stats_fold_both_environments_of_the_main_mixture(n):
    mixtures = scenario_mixtures()
    main = mixtures["learnable_deterministic"].joint
    contrast = mixtures["halting_contrast"].joint
    # The main statistic folds both environments by min and max.
    assert convergence_stats(mixtures, n) == [
        sequence_loop(main, ("identity", "complement"), True, n),
        sequence_loop(contrast, ("identity",), False, n),
    ]


@st.composite
def joint_mixtures(draw):
    """A mixture of one or two product or echo components, whose states
    merge, and optionally a table (its state carries its context) and a dual
    of a deterministic policy (its state cannot be hashed)."""
    components = []
    for _ in range(draw(st.integers(1, 2))):
        actions, percepts = draw(PAIRS), draw(PAIRS)
        kinds = [ProductJoint(actions, percepts), ActionEchoJoint(*percepts)]
        components.append(draw(st.sampled_from(kinds)))
    if draw(st.booleans()):
        rows = {(): draw(PAIRS), (1,): draw(PAIRS), (0, 0): draw(PAIRS), (1, 1, 0): draw(PAIRS)}
        components.append(TableJoint(rows, draw(st.sampled_from(["halt", "uniform"]))))
    if draw(st.booleans()):
        action = draw(st.sampled_from([0, 1]))
        pi = DeterministicPolicy(lambda h: action)
        components.append(dual(NoisyCopyEnv(*draw(PAIRS)), pi))
    return JointMixture(components, [F(1, len(components))] * len(components))


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(joint_mixtures(), st.integers(0, 6), st.booleans())
def test_drawn_stats_equal_the_sequence_loop(mixture, n, normalized):
    for kind in ("identity", "complement"):
        assert_stats_equal_the_loop(mixture, kind, normalized, n)


def test_stats_step_each_distinct_state_of_a_level_once(monkeypatch):
    # Every action sequence of a level reaches one walk state of the shipped
    # mixture, so each env kind extends it 2 actions x (1 + 2 percepts) times
    # a level: O(n) steps where a walk of every sequence took O(2^n).
    main = scenario_mixtures()["learnable_deterministic"].joint
    n, calls, real = 64, [], main.extend

    def counted(state, s):
        calls.append(1)
        assert len(calls) <= 2 * 6 * n  # fails at once, not after 2^64 steps
        return real(state, s)

    monkeypatch.setattr(main, "extend", counted)
    for kind in ("identity", "complement"):
        mins, maxs = _conditional_stats(main, kind, n, True)
        assert len(mins) == len(maxs) == n
    assert len(calls) == 2 * 6 * n


@pytest.mark.parametrize("env_kind, normalized", [w[1:] for w in SHIPPED_WALKS])
def test_stats_keep_a_state_that_cannot_be_hashed_unmerged(env_kind, normalized):
    # A dual of a deterministic policy shares a list cell between siblings.
    deterministic = dual(mu_id(), DeterministicPolicy(lambda h: 1))
    mixture = JointMixture([deterministic, ProductJoint()], [F(1, 2)] * 2)
    with pytest.raises(TypeError):
        hash(mixture.root()[1])
    assert_stats_equal_the_loop(mixture, env_kind, normalized, 5)


def test_thm11_at_many_jobs_starts_no_process_and_walks_as_at_one(tmp_path, monkeypatch):
    # ``jobs`` is range-checked and recorded, but the walk is one and in process.
    def no_pool(*args, **kwargs):
        raise AssertionError("thm11 started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    real_mixtures, steps = experiments.scenario_mixtures, {}

    def counted_mixtures(jobs):
        mixtures = real_mixtures()
        main = mixtures["learnable_deterministic"].joint
        real_extend, steps[jobs] = main.extend, 0

        def counted(state, s):
            steps[jobs] += 1
            return real_extend(state, s)

        main.extend = counted
        return mixtures

    for jobs in (1, 4):
        monkeypatch.setattr(experiments, "scenario_mixtures", lambda: counted_mixtures(jobs))
        cfg = ScenarioConfig("thm11_convergence", tmp_path / str(jobs), jobs=jobs)
        assert run_scenario(cfg) == 0
    assert steps[4] == steps[1] == 2 * 6 * cfg.budget("sequence_length")


def test_thm11_runs_far_past_a_walk_of_every_sequence(tmp_path):
    # 2^256 action sequences: the level loop steps each distinct state once,
    # iteratively, so the run takes well under a second and cannot recurse
    # too deeply.
    budgets = {"sequence_length": 256}
    for jobs in (1, 2):
        cfg = ScenarioConfig("thm11_convergence", tmp_path / str(jobs), budgets=budgets, jobs=jobs)
        assert run_scenario(cfg) == 0
        body = (tmp_path / str(jobs) / "summary.txt").read_text()
        assert "oracle comparison skipped: sequence_length 256 differs" in body
        assert f"over all {2 ** 256} action sequences" in body
    for name in ("normalized_min_conditionals.csv", "unnormalized_contrast_conditionals.csv"):
        csv = (tmp_path / "1" / name).read_bytes()
        assert len(csv.splitlines()) == 1 + 256
        assert (tmp_path / "2" / name).read_bytes() == csv


# ---------------------------------------------------------------------------
# The expectimax recursion
# ---------------------------------------------------------------------------


def plain_expectimax(nu, actions, percs, remaining):
    """Best value below a complete history, from ``nu.eval`` of whole
    histories with no memo; None where no action is defined."""
    best = None
    for a in range(nu.action_arity):
        try:
            masses = [nu.eval(percs + (e,), actions + (a,)) for e in range(nu.percept_arity)]
        except UndefinedConditionalError:
            continue
        total = ZERO
        for e, mass in enumerate(masses):
            if mass:
                total += BINARY_PERCEPTS.reward(e) * mass
                if remaining > 1:
                    rest = plain_expectimax(nu, actions + (a,), percs + (e,), remaining - 1)
                    total += ZERO if rest is None else rest
        best = total if best is None or total > best else best
    return best


def plain_policy_value(joint, x, remaining):
    """Expected return of a dual below the complete history ``x``, from
    ``joint.eval`` of whole strings with no memo; zero-mass branches pruned."""
    total = ZERO
    for a in range(joint.action_arity):
        if joint.eval(x + (a,)) == 0:
            continue
        for e in range(joint.percept_arity):
            mass = joint.eval(x + (a, e))
            if mass:
                total += BINARY_PERCEPTS.reward(e) * mass
                if remaining > 1:
                    total += plain_policy_value(joint, x + (a, e), remaining - 1)
    return total


def assert_plans_equal_the_oracles(belief, horizon):
    value = outcome(expectimax_value, belief, EMPTY_HISTORY, horizon)
    want = outcome(plain_expectimax, belief, (), (), horizon)
    if want is None:
        assert value is UndefinedConditionalError
        return
    assert value == want
    brute = outcome(brute_force_action, belief, EMPTY_HISTORY, horizon)
    assert outcome(expectimax_action, belief, EMPTY_HISTORY, horizon) == brute


@st.composite
def env_mixtures(draw):
    """A mixture of copy and i.i.d. environments, whose states merge, and
    optionally a table environment (its state carries its history)."""
    components = [NoisyCopyEnv(*draw(PAIRS)), IIDEnv(draw(PAIRS))]
    if draw(st.booleans()):
        rows = {((), (0,)): draw(PAIRS), ((1,), (1, 0)): draw(PAIRS)}
        components.append(TableEnv(rows, draw(st.sampled_from(["halt", "uniform"]))))
    return EnvMixture(components, [F(1, len(components))] * len(components))


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(joint_mixtures(), env_mixtures(), st.integers(1, 3))
def test_drawn_plans_equal_the_oracles(joint, belief, horizon):
    assert_plans_equal_the_oracles(env(joint), horizon)
    assert_plans_equal_the_oracles(belief, horizon)
    pis = [uniform_policy(), StationaryPolicy((F(1, 3), F(1, 2))), constant_policy(1)]
    for pi in pis:
        want = outcome(plain_policy_value, dual(belief, pi), (), horizon)
        assert outcome(policy_value, pi, belief, horizon) == want


@pytest.mark.parametrize("name", ["copy_vs_uniform", "adversary_rich"])
@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_shipped_plans_equal_the_oracles(name, horizon):
    mdef = scenario_mixtures()[name]
    for belief in (mdef.chron, env(mdef.joint)):
        assert_plans_equal_the_oracles(belief, horizon)
    for pi in (uniform_policy(), constant_policy(0)):
        want = plain_policy_value(dual(mdef.chron, pi), (), horizon)
        assert policy_value(pi, mdef.chron, horizon) == want


def test_plan_expands_each_distinct_state_once(monkeypatch):
    # An environment mixture's state holds each member's (mass, pending
    # action), not the history, so histories meet. Within one plan each
    # distinct (n, remaining, state) is expanded once: its 2 actions and their
    # 2 x 2 percepts extended; a repeat returns the memo's pair.
    belief = scenario_mixtures()["adversary_rich"].chron
    entries, extends = [], []
    real_values, real_extend = agents._action_values, belief.extend

    def entered(nu, state, n, remaining, percepts, fold, memo):
        entries.append(((n, remaining, state), (n, remaining, state) in memo))
        return real_values(nu, state, n, remaining, percepts, fold, memo)

    monkeypatch.setattr(agents, "_action_values", entered)
    counted = lambda state, s: extends.append(1) or real_extend(state, s)  # noqa: E731
    monkeypatch.setattr(belief, "extend", counted)
    horizon = 5
    value = expectimax_value(belief, EMPTY_HISTORY, horizon)
    expanded = [key for key, hit in entries if not hit]
    assert len(expanded) == len(set(expanded)) == len({key for key, _ in entries})
    assert len(extends) == 6 * len(expanded)
    tree = sum(4**d for d in range(horizon))  # the nodes a walk of every history expands
    assert len(expanded) < tree // 4
    monkeypatch.undo()
    assert value == plain_expectimax(belief, (), (), horizon)


# ---------------------------------------------------------------------------
# One planner across histories and horizons
# ---------------------------------------------------------------------------

# Every complete binary history of at most two steps, with each horizon 1..3.
HISTORIES = [History(x[::2], x[1::2]) for t in range(3) for x in product((0, 1), repeat=2 * t)]
ASKS = [(h, m) for h in HISTORIES for m in (1, 2, 3)]


def planned(plan, history, horizon):
    """``plan(history, horizon)``, or the class and context of its error."""
    try:
        return plan(history, horizon)
    except UndefinedConditionalError as error:
        return type(error), error.context


def assert_one_planner_equals_fresh_plans(belief, asks, plain):
    """One planner asked ``asks`` in order: each (mass, values) and action
    equals a fresh per-call plan's, and each value the recursion with no memo
    (``plain``, by ask); an undefined history raises the same error."""
    planner = agents._Planner(belief)
    for history, horizon in asks:
        got = planned(planner.plan, history, horizon)
        fresh = planned(agents._Planner(belief).plan, history, horizon)
        assert got == fresh, (history, horizon)
        want = plain[history, horizon]
        if want is None:
            assert got == (UndefinedConditionalError, (history.percepts, history.actions))
            continue
        assert max(got[1].values()) == want
        action = planned(planner.action, history, horizon)
        assert action == expectimax_action(belief, history, horizon)


def assert_planners_equal_fresh_plans(belief, asks):
    """``asks`` in their order, and deep histories before their prefixes."""
    plain = {
        (h, m): plain_expectimax(belief, h.actions, h.percepts, m) for h, m in set(asks)
    }
    assert_one_planner_equals_fresh_plans(belief, asks, plain)
    deepest_first = sorted(asks, key=lambda ask: -len(ask[0].actions))
    assert_one_planner_equals_fresh_plans(belief, deepest_first, plain)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(joint_mixtures(), env_mixtures(), PAIRS, st.permutations(ASKS), st.integers(1, 16))
def test_one_planner_per_belief_equals_fresh_plans(joint, belief, percepts, order, k):
    # A lone i.i.d. environment's state is its mass numerator, which a row
    # of numerators 1, as (1/2, 1/2), keeps at every length.
    for nu in (env(joint), belief, IIDEnv(percepts)):
        assert_planners_equal_fresh_plans(nu, order[:k])


def fixed_beliefs():
    """The shipped beliefs of ``agents_compare``, and two components whose
    state repeats at every length while their scale grows."""
    beliefs = {}
    for name in ("copy_vs_uniform", "adversary_rich"):
        mdef = scenario_mixtures()[name]
        beliefs[name], beliefs[f"{name}_view"] = mdef.chron, env(mdef.joint)
    beliefs["uniform"] = IIDEnv((F(1, 2), F(1, 2)))
    beliefs["noisy"] = NoisyCopyEnv(F(1, 2), F(1, 2))
    return beliefs


@pytest.mark.parametrize("belief", fixed_beliefs().values(), ids=fixed_beliefs())
def test_one_planner_per_fixed_belief_equals_fresh_plans(belief):
    assert_planners_equal_fresh_plans(belief, ASKS)


def test_agents_compare_expands_each_distinct_state_once(tmp_path, monkeypatch):
    # One planner per belief of each mixture serves every history and
    # horizon, the horizon-1 expectimax of the one-step check included; the 42
    # one-step plans stay calls of their own. A memo per plan expanded 798
    # nodes, as the length was not in its key.
    entries = []
    real_values = agents._action_values

    def entered(nu, state, n, remaining, percepts, fold, memo):
        entries.append((n, remaining, state) in memo)
        return real_values(nu, state, n, remaining, percepts, fold, memo)

    monkeypatch.setattr(agents, "_action_values", entered)
    assert _scenario_agents(ScenarioConfig("agents_compare", tmp_path)).failures == 0
    assert entries.count(False) <= 146
