"""Readers that fold the compare walk's numerators, against frozen copies of
the row readers they replaced.

The domination probes report every depth from one walk, and the dual
round trip counts its mismatches without a row per context. The oracles
below are the ``compare``, ``max_ratio``, ``domination_probe``,
``env_view_ratio_probe`` and ``check_env_dual_roundtrip`` bodies before the
folds, verbatim but for their names: every probe builds a ``MismatchRow``
per compared context, and a deeper probe walks again. The environment view's
walk state holds no prefix, so its undefined queries are located by the
reader that walked them; the pins at the end hold the error class and a
tuple context through each reader, and the counts of walks and expanded
plan states.
"""
from fractions import Fraction
from itertools import product
from typing import Any

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab import adversary, agents, semimeasure
from uailab.adversary import (
    DominationReport,
    _domination_reports,
    copy_conditional_trace,
    domination_probe,
    greedy_antipredict,
)
from uailab.agents import (
    brute_force_action,
    dualistic_aixi_action,
    expectimax_action,
    expectimax_value,
    joint_aixi_action,
    one_step_action,
    policy_value,
)
from uailab.core import EMPTY_HISTORY, ComponentFormatError, History, UndefinedConditionalError
from uailab.experiments import (
    _DIAGONAL_GRID,
    ScenarioConfig,
    _scenario_conj9,
    pair_scenarios,
    scenario_mixtures,
)
from uailab.mixture import EnvMixture, JointMixture, MixturePolicy, predictive
from uailab.semimeasure import (
    ChronEnv,
    DeterministicPolicy,
    JointSemimeasure,
    MismatchRow,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _alphabet,
    _contexts,
    _distinct_nodes,
    _history,
    _widths,
    anticopy_machine,
    check_chronological,
    check_policy,
    compare,
    constant_policy,
    copy_machine,
    exact_mass,
    max_ratio,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
    walk,
)
from uailab.transforms import (
    _ratio_reports,
    check_env_dual_roundtrip,
    chron_to_joint,
    dual,
    dual_mixture,
    env,
    env_view_ratio_probe,
    normalize,
)

F = Fraction
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# ---------------------------------------------------------------------------
# Frozen row readers
# ---------------------------------------------------------------------------


def frozen_compare(lhs, rhs, depth):
    alphabet = _alphabet(lhs)
    if _alphabet(rhs) != alphabet:
        lhs_name, rhs_name = (
            f"{type(nu).__name__} of {nu.action_arity} actions and {nu.percept_arity} percepts"
            for nu in (lhs, rhs)
        )
        raise ComponentFormatError(f"cannot compare {lhs_name} with {rhs_name}")
    no_rhs = object()  # the rhs state at and below a context where rhs is undefined

    def step(state: Any, symbol: int) -> tuple[Any, Any]:
        if state is None:  # lhs undefined here and below
            return None, None
        lhs_state, rhs_state = state
        try:
            lhs_mass, lhs_state = lhs.extend(lhs_state, symbol)
        except UndefinedConditionalError:
            return None, None
        if rhs_state is not no_rhs:
            try:
                rhs_mass, rhs_state = rhs.extend(rhs_state, symbol)
                return (lhs_mass, rhs_mass), (lhs_state, rhs_state)
            except UndefinedConditionalError:
                pass
        return (lhs_mass, None), (lhs_state, no_rhs)

    root: tuple = (None, None)  # lhs undefined at the root
    try:
        lhs_mass, lhs_state = lhs.root()
        root = ((lhs_mass, None), (lhs_state, no_rhs))  # rhs undefined unless it returns
        rhs_mass, rhs_state = rhs.root()
        root = ((lhs_mass, rhs_mass), (lhs_state, rhs_state))
    except UndefinedConditionalError:
        pass
    pairs = walk(lhs, depth, root, step)[0]
    rows = []
    for context, masses in zip(_contexts(alphabet, depth), pairs):
        if masses is not None and masses[1] is not None:
            n = len(context) if alphabet[0] else 2 * len(context[1])
            rows.append(
                MismatchRow(context, exact_mass(lhs, n, masses[0]), exact_mass(rhs, n, masses[1]))
            )
    lhs_undefined = pairs.count(None)
    return rows, lhs_undefined, len(pairs) - lhs_undefined - len(rows)


def frozen_max_ratio(rows):
    best = None
    witness = None
    for row in rows:
        ratio = row.lhs / row.rhs
        if best is None or ratio > best:
            best, witness = ratio, row.witness
    return best, witness


def frozen_probe(mu, xi, depth):
    if isinstance(mu, JointSemimeasure) != isinstance(xi, JointSemimeasure):
        raise TypeError("domination_probe needs two components of the same kind")
    rows, undefined_mu, undefined_xi = frozen_compare(mu, xi, depth)
    best, witness = frozen_max_ratio(r for r in rows if r.rhs != 0)
    return DominationReport(
        depth=depth,
        max_ratio=best,
        witness=witness,
        unbounded_witnesses=tuple(r.witness for r in rows if r.rhs == 0 and r.lhs != 0),
        skipped_zero_zero=sum(1 for r in rows if r.rhs == 0 and r.lhs == 0),
        contexts_checked=len(rows),
        undefined_mu=undefined_mu,
        undefined_xi=undefined_xi,
    )


def frozen_ratio_probe(envs, env_weights, policies, policy_weights, depth, pair_weights=None):
    pair_mix = dual_mixture(envs, env_weights, policies, policy_weights, pair_weights)
    return frozen_probe(env(pair_mix), EnvMixture(envs, env_weights), depth)


def frozen_roundtrip(nu, pi, depth):
    rows, *undefined = frozen_compare(env(dual(nu, pi)), nu, depth)
    return [r for r in rows if r.verdict == "mismatch"], sum(undefined)


def assert_reports_equal_the_frozen_probes(mu, xi, depth):
    """Every depth's report from one walk, in both directions, and the public
    probe the deepest of them."""
    for lhs, rhs in ((mu, xi), (xi, mu)):
        reports = _domination_reports(lhs, rhs, depth)
        assert reports == [frozen_probe(lhs, rhs, d) for d in range(depth + 1)], (lhs, rhs)
        assert domination_probe(lhs, rhs, depth) == reports[-1]


# ---------------------------------------------------------------------------
# Drawn components
# ---------------------------------------------------------------------------

# Binary rows: measures, defective rows, dead ends, and rows whose ratios tie.
ROWS = [
    (0, 0),
    (1, 0),
    (0, 1),
    (F(1, 2), F(1, 2)),
    (F(1, 4), F(1, 2)),
    (F(1, 3), F(1, 3)),
    (F(1, 7), F(80, 97)),
    (F(3, 7), F(4, 7)),
]
JOINT_KEYS = [x for n in range(4) for x in product((0, 1), repeat=n)]
ENV_KEYS = [
    (e, a)
    for t in range(2)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1), repeat=t + 1)
]


def tables(cls, keys):
    return st.builds(
        lambda rows, default: cls(dict(zip(keys, rows)), default),
        st.tuples(*(st.sampled_from(ROWS) for _ in keys)),
        st.sampled_from(["halt", "uniform"]),
    )


class HalfRoot(ChronEnv):
    """Wrong on purpose: half the mass of ``base`` everywhere, its root
    included, so the view of its dual, which starts at 1, doubles it."""

    def __init__(self, base):
        self.base = base

    def eval(self, percepts, actions):
        return self.base.eval(percepts, actions) / 2


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
)
def test_probe_reports_equal_the_frozen_probe_at_every_depth(joint, joint2, nu, nu2):
    mix = JointMixture([joint, joint2], [F(1, 2), F(1, 2)])
    env_mix = EnvMixture([nu, nu2, mu_id()], [F(1, 4), F(1, 4), F(1, 2)])
    # Joint tables: zero-zero and unbounded rows wherever a halt row meets a live one.
    assert_reports_equal_the_frozen_probes(joint, joint2, 4)
    assert_reports_equal_the_frozen_probes(mix, normalize(joint), 4)
    # Environment tables, and views undefined below a zero-mass action.
    assert_reports_equal_the_frozen_probes(nu, env_mix, 3)
    assert_reports_equal_the_frozen_probes(env(joint), env_mix, 3)
    assert_reports_equal_the_frozen_probes(env(mix), env(joint2), 3)
    assert_reports_equal_the_frozen_probes(env(normalize(mix)), nu2, 2)


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(tables(TableEnv, ENV_KEYS), st.sampled_from(ROWS[3:]), st.integers(0, 1))
def test_roundtrip_mismatches_equal_the_frozen_filtered_rows(nu, row, action):
    policies = [uniform_policy(), StationaryPolicy(row), constant_policy(action)]
    deficient = MixturePolicy(tuple(policies[:2]), (F(1, 4), F(1, 2)))
    for base in (nu, EnvMixture([nu, uniform_env()], [F(1, 2), F(1, 2)])):
        for pi in (*policies, deficient):
            for wrong in (False, True):
                subject = HalfRoot(base) if wrong else base
                got = check_env_dual_roundtrip(subject, pi, 3)
                assert got == frozen_roundtrip(subject, pi, 3)
                assert bool(got[0]) == wrong  # the root, at least, where it is doubled


def test_a_wrong_double_mismatches_where_both_sides_are_defined():
    mismatches, skipped = check_env_dual_roundtrip(HalfRoot(mu_id()), uniform_policy(), 2)
    assert (mismatches, skipped) == frozen_roundtrip(HalfRoot(mu_id()), uniform_policy(), 2)
    assert mismatches[0] == MismatchRow(((), ()), F(1), F(1, 2))
    # mu_id copies: one live percept per action, so 1 + 2 + 4 contexts to depth
    # 2 weigh more than 0, and the view is undefined at the 8 below a mismatch.
    assert (len(mismatches), skipped) == (7, 8)


@pytest.mark.parametrize("name", ["copy_vs_uniform", "adversary_rich"])
def test_shipped_conj9_pairs_report_every_depth_as_the_frozen_probe(name):
    mdef = scenario_mixtures()[name]
    assert_reports_equal_the_frozen_probes(env(mdef.joint), mdef.chron, 4)


@pytest.mark.parametrize("grid", [None, _DIAGONAL_GRID], ids=["factored", "diagonal"])
def test_ratio_reports_equal_the_frozen_ratio_probe_at_every_depth(grid):
    hetero = pair_scenarios()["hetero_pair"]
    args = (hetero.envs, hetero.env_weights, hetero.policies, hetero.policy_weights)
    reports = _ratio_reports(*args, 4, grid)
    assert reports == [frozen_ratio_probe(*args, d, grid) for d in range(5)]
    assert env_view_ratio_probe(*args, 4, grid) == reports[-1]


def test_every_count_of_a_report_is_met_at_some_depth():
    # Copy against anticopy: zero-zero and unbounded rows; a copy's view
    # against mu_id: contexts undefined on the left, then on the right.
    pairs = [(copy_machine(), anticopy_machine(), 4), (env(copy_machine()), mu_id(), 3)]
    for mu, xi, depth in pairs:
        assert_reports_equal_the_frozen_probes(mu, xi, depth)
    joint = _domination_reports(copy_machine(), anticopy_machine(), 4)[-1]
    assert joint.unbounded_witnesses and joint.skipped_zero_zero
    view = _domination_reports(env(copy_machine()), mu_id(), 3)
    assert view[-1].undefined_mu and view[0].max_ratio == 1
    assert _domination_reports(mu_id(), env(copy_machine()), 3)[-1].undefined_xi


def test_ties_keep_the_first_maximum():
    # The uniform measure against half of itself: every context ties at
    # ratio 2, so the first one, the root, wins at every depth.
    uniform = TableJoint({}, "uniform")
    halved = JointMixture([uniform], [F(1, 2)])
    for depth in range(4):
        report = _domination_reports(uniform, halved, depth)[-1]
        assert report == frozen_probe(uniform, halved, depth)
        assert (report.max_ratio, report.witness) == (2, ())
    assert max_ratio(compare(uniform, halved, 2)[0]) == (2, ())


def test_probe_depth_zero_gives_an_empty_sweep(tmp_path):
    cfg = ScenarioConfig("conj9_search", tmp_path, budgets={"probe_depth": 0})
    outcome = _scenario_conj9(cfg)
    assert [rows for _, rows in outcome.tables.values()] == [[], []]
    assert outcome.failures == 0


# ---------------------------------------------------------------------------
# The probes' level fold
# ---------------------------------------------------------------------------


class XorEnv(ChronEnv):
    """Test-only: percept t follows the row of (percept t - 1 xor action t),
    the first percept the row of its action; the walk state holds the last
    percept, so histories from different parents meet."""

    rows = ((F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)))
    eval = ChronEnv.fold

    def root(self):
        return F(1), (F(1), 0, None)  # (mass, last percept, pending row)

    def extend(self, state, symbol):
        mass, last, row = state
        if row is None:
            return mass, (mass, last, last ^ symbol)
        mass *= self.rows[row][symbol]
        return mass, (mass, symbol, None)


def context_nodes(nu, depth):
    """Each level's (least index, contexts) of every distinct (mass, state)
    of ``nu``, each context walked from the root on its own."""
    alphabet, levels = _alphabet(nu), []
    contexts = _contexts(alphabet, depth)
    for width in _widths(alphabet, depth):
        nodes = {}
        for index in range(width):
            context = next(contexts)
            node = nu.root()
            for s in context if alphabet[0] else _history(*context):
                node = nu.extend(node[1], s)
            least, n = nodes.get(node, (index, 0))
            nodes[node] = min(least, index), n + 1
        levels.append(sorted(nodes.values()))
    return levels


@pytest.mark.parametrize(
    "nu, depth",
    [
        (XorEnv(), 3),
        (scenario_mixtures()["adversary_rich"].chron, 3),
        (env(scenario_mixtures()["copy_vs_uniform"].joint), 3),
        (scenario_mixtures()["adversary_rich"].joint, 5),
    ],
    ids=["xor", "adversary_rich", "copy_vs_uniform_view", "adversary_rich_joint"],
)
def test_each_distinct_node_carries_its_least_slot(nu, depth):
    nodes = _distinct_nodes(_alphabet(nu), depth + 1, nu.root(), nu.extend)
    folded = [[] for _ in range(depth + 1)]
    for t, n, _, _, index in nodes:
        folded[t].append((index, n))
    assert [sorted(level) for level in folded] == context_nodes(nu, depth)


def test_a_later_parent_reaches_a_node_at_a_smaller_slot():
    # XorEnv's node (3/8, last percept 0) on level 2 is met first from
    # (0 || 0) by action 1 at index 4, then from (1 || 0) by action 0 at
    # index 2, its least.
    nu = XorEnv()
    nodes = _distinct_nodes(_alphabet(nu), 3, nu.root(), nu.extend)
    level = [(index, mass) for t, _, mass, _, index in nodes if t == 2]
    assert (2, F(3, 8)) in level
    assert [index for index, _ in level] != sorted(index for index, _ in level)


def walks_of(call, monkeypatch):
    """``call()``, and how many walks it made."""
    walks = []
    real_walk = semimeasure.walk
    monkeypatch.setattr(semimeasure, "walk", lambda *args: walks.append(1) or real_walk(*args))
    result = call()
    monkeypatch.undo()
    return result, len(walks)


def test_a_tie_keeps_the_least_slot_of_a_later_inserted_node(monkeypatch):
    # Against the uniform environment, (0 0 || 0 1) and (1 0 || 0 0) tie at
    # ratio 2 on level 2. The first's node is a child of the first node of
    # level 1, by action 1, so it is filed first; the second, a child of the
    # next node by action 0, holds the smaller slot and is the witness.
    rows = {((), (0,)): (F(1, 2), F(1, 2)), ((0,), (0, 1)): (1, 0), ((1,), (0, 0)): (1, 0)}
    mu, xi = TableEnv(rows, "uniform"), uniform_env()
    reports, walks = walks_of(lambda: _domination_reports(mu, xi, 3), monkeypatch)
    assert walks == 0
    assert reports == [frozen_probe(mu, xi, d) for d in range(4)]
    assert (reports[2].max_ratio, reports[2].witness) == (2, ((1, 0), (0, 0)))
    assert_reports_equal_the_frozen_probes(XorEnv(), uniform_env(), 4)
    assert_reports_equal_the_frozen_probes(XorEnv(), scenario_mixtures()["adversary_rich"].chron, 4)


@pytest.mark.parametrize(
    "mu, xi",
    [
        (copy_machine(), anticopy_machine()),  # rhs = 0: unbounded witnesses
        (mu_id(), env(copy_machine())),  # an undefined side
        (env(copy_machine()), mu_id()),  # dead nodes below an undefined lhs
        (dual(mu_id(), DeterministicPolicy(lambda h: 1)), dual(uniform_env(), uniform_policy())),
    ],
    ids=["unbounded", "undefined_rhs", "dead", "deterministic_policy_dual"],  # the last: unhashable
)
def test_a_probe_the_fold_cannot_decide_walks(mu, xi, monkeypatch):
    depth = 4 if isinstance(mu, JointSemimeasure) else 3
    reports, walks = walks_of(lambda: _domination_reports(mu, xi, depth), monkeypatch)
    assert walks == 1
    assert reports == [frozen_probe(mu, xi, d) for d in range(depth + 1)]


def test_the_conj9_mixture_probes_step_each_distinct_pair_once(monkeypatch):
    # copy_vs_uniform holds 1, 2, 2, 2 distinct pair states on levels 0-3 and
    # adversary_rich 1, 2, 3, 4; each is stepped by its 2 actions and their
    # 2 x 2 percepts. A walk of every context made 510 steps a probe.
    steps = []
    real_paired = adversary._paired

    def paired(lhs, rhs):
        alphabet, root, step = real_paired(lhs, rhs)
        return alphabet, root, lambda state, s: steps.append(1) or step(state, s)

    monkeypatch.setattr(adversary, "_paired", paired)
    counts = []
    for name in ("copy_vs_uniform", "adversary_rich"):
        mdef = scenario_mixtures()[name]
        for mu, xi in ((env(mdef.joint), mdef.chron), (mdef.chron, env(mdef.joint))):
            steps.clear()
            _domination_reports(mu, xi, 4)
            counts.append(len(steps))
    assert counts == [42, 42, 60, 60]


# ---------------------------------------------------------------------------
# Structural pins
# ---------------------------------------------------------------------------


def test_conj9_walks_once_per_mixture_direction_and_grid(tmp_path, monkeypatch):
    walks, folds = [], []
    real_walk, real_fold = semimeasure.walk, semimeasure._distinct_nodes
    counted = lambda *args: walks.append(1) or real_walk(*args)  # noqa: E731
    monkeypatch.setattr(semimeasure, "walk", counted)
    folded = lambda *args: folds.append(1) or real_fold(*args)  # noqa: E731
    monkeypatch.setattr(semimeasure, "_distinct_nodes", folded)
    outcome = _scenario_conj9(ScenarioConfig("conj9_search", tmp_path))
    # 2 mixtures x 2 directions, and 2 ratio grids, each folded once and
    # never walked: a constant policy is a point mass, whose duals hash. A
    # walk per depth made 24.
    assert (len(folds), len(walks)) == (6, 0)
    assert [len(rows) for _, rows in outcome.tables.values()] == [16, 8]


@pytest.mark.parametrize(
    "name, entries, value",
    [("copy_vs_uniform", 29, F(15, 4)), ("adversary_rich", 41, F(13953, 4096))],
)
def test_joint_view_plans_expand_each_distinct_state_once(name, entries, value, monkeypatch):
    # The view's state holds no prefix, so histories that meet in one base
    # state share one entry: with its prefix, each of the 341 nodes had one.
    joint = scenario_mixtures()[name].joint
    seen = []
    real_values = agents._action_values

    def entered(nu, state, n, remaining, percepts, fold, memo):
        seen.append(((n, remaining, state), (n, remaining, state) in memo))
        return real_values(nu, state, n, remaining, percepts, fold, memo)

    monkeypatch.setattr(agents, "_action_values", entered)
    assert expectimax_value(env(joint), EMPTY_HISTORY, 5) == value
    expanded = [key for key, hit in seen if not hit]
    assert len(seen) == entries
    assert len(expanded) == len(set(expanded)) == len({key for key, _ in seen})


def test_an_undefined_view_query_keeps_its_class_and_a_tuple_context():
    view = env(JointMixture([copy_machine()], [F(1)]))  # undefined after a mismatch
    # eval: the query's pending prefix.
    with pytest.raises(UndefinedConditionalError) as err:
        view.eval((1, 0), (0, 0))
    assert err.value.context == (0, 1, 0)
    # A check walks into it: the first pending prefix its depth-first walk meets.
    with pytest.raises(UndefinedConditionalError) as err:
        check_chronological(view, 2)
    assert err.value.context == (1, 1, 1, 0, 0)
    # compare counts the undefined contexts on either side.
    assert compare(view, mu_id(), 2)[1:] == frozen_compare(view, mu_id(), 2)[1:] == (8, 0)
    assert compare(mu_id(), view, 2)[1:] == (0, 8)
    # The planners: an undefined history names itself.
    mismatched = History((1,), (0,))  # action 1, then percept 0
    for plan in (expectimax_action, one_step_action):
        with pytest.raises(UndefinedConditionalError) as err:
            plan(view, mismatched)
        assert err.value.context == ((0,), (1,))  # (percepts, actions)
    with pytest.raises(UndefinedConditionalError) as err:
        joint_aixi_action(view.base, mismatched, 2)
    assert err.value.context == ((0,), (1,))  # (percepts, actions)
    # A policy's value below the history: the history's string, and how far below.
    never_zero = env(dual(mu_id(), constant_policy(1)))  # action 0 weighs nothing
    with pytest.raises(UndefinedConditionalError) as err:
        policy_value(uniform_policy(), never_zero, 1)
    assert (err.value.context, type(err.value)) == ((), UndefinedConditionalError)
    assert "context () (env view, at length 1)" in str(err.value)
    with pytest.raises(UndefinedConditionalError) as err:
        policy_value(uniform_policy(), never_zero, 1, history=History((1,), (1,)))
    assert err.value.context == (1, 1)
    # The predictive distribution of a mixture that walks the view: its prefix.
    mixture = JointMixture([dual(never_zero, uniform_policy()), uniform_measure()], [F(1, 2)] * 2)
    with pytest.raises(UndefinedConditionalError) as err:
        predictive(mixture, EMPTY_HISTORY, 0)
    assert err.value.context == (0,)


@pytest.mark.parametrize(
    "call",
    [
        lambda: env(mu_id()),
        lambda: normalize(mu_id()),
        lambda: dual(copy_machine(), uniform_policy()),
        lambda: dual(mu_id(), mu_id()),
        lambda: chron_to_joint(copy_machine()),
        lambda: check_env_dual_roundtrip(mu_id(), mu_id(), 2),
        lambda: expectimax_action(copy_machine()),
        lambda: expectimax_value(uniform_measure()),
        lambda: one_step_action(uniform_measure()),
        lambda: dualistic_aixi_action(copy_machine()),
        lambda: brute_force_action(copy_machine()),
        lambda: joint_aixi_action(mu_id()),
        lambda: policy_value(uniform_policy(), copy_machine(), 2),
        lambda: policy_value(mu_id(), mu_id(), 2),
    ],
)
def test_a_component_of_the_wrong_kind_is_refused_by_name(call):
    kinds = r"[A-Z]\w+ is not a (JointSemimeasure|ChronEnv|Policy)$"
    with pytest.raises(ComponentFormatError, match=kinds):
        call()


@pytest.mark.parametrize(
    "call, subject, kind",
    [
        (check_policy, mu_id(), "Policy"),
        (check_policy, copy_machine(), "Policy"),
        (greedy_antipredict, mu_id(), "JointSemimeasure"),
        (greedy_antipredict, uniform_policy(), "JointSemimeasure"),
        (copy_conditional_trace, mu_id(), "JointSemimeasure"),
        (copy_conditional_trace, env(copy_machine()), "JointSemimeasure"),
    ],
)
def test_a_check_or_trace_of_the_wrong_kind_names_its_class(call, subject, kind):
    # Each answered before: the policy check reported ok, and the traces
    # recorded conditionals of 1.
    argument = (0, 1) if call is copy_conditional_trace else 2
    with pytest.raises(ComponentFormatError, match=f"{type(subject).__name__} is not a {kind}$"):
        call(subject, argument)
