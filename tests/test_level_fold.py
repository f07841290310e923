"""The exhaustive readers count over the level fold, against a frozen walk.

``semimeasure._distinct_nodes`` steps each distinct (mass, state) of a level
once, weighted by the contexts that reach it. The checks, the dual round
trips, the normalization-dominance counts and the predictive-consistency
check count over it; where it meets a violation, a witness, a mismatch, an
error or a state that cannot be hashed, they walk every context as before.
The oracles here are frozen copies of that code as it was before the fold:
``walk``, ``_check`` with its ``_columns``, ``_compared`` and the readers of
its pairs, verbatim but for their names. Every report field, row and column,
every round trip's (mismatches, skipped), every dominance result and every
consistency mismatch list must be equal, and so must the class of any
error. The drawn subjects include components that are wrong on purpose, so
that the walk decides, and ones whose states hold a list. The last tests pin
how many steps the fold takes.
"""
from fractions import Fraction
from itertools import accumulate, islice, product
from typing import Any

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab import semimeasure
from uailab.core import EMPTY_HISTORY, ONE, ComponentFormatError, UndefinedConditionalError, count
from uailab.experiments import builtin_components, scenario_mixtures
from uailab.mixture import (
    EnvMixture,
    JointMixture,
    check_predictive_consistency,
    posterior_weights,
    predictive,
)
from uailab.semimeasure import (
    ChronEnv,
    CheckReport,
    DeterministicPolicy,
    JointSemimeasure,
    MismatchRow,
    NoisyCopyEnv,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _alphabet,
    _check_rows,
    _context_at,
    _history,
    _levels,
    _widths,
    check_chronological,
    check_semimeasure,
    constant_policy,
    copy_machine,
    exact_mass,
    mu_id,
    times_ratio,
    uniform_env,
    uniform_policy,
)
from uailab.transforms import (
    EnvView,
    check_env_dual_roundtrip,
    check_normalization_dominance,
    dual,
    env,
    normalize,
)

F = Fraction
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# ---------------------------------------------------------------------------
# The frozen oracles
# ---------------------------------------------------------------------------


def frozen_walk(nu, depth, root, step, gains=None):
    """``semimeasure.walk`` before the fold, verbatim but for its name."""
    filing = gains is None
    depth = count(depth, "depth") + (not filing)  # a check steps one level further, into its rows
    alphabet = _alphabet(nu)
    joint, n_actions, n_percepts = alphabet
    if n_actions < 1 or n_percepts < 1:
        raise ValueError(f"an alphabet of {n_actions} actions and {n_percepts} percepts is empty")
    offsets = [0, *accumulate(_widths(alphabet, depth))]
    groups, fan = ((None,), 1) if joint else (range(n_actions), n_actions)
    ranges = [range(n_percepts if t % 2 or not joint else n_actions) for t in range(depth)]
    percept_strings = [n_percepts**t for t in range(depth + 1)]
    column = [None] * offsets[-1] if filing else [0] * (offsets[-2] * fan)
    sums, above = [] if filing else column.copy(), []
    column[0] = root[0]
    stack = [(0, 0, *root)] if depth and root[1] is not None else []
    pop, push = stack.pop, stack.append
    while stack:
        t, index, mass, state = pop()
        level, deeper, symbols = offsets[t + 1], t + 1 < depth, ranges[t]
        row = (offsets[t] + index) * fan
        if joint:
            first, stride = index * len(symbols), 0
        else:
            a_index, p_index = divmod(index, percept_strings[t])
            stride = percept_strings[t + 1]
            first = a_index * n_actions * stride + p_index * n_percepts
        if not filing and gains[t] != 1:
            mass *= gains[t]
        try:
            for a in groups:
                pending = state if joint else step(state, a)[1]
                total, index = 0, first
                for s in symbols:
                    m, kid = step(pending, s)
                    if filing:
                        column[level + index] = m
                    else:
                        total += m
                        if m > mass:
                            above.append((row, s))
                    if deeper and kid is not None:
                        push((t + 1, index, m, kid))
                    index += 1
                if not filing:
                    column[row], sums[row] = mass, total
                row += 1
                first += stride
        except UndefinedConditionalError as error:
            x = _context_at(alphabet, row // fan)
            raise error.at(x + (s,) if joint else _history(*x) + (a,)) from None
    return column, sums, above


def frozen_columns(nu, depth, alphabet):
    """``semimeasure._columns`` before the fold, outside any scope of checks,
    except that a mixture is walked, the stronger oracle, rather than summed
    from its members' columns."""
    if hasattr(nu, "_check_columns"):
        return nu._check_columns(depth, alphabet)
    scales = [nu.scale((1 if alphabet[0] else 2) * t) for t in range(depth + 2)]
    gains = [b // a for a, b in zip(scales, scales[1:])]
    return frozen_walk(alphabet, depth, nu.root(), nu.extend, gains)


def frozen_check(nu, depth, alphabet=None):
    """``semimeasure._check`` before the fold."""
    count(depth, "depth")
    alphabet = alphabet or _alphabet(nu)
    joint = alphabet[0]
    fan = 1 if joint else alphabet[1]
    scales = [nu.scale((1 if joint else 2) * t) for t in range(1, depth + 2)]
    lhs_column, rhs_column, witnesses = frozen_columns(nu, depth, alphabet)
    monotone = []
    for row, s in sorted(witnesses):
        x = _context_at(alphabet, row // fan)
        monotone.append(x + (s,) if joint else (x[0] + (s,), x[1] + (row % fan,)))
    widths = [width * fan for width in _widths(alphabet, depth)]
    return CheckReport(
        kind="semimeasure" if joint else "chronological",
        depth=depth,
        root_mass=Fraction(lhs_column[0], scales[0]),
        monotone_violations=tuple(monotone),
        declared_measure=nu.declared_measure,
        lhs=lhs_column,
        rhs=rhs_column,
        levels=tuple(zip(widths, scales)),
        row_contexts=lambda: _check_rows(alphabet, depth),
    )


def frozen_compared(lhs, rhs, depth):
    """``semimeasure._compared`` before the fold."""
    alphabet = _alphabet(lhs)
    if _alphabet(rhs) != alphabet:
        lhs_name, rhs_name = (
            f"{type(nu).__name__} of {nu.action_arity} actions and {nu.percept_arity} percepts"
            for nu in (lhs, rhs)
        )
        raise ComponentFormatError(f"cannot compare {lhs_name} with {rhs_name}")
    no_rhs = object()

    def step(state, symbol):
        if state is None:
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

    root = (None, None)
    try:
        lhs_mass, lhs_state = lhs.root()
        root = ((lhs_mass, None), (lhs_state, no_rhs))
        rhs_mass, rhs_state = rhs.root()
        root = ((lhs_mass, rhs_mass), (lhs_state, rhs_state))
    except UndefinedConditionalError:
        pass
    return alphabet, frozen_walk(lhs, depth, root, step)[0]


def frozen_roundtrip(nu, pi, depth):
    """``transforms.check_env_dual_roundtrip`` before the fold."""
    view = env(dual(nu, pi))
    alphabet, pairs = frozen_compared(view, nu, depth)
    mismatches, skipped = [], 0
    for n, slots in _levels(alphabet, depth):
        scale_view, scale_nu = view.scale(n), nu.scale(n)
        for slot in slots:
            masses = pairs[slot]
            if masses is None or masses[1] is None:
                skipped += 1
                continue
            lhs, rhs = masses
            crossed = lhs.numerator * rhs.denominator * scale_nu
            if crossed != rhs.numerator * lhs.denominator * scale_view:
                lhs, rhs = exact_mass(view, n, lhs), exact_mass(nu, n, rhs)
                mismatches.append(MismatchRow(_context_at(alphabet, slot), lhs, rhs))
    return mismatches, skipped


def frozen_dominance(nu, depth):
    """``transforms.check_normalization_dominance`` before the fold."""
    report = frozen_check(nu, depth)
    rows, skipped = [], 0
    columns = enumerate(zip(report.lhs, report.rhs))
    for t, (width, scale) in enumerate(report.levels):
        arity = nu.arity_at(t)
        for slot, (prefix, total) in islice(columns, width):
            if prefix == 0 or total == 0:
                skipped += 1 if prefix == 0 else arity
            elif prefix < total:
                x = _context_at(nu, slot)
                for s in range(arity):
                    mass = nu.fold(x + (s,)) * scale
                    if mass:
                        rows.append(MismatchRow((x, s), mass / prefix, mass / total))
    return rows, skipped


def frozen_consistency(mixture, depth):
    """``mixture.check_predictive_consistency`` before the fold."""

    def step(state, symbol):
        if len(state) == 3:
            mass, pending = mixture.extend(state, symbol)
            return None, pending and (pending, mass and {i for i, m, _ in pending[2] if m == 0})
        pending, zero = state
        mass, child = mixture.extend(pending, symbol)
        gained = zero and child and sum(m for i, m, _ in child[2] if i in zero)
        n, denom, _ = pending
        ratios = (mass, mass - gained) if gained else ()
        return tuple(times_ratio(mixture, ONE, m, n + 1, denom, n) for m in ratios) or None, child

    found = frozen_walk(mixture, 2 * count(depth, "depth") + 2, (None, mixture.root()[1]), step)[0]
    hits = [(_context_at(mixture, slot), pair) for slot, pair in enumerate(found) if pair]
    return [((x[:-1], x[-1]), *pair) for x, pair in hits]


def outcome(fn, *args):
    """``fn(*args)``, or the class of the error it raised."""
    try:
        return fn(*args)
    except Exception as error:  # the error class is part of the outcome
        return type(error)


def fields(report: CheckReport) -> tuple:
    """Every public field of a report, its counts read before its columns."""
    counts = (
        report.contexts,
        report.strict_rows,
        report.equal_rows,
        len(report.violations),
        report.ok,
        report.declaration_verified,
    )
    head = (report.kind, report.depth, report.root_mass, report.monotone_violations)
    tail = (report.declared_measure, report.levels, list(report.lhs), list(report.rhs))
    return head + counts + tail + (report.rows, report.violations)


def check(nu, depth):
    joint = isinstance(nu, JointSemimeasure)
    return fields((check_semimeasure if joint else check_chronological)(nu, depth))


def assert_same_check(nu, depth):
    assert outcome(check, nu, depth) == outcome(lambda: fields(frozen_check(nu, depth)))


def assert_same_readers(nu, depth):
    """The check of ``nu`` and, for a joint one, its dominance counts."""
    assert_same_check(nu, depth)
    if isinstance(nu, JointSemimeasure):
        got = outcome(check_normalization_dominance, nu, depth)
        assert got == outcome(frozen_dominance, nu, depth)


def assert_same_roundtrip(nu, pi, depth):
    got = outcome(check_env_dual_roundtrip, nu, pi, depth)
    assert got == outcome(frozen_roundtrip, nu, pi, depth)


def assert_same_consistency(mixture, depth):
    got = outcome(check_predictive_consistency, mixture, depth)
    assert got == outcome(frozen_consistency, mixture, depth)


# ---------------------------------------------------------------------------
# Subjects wrong on purpose
# ---------------------------------------------------------------------------

FAULTS = ("none", "witness", "over", "zero", "signed")


class _Faulty:
    """Halves its mass at every moving symbol (an environment's actions move
    none), up to length ``at``; from there ``fault`` breaks the rule at the
    child of symbol 1: "witness" doubles the mass (a monotone witness in a
    violating row), "over" keeps it (a violating row, no witness), "zero"
    gives 0 with the state alive, whose children weigh 2^-n again (a witness,
    and in a joint mixture a component of zero posterior that gains mass).
    "signed" doubles it and negates the child of symbol 0: a witness in a row
    of equal sides. States are (length, mass), so a level holds few distinct
    ones."""

    kept: int | None = None

    def __init__(self, at: int, fault: str):
        self.at, self.fault = at, fault
        self.declared_measure = False

    def root(self) -> tuple[Any, Any]:
        return ONE, (0, ONE)

    def extend(self, state, symbol):
        n, mass = state
        if n % 2 == self.kept:
            return mass, (n + 1, mass)
        if mass == 0:
            mass = F(1, 2 ** (n + 1))
        elif n < self.at or self.fault == "none" or (symbol == 0 and self.fault != "signed"):
            mass = mass / 2
        else:
            mass *= {"witness": 2, "over": 1, "zero": 0, "signed": 2 if symbol else -1}[self.fault]
        return mass, (n + 1, mass)


class FaultyJoint(_Faulty, JointSemimeasure):
    eval = JointSemimeasure.fold


class FaultyEnv(_Faulty, ChronEnv):
    kept = 0
    eval = ChronEnv.fold


class LeakyEnv(ChronEnv):
    """Uniform percepts, but from length ``at`` on action 1 halves the mass:
    not a chronological environment's walk, so its dual's view differs from
    it below there."""

    declared_measure = False

    def __init__(self, at: int):
        self.at = at

    eval = ChronEnv.fold

    def root(self):
        return ONE, (0, ONE)

    def extend(self, state, symbol):
        n, mass = state
        if n % 2 == 1 or (n >= self.at and symbol == 1):
            mass = mass / 2
        return mass, (n + 1, mass)


ROWS = [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 2)), (F(3, 7), F(4, 7))]
JOINT_KEYS = [x for n in range(4) for x in product((0, 1), repeat=n)]
ENV_KEYS = [
    (e, a)
    for t in range(2)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1), repeat=t + 1)
]
WEIGHTS = st.lists(  # three weights summing to at most 1
    st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(2, 97)]), min_size=3, max_size=3
).map(lambda ws: [w * 2 / 3 for w in ws])
AT = st.integers(0, 4)


def tables(cls, keys):
    return st.builds(
        lambda rows, default: cls(dict(zip(keys, rows)), default),
        st.tuples(*(st.sampled_from(ROWS) for _ in keys)),
        st.sampled_from(["halt", "uniform"]),
    )


def unhashable_joint():
    """A dual whose policy state holds a list."""
    return dual(mu_id(), DeterministicPolicy(lambda h: 1))


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(tables(TableJoint, JOINT_KEYS), AT, st.sampled_from(FAULTS), WEIGHTS)
def test_joint_checks_and_dominance_equal_the_frozen_walk(table, at, fault, ws):
    faulty = FaultyJoint(at, fault)
    subjects = [
        table,
        faulty,
        JointMixture([table, faulty, copy_machine()], ws),
        JointMixture([table, unhashable_joint()], ws[:2]),
        normalize(table),  # a state with a list, and undefined where children weigh 0
    ]
    for nu in subjects:
        for depth in (0, 1, 4):
            assert_same_readers(nu, depth)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(tables(TableEnv, ENV_KEYS), tables(TableJoint, JOINT_KEYS), AT, st.sampled_from(FAULTS))
def test_env_checks_equal_the_frozen_walk(table, joint, at, fault):
    faulty = FaultyEnv(at, fault)
    subjects = [
        table,
        faulty,
        LeakyEnv(at),
        env(joint),  # undefined where joint's pending prefix weighs 0
        EnvMixture([table, faulty, uniform_env()], [F(1, 3)] * 3),
        EnvMixture([table, env(joint)], [F(1, 2), F(1, 4)]),
    ]
    for nu in subjects:
        for depth in (0, 1, 3):
            assert_same_check(nu, depth)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(tables(TableEnv, ENV_KEYS), AT, st.sampled_from(FAULTS))
def test_round_trips_equal_the_frozen_walk(table, at, fault):
    envs = [table, LeakyEnv(at), FaultyEnv(at, fault), EnvMixture([table, mu_id()], [F(1, 2)] * 2)]
    policies = [uniform_policy(), StationaryPolicy((F(1, 3), F(1, 2))), constant_policy(0)]
    for nu in envs:
        for pi in policies:
            for depth in (0, 1, 3):
                assert_same_roundtrip(nu, pi, depth)


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(tables(TableJoint, JOINT_KEYS), AT, st.sampled_from(FAULTS), WEIGHTS)
def test_consistency_equals_the_frozen_walk(table, at, fault, ws):
    faulty = FaultyJoint(at, fault)
    for mixture in (
        JointMixture([table, faulty, copy_machine()], ws),
        JointMixture([faulty, table], ws[:2]),
        JointMixture([table, unhashable_joint(), faulty], ws),
    ):
        for depth in (0, 1, 2):
            assert_same_consistency(mixture, depth)


def test_the_wrong_subjects_reach_the_walk():
    # Each fault gives what the fold hands to the walk, so the tests above
    # compare the fallback too.
    assert check_semimeasure(FaultyJoint(1, "witness"), 3).monotone_violations
    over = check_semimeasure(FaultyJoint(1, "over"), 3)
    assert over.violations and not over.monotone_violations
    assert check_chronological(FaultyEnv(0, "zero"), 2).monotone_violations
    signed = check_semimeasure(FaultyJoint(1, "signed"), 3)
    assert signed.monotone_violations and not signed.violations
    assert check_env_dual_roundtrip(LeakyEnv(2), uniform_policy(), 3)[0]
    mixture = JointMixture([FaultyJoint(1, "zero"), copy_machine()], [F(1, 2), F(1, 2)])
    assert check_predictive_consistency(mixture, 2)
    assert check_normalization_dominance(FaultyJoint(1, "over"), 3)[0]


SHIPPED = {
    **builtin_components(),
    **{f"{n}:joint": m.joint for n, m in scenario_mixtures().items() if m.joint is not None},
    **{f"{n}:env": m.chron for n, m in scenario_mixtures().items() if m.chron is not None},
    "normalized": normalize(scenario_mixtures()["copy_vs_uniform"].joint),
    "unhashable": unhashable_joint(),
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_subjects_equal_the_frozen_walk(name):
    nu = SHIPPED[name]
    assert_same_readers(nu, 4 if isinstance(nu, JointSemimeasure) else 3)
    if isinstance(nu, ChronEnv):
        for pi in (uniform_policy(), constant_policy(1)):
            assert_same_roundtrip(nu, pi, 3)
    if isinstance(nu, JointMixture):
        assert_same_consistency(nu, 2)


def test_bad_depths_raise_what_the_walk_raises():
    joint, nu = scenario_mixtures()["adversary_rich"].joint, mu_id()
    for depth in (-1, True, 2.0):
        assert_same_readers(joint, depth)
        assert_same_roundtrip(nu, uniform_policy(), depth)
        assert_same_consistency(joint, depth)
    assert outcome(check_normalization_dominance, nu, 2) is ComponentFormatError  # an environment


# ---------------------------------------------------------------------------
# Structural pins
# ---------------------------------------------------------------------------


def distinct_nodes(nu, depth, root, step):
    """How many distinct (mass, state) nodes the walk pops on levels below
    ``depth``, each level stepped from the last's set."""
    joint, n_actions, n_percepts = _alphabet(nu)
    level, total = {root}, 0
    for t in range(depth):
        total += len(level)
        symbols = range(n_percepts if t % 2 or not joint else n_actions)
        kids = set()
        for _, state in level:
            for pending in [state] if joint else [step(state, a)[1] for a in range(n_actions)]:
                stepped = (step(pending, s) for s in symbols)
                kids.update(kid for kid in stepped if kid[1] is not None)
        level = kids
    return total


def counting(monkeypatch, cls, calls):
    real = cls.extend

    def extend(self, state, symbol):
        calls.append(1)
        return real(self, state, symbol)

    monkeypatch.setattr(cls, "extend", extend)


def test_the_noisy_copy_check_steps_each_distinct_state_once(monkeypatch):
    noisy = builtin_components()["noisy_copy_env"]
    distinct = distinct_nodes(noisy, 7, noisy.root(), noisy.extend)
    want = fields(frozen_check(noisy, 6))
    calls: list = []
    counting(monkeypatch, NoisyCopyEnv, calls)
    report = check_chronological(noisy, 6)
    assert (report.strict_rows, report.equal_rows) == want[5:7]
    # Two actions, then two percepts under each: six steps a distinct state;
    # the walk takes about 32,766.
    assert len(calls) == 6 * distinct <= 498
    assert fields(report) == want


def test_the_noisy_copy_round_trip_steps_each_distinct_pair_once(monkeypatch):
    noisy = builtin_components()["noisy_copy_env"]
    view = env(dual(noisy, uniform_policy()))
    pair_root = (None, (view.root()[1], noisy.root()[1]))

    def pair_step(state, symbol):
        lhs, rhs = view.extend(state[0], symbol), noisy.extend(state[1], symbol)
        return (lhs[0], rhs[0]), (lhs[1], rhs[1])

    distinct = distinct_nodes(noisy, 5, pair_root, pair_step)
    calls: list = []
    counting(monkeypatch, EnvView, calls)
    assert check_env_dual_roundtrip(noisy, uniform_policy(), 5) == ([], 0)
    assert distinct == 1 + 2 + 3 + 4 + 5
    assert len(calls) == 6 * distinct  # the walk steps 341 nodes, 2,046 calls


def test_adversary_rich_consistency_takes_at_most_90_mixture_steps(monkeypatch):
    joint = scenario_mixtures()["adversary_rich"].joint
    calls: list = []
    counting(monkeypatch, JointMixture, calls)
    assert check_predictive_consistency(joint, 4) == []
    assert len(calls) <= 90  # the walk takes about 2,000


def test_a_folded_check_walks_only_when_its_columns_are_read(monkeypatch):
    walks = []
    real = semimeasure.walk
    monkeypatch.setattr(semimeasure, "walk", lambda *args: walks.append(1) or real(*args))
    mixture = scenario_mixtures()["adversary_rich"].chron
    report = check_chronological(mixture, 4)
    assert report.ok and report.strict_rows + report.equal_rows == report.contexts
    assert walks == []
    assert report.rows == frozen_check(mixture, 4).rows
    assert len(walks) == 1  # the mixture's own walk


# ---------------------------------------------------------------------------
# The kind rule of the mixture readers and the dominance check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "subject",
    [env(copy_machine()), copy_machine(), EnvMixture([mu_id(), uniform_env()], [F(1, 2)] * 2)],
    ids=["EnvView", "ActionEchoJoint", "EnvMixture"],
)
def test_consistency_takes_only_a_joint_mixture(subject):
    with pytest.raises(ComponentFormatError, match=type(subject).__name__):
        check_predictive_consistency(subject, 2)


@pytest.mark.parametrize(
    "call, subject",
    [
        (lambda nu: posterior_weights(nu, EMPTY_HISTORY, 0), mu_id()),
        (lambda nu: posterior_weights(nu, EMPTY_HISTORY, 0), copy_machine()),
        (lambda nu: predictive(nu, EMPTY_HISTORY, 0), mu_id()),
        (lambda nu: predictive(nu, EMPTY_HISTORY, 0), EnvMixture([mu_id()], [1])),
        (lambda nu: check_normalization_dominance(nu, 2), mu_id()),
        (lambda nu: check_normalization_dominance(nu, 2), EnvMixture([mu_id()], [1])),
    ],
    ids=[
        "posterior_NoisyCopyEnv",
        "posterior_ActionEchoJoint",
        "predictive_NoisyCopyEnv",
        "predictive_EnvMixture",
        "dominance_NoisyCopyEnv",
        "dominance_EnvMixture",
    ],
)
def test_mixture_reads_and_dominance_take_only_their_kind(call, subject):
    with pytest.raises(ComponentFormatError, match=type(subject).__name__):
        call(subject)
