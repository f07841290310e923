"""A mixture checks like any component: by its own walk, not by its members'.

``_check`` counts a mixture's verdicts over its own distinct walk states
(``tests/test_level_fold.py``); where a reader asks for the columns, or the
fold leaves the check to the walk, the mixture's own ``root`` and ``extend``
are walked, as every component's are. The reference is a frozen copy of
``_check`` as one walk of the mixture, checked against members that are
wrong on purpose, dead at the root or mid-walk, undefined, nested and
holding ``Fraction`` masses. Every field, row, column and raised error type
must be equal. An enumerated environment's check is read from its tapes'
tables instead, with the same walk as its reference. The last tests guard
what ``sanity_checks`` walks.
"""
import copy
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab import semimeasure, utm
from uailab.core import ComponentFormatError, UndefinedConditionalError
from uailab.experiments import ScenarioConfig, run_scenario, scenario_mixtures
from uailab.mixture import EnvMixture, JointMixture, MixturePolicy, _Mixture
from uailab.semimeasure import (
    ChronEnv,
    CheckReport,
    DeterministicPolicy,
    IIDEnv,
    JointSemimeasure,
    NoisyCopyEnv,
    Policy,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _alphabet,
    _check_rows,
    _context_at,
    _policy_rows,
    _widths,
    check_chronological,
    check_policy,
    check_semimeasure,
    constant_policy,
    copy_machine,
    exact_mass,
    mu_id,
    uniform_env,
    uniform_measure,
    uniform_policy,
    walk,
)
from uailab.transforms import env, normalize
from uailab.utm import ChronEnumApprox, _whole_opcodes, clear_memo

F = Fraction
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


# ---------------------------------------------------------------------------
# The frozen oracle: the check as one walk of the mixture itself
# ---------------------------------------------------------------------------


def walked_check(nu, depth, alphabet=None):
    """``_check`` as one walk of ``nu``'s own ``root`` and ``extend``, as it was
    before the level fold, verbatim but for its name."""
    alphabet = alphabet or _alphabet(nu)
    joint = alphabet[0]
    fan = 1 if joint else alphabet[1]  # rows per context
    scales = [nu.scale((1 if joint else 2) * t) for t in range(depth + 2)]
    gains = [scales[t + 1] // scales[t] for t in range(depth + 1)]
    root = nu.root()
    lhs_column, rhs_column, witnesses = walk(alphabet, depth, root, nu.extend, gains)
    monotone = []
    for row, s in sorted(witnesses):  # symbol order within a row
        x = _context_at(alphabet, row // fan)
        monotone.append(x + (s,) if joint else (x[0] + (s,), x[1] + (row % fan,)))
    widths = [width * fan for width in _widths(alphabet, depth)]
    return CheckReport(
        kind="semimeasure" if joint else "chronological",
        depth=depth,
        root_mass=exact_mass(nu, 0, root[0]),
        monotone_violations=tuple(monotone),
        declared_measure=nu.declared_measure,
        lhs=lhs_column,
        rhs=rhs_column,
        levels=tuple(zip(widths, scales[1:])),
        row_contexts=partial(_check_rows, alphabet, depth),
    )


def walked_policy_check(pi, depth, percept_arity=2):
    """``check_policy`` before the change, folding :func:`walked_check`."""
    fan, alphabet = pi.action_arity, (False, pi.action_arity, percept_arity)
    rows = partial(_policy_rows, alphabet, depth)
    if not depth:
        root = exact_mass(pi, 0, pi.root()[0])
        return CheckReport("policy", 0, root, (), False, [], [], (), rows)
    report = walked_check(pi, depth - 1, alphabet)
    return CheckReport(
        kind="policy",
        depth=depth,
        root_mass=report.root_mass,
        monotone_violations=tuple(
            (a, e[:-1]) for e, a in report.monotone_violations if not e[-1]
        ),
        declared_measure=False,
        lhs=[percept_arity * m for m in report.lhs[::fan]],
        rhs=[sum(report.rhs[i : i + fan]) for i in range(0, len(report.rhs), fan)],
        levels=tuple((n // fan, scale * percept_arity) for n, scale in report.levels),
        row_contexts=rows,
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is part of the outcome
        return type(exc)


def assert_same_report(got, want):
    if isinstance(want, type):
        assert got is want
        return
    fields = ("kind", "depth", "root_mass", "monotone_violations", "declared_measure", "levels")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert list(got.lhs) == list(want.lhs)
    assert list(got.rhs) == list(want.rhs)
    assert got.rows == want.rows
    assert got == want


# ---------------------------------------------------------------------------
# Test-only members: witnesses, Fraction masses, death at the root and mid-walk
# ---------------------------------------------------------------------------


class _Doubling:
    """Not a semimeasure: symbol s multiplies the mass by s + 1 (except at the
    positions ``kept`` moves no mass at), so every child of symbol 1 outweighs
    its parent, a monotone witness. The mass starts at ``unit``, an int or (over
    scale 1) a ``Fraction``; the walk is dead from length ``dies`` on, at the
    root when it is 0."""

    kept: int | None = None

    def __init__(self, dies, unit=1):
        self.dies, self.unit = dies, unit
        self.declared_measure = False

    def root(self):
        return (self.unit, (0, self.unit)) if self.dies else (0, None)

    def extend(self, state, symbol):
        if state is None or state[0] + 1 >= self.dies:
            return 0, None
        n, mass = state
        if n % 2 != self.kept:
            mass *= symbol + 1
        return mass, (n + 1, mass)


class Doubling(_Doubling, JointSemimeasure):
    eval = JointSemimeasure.fold


class DoublingEnv(_Doubling, ChronEnv):
    kept = 0
    eval = ChronEnv.fold


class DoublingPolicy(_Doubling, Policy):
    kept = 1


class FractionJoint(JointSemimeasure):
    """A table's masses as ``Fraction``s, by the default walk (scale 1)."""

    def __init__(self, base):
        self.base = base
        self.declared_measure = base.declared_measure

    def eval(self, x):
        return self.base.fold(x)


class FractionEnv(ChronEnv):
    def __init__(self, base):
        self.base = base
        self.declared_measure = base.declared_measure

    def eval(self, percepts, actions):
        return self.base.fold(percepts, actions)


ROWS = [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 2)), (F(3, 7), F(4, 7))]
JOINT_KEYS = [x for n in range(4) for x in product((0, 1), repeat=n)]
ENV_KEYS = [
    (e, a)
    for t in range(2)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1), repeat=t + 1)
]
WEIGHTS = st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(1, 7), F(2, 97)])
PAIRS = st.sampled_from([(F(1, 2), F(1, 2)), (1, 0), (F(1, 4), F(3, 4)), (F(1, 3), F(1, 3))])
DEATHS = st.integers(0, 4)
UNITS = st.sampled_from([1, 3, F(1, 3), F(5, 2)])


def tables(cls, keys):
    return st.builds(
        lambda rows, default: cls(dict(zip(keys, rows)), default),
        st.tuples(*(st.sampled_from(ROWS) for _ in keys)),
        st.sampled_from(["halt", "uniform"]),
    )


def weights(n):
    """n mixture weights summing to at most 1."""
    return st.lists(WEIGHTS, min_size=n, max_size=n).map(lambda ws: [w / n for w in ws])


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableJoint, JOINT_KEYS),
    PAIRS,
    DEATHS,
    UNITS,
    weights(6),
    weights(2),
)
def test_joint_mixture_checks_equal_the_walked_mixture(joint, joint2, pair, dies, unit, ws, ws2):
    members = [
        joint,
        FractionJoint(joint2),
        ProductJoint(pair, pair),
        Doubling(dies, unit),
        Doubling(0),  # dead at the root
        normalize(joint2),  # raises where joint2's children all weigh 0
    ]
    inner = JointMixture(members[:3], ws2 + [F(1, 4)])
    for mixture in (
        JointMixture(members, ws),
        JointMixture(members[:4], ws[:4]),
        JointMixture([inner, Doubling(dies, unit), copy_machine()], ws[:3]),  # nested
        JointMixture([Doubling(0), Doubling(0)], ws2),  # dead everywhere
    ):
        for depth in (0, 1, 4):
            assert_same_report(
                outcome(check_semimeasure, mixture, depth), outcome(walked_check, mixture, depth)
            )


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableJoint, JOINT_KEYS),
    PAIRS,
    DEATHS,
    UNITS,
    weights(6),
)
def test_env_mixture_checks_equal_the_walked_mixture(nu, nu2, joint, pair, dies, unit, ws):
    members = [
        nu,
        FractionEnv(nu2),
        NoisyCopyEnv(*pair),
        DoublingEnv(dies, unit),
        DoublingEnv(0),
        env(joint),  # undefined where joint's pending prefix weighs 0
    ]
    inner = EnvMixture(members[:3], ws[:3])
    for mixture in (
        EnvMixture(members, ws),
        EnvMixture(members[:5], ws[:5]),
        EnvMixture([inner, DoublingEnv(dies, unit), IIDEnv(pair)], ws[3:]),  # nested
    ):
        for depth in (0, 1, 3):
            assert_same_report(
                outcome(check_chronological, mixture, depth),
                outcome(walked_check, mixture, depth),
            )


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(PAIRS, DEATHS, UNITS, weights(5), st.integers(1, 3))
def test_policy_mixture_checks_equal_the_walked_mixture(pair, dies, unit, ws, percepts):
    echo = DeterministicPolicy(lambda h: h.percepts[-1] % 2 if h.percepts else 1)
    members = [
        StationaryPolicy(pair),
        echo,
        DoublingPolicy(dies, unit),
        DoublingPolicy(0),
        constant_policy(0),
    ]
    inner = MixturePolicy(members[:2], ws[:2])
    for mixture in (
        MixturePolicy(members, ws),
        MixturePolicy([inner, DoublingPolicy(dies, unit), uniform_policy()], ws[2:]),
    ):
        for depth in (0, 1, 3):
            assert_same_report(
                outcome(check_policy, mixture, depth, percepts),
                outcome(walked_policy_check, mixture, depth, percepts),
            )


def test_shipped_mixture_checks_equal_the_walked_mixtures():
    for mdef in scenario_mixtures().values():
        if mdef.joint is not None:
            assert_same_report(check_semimeasure(mdef.joint, 5), walked_check(mdef.joint, 5))
        if mdef.chron is not None:
            assert_same_report(check_chronological(mdef.chron, 4), walked_check(mdef.chron, 4))


def test_a_combined_check_raises_what_the_walk_raises():
    class Undefined(JointSemimeasure):
        def eval(self, x):
            if len(x) == 2:
                raise UndefinedConditionalError(x, "test")
            return F(1, 4) ** len(x)

    mixture = JointMixture([uniform_measure(), Undefined()], [F(1, 2), F(1, 2)])
    assert outcome(check_semimeasure, mixture, 1) is UndefinedConditionalError
    assert outcome(walked_check, mixture, 1) is UndefinedConditionalError
    assert_same_report(check_semimeasure(mixture, 0), walked_check(mixture, 0))
    depth_error = outcome(walked_check, mixture, -1)
    assert outcome(check_semimeasure, mixture, -1) is depth_error is ComponentFormatError


def test_a_witness_of_a_member_need_not_be_the_mixture_s():
    # Doubling's child of symbol 1 outweighs its parent; mixed with a copy
    # machine that weighs 0 there, it does not at the first percept.
    mixture = JointMixture([Doubling(9), copy_machine()], [F(1, 100), F(99, 100)])
    report = check_semimeasure(mixture, 3)
    assert report == walked_check(mixture, 3)
    assert check_semimeasure(Doubling(9), 3).monotone_violations[:2] == ((1,), (0, 1))
    assert (1,) not in report.monotone_violations
    assert report.monotone_violations  # deeper, the doubling mass wins


def test_a_mixture_check_meeting_a_witness_walks_the_mixture_once(monkeypatch):
    walked = []
    real = semimeasure.walk
    monkeypatch.setattr(semimeasure, "walk", lambda *args: walked.append(args[3]) or real(*args))
    mixture = JointMixture([Doubling(9), copy_machine()], [F(1, 100), F(99, 100)])
    report = check_semimeasure(mixture, 3)
    assert report.monotone_violations
    assert [step.__self__ for step in walked] == [mixture]
    assert [step.__func__ for step in walked] == [JointMixture.extend]
    assert report == walked_check(mixture, 3)


# ---------------------------------------------------------------------------
# An enumerated environment's check, read from its tapes' tables
# ---------------------------------------------------------------------------


def walked_columns(nu, depth):
    """The columns of the check of ``nu``, whose scale is constant, as one walk."""
    return walk(_alphabet(nu), depth, nu.root(), nu.extend, [1] * (depth + 2))


def filed_columns(nu, depth):
    return nu._check_columns(depth, _alphabet(nu))


def assert_same_columns(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert sorted(got[2]) == sorted(want[2])


@pytest.mark.parametrize("steps", [5, 60, 200])
@pytest.mark.parametrize("bits", range(0, 19, 3))
def test_enumerated_check_columns_equal_the_walk(bits, steps):
    # One environment through every depth: each deeper check starts a new
    # walk from the root, as the last one ended at its own last length.
    clear_memo()
    approx = ChronEnumApprox(bits, steps)
    for depth in range(7):
        walked = walked_columns(ChronEnumApprox(bits, steps), depth)
        assert_same_columns(filed_columns(approx, depth), walked)
    clear_memo()


@pytest.mark.parametrize("depth", range(5))
def test_a_check_enters_one_tape_a_length_and_files_its_siblings(depth, monkeypatch):
    # The first tape of each length 0..depth + 1 goes through eval, which
    # holds the enumeration; its siblings are filed from the same cache
    # entry. The tables, their order and the columns are those of asking
    # every tape through eval in rising code order.
    clear_memo()
    asked = ChronEnumApprox(9, 200)
    for t in range(depth + 2):
        for actions in product((0, 1), repeat=t):
            asked.eval((0,) * t, actions)
    calls = []
    real_eval = ChronEnumApprox.eval
    counted = lambda self, *args: calls.append(args) or real_eval(self, *args)  # noqa: E731
    monkeypatch.setattr(ChronEnumApprox, "eval", counted)
    approx = ChronEnumApprox(9, 200)
    got = filed_columns(approx, depth)
    assert [actions for _, actions in calls] == [(0,) * t for t in range(depth + 2)]
    monkeypatch.undo()
    assert list(approx.tables) == list(asked.tables)
    assert dict(approx.tables) == dict(asked.tables)
    assert got == filed_columns(asked, depth)
    assert_same_columns(got, walked_columns(asked, depth))
    clear_memo()


CORRUPTIONS = st.lists(
    # (tape length, tape, percepts, an existing entry's code?, mass above the parent's)
    st.tuples(
        st.integers(1, 5), st.integers(0, 31), st.integers(0, 31), st.booleans(), st.integers(1, 3)
    ),
    min_size=1,
    max_size=30,
)


def corrupt(approx, corruptions):
    """Raise entries of ``approx``'s code tables above their parents' masses:
    existing children, or entries under a zero-mass parent. The tables an
    environment holds are the memo's, so each raised table is a copy that
    ``approx`` alone holds."""
    codes = approx._codes
    for t, tape, percepts, existing, k in corruptions:
        tape = (1 << t) + tape % (1 << t)  # a tape code of length t
        entries = sorted(codes[tape])
        if existing and entries:
            code = entries[percepts % len(entries)]
        else:
            code = (1 << t) + percepts % (1 << t)
        codes[tape] = {**codes[tape], code: codes[tape >> 1].get(code >> 1, 0) + k}


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(CORRUPTIONS)
def test_corrupted_tables_give_the_walked_witnesses(corruptions):
    approx = ChronEnumApprox(9, 200)
    filed_columns(approx, 4)  # every tape up to length 5 has its code table
    corrupt(approx, corruptions)
    got = filed_columns(approx, 4)
    assert got[2]  # the last raised entry outweighs its row
    assert_same_columns(got, walked_columns(approx, 4))


def test_environments_of_one_machine_share_the_memos_tables():
    # An environment holds the memo's tables themselves; a check, eval and
    # every extend read them and change none, and a corrupted environment
    # raises entries of its own copies only.
    clear_memo()
    first = ChronEnumApprox(9, 200)
    filed_columns(first, 3)  # every tape up to length 4
    memo = copy.deepcopy(utm._MEMO)
    second = ChronEnumApprox(10, 200)  # the same machine: 3 opcodes
    assert check_chronological(second, 3).ok
    second.eval((0, 1, 1), (1, 0, 1))
    walked_columns(second, 3)  # root and extend at every context
    assert list(second._codes) == list(first._codes)
    assert all(second._codes[tape] is first._codes[tape] for tape in first._codes)
    assert utm._MEMO == memo
    corrupt(first, [(2, 1, 3, False, 8), (3, 5, 2, True, 8)])
    assert utm._MEMO == memo
    assert not check_chronological(first, 3).ok
    assert check_chronological(ChronEnumApprox(9, 200), 3).ok
    clear_memo()


def test_a_mixture_with_an_enumerated_member_checks_as_walked():
    broken = ChronEnumApprox(12, 200)
    filed_columns(broken, 3)
    # Each raised entry gains mass 1 (8**4 over the scale): more than the
    # other members' weights, so the mixture's child outweighs its row too.
    corrupt(broken, [(2, 1, 3, False, 8**4), (3, 5, 2, True, 8**4), (4, 0, 0, True, 8**4)])
    for member in (ChronEnumApprox(12, 200), broken):
        mixture = EnvMixture([member, mu_id(), uniform_env()], [F(1, 2), F(1, 4), F(1, 8)])
        for depth in (0, 1, 3):
            assert_same_report(check_chronological(mixture, depth), walked_check(mixture, depth))
    assert check_chronological(mixture, 3).monotone_violations


# ---------------------------------------------------------------------------
# What sanity_checks walks
# ---------------------------------------------------------------------------


def test_sanity_walks_each_distinct_check_once(tmp_path, monkeypatch):
    checks = []
    real = semimeasure.walk

    def counted(nu, depth, root, step, gains=None):
        if gains is not None:  # a check walk
            checks.append((step.__self__, nu, depth))
        return real(nu, depth, root, step, gains)

    # An enumerated environment's check is filed from its tapes' tables, not walked.
    filed = []
    real_filed = ChronEnumApprox._check_columns

    def filed_once(self, depth, alphabet):
        filed.append((self, depth))
        return real_filed(self, depth, alphabet)

    monkeypatch.setattr(semimeasure, "walk", counted)
    monkeypatch.setattr(ChronEnumApprox, "_check_columns", filed_once)
    budgets = {"depth": 3, "transform_depth": 2, "consistency_depth": 1, "program_bits": 10}
    assert run_scenario(ScenarioConfig("sanity_checks", tmp_path, budgets=budgets)) == 0
    assert not [nu for nu, _, _ in checks if isinstance(nu, _Mixture)]
    assert [key for key, n in Counter(checks).items() if n > 1] == []
    assert not [nu for nu, _, _ in checks if isinstance(nu, ChronEnumApprox)]
    assert len(set(filed)) == len(filed)
    machines = [(_whole_opcodes(nu.program_bits), nu.steps) for nu, _ in filed]
    assert sorted(machines) == [(3, 60), (6, 60), (6, 200), (9, 200)]
    # Every grid point still writes its rows: the 10-bit ones repeat the 9-bit ones.
    rows = (tmp_path / "enumeration_checks.csv").read_text().splitlines()[1:]
    by_bits = {bits: [] for bits in ("9", "10")}
    for row in rows:
        mode, bits, *rest = row.split(",")
        if bits in by_bits:
            by_bits[bits].append((mode, *rest))
    assert len(rows) == 10 and by_bits["9"] == by_bits["10"] and len(by_bits["9"]) == 2
