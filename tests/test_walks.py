"""Prefix-sharing walks against frozen from-scratch oracles.

A component that walks evaluates by folding its walk (``eval`` is
``JointSemimeasure.fold`` or ``ChronEnv.fold``), so its ``eval`` cannot be
the reference for its walk. The from-scratch ``eval`` bodies those classes
had are kept here, frozen, as :func:`scratch_eval`. Every ``root``/``extend``
step and every fold must give exactly the frozen body at every context, and
every walk-based routine (the exhaustive checkers, ``compare``, the
predictive-consistency check, normalization dominance, expectimax, the
adversary traces and the domination probe) must give exactly what its
former from-scratch loop gave. The loops are kept here too, and read their
masses from :func:`scratch_eval`, never from a fold.
"""
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uailab.adversary import (
    AdversaryStep,
    AdversaryTrace,
    DominationReport,
    copy_conditional_trace,
    domination_probe,
    greedy_antipredict,
)
from uailab.agents import (
    expectimax_action,
    expectimax_value,
    joint_aixi_action,
    one_step_action_values,
)
from uailab.core import (
    BINARY_PERCEPTS,
    EMPTY_HISTORY,
    HALF,
    ONE,
    ZERO,
    ComponentFormatError,
    History,
    NormalizationError,
    PerceptAlphabet,
    PerceptSymbol,
    UndefinedConditionalError,
)
from uailab.experiments import builtin_components, scenario_mixtures
from uailab.mixture import (
    EnvMixture,
    JointMixture,
    check_predictive_consistency,
)
from uailab.semimeasure import (
    ActionEchoJoint,
    ChronEnv,
    DeterministicPolicy,
    IIDEnv,
    JointSemimeasure,
    MismatchRow,
    MixturePolicy,
    NoisyCopyEnv,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _default_row,
    check_chronological,
    check_semimeasure,
    compare,
    constant_policy,
    contexts,
    copy_machine,
    max_ratio,
    mu_id,
    uniform_measure,
)
from uailab.transforms import (
    DualJoint,
    EnvView,
    NormalizedPredictor,
    check_normalization_dominance,
    dual,
    env,
    normalize,
)
from uailab.utm import ChronEnumApprox, JointEnumApprox, enumerate_joint

F = Fraction
UNDEFINED = (UndefinedConditionalError, NormalizationError)

# Binary conditional rows: measures, defective rows and dead ends, and
# denominators (7, 97, the prime 2**31 - 1) that make the lcm scales large.
P31 = 2**31 - 1
ROWS = [
    (0, 0),
    (1, 0),
    (0, 1),
    (F(1, 2), F(1, 2)),
    (F(1, 4), F(1, 2)),
    (F(1, 3), F(1, 3)),
    (F(1, 7), F(80, 97)),
    (F(3, 7), F(4, 7)),
    (F(1, P31), F(6, 7)),
]
# Ternary rows, for the actions of the three-action components and the
# percepts of a three-percept environment.
ROWS3 = [
    (0, 0, 0),
    (1, 0, 0),
    (0, 0, 1),
    (F(1, 3), F(1, 3), F(1, 3)),
    (F(1, 2), F(1, 4), F(1, 4)),
    (F(1, 4), 0, F(1, 2)),
    (F(1, 7), F(80, 97), 0),
    (F(1, P31), F(6, 7), F(1, 97)),
]
JOINT_KEYS = [x for n in range(5) for x in product((0, 1), repeat=n)]
ENV_KEYS = [
    (e, a)
    for t in range(3)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1), repeat=t + 1)
]
# Keys over three actions and two percepts.
JOINT_KEYS3 = [x for n in range(5) for x in product(*([range(3), range(2)] * 2)[:n])]
ENV_KEYS3 = [
    (e, a)
    for t in range(3)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1, 2), repeat=t + 1)
]
PAIRS = st.sampled_from(
    [
        (F(1, 2), F(1, 2)),
        (1, 0),
        (F(1, 4), F(3, 4)),
        (F(1, 3), F(1, 3)),
        (0, 0),
        (F(2, 7), F(5, 97)),
        (F(P31 - 1, P31), F(1, P31)),
    ]
)


def tables(cls, keys, action_arity=2):
    """Tables over ``keys`` with binary percepts; a joint table's action rows
    have ``action_arity`` entries."""

    def row(key):
        action_row = action_arity == 3 and cls is TableJoint and len(key) % 2 == 0
        return st.sampled_from(ROWS3 if action_row else ROWS)

    return st.builds(
        lambda rows, default: cls(dict(zip(keys, rows)), default, action_arity),
        st.tuples(*map(row, keys)),
        st.sampled_from(["halt", "uniform"]),
    )


class EvalOnlyJoint(JointSemimeasure):
    """Delegates ``eval`` only, so every walk takes the default path."""

    def __init__(self, base):
        self.base = base
        self.action_arity = base.action_arity
        self.percept_arity = base.percept_arity
        self.declared_measure = base.declared_measure

    def eval(self, x):
        return scratch_eval(self.base, x)


class EvalOnlyEnv(ChronEnv):
    """Delegates ``eval`` only, so every walk takes the default path."""

    def __init__(self, base):
        self.base = base
        self.action_arity = base.action_arity
        self.percept_arity = base.percept_arity
        self.declared_measure = base.declared_measure

    def eval(self, percepts, actions):
        return scratch_eval(self.base, percepts, actions)


class Flicker(JointSemimeasure):
    """Not a semimeasure: zero on odd lengths, positive on even ones."""

    def eval(self, x):
        return F(0) if len(x) % 2 else F(1, 2) ** len(x)


class Overfull(JointSemimeasure):
    """Not a semimeasure: mass 1 everywhere, so extensions sum to 2."""

    def eval(self, x):
        return F(1)


class FlickerEnv(ChronEnv):
    """Not chronological: zero after an odd number of steps."""

    def eval(self, percepts, actions):
        return F(0) if len(actions) % 2 else F(1, 4) ** len(actions)


# ---------------------------------------------------------------------------
# Frozen from-scratch evaluators (the reference for every walk and fold)
# ---------------------------------------------------------------------------
# The ``eval`` bodies of the eleven folding classes before ``eval`` became
# the fold of their walk, verbatim but for ``scratch_eval(c, ...)`` in place
# of a nested ``c.eval(...)``, so that no oracle reads a walk.


def product_joint_eval(self, x):
    out = ONE
    for i, sym in enumerate(x):
        out *= self.action_probs[sym] if i % 2 == 0 else self.percept_probs[sym]
        if out == 0:
            return ZERO
    return out


def action_echo_joint_eval(self, x):
    out = ONE
    for i in range(0, len(x), 2):
        out *= HALF
        if i + 1 < len(x):
            out *= self.match if x[i + 1] == x[i] else self.mismatch
            if out == 0:
                return ZERO
    return out


def noisy_copy_env_eval(self, percepts, actions):
    if len(percepts) != len(actions):
        raise ComponentFormatError("percept/action strings must have equal length")
    out = ONE
    for e, a in zip(percepts, actions):
        out *= self.match if e == a else self.mismatch
        if out == 0:
            return ZERO
    return out


def iid_env_eval(self, percepts, actions):
    if len(percepts) != len(actions):
        raise ComponentFormatError("percept/action strings must have equal length")
    out = ONE
    for e in percepts:
        out *= self.percept_probs[e]
        if out == 0:
            return ZERO
    return out


def table_joint_conditional_row(self, ctx):
    row = self.rows.get(ctx)
    return _default_row(self.default, self.arity_at(len(ctx))) if row is None else row


def table_joint_eval(self, x):
    out = ONE
    for i, sym in enumerate(x):
        out *= table_joint_conditional_row(self, x[:i])[sym]
        if out == 0:
            return ZERO
    return out


def table_env_conditional_row(self, e_ctx, a_ctx):
    row = self.rows.get((e_ctx, a_ctx))
    return _default_row(self.default, self.percept_arity) if row is None else row


def table_env_eval(self, percepts, actions):
    if len(percepts) != len(actions):
        raise ComponentFormatError("percept/action strings must have equal length")
    out = ONE
    for i, e in enumerate(percepts):
        out *= table_env_conditional_row(self, percepts[:i], actions[: i + 1])[e]
        if out == 0:
            return ZERO
    return out


def joint_mixture_eval(self, x):
    return sum((w * scratch_eval(c, x) for c, w in zip(self.components, self.weights)), ZERO)


def env_mixture_eval(self, percepts, actions):
    return sum(
        (w * scratch_eval(c, percepts, actions) for c, w in zip(self.components, self.weights)),
        ZERO,
    )


def env_view_eval(self, percepts, actions):
    if len(percepts) != len(actions):
        raise ComponentFormatError("percept/action strings must have equal length")
    out = ONE
    prefix = ()
    for a, e in zip(actions, percepts):
        denom = scratch_eval(self.base, prefix + (a,))
        if denom == 0:
            raise UndefinedConditionalError(prefix + (a,), "env view")
        out *= scratch_eval(self.base, prefix + (a, e)) / denom
        prefix = prefix + (a, e)
    return out


def dual_joint_eval(self, x):
    actions = x[0::2]
    percepts = x[1::2]
    w = self.pi.weight(actions, percepts)
    if w == 0:
        return ZERO
    return w * scratch_eval(self.nu, percepts, actions[: len(percepts)])


def normalized_conditional(self, x, symbol):
    """``NormalizedPredictor.conditional``, reading the frozen base."""
    arity = self.arity_at(len(x))
    masses = [scratch_eval(self.base, x + (s,)) for s in range(arity)]
    total = sum(masses, ZERO)
    if total == 0:
        raise NormalizationError(x)
    return masses[symbol] / total


def normalized_predictor_eval(self, x):
    out = ONE
    for i in range(len(x)):
        out *= normalized_conditional(self, x[:i], x[i])
        if out == 0:
            return ZERO
    return out


FROZEN = {
    ProductJoint: product_joint_eval,
    ActionEchoJoint: action_echo_joint_eval,
    NoisyCopyEnv: noisy_copy_env_eval,
    IIDEnv: iid_env_eval,
    TableJoint: table_joint_eval,
    TableEnv: table_env_eval,
    JointMixture: joint_mixture_eval,
    EnvMixture: env_mixture_eval,
    EnvView: env_view_eval,
    DualJoint: dual_joint_eval,
    NormalizedPredictor: normalized_predictor_eval,
}


def scratch_eval(nu, *context):
    """``nu`` at one context by its frozen body; a class that keeps its own
    ``eval`` (the enumerations and the doubles here) answers for itself."""
    body = FROZEN.get(type(nu))
    return nu.eval(*context) if body is None else body(nu, *context)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the undefinedness it raised."""
    try:
        return fn(*args)
    except UNDEFINED as exc:
        return type(exc)


def walk_value(nu, n, mass):
    """The exact value of a walk mass at a context of ``n`` symbols, after
    checking the scale contract there: ``scale(n)`` is a positive int that
    divides ``scale(n + 1)``, and the mass is an int or a Fraction."""
    scale = nu.scale(n)
    assert type(scale) is int and scale > 0 and nu.scale(n + 1) % scale == 0, (nu, n)
    assert type(mass) in (int, Fraction), (nu, n, mass)  # never a bool or a float
    return Fraction(mass, scale)


def assert_walk_matches_eval(nu, depth):
    """Walk every context up to ``depth``, comparing each step and ``eval``
    (the fold, for a component that walks) with the frozen body; where the
    body raises, both raise the same type, and nothing below is compared."""
    mass, state = nu.root()
    if isinstance(nu, JointSemimeasure):
        assert walk_value(nu, 0, mass) == scratch_eval(nu, ()) == nu.eval(())

        def visit(state, x):
            for s in range(nu.arity_at(len(x))):
                want = outcome(scratch_eval, nu, x + (s,))
                assert outcome(nu.eval, x + (s,)) == want, (x, s)
                got = outcome(nu.extend, state, s)
                if isinstance(want, type):
                    assert got is want, (x, s)
                    continue
                assert walk_value(nu, len(x) + 1, got[0]) == want, (x, s)
                if len(x) + 1 < depth:
                    visit(got[1], x + (s,))

        visit(state, ())
        return
    assert walk_value(nu, 0, mass) == scratch_eval(nu, (), ()) == nu.eval((), ())

    def visit_env(state, mass, percepts, actions):
        n = 2 * len(actions)
        for a in range(nu.action_arity):
            pending_mass, pending = nu.extend(state, a)
            # An action moves no mass, and no scale.
            assert pending_mass == mass and nu.scale(n + 1) == nu.scale(n)
            for e in range(nu.percept_arity):
                want = outcome(scratch_eval, nu, percepts + (e,), actions + (a,))
                assert outcome(nu.eval, percepts + (e,), actions + (a,)) == want
                got = outcome(nu.extend, pending, e)
                if isinstance(want, type):
                    assert got is want, (percepts, actions, a, e)
                    continue
                assert walk_value(nu, n + 2, got[0]) == want, (percepts, actions, a, e)
                if len(actions) + 1 < depth:
                    visit_env(got[1], got[0], percepts + (e,), actions + (a,))

    visit_env(state, mass, (), ())


# ---------------------------------------------------------------------------
# Frozen from-scratch loops (the reference)
# ---------------------------------------------------------------------------


def scratch_check(nu, depth):
    """(root mass, rows, monotone violations) as the eval loops computed them."""
    rows, bad = [], []
    if isinstance(nu, JointSemimeasure):
        for x in contexts(nu, depth):
            lhs = scratch_eval(nu, x)
            kids = [scratch_eval(nu, x + (s,)) for s in range(nu.arity_at(len(x)))]
            rows.append((x, lhs, sum(kids, ZERO)))
            bad.extend(x + (s,) for s, m in enumerate(kids) if m > lhs)
        return scratch_eval(nu, ()), rows, bad
    for e, a in contexts(nu, depth):
        lhs = scratch_eval(nu, e, a)
        for a2 in range(nu.action_arity):
            kids = [scratch_eval(nu, e + (e2,), a + (a2,)) for e2 in range(nu.percept_arity)]
            rows.append(((e, a, a2), lhs, sum(kids, ZERO)))
            bad.extend((e + (e2,), a + (a2,)) for e2, m in enumerate(kids) if m > lhs)
    return scratch_eval(nu, (), ()), rows, bad


def eval_at(nu, context):
    """``nu`` at one context of the kind :func:`contexts` yields for it."""
    joint = isinstance(nu, JointSemimeasure)
    return scratch_eval(nu, context) if joint else scratch_eval(nu, *context)


def scratch_compare(lhs, rhs, depth):
    rows, lhs_undefined, rhs_undefined = [], 0, 0
    for context in contexts(lhs, depth):
        try:
            value = eval_at(lhs, context)
        except UNDEFINED:
            lhs_undefined += 1
            continue
        try:
            rows.append((context, value, eval_at(rhs, context)))
        except UNDEFINED:
            rhs_undefined += 1
    return rows, lhs_undefined, rhs_undefined


def scratch_dominance(nu, depth):
    hat = normalize(nu)
    violations, skipped = [], 0
    for x in contexts(nu, depth):
        raw_prefix = scratch_eval(nu, x)
        if raw_prefix == 0:
            skipped += 1
            continue
        for s in range(nu.arity_at(len(x))):
            raw = scratch_eval(nu, x + (s,)) / raw_prefix
            try:
                hatted = normalized_conditional(hat, x, s)
            except NormalizationError:
                skipped += 1
                continue
            if hatted < raw:
                violations.append(((x, s), raw, hatted))
    return violations, skipped


def scratch_consistency(mixture, depth):
    """The former loop over ``posterior_weights`` and ``predictive``, with
    their bodies inlined to read the frozen masses."""
    mismatches = []
    for prefix in contexts(mixture, 2 * depth + 1):
        if len(prefix) % 2 == 0 or scratch_eval(mixture, prefix) == 0:
            continue
        masses = [scratch_eval(c, prefix) for c in mixture.components]
        total = sum((w * m for w, m in zip(mixture.weights, masses)), ZERO)
        posterior = [w * m / total for w, m in zip(mixture.weights, masses)]
        denom = scratch_eval(mixture, prefix)
        for e in range(mixture.percept_arity):
            lhs = scratch_eval(mixture, prefix + (e,)) / denom
            rhs = ZERO
            for i, c in enumerate(mixture.components):
                if posterior[i] != 0:
                    rhs += posterior[i] * (scratch_eval(c, prefix + (e,)) / masses[i])
            if lhs != rhs:
                mismatches.append(((prefix, e), lhs, rhs))
    return mismatches


def scratch_percept_masses(nu, actions, percs, a):
    """The mass of each percept after action ``a``; None where ``a`` is undefined."""
    try:
        return [scratch_eval(nu, percs + (e,), actions + (a,)) for e in range(nu.percept_arity)]
    except UNDEFINED:
        return None


def scratch_expectimax(nu, actions, percs, remaining):
    """(value, action); (None, 0) where no action is defined."""
    best_value, best_action = None, 0
    for a in range(nu.action_arity):
        masses = scratch_percept_masses(nu, actions, percs, a)
        if masses is None:
            continue
        total = ZERO
        for e, mass in enumerate(masses):
            if mass == 0:
                continue
            total += BINARY_PERCEPTS.reward(e) * mass
            if remaining > 1:
                rest = scratch_expectimax(nu, actions + (a,), percs + (e,), remaining - 1)[0]
                total += ZERO if rest is None else rest
        if best_value is None or total > best_value:
            best_value, best_action = total, a
    return best_value, best_action


def scratch_one_step_values(belief, history, percepts):
    """``one_step_action_values`` through the former ``ChronEnv.conditional``,
    over the defined actions."""
    try:
        denom = scratch_eval(belief, history.percepts, history.actions)
    except UNDEFINED:
        denom = 0
    if denom == 0:
        raise UndefinedConditionalError((history.percepts, history.actions))
    values = {}
    for a in range(belief.action_arity):
        masses = scratch_percept_masses(belief, history.actions, history.percepts, a)
        if masses is not None:
            values[a] = sum((percepts.reward(e) * (m / denom) for e, m in enumerate(masses)), ZERO)
    if not values:
        raise UndefinedConditionalError((history.percepts, history.actions))
    return values


def scratch_copy_conditional(xi, prefix, action):
    pending = prefix + (action,)
    denom = scratch_eval(xi, pending)
    if denom == 0:
        raise UndefinedConditionalError(pending, "copy conditional")
    return scratch_eval(xi, pending + (action,)) / denom


def scratch_greedy(xi, steps):
    trace, prefix, cumulative = [], (), F(1)
    for t in range(1, steps + 1):
        candidates = []
        for a in range(xi.action_arity):
            try:
                candidates.append((scratch_copy_conditional(xi, prefix, a), a))
            except UndefinedConditionalError:
                continue
        if not candidates:
            return AdversaryTrace(tuple(trace), truncated=True)
        conditional, action = min(candidates)
        cumulative *= conditional
        trace.append(AdversaryStep(t, action, conditional, cumulative))
        prefix = prefix + (action, action)
        if cumulative == 0:
            return AdversaryTrace(tuple(trace), truncated=True)
    return AdversaryTrace(tuple(trace), truncated=False)


def scratch_copy_trace(xi, actions):
    trace, prefix, cumulative = [], (), F(1)
    for t, a in enumerate(tuple(actions), start=1):
        try:
            conditional = scratch_copy_conditional(xi, prefix, a)
        except (UndefinedConditionalError, ZeroDivisionError):
            return AdversaryTrace(tuple(trace), truncated=True)
        cumulative *= conditional
        trace.append(AdversaryStep(t, a, conditional, cumulative))
        prefix = prefix + (a, a)
        if cumulative == 0:
            return AdversaryTrace(tuple(trace), truncated=True)
    return AdversaryTrace(tuple(trace), truncated=False)


def scratch_probe(mu, xi, depth):
    compared, undefined_mu, undefined_xi = scratch_compare(mu, xi, depth)
    rows = [MismatchRow(*row) for row in compared]
    best, witness = max_ratio(r for r in rows if r.rhs != 0)
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


def assert_one_step_matches_scratch(belief, history, percepts):
    """The same values, or an error of the same type (a pending history included)."""

    def result(fn):
        try:
            return fn(belief, history, percepts)
        except (ZeroDivisionError, ComponentFormatError) as exc:
            return type(exc)

    assert result(one_step_action_values) == result(scratch_one_step_values), history


def assert_adversary_matches_scratch(xi, steps, actions):
    assert outcome(greedy_antipredict, xi, steps) == outcome(scratch_greedy, xi, steps)
    assert copy_conditional_trace(xi, actions) == scratch_copy_trace(xi, actions)


def assert_probe_matches_scratch(mu, xi, depth):
    """The same report in both directions."""
    for lhs, rhs in ((mu, xi), (xi, mu)):
        assert domination_probe(lhs, rhs, depth) == scratch_probe(lhs, rhs, depth), (lhs, rhs)


def assert_check_matches_scratch(nu, depth):
    check = check_semimeasure if isinstance(nu, JointSemimeasure) else check_chronological
    report = outcome(check, nu, depth)
    want = outcome(scratch_check, nu, depth)
    if isinstance(want, type):  # e.g. a normalized table with a dead end
        assert report is want
        return
    root, rows, bad = want
    assert report.contexts == len(report.rows)
    assert report.root_mass == root
    assert [(r.context, r.lhs, r.rhs) for r in report.rows] == rows
    assert list(report.monotone_violations) == bad
    verdicts = [r.verdict for r in report.rows]
    assert report.violations == tuple(r for r in report.rows if r.verdict == "violation")
    assert (report.strict_rows, report.equal_rows) == (
        verdicts.count("strict"),
        verdicts.count("equal"),
    )


def assert_compare_matches_scratch(lhs, rhs, depth):
    rows, lhs_undefined, rhs_undefined = compare(lhs, rhs, depth)
    got = ([(r.witness, r.lhs, r.rhs) for r in rows], lhs_undefined, rhs_undefined)
    assert got == scratch_compare(lhs, rhs, depth)


def assert_expectimax_matches_scratch(nu, history, horizon):
    want = scratch_expectimax(nu, history.actions, history.percepts, horizon)
    value = outcome(expectimax_value, nu, history, horizon)
    action = outcome(expectimax_action, nu, history, horizon)
    if want[0] is None:  # no defined root action
        assert value is action is UndefinedConditionalError
    else:
        assert (value, action) == want


# ---------------------------------------------------------------------------
# Random tables through every override
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
    PAIRS,
    PAIRS,
)
def test_every_walk_step_equals_eval(joint, joint2, nu, nu2, pair, filler):
    pi = StationaryPolicy(filler)
    deficient = MixturePolicy((pi, constant_policy(0)), (F(1, 4), F(1, 2)))
    # Repeats the last percept: the weight reads the history.
    echo = DeterministicPolicy(lambda h: h.percepts[-1] if h.percepts else 1)
    joint_mix = JointMixture(
        [joint, joint2, ProductJoint(pair, filler), ActionEchoJoint(*pair), EvalOnlyJoint(joint)],
        [F(1, 5)] * 5,
    )
    env_mix = EnvMixture(
        [nu, nu2, NoisyCopyEnv(*pair), IIDEnv(filler), EvalOnlyEnv(nu)], [F(1, 5)] * 5
    )
    # A zero that is not absorbing keeps its component in the mixture walk.
    assert_walk_matches_eval(JointMixture([joint, Flicker()], [F(1, 2), F(1, 2)]), 5)
    assert_walk_matches_eval(EnvMixture([nu, FlickerEnv()], [F(1, 2), F(1, 2)]), 3)
    for component in (
        joint,
        ProductJoint(pair, (F(1, 3), F(1, 3), F(1, 3))),
        ActionEchoJoint(*pair),
        joint_mix,
        dual(nu, pi),
        dual(env_mix, pi),
        dual(env(joint), pi),
        dual(nu, constant_policy(1)),
        dual(env_mix, deficient),
        dual(nu, echo),
        dual(env(joint), echo),
        normalize(joint),
        normalize(joint_mix),
    ):
        assert_walk_matches_eval(component, 5)
    for component in (nu, NoisyCopyEnv(*pair)):
        assert_walk_matches_eval(component, 5)
    assert_walk_matches_eval(env_mix, 4)
    assert_walk_matches_eval(IIDEnv((F(1, 4), F(1, 4), F(1, 2))), 3)
    for component in (env(joint), env(joint_mix), env(dual(nu, pi)), env(normalize(joint))):
        assert_walk_matches_eval(component, 3)


@settings(max_examples=15, deadline=None)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
    PAIRS,
)
def test_walks_equal_their_from_scratch_loops(joint, joint2, nu, nu2, filler):
    pi = StationaryPolicy(filler)
    joint_mix = JointMixture([joint, joint2, EvalOnlyJoint(joint2)], [F(1, 4), F(1, 2), F(1, 4)])
    env_mix = EnvMixture([nu, nu2], [F(1, 3), F(2, 3)])
    # Integer members next to a Fraction one: the mixture's numerators are Fractions.
    mixed_env = EnvMixture([nu, EvalOnlyEnv(nu2), IIDEnv(filler)], [F(1, 7), F(2, 97), F(1, 2)])
    for component in (joint, joint_mix, dual(env_mix, pi), normalize(joint_mix)):
        assert_check_matches_scratch(component, 5)
    for component in (
        nu,
        env_mix,
        mixed_env,
        IIDEnv((F(1, 4), F(1, 4), F(1, 2))),
        EvalOnlyEnv(env_mix),
    ):
        assert_check_matches_scratch(component, 3)
    assert_compare_matches_scratch(env(joint_mix), env_mix, 3)
    assert_compare_matches_scratch(mixed_env, env(joint_mix), 3)
    assert_compare_matches_scratch(joint_mix, dual(mixed_env, pi), 5)
    assert_compare_matches_scratch(env(dual(nu, pi)), nu, 3)
    assert_compare_matches_scratch(joint_mix, dual(env_mix, pi), 5)
    assert_compare_matches_scratch(EvalOnlyEnv(env(joint)), env(joint2), 3)
    for mixture in (joint_mix, JointMixture([joint, dual(nu, pi)], [F(1, 2), F(1, 2)])):
        rows, skipped = check_normalization_dominance(mixture, 4)
        assert ([(r.witness, r.lhs, r.rhs) for r in rows], skipped) == scratch_dominance(mixture, 4)
        assert check_predictive_consistency(mixture, 2) == scratch_consistency(mixture, 2)
    for belief in (nu, env_mix, env(joint), env(joint_mix), EvalOnlyEnv(env(joint))):
        for history in (EMPTY_HISTORY, History((1,), (0,)), History((0, 1), (0, 1))):
            assert_expectimax_matches_scratch(belief, history, 3)


@settings(max_examples=15, deadline=None)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    st.lists(st.integers(0, 1), max_size=6),
)
def test_adversary_and_probe_equal_their_from_scratch_loops(joint, joint2, nu, actions):
    joint_mix = JointMixture([joint, joint2, copy_machine()], [F(1, 4), F(1, 2), F(1, 4)])
    for xi in (joint, joint_mix, normalize(joint), normalize(joint_mix), EvalOnlyJoint(joint_mix)):
        assert_adversary_matches_scratch(xi, 6, actions)
    assert_probe_matches_scratch(joint, joint_mix, 4)
    assert_probe_matches_scratch(normalize(joint), joint2, 4)
    assert_probe_matches_scratch(EvalOnlyJoint(joint2), normalize(joint_mix), 4)
    env_mix = EnvMixture([nu, mu_id()], [F(1, 2), F(1, 2)])
    full = JointMixture([joint, uniform_measure()], [F(1, 2), F(1, 2)])  # positive everywhere
    assert_probe_matches_scratch(env(full), env(joint2), 2)
    assert_probe_matches_scratch(env(full), env_mix, 3)
    assert_probe_matches_scratch(env(joint_mix), env_mix, 2)
    assert_probe_matches_scratch(env(normalize(joint_mix)), EvalOnlyEnv(env_mix), 2)


def test_adversary_and_probe_on_an_enumerated_mixture():
    approx = enumerate_joint(9, 200, 8)
    for xi in (approx, normalize(approx), JointMixture([approx, copy_machine()], [F(1, 2)] * 2)):
        for actions in ((), (1, 1, 0, 1), (0, 1, 0, 0)):
            assert_adversary_matches_scratch(xi, 4, actions)
    assert_probe_matches_scratch(approx, uniform_measure(), 6)
    assert_probe_matches_scratch(env(approx), mu_id(), 3)
    assert_probe_matches_scratch(env(approx), env(normalize(approx)), 3)
    # Enumerated xi gives some actions zero mass, so its view is undefined there.
    chron, view = ChronEnumApprox(9, 200), env(enumerate_joint(9, 200, 10))
    assert_probe_matches_scratch(chron, view, 4)
    assert domination_probe(chron, view, 4).undefined_xi > 0


def test_probe_counts_where_mu_or_xi_is_undefined():
    # env(copy_machine()) conditions on a zero-mass prefix after a mismatch:
    # 8 of the 21 contexts to depth 2 extend a mismatched first step.
    report = domination_probe(env(copy_machine()), mu_id(), 2)
    assert report == scratch_probe(env(copy_machine()), mu_id(), 2)
    assert (report.contexts_checked, report.undefined_mu, report.undefined_xi) == (13, 8, 0)
    report = domination_probe(mu_id(), env(copy_machine()), 2)
    assert report == scratch_probe(mu_id(), env(copy_machine()), 2)
    assert (report.contexts_checked, report.undefined_mu, report.undefined_xi) == (13, 0, 8)
    assert domination_probe(mu_id(), env(copy_machine()), 1).contexts_checked == 5


def test_joint_aixi_plans_on_an_enumerated_mixture():
    # The view of enumerated xi leaves some actions undefined below the root.
    assert joint_aixi_action(enumerate_joint(15, 200, 8), EMPTY_HISTORY, 4) in (0, 1)
    assert_expectimax_matches_scratch(env(enumerate_joint(15, 200, 8)), EMPTY_HISTORY, 4)


THIRDS = PerceptAlphabet(
    (PerceptSymbol(None, F(1, 3)), PerceptSymbol(None, F(1))), (ZERO, F(1))
)
PENDING = [History((1,), ()), History((0, 1), (1,))]


@settings(max_examples=15, deadline=None)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
    PAIRS,
)
def test_one_step_values_equal_the_conditional_loop(joint, nu, nu2, pair):
    env_mix = EnvMixture([nu, nu2, NoisyCopyEnv(*pair)], [F(1, 4), F(1, 4), F(1, 2)])
    full = JointMixture([joint, uniform_measure()], [F(1, 2), F(1, 2)])
    histories = [History(a, e) for e, a in contexts(nu, 2)] + PENDING
    for belief in (
        nu,
        env_mix,
        EvalOnlyEnv(env_mix),
        env(joint),  # zero-mass and undefined histories
        env(full),
        env(normalize(joint)),
        EnvMixture([env(joint), nu], [F(1, 2), F(1, 2)]),
    ):
        for history in histories:
            for percepts in (BINARY_PERCEPTS, THIRDS):
                assert_one_step_matches_scratch(belief, history, percepts)


def test_one_step_values_on_shipped_beliefs():
    mdef = scenario_mixtures()["adversary_rich"]
    for belief in (mdef.chron, env(mdef.joint), env(copy_machine()), mu_id()):
        for e, a in contexts(belief, 3):
            assert_one_step_matches_scratch(belief, History(a, e), THIRDS)
    for history in PENDING:
        with pytest.raises(ComponentFormatError):
            one_step_action_values(mdef.chron, history)
    # The identity environment never answers action 1 with percept 0.
    with pytest.raises(UndefinedConditionalError):
        one_step_action_values(mu_id(), History((1,), (0,)))


def test_shipped_components_keep_the_scale_contract():
    """Every built-in, shipped mixture and enumeration: integer numerators over
    a scale that divides the next one, equal to the frozen body everywhere
    walked, as the fold is."""
    shipped = dict(builtin_components())
    for name, mdef in scenario_mixtures().items():
        shipped.update({f"{name}:joint": mdef.joint, f"{name}:env": mdef.chron})
    shipped["enumerate_joint"] = enumerate_joint(9, 200, 6)
    shipped["ChronEnumApprox"] = ChronEnumApprox(9, 200)
    for name, nu in shipped.items():
        if nu is None:
            continue
        integer = not isinstance(nu, JointEnumApprox)  # the joint enumeration keeps scale 1
        assert (type(nu.root()[0]) is int) == integer, name
        assert_walk_matches_eval(nu, 5 if isinstance(nu, JointSemimeasure) else 3)
    # The scale is the product form: D_a**ceil(n/2) * D_p**floor(n/2).
    nu = ProductJoint((F(1, 3), F(2, 3)), (F(1, 7), F(1, 2)))
    assert [nu.scale(n) for n in range(5)] == [1, 3, 42, 126, 1764]
    assert [ChronEnumApprox(10, 200).scale(n) for n in (0, 7)] == [8**3, 8**3]
    mixture = EnvMixture([NoisyCopyEnv(F(1, 2), F(1, 3)), IIDEnv((F(1, 5),) * 2)], [F(1, 4)] * 2)
    assert [mixture.scale(n) for n in range(5)] == [4, 4, 120, 120, 3600]


def product_bases(nu):
    """(D_a, D_p) of a built-in component, from its ``Fraction`` rows: the lcm
    of the denominators of every action row and of every percept row, a
    table's default rows included."""

    def lcm(*rows):
        return math.lcm(*(F(p).denominator for row in rows for p in row))

    if isinstance(nu, ProductJoint):
        return lcm(nu.action_probs), lcm(nu.percept_probs)
    if isinstance(nu, (ActionEchoJoint, NoisyCopyEnv)):
        return (2 if isinstance(nu, ActionEchoJoint) else 1), lcm((nu.match, nu.mismatch))
    if isinstance(nu, IIDEnv):
        return 1, lcm(nu.percept_probs)
    # a "uniform" default row has denominator arity, a "halt" one 1
    d_a, d_p = (nu.action_arity, nu.percept_arity) if nu.default == "uniform" else (1, 1)
    if isinstance(nu, TableEnv):
        return 1, math.lcm(d_p, lcm(*nu.rows.values()))
    return (
        math.lcm(d_a, lcm(*(row for x, row in nu.rows.items() if len(x) % 2 == 0))),
        math.lcm(d_p, lcm(*(row for x, row in nu.rows.items() if len(x) % 2 == 1))),
    )


def assert_product_scale(nu):
    d_a, d_p = product_bases(nu)
    want = [d_a ** ((n + 1) // 2) * d_p ** (n // 2) for n in range(7)]
    assert [nu.scale(n) for n in range(7)] == want, nu


def test_builtin_components_keep_the_product_scale():
    for nu in builtin_components().values():
        assert_product_scale(nu)


@settings(max_examples=15, deadline=None)
@given(
    tables(TableJoint, JOINT_KEYS3, 3),
    tables(TableJoint, JOINT_KEYS3, 3),
    tables(TableEnv, ENV_KEYS3, 3),
    tables(TableEnv, ENV_KEYS3, 3),
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    st.sampled_from(ROWS3),
    st.sampled_from(ROWS3),
    PAIRS,
)
def test_shared_walks_beyond_the_binary_alphabet(
    joint, joint2, nu, nu2, binary_joint, binary_nu, row, row2, pair
):
    product3 = ProductJoint(row, pair)
    iid, iid2 = IIDEnv(row), IIDEnv(row2)
    for component in (joint, nu, product3, iid, binary_joint, binary_nu):
        assert_product_scale(component)
    for component in (
        joint,
        nu,
        product3,
        iid,
        JointMixture([joint, joint2, product3, EvalOnlyJoint(joint)], [F(1, 4)] * 4),
        EnvMixture([nu, nu2, EvalOnlyEnv(nu)], [F(1, 3), F(1, 2), F(1, 7)]),
        EnvMixture([iid, iid2, EvalOnlyEnv(iid)], [F(1, 2), F(1, 4), F(1, 4)]),
    ):
        assert_walk_matches_eval(component, 5 if isinstance(component, JointSemimeasure) else 4)


# ---------------------------------------------------------------------------
# An eval-only environment takes the default walk and agrees everywhere
# ---------------------------------------------------------------------------


def test_eval_only_subclass_gives_the_same_results():
    mdef = scenario_mixtures()["adversary_rich"]
    for belief in (mdef.chron, env(mdef.joint)):
        plain = EvalOnlyEnv(belief)
        assert check_chronological(plain, 3) == check_chronological(belief, 3)
        rows, lhs_undefined, rhs_undefined = compare(plain, belief, 3)
        assert lhs_undefined == rhs_undefined == 0 and all(r.verdict == "equal" for r in rows)
        assert compare(plain, mdef.chron, 3) == compare(belief, mdef.chron, 3)
        for history in (EMPTY_HISTORY, History((1,), (1,)), History((0, 1), (1, 1))):
            for horizon in (1, 2, 3):
                assert expectimax_action(plain, history, horizon) == expectimax_action(
                    belief, history, horizon
                )
                assert expectimax_value(plain, history, horizon) == expectimax_value(
                    belief, history, horizon
                )


def test_non_semimeasures_report_the_same_violations():
    # Many monotone violations at once: their order must be contexts order.
    for component in (
        Flicker(),
        FlickerEnv(),
        JointMixture([Flicker(), uniform_measure()], [F(3, 4), F(1, 4)]),
        EnvMixture([FlickerEnv(), mu_id()], [F(3, 4), F(1, 4)]),
    ):
        joint = isinstance(component, JointSemimeasure)
        report = check_semimeasure(component, 4) if joint else check_chronological(component, 3)
        assert len(report.monotone_violations) > 2
        assert_check_matches_scratch(component, 4 if joint else 3)
    rows, skipped = check_normalization_dominance(Overfull(), 3)
    assert len(rows) > 2
    assert ([(r.witness, r.lhs, r.rhs) for r in rows], skipped) == scratch_dominance(Overfull(), 3)
    # Flicker's zero posterior drops it from one face only: mismatches.
    mixture = JointMixture([Flicker(), uniform_measure()], [F(3, 4), F(1, 4)])
    mismatches = check_predictive_consistency(mixture, 2)
    assert len(mismatches) > 2
    assert mismatches == scratch_consistency(mixture, 2)
