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

The steps of the environment view, the normalized predictor and the dual
are also held, step by step, to their former bodies, which converted each
mass with ``exact_mass`` and divided (a dual weighed each action by its
policy's ``weight``). A policy's ``weight`` is the fold of its walk, so the
``weight`` bodies the three policy classes had are frozen here too, and
every policy walk step and fold must give exactly what they give. The
policy check's former loop, which read ``weight`` 1 + |A| times a row, is
frozen over those bodies, and the policy check, a fold of the environment
check's walk, must give exactly its rows.

The walk itself was a generator whose readers looped over each node's
children again. That generator and the check and compare bodies that read
it are frozen here as well: the one walk loop must file exactly their
columns, witnesses, rows and undefined counts, and raise the error kind
they raised first.
"""
import math
from fractions import Fraction
from functools import partial
from itertools import accumulate, product, repeat

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab import semimeasure
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
from uailab.experiments import _enum_budget_grid, builtin_components, scenario_mixtures
from uailab.mixture import (
    EnvMixture,
    JointMixture,
    MixturePolicy,
    check_predictive_consistency,
)
from uailab.semimeasure import (
    ActionEchoJoint,
    CheckReport,
    ChronEnv,
    DeterministicPolicy,
    IIDEnv,
    JointSemimeasure,
    MismatchRow,
    NoisyCopyEnv,
    Policy,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _alphabet,
    _check_rows,
    _context_at,
    _default_row,
    _policy_rows,
    _widths,
    check_chronological,
    check_policy,
    check_semimeasure,
    compare,
    constant_policy,
    contexts,
    copy_machine,
    exact_mass,
    max_ratio,
    mu_id,
    uniform_measure,
    uniform_policy,
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
from uailab.utm import CACHE_ENV_VAR, ChronEnumApprox, clear_memo, enumerate_joint

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
# A failing test here reports its first falsifying example unshrunk: each
# shrink step walks the whole tree again through the frozen bodies, and the
# shrinking alone took minutes before a report. Every example still runs.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)
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
# the fold of their walk, and the ``weight`` bodies of the three policy
# classes before ``weight`` became the fold of theirs, verbatim but for
# ``scratch_eval(c, ...)`` in place of a nested ``c.eval(...)`` or
# ``p.weight(...)``, and a policy mixture's ``components`` in place of its
# former ``policies``, so that no oracle reads a walk.


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
    w = scratch_eval(self.pi, actions, percepts)
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


def deterministic_policy_weight(self, actions, percepts):
    for i, a in enumerate(actions):
        if self.fn(History(actions[:i], percepts[:i])) != a:
            return ZERO
    return ONE


def stationary_policy_weight(self, actions, percepts):
    out = ONE
    for a in actions:
        out *= self.probs[a]
    return out


def mixture_policy_weight(self, actions, percepts):
    return sum(
        (w * scratch_eval(p, actions, percepts) for p, w in zip(self.components, self.weights)),
        ZERO,
    )


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
    DeterministicPolicy: deterministic_policy_weight,
    StationaryPolicy: stationary_policy_weight,
    MixturePolicy: mixture_policy_weight,
}


def scratch_eval(nu, *context):
    """``nu`` at one context by its frozen body (a policy's at (actions,
    percepts)); a class that keeps its own ``eval`` (the enumerations and
    the doubles here) answers for itself."""
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


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
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


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
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


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
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


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
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
        assert type(nu.root()[0]) is int, name
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


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
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
    # Alone, Flicker has no mass at a pending prefix: no conditional to compare.
    alone = JointMixture([Flicker()], [1])
    assert check_predictive_consistency(alone, 2) == scratch_consistency(alone, 2) == []


# ---------------------------------------------------------------------------
# Transform steps against their frozen two-division bodies
# ---------------------------------------------------------------------------
# The ``root``/``extend`` bodies of the view, the normalized predictor and the
# dual before each conditional became one Fraction and the dual the product
# of two walks, verbatim but for the component passed as an argument. Each
# steps its base's walk, as the current bodies do.


def old_env_view_root(view):
    return ONE, (ONE, view.base.root()[1], None, ())


def old_env_view_extend(view, state, symbol):
    mass, base_state, denom, prefix = state
    if denom is None:
        try:
            denom, base_state = view.base.extend(base_state, symbol)
        except UndefinedConditionalError as exc:
            denom = exc  # an action moves no mass: raised with the percept
        return mass, (mass, base_state, denom, prefix + (symbol,))
    if isinstance(denom, ZeroDivisionError):
        raise denom
    if denom == 0:
        raise UndefinedConditionalError(prefix, "env view")
    base_mass, base_state = view.base.extend(base_state, symbol)
    n = len(prefix)  # the pending prefix, its action included
    mass *= exact_mass(view.base, n + 1, base_mass) / exact_mass(view.base, n, denom)
    return mass, (mass, base_state, None, prefix + (symbol,))


def old_normalized_root(hat):
    return ONE, (ONE, hat.base.root()[1], (), [])


def old_normalized_extend(hat, state, symbol):
    if state is None:
        return ZERO, None
    mass, base_state, x, memo = state
    n = len(x) + 1
    if not memo:  # siblings share one evaluation of the base children
        kids = [hat.base.extend(base_state, s) for s in range(hat.arity_at(len(x)))]
        memo.append((kids, exact_mass(hat.base, n, sum(m for m, _ in kids))))
    kids, total = memo[0]
    if total == 0:
        raise NormalizationError(x)
    base_mass, base_state = kids[symbol]
    mass *= exact_mass(hat.base, n, base_mass) / total
    return (mass, (mass, base_state, x + (symbol,), [])) if mass else (ZERO, None)


def old_dual_root(joint):
    w = scratch_eval(joint.pi, (), ())  # below 1 for a deficient policy mixture
    if w == 0:
        return ZERO, None
    nu_mass, nu_state = joint.nu.root()
    if nu_state is None:
        return ZERO, None
    # (actions, percepts, policy weight, env state)
    return w * exact_mass(joint.nu, 0, nu_mass), ((), (), w, nu_state)


def old_dual_extend(joint, state, symbol):
    if state is None:
        return ZERO, None
    actions, percepts, w, nu_state = state
    if len(actions) == len(percepts):
        actions += (symbol,)
        w = scratch_eval(joint.pi, actions, percepts)
        if w == 0:
            return ZERO, None
    else:
        percepts += (symbol,)  # the weight reads no percept after the last action
    nu_mass, nu_state = joint.nu.extend(nu_state, symbol)
    if nu_state is None:
        return ZERO, None
    n = len(actions) + len(percepts)
    return w * exact_mass(joint.nu, n, nu_mass), (actions, percepts, w, nu_state)


FROZEN_STEPS = {
    EnvView: (old_env_view_root, old_env_view_extend),
    NormalizedPredictor: (old_normalized_root, old_normalized_extend),
    DualJoint: (old_dual_root, old_dual_extend),
}


def assert_steps_match_frozen(nu, depth):
    """Walk ``nu`` and its frozen steps side by side to ``depth`` symbols: the
    same exact mass at every context, or an undefinedness of the same type
    (nothing below it is compared)."""
    frozen_root, frozen_extend = FROZEN_STEPS[type(nu)]
    arities = (nu.action_arity, nu.percept_arity)

    def visit(state, old_state, n):
        for s in range(arities[n % 2]):
            got = outcome(nu.extend, state, s)
            want = outcome(frozen_extend, nu, old_state, s)
            if isinstance(want, type):
                assert got is want, (n, s)
                continue
            assert walk_value(nu, n + 1, got[0]) == want[0], (n, s)
            if n + 1 < depth:
                visit(got[1], want[1], n + 1)

    (mass, state), (old_mass, old_state) = nu.root(), frozen_root(nu)
    assert walk_value(nu, 0, mass) == old_mass
    visit(state, old_state, 0)


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
    PAIRS,
    PAIRS,
    st.sampled_from(ROWS3),
)
def test_transform_steps_equal_their_frozen_two_division_steps(joint, nu, nu2, pair, filler, row3):
    pi = StationaryPolicy(filler)
    echo = DeterministicPolicy(lambda h: h.percepts[-1] if h.percepts else 1)
    deficient = MixturePolicy((pi, echo), (F(1, 4), F(1, 2)))
    # Integer members next to a Fraction one (scale 1): Fraction numerators.
    mix = JointMixture([joint, EvalOnlyJoint(joint), ProductJoint(pair, filler)], [F(1, 3)] * 3)
    env_mix = EnvMixture([nu, nu2, EvalOnlyEnv(nu)], [F(1, 4), F(1, 2), F(1, 4)])
    for view in (
        env(joint),
        env(EvalOnlyJoint(joint)),
        env(mix),
        env(dual(nu, pi)),
        env(dual(env_mix, deficient)),
        env(normalize(joint)),
    ):
        assert_steps_match_frozen(view, 6)
    for hat in (normalize(joint), normalize(EvalOnlyJoint(joint)), normalize(mix)):
        assert_steps_match_frozen(hat, 6)
    assert_steps_match_frozen(normalize(dual(nu, pi)), 6)
    for policy in (pi, echo, deficient, constant_policy(0)):
        for base in (nu, env_mix, env(joint), env(mix), IIDEnv(filler)):
            assert_steps_match_frozen(dual(base, policy), 6)
    # Three actions, over the view of a three-action product.
    assert_steps_match_frozen(dual(env(uniform_measure(3)), StationaryPolicy(row3)), 6)


def test_transform_steps_on_an_enumerated_mixture():
    approx = enumerate_joint(9, 200, 8)  # integer numerators over 8**3
    chron = ChronEnumApprox(9, 200)  # integer numerators over 8**3
    assert_steps_match_frozen(env(approx), 8)
    assert_steps_match_frozen(normalize(approx), 8)
    assert_steps_match_frozen(dual(chron, StationaryPolicy((F(1, 3), F(2, 3)))), 6)
    assert_steps_match_frozen(env(dual(chron, constant_policy(1))), 6)


# ---------------------------------------------------------------------------
# Policy walks against their frozen weights
# ---------------------------------------------------------------------------


@st.composite
def action_probs(draw, arity):
    """Exact action probabilities summing to at most 1: raw fractions,
    rescaled to sum 1 where they sum above it."""
    raw = draw(st.lists(st.fractions(0, 1, max_denominator=10**4), min_size=arity, max_size=arity))
    total = sum(raw, ZERO)
    return tuple(p / total if total > 1 else p for p in raw)


@st.composite
def history_readers(draw, arity):
    """Deterministic policies that read the whole history: the action is a
    drawn table's entry at a code of the actions and percepts so far."""
    table = draw(st.lists(st.integers(0, arity - 1), min_size=7, max_size=7))
    return DeterministicPolicy(
        lambda h: table[(3 * sum(h.actions) + 2 * sum(h.percepts) + len(h.actions)) % 7], arity
    )


def assert_policy_walk_matches_frozen(pi, depth, percept_arity=2):
    """Walk ``pi`` over every interleaved history to ``depth`` symbols: at
    every node the walk weight keeps the scale contract, and it and
    ``weight`` (the fold) equal the frozen weight body."""
    arities = (pi.action_arity, percept_arity)

    def visit(state, x):
        for s in range(arities[len(x) % 2]):
            y = x + (s,)
            mass, child = pi.extend(state, s)
            want = scratch_eval(pi, y[0::2], y[1::2])
            assert walk_value(pi, len(y), mass) == pi.weight(y[0::2], y[1::2]) == want, y
            if len(y) < depth:
                visit(child, y)

    mass, state = pi.root()
    assert walk_value(pi, 0, mass) == pi.weight((), ()) == scratch_eval(pi, (), ())
    visit(state, ())


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(
    action_probs(2),
    action_probs(3),
    st.sampled_from(ROWS),
    st.sampled_from(ROWS3),
    history_readers(2),
    history_readers(3),
    st.integers(0, 2),
)
def test_every_policy_walk_equals_its_frozen_weight(
    probs2, probs3, row2, row3, reader2, reader3, action
):
    pi2, pi3 = StationaryPolicy(probs2), StationaryPolicy(probs3)
    # Repeats the last percept, mod 2: total on three percepts too.
    echo = DeterministicPolicy(lambda h: h.percepts[-1] % 2 if h.percepts else 1)
    constant = constant_policy(action, 3)
    deficient = MixturePolicy((pi2, echo, reader2), (F(1, 3), F(1, 4), F(1, 7)))
    ternary = (pi3, constant, reader3, StationaryPolicy(row3))
    for pi in (
        pi2,
        pi3,
        StationaryPolicy(row2),
        StationaryPolicy(row3),
        echo,
        constant,
        reader2,
        reader3,
        deficient,
        MixturePolicy(ternary, (F(1, 4), F(1, 4), F(1, 4), F(1, 8))),
        MixturePolicy((deficient, StationaryPolicy(row2)), (F(1, 2), F(1, 3))),  # nested
    ):
        assert_policy_walk_matches_frozen(pi, 6)
    for pi in (pi3, reader2, deficient):
        assert_policy_walk_matches_frozen(pi, 5, percept_arity=3)


# ---------------------------------------------------------------------------
# The policy check against its frozen weight loop
# ---------------------------------------------------------------------------


class Doubling(Policy):
    """Not monotone, though a percept keeps its weight: an action weighs its
    probability, except the history's first action 1, which doubles the
    weight. Its ``eval`` is the from-scratch weight."""

    probs = (HALF, HALF)

    def eval(self, actions, percepts):
        out, doubled = ONE, False
        for a in actions:
            out *= 2 if a == 1 and not doubled else self.probs[a]
            doubled = doubled or a == 1
        return out

    def root(self):
        return ONE, (ONE, False, False)  # (weight, action pending, doubled)

    def extend(self, state, symbol):
        mass, pending, doubled = state
        if not pending:
            mass *= 2 if symbol == 1 and not doubled else self.probs[symbol]
            doubled = doubled or symbol == 1
        return mass, (mass, not pending, doubled)


def scratch_policy_check(pi, depth, percept_arity=2):
    """The former ``check_policy`` loop, verbatim but for the frozen weight
    bodies in place of ``pi.weight``: it reported no monotone witness."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    alphabet = (False, pi.action_arity, percept_arity)
    lhs_column, rhs_column = [], []
    for actions, percepts in _policy_rows(alphabet, depth):
        lhs_column.append(scratch_eval(pi, actions, percepts[: max(0, len(actions) - 1)]))
        children = [scratch_eval(pi, actions + (a,), percepts) for a in range(pi.action_arity)]
        rhs_column.append(sum(children, ZERO))
    return CheckReport(
        kind="policy",
        depth=depth,
        root_mass=scratch_eval(pi, (), ()),
        monotone_violations=(),
        declared_measure=False,
        lhs=lhs_column,
        rhs=rhs_column,
        levels=((len(lhs_column), 1),),  # policy weights are exact masses already
        row_contexts=partial(_policy_rows, alphabet, depth),
    )


def scratch_policy_witnesses(pi, depth, percept_arity):
    """Every child h a that weighs more than its history h, (actions,
    percepts) in row order, then by action: a scan of the frozen bodies."""
    return [
        (actions + (a,), percepts)
        for actions, percepts in _policy_rows((False, pi.action_arity, percept_arity), depth)
        for a in range(pi.action_arity)
        if scratch_eval(pi, actions + (a,), percepts) > scratch_eval(pi, actions, percepts)
    ]


def assert_policy_check_matches_scratch(pi, depth, percept_arity):
    got = check_policy(pi, depth, percept_arity)
    want = scratch_policy_check(pi, depth, percept_arity)
    assert (got.kind, got.depth, got.root_mass) == (want.kind, want.depth, want.root_mass)
    assert got.rows == want.rows, (pi, depth, percept_arity)
    assert (got.strict_rows, got.equal_rows, got.violations) == (
        want.strict_rows,
        want.equal_rows,
        want.violations,
    )
    assert (got.ok, got.declaration_verified) == (want.ok, want.declaration_verified)
    assert list(got.monotone_violations) == scratch_policy_witnesses(pi, depth, percept_arity)


@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(
    action_probs(2),
    action_probs(3),
    history_readers(2),
    history_readers(3),
    st.integers(0, 5),
    st.integers(1, 3),
)
def test_policy_check_equals_its_frozen_weight_loop(
    probs2, probs3, reader2, reader3, depth, percept_arity
):
    pi2, pi3, doubling = StationaryPolicy(probs2), StationaryPolicy(probs3), Doubling()
    deficient = MixturePolicy((pi2, reader2, doubling), (F(1, 3), F(1, 4), F(1, 7)))
    for pi in (pi2, reader2, doubling, deficient):
        assert_policy_check_matches_scratch(pi, depth, percept_arity)
    # The frozen loop costs the most below depth 4 of the nested mixture and
    # of three actions (820 rows at three percepts), so these stop there.
    ternary = MixturePolicy((pi3, reader3, constant_policy(2, 3)), (F(1, 2), F(1, 4), F(1, 8)))
    for pi in (
        MixturePolicy((deficient, constant_policy(1)), (F(1, 2), F(1, 3))),  # nested
        pi3,
        reader3,
        ternary,
    ):
        assert_policy_check_matches_scratch(pi, min(depth, 4), percept_arity)


@pytest.mark.parametrize("percept_arity", [1, 2, 3])
def test_shipped_policy_checks_equal_the_frozen_weight_loop(percept_arity):
    for pi in (
        uniform_policy(),
        uniform_policy(3),
        constant_policy(0),
        constant_policy(1),
        DeterministicPolicy(lambda h: h.percepts[-1] % 2 if h.percepts else 0),
        MixturePolicy((uniform_policy(), constant_policy(0)), (F(1, 4), F(1, 2))),
    ):
        for depth in range(6 if pi.action_arity == 2 else 5):
            assert_policy_check_matches_scratch(pi, depth, percept_arity)


def test_a_policy_check_walks_once_and_never_folds(monkeypatch):
    # Its report reads every column, so a fold of the rows would be thrown away.
    folds, walks = [], []
    real_fold, real_walk = semimeasure._folded, semimeasure.walk
    monkeypatch.setattr(semimeasure, "_folded", lambda *args: folds.append(1) or real_fold(*args))
    monkeypatch.setattr(semimeasure, "walk", lambda *args: walks.append(1) or real_walk(*args))
    report = check_policy(uniform_policy(), 5)
    assert report == scratch_policy_check(uniform_policy(), 5)
    assert (report.strict_rows, report.equal_rows, report.violations) == (0, report.contexts, ())
    assert (len(folds), len(walks)) == (0, 1)


def test_a_policy_that_is_not_monotone_has_its_witnesses():
    # The former loop reported () for every policy, this one included.
    report = check_policy(Doubling(), 3)
    assert report.monotone_violations[:3] == (((1,), ()), ((0, 1), (0,)), ((0, 1), (1,)))
    assert not report.ok and scratch_policy_check(Doubling(), 3).monotone_violations == ()


# ---------------------------------------------------------------------------
# The chronological enumeration's walk against its eval
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(
    st.sampled_from(_enum_budget_grid(10, 200)),
    st.booleans(),
    st.lists(st.lists(st.integers(0, 1), max_size=6).map(tuple), max_size=3),
    st.lists(st.integers(0, 1), max_size=6).map(tuple),
)
def test_chronological_enumeration_walk_equals_eval(
    tmp_path_factory, budget, cached, asked, primed
):
    """At every context to depth 6 of the sanity budget grid, with the cache
    off and warm: tapes first asked through ``eval`` and tapes primed by
    ``enumerate_chron`` hold tables the walk has not read yet."""
    from uailab.utm import enumerate_chron

    bits, steps = budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV_VAR, str(tmp_path_factory.mktemp("cache")) if cached else "")
        clear_memo()
        if cached:  # fill the cache, then read it back
            check_chronological(ChronEnumApprox(bits, steps), 3)
            clear_memo()
        approx = enumerate_chron(bits, steps, primed) if primed else ChronEnumApprox(bits, steps)
        for tape in asked:
            approx.eval((0,) * len(tape), tape)
        oracle = ChronEnumApprox(bits, steps)
        mass, state = approx.root()

        def visit(state, percepts, actions):
            for a in range(2):
                pending = approx.extend(state, a)[1]
                for e in range(2):
                    mass, child = approx.extend(pending, e)
                    context = (percepts + (e,), actions + (a,))
                    assert walk_value(approx, 2 * len(actions) + 2, mass) == oracle.eval(*context)
                    assert approx.eval(*context) == oracle.eval(*context)
                    if len(actions) + 1 < 6:
                        visit(child, *context)

        assert walk_value(approx, 0, mass) == oracle.eval((), ())
        visit(state, (), ())
        clear_memo()


# ---------------------------------------------------------------------------
# The generator walk and its two readers, frozen
# ---------------------------------------------------------------------------
# ``walk`` as the generator of (slot, t, node, kids) it was, and the
# ``_check`` and ``compare`` bodies that read it, verbatim but for the names,
# before both filled their columns inside the walk loop. They are the oracle
# for the order of every step, each column, witness and row, and the
# undefined counts.


def generator_walk(nu, depth, root, step, last_children=True):
    if depth < 0:
        raise ValueError("depth must be >= 0")
    alphabet = _alphabet(nu)
    joint, n_actions, n_percepts = alphabet
    actions_range, percepts_range = range(n_actions), range(n_percepts)
    offsets = [0, *accumulate(_widths(alphabet, depth))]
    percept_strings = [n_percepts**t for t in range(depth + 1)]
    stack = [(0, 0, root)]  # (level, index within the level, node)
    pop, extend = stack.pop, stack.extend
    while stack:
        t, index, node = pop()
        if t == depth and not last_children:
            yield offsets[t] + index, t, node, None
            continue
        state = node[1]
        if joint:
            arity = n_percepts if t % 2 else n_actions
            kids = []
            for s in range(arity):
                kids.append(step(state, s))
            yield offsets[t] + index, t, node, kids
            if t < depth:
                first = index * arity
                extend(zip(repeat(t + 1), range(first, first + arity), kids))
            continue
        kids = []
        for a in actions_range:
            pending = step(state, a)[1]
            per_action = []
            for e in percepts_range:
                per_action.append(step(pending, e))
            kids.append(per_action)
        yield offsets[t] + index, t, node, kids
        if t < depth:
            a_index, p_index = divmod(index, percept_strings[t])
            width = percept_strings[t + 1]
            first = a_index * n_actions * width + p_index * n_percepts
            for per_action in kids:
                extend(zip(repeat(t + 1), range(first, first + n_percepts), per_action))
                first += width


def generator_check(nu, depth):
    alphabet = _alphabet(nu)
    joint = alphabet[0]
    fan = 1 if joint else nu.action_arity  # rows per context
    widths = [width * fan for width in _widths(alphabet, depth)]
    lhs_column = [None] * sum(widths)
    rhs_column = [None] * len(lhs_column)
    witnesses = []  # (row, symbol) of a child above its prefix
    scales = [nu.scale((1 if joint else 2) * t) for t in range(depth + 2)]
    gains = [scales[t + 1] // scales[t] for t in range(depth + 1)]
    root = nu.root()
    for slot, t, (lhs, _), kids in generator_walk(nu, depth, root, nu.extend):
        if gains[t] != 1:
            lhs *= gains[t]
        row = slot * fan
        for group in (kids,) if joint else kids:
            rhs, above = 0, False
            for mass, _ in group:
                rhs += mass
                if mass > lhs:
                    above = True
            lhs_column[row] = lhs
            rhs_column[row] = rhs
            if above:
                witnesses.extend((row, s) for s, (m, _) in enumerate(group) if m > lhs)
            row += 1
    witnesses.sort()
    monotone = []
    for row, s in witnesses:
        x = _context_at(nu, row // fan)
        monotone.append(x + (s,) if joint else (x[0] + (s,), x[1] + (row % fan,)))
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


def generator_compare(lhs, rhs, depth):
    no_rhs = object()

    def step(state, symbol):
        if state is None:
            return None, None
        lhs_state, rhs_state = state
        try:
            lhs_mass, lhs_state = lhs.extend(lhs_state, symbol)
        except UndefinedConditionalError:
            return None, None
        if rhs_state is no_rhs:
            return (lhs_mass, None), (lhs_state, no_rhs)
        try:
            rhs_mass, rhs_state = rhs.extend(rhs_state, symbol)
        except UndefinedConditionalError:
            return (lhs_mass, None), (lhs_state, no_rhs)
        return (lhs_mass, rhs_mass), (lhs_state, rhs_state)

    root = (None, None)
    try:
        lhs_mass, lhs_state = lhs.root()
        root = ((lhs_mass, None), (lhs_state, no_rhs))
        rhs_mass, rhs_state = rhs.root()
        root = ((lhs_mass, rhs_mass), (lhs_state, rhs_state))
    except UndefinedConditionalError:
        pass
    alphabet = _alphabet(lhs)
    pairs = [None] * sum(_widths(alphabet, depth))
    lhs_undefined = rhs_undefined = 0
    for slot, _, (masses, _), _ in generator_walk(lhs, depth, root, step, last_children=False):
        if masses is None:
            lhs_undefined += 1
        elif masses[1] is None:
            rhs_undefined += 1
        else:
            pairs[slot] = masses
    rows = []
    for context, masses in zip(contexts(lhs, depth), pairs):
        if masses is not None:
            n = len(context) if alphabet[0] else 2 * len(context[1])
            rows.append(
                MismatchRow(context, exact_mass(lhs, n, masses[0]), exact_mass(rhs, n, masses[1]))
            )
    return rows, lhs_undefined, rhs_undefined


def raised(fn, *args):
    """The value of ``fn(*args)``, or the type of the error it raised:
    undefinedness, or a fault of :class:`Faulty`."""
    try:
        return fn(*args)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        return type(exc)


def assert_check_matches_generator(nu, depth):
    check = check_semimeasure if isinstance(nu, JointSemimeasure) else check_chronological
    report, want = raised(check, nu, depth), raised(generator_check, nu, depth)
    if isinstance(want, type):
        assert report is want
        return
    assert report.lhs == want.lhs and report.rhs == want.rhs
    assert report.levels == want.levels
    assert report.monotone_violations == want.monotone_violations
    assert report.root_mass == want.root_mass
    assert report.rows == want.rows


def assert_compare_matches_generator(lhs, rhs, depth):
    for pair in ((lhs, rhs), (rhs, lhs)):
        assert raised(compare, *pair, depth) == raised(generator_compare, *pair, depth), pair


@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
@given(
    tables(TableJoint, JOINT_KEYS),
    tables(TableJoint, JOINT_KEYS),
    tables(TableEnv, ENV_KEYS),
    tables(TableEnv, ENV_KEYS),
    PAIRS,
)
def test_fused_walk_equals_the_generator_walk(joint, joint2, nu, nu2, filler):
    pi = StationaryPolicy(filler)
    joint_mix = JointMixture([joint, joint2, EvalOnlyJoint(joint2)], [F(1, 4), F(1, 2), F(1, 4)])
    env_mix = EnvMixture([nu, nu2, FlickerEnv()], [F(1, 3), F(1, 3), F(1, 3)])
    for component in (
        joint,
        joint_mix,
        dual(env_mix, pi),
        normalize(joint),
        JointMixture([joint, Flicker()], [F(1, 2), F(1, 2)]),
        Overfull(),
    ):
        assert_check_matches_generator(component, 5)
    for component in (nu, env_mix, EvalOnlyEnv(nu2), env(joint), env(normalize(joint2))):
        assert_check_matches_generator(component, 3)
    for lhs, rhs in (
        (env(joint), nu),
        (env(joint_mix), env(joint2)),
        (env(normalize(joint)), env_mix),
        (EvalOnlyEnv(env(joint)), FlickerEnv()),
    ):
        assert_compare_matches_generator(lhs, rhs, 3)
    assert_compare_matches_generator(joint, dual(env(joint2), pi), 5)
    assert_compare_matches_generator(normalize(joint), Flicker(), 5)


class Faulty(JointSemimeasure):
    """Halves per symbol, and raises the error mapped to any prefix of the
    context, so a component can be undefined, or faulty, in two ways."""

    def __init__(self, faults):
        self.faults = faults

    def eval(self, x):
        for prefix, error in self.faults.items():
            if x[: len(prefix)] == prefix:
                raise error(x)
        return F(1, 2) ** len(x)


def test_compare_raises_the_kind_the_generator_walk_met_first():
    for faults in (
        {(0, 1): UndefinedConditionalError, (1, 1, 0): NormalizationError},
        # Contexts order meets (0, 0) first; the walk, last symbol first, (1, 1).
        {(0, 0): ValueError, (1, 1): TypeError},
        {(1,): UndefinedConditionalError, (0, 1, 1): NormalizationError, (0, 0, 1): KeyError},
    ):
        assert_compare_matches_generator(Faulty(faults), uniform_measure(), 4)
        assert_compare_matches_generator(env(Faulty(faults)), NoisyCopyEnv(), 2)
    faulty = Faulty({(0, 0): ValueError, (1, 1): TypeError})
    assert raised(compare, faulty, uniform_measure(), 3) is TypeError


class Recording(JointSemimeasure):
    """Walks ``base`` by the default steps, whose state is the context, and
    records each context it steps to."""

    def __init__(self, base, steps):
        self.base, self.steps = base, steps

    def eval(self, x):
        return self.base.eval(x)

    def extend(self, state, symbol):
        self.steps.append(state + (symbol,))
        return super().extend(state, symbol)


def test_compare_extends_neither_side_below_an_undefined_lhs():
    steps = []
    lhs = Recording(Faulty({(0, 1): UndefinedConditionalError}), steps)
    rhs = Recording(Faulty({}), steps)
    rows, lhs_undefined, rhs_undefined = compare(lhs, rhs, 5)
    # (0, 1) and its 2 + 4 + 8 extensions to length 5.
    assert (lhs_undefined, rhs_undefined, len(rows)) == (15, 0, 63 - 15)
    assert (0, 1) in steps
    assert not [x for x in steps if x[:2] == (0, 1) and len(x) > 2]
    assert steps.count((0, 1)) == 1  # rhs never steps where lhs is undefined
    assert compare(lhs, rhs, 5) == generator_compare(lhs, rhs, 5)
