"""Joint semimeasures, chronological environments, policies, and their checkers.

A joint semimeasure assigns exact mass to finite interleaved action/percept
strings and satisfies nu(x) >= sum_s nu(xs) at every context. A chronological
environment nu(e_1:t || a_1:t) satisfies the one-sided version: for every
action extension, the next-percept masses sum to at most the prefix mass.
Checkers enumerate every context up to a depth exhaustively and report each
violation as data (never as an exception).

Components declare whether they are measures (equality everywhere) or
strictly defective; checkers verify the declaration up to the checked depth.
Every component and policy constructor checks its masses or weights with
:func:`uailab.core.exact_masses`, which rejects a bool, float or string;
``table_component`` parses its JSON strings with :func:`uailab.core.prob` first.

Walks share prefixes: ``root()`` gives the empty context's mass and a walk
state, and ``extend(state, symbol)`` gives the mass and state one symbol
further. A component has one evaluator: either ``eval``, walked by defaults
whose state is the context itself, evaluated from scratch, or ``root``,
``extend`` and ``scale`` with ``eval = JointSemimeasure.fold`` (or
``ChronEnv.fold``), which walks to the context after rejecting any symbol
outside the alphabet. A policy has only its walk, and its ``weight`` is the
fold of that walk. The six built-in components share two walks that cost
O(1) per step: one step rule for the product and echo components (an
action's mass fixed, a percept's chosen by the pending action) and one table
walk for both table kinds (a row per interleaved context). Environments take
the action and the percept of a step as two symbols, and walk as joint
components whose every action weighs 1: after an action the mass is the
unchanged mass of the complete prefix. A state of None is a dead context:
its mass and that of every extension is zero, and ``extend(None, s)`` is
``(0, None)``; only overrides whose zero mass is absorbing return it, and
no walk steps below it. The package's one node loop is :func:`walk`: every
exhaustive check, :func:`compare` and the predictive-consistency check is
one depth-first walk, which addresses each context by its *slot*, its
position in :func:`contexts` order, builds no context, and files each mass
into flat columns by slot in the loop that steps to it. The policy check
is one more reader of the check walk: it folds the rows of a policy's
environment-mode check, walked once over the alphabet it is given. The
other checks count over :func:`_folded`, each distinct (mass, state) of a
level once. :func:`compare`, the round trips, the domination probes and the
predictive-consistency check read each level's (slot, contexts, mass)
entries from :func:`_slots`, which folds unless the reader must name or
count a context alone, or a state cannot be hashed, and else walks. A
mixture's check is any component's; ``ChronEnumApprox`` reads its check off
its tables. A context is derived from its slot only where a row,
a violation or a witness is read. States live only inside one walk.

A context is *undefined* for a component when its ``root`` or ``extend``
raises ``UndefinedConditionalError`` or its subclass ``NormalizationError``;
every extension of an undefined context is undefined too. Readers leave
undefined contexts out instead of raising: :func:`compare` counts them per
side, and the planners leave undefined actions out (see :mod:`uailab.agents`).
A step whose state does not hold its context (an environment view's) raises
with the context's length alone; the readers that know the string they walk
(:func:`_checked_walk`, :func:`walk`, the planners and ``predictive``) raise
it again naming the context.

Walk masses are numerators over a declared scale: a mass returned for a
context of n symbols stands for ``Fraction(mass, nu.scale(n))``, where
``scale(n)`` is a positive ``int`` that divides ``scale(n + 1)``; an
environment's scale does not change at an action (``scale(2t + 1) ==
scale(2t)``). The default scale is 1, so a component that keeps ``Fraction``
masses needs no override. Built-ins whose masses are products of fixed
rationals use ``D_a**ceil(n/2) * D_p**floor(n/2)``, with D the lcm of the
action (D_a) or percept (D_p) masses' denominators, and return ``int``
numerators, so a step is one integer product (a stationary policy too).
The checkers compare a context's numerator times ``scale(n') // scale(n)``
with the sum of its children's numerators in ``int``; every other reader
converts a mass with :func:`exact_mass`, or a ratio with :func:`times_ratio`,
before dividing (``int / int`` is a float).

All components are immutable after construction; evaluation is pure.
"""
from __future__ import annotations

import abc
import math
import operator
from collections import Counter, UserList
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, chain, compress, product, repeat, starmap
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    HALF,
    ONE,
    ZERO,
    ComponentFormatError,
    History,
    Prob,
    UndefinedConditionalError,
    count,
    exact_masses,
    of_kind,
    prob,
)


class JointSemimeasure(abc.ABC):
    """Evaluable exact distribution over finite interleaved strings.

    Positions are 0-indexed; even positions hold action symbols, odd
    positions percept symbols. Equal arities give the classical single-
    alphabet case.
    """

    action_arity: int = 2
    percept_arity: int = 2
    declared_measure: bool = False

    @abc.abstractmethod
    def eval(self, x: tuple[int, ...]) -> Prob:
        """Exact mass of the interleaved string x."""

    def fold(self, x: tuple[int, ...]) -> Prob:
        """Exact mass of x by one walk: ``root``, then ``extend`` over x."""
        return exact_mass(self, len(x), _checked_walk(self, x, x)[0])

    def root(self) -> tuple[Prob, Any]:
        """(mass, walk state) of the empty string."""
        return self.eval(()), ()

    def extend(self, state: Any, symbol: int) -> tuple[Prob, Any]:
        """(mass, walk state) of the context of ``state`` followed by ``symbol``."""
        x = state + (symbol,)
        return self.eval(x), x

    def scale(self, n: int) -> int:
        """Denominator of the walk masses of contexts of length ``n``."""
        return 1

    def arity_at(self, position: int) -> int:
        return self.action_arity if position % 2 == 0 else self.percept_arity


class ChronEnv(abc.ABC):
    """Two-argument chronological semimeasure nu(e_1:t || a_1:t)."""

    action_arity: int = 2
    percept_arity: int = 2
    declared_measure: bool = False

    @abc.abstractmethod
    def eval(self, percepts: tuple[int, ...], actions: tuple[int, ...]) -> Prob:
        """Exact mass of producing ``percepts`` under ``actions`` (equal lengths)."""

    def fold(self, percepts: tuple[int, ...], actions: tuple[int, ...]) -> Prob:
        """Exact mass by one walk: ``root``, then ``extend`` over a1 e1 ... at et."""
        x = _history(percepts, actions)
        return exact_mass(self, len(x), _checked_walk(self, (percepts, actions), x)[0])

    def root(self) -> tuple[Prob, Any]:
        """(mass, walk state) of the empty history."""
        mass = self.eval((), ())
        return mass, ((), (), mass)

    def extend(self, state: Any, symbol: int) -> tuple[Prob, Any]:
        """(mass, walk state) one symbol further: the next action after a
        complete history, the next percept after a pending action."""
        percepts, actions, mass = state
        if len(actions) == len(percepts):
            return mass, (percepts, actions + (symbol,), mass)
        percepts = percepts + (symbol,)
        mass = self.eval(percepts, actions)
        return mass, (percepts, actions, mass)

    def scale(self, n: int) -> int:
        """Denominator of the walk masses of contexts of ``n`` symbols."""
        return 1


def _check_alphabet(nu: JointSemimeasure | ChronEnv | Policy, context: Any, x: Sequence) -> None:
    """Reject a symbol of the interleaved string ``x`` of ``context`` that is
    not an int of the alphabet, naming its position in x."""
    arities = (nu.action_arity, nu.percept_arity)
    for i, s in enumerate(x):
        if type(s) is not int or not 0 <= s < arities[i % 2]:
            raise ComponentFormatError(
                f"context {context!r} holds {s!r} at position {i}, outside the alphabet "
                f"of {arities[0]} actions and {arities[1]} percepts"
            )


def _history(percepts: Sequence[int], actions: Sequence[int]) -> tuple[int, ...]:
    """The interleaved string a1 e1 ... at et of a history of equal lengths."""
    if len(percepts) != len(actions):
        raise ComponentFormatError("percept/action strings must have equal length")
    return tuple(s for step in zip(actions, percepts) for s in step)


def _checked_walk(nu: Any, context: Any, x: Sequence[int]) -> tuple[Prob, Any]:
    """(walk mass, walk state) of the interleaved string ``x`` of ``context`` by
    one walk, after rejecting any symbol outside the alphabet of ``nu``."""
    _check_alphabet(nu, context, x)
    mass, state = nu.root()
    try:
        for s in x:
            mass, state = nu.extend(state, s)
    except UndefinedConditionalError as error:
        raise error.at(x) from None
    return mass, state


def _over(row: Sequence[Fraction], d: int) -> tuple[int, ...]:
    """Numerators of exact masses over a common denominator ``d``."""
    return tuple(p.numerator * (d // p.denominator) for p in row)


class _ProductScale:
    """Walk scale of a component or policy whose steps multiply by rationals
    fixed at construction (its symbol masses, or a table's conditionals).

    ``_bases`` = (D_a, D_p): every action mass is a numerator over D_a, every
    percept mass one over D_p, so scale(n) = D_a**ceil(n/2) * D_p**floor(n/2).
    """

    _bases: tuple[int, int]

    def scale(self, n: int) -> int:
        d_a, d_p = self._bases
        return d_a ** ((n + 1) // 2) * d_p ** (n // 2)


class Policy(abc.ABC):
    """A policy, evaluable as a chronological semimeasure over actions.

    A policy walks as an environment does, the roles swapped: over a1 e1 a2
    ..., an action moves the weight; a percept moves neither it nor the scale
    (default 1). A policy reads any percept alphabet (its percept arity is
    infinite) and declares no measure.
    """

    action_arity: int = 2
    percept_arity = math.inf
    declared_measure = False

    @abc.abstractmethod
    def root(self) -> tuple[Prob, Any]:
        """(weight, walk state) of the empty history."""

    @abc.abstractmethod
    def extend(self, state: Any, symbol: int) -> tuple[Prob, Any]:
        """(weight, walk state) one symbol further: an action, or its percept."""

    def scale(self, n: int) -> int:
        """Denominator of the walk weights of histories of ``n`` symbols."""
        return 1

    def weight(self, actions: tuple[int, ...], percepts: tuple[int, ...]) -> Prob:
        """Probability of emitting ``actions`` given the percepts before each, by
        one walk over a1 e1 ... at: only ``percepts[:len(actions) - 1]`` is read."""
        t = max(len(actions) - 1, 0)
        x = _history(percepts[:t], actions[:t]) + tuple(actions[t:])
        return exact_mass(self, len(x), _checked_walk(self, (actions, percepts), x)[0])


class DeterministicPolicy(Policy):
    """Total function from histories to actions, wrapped as a policy. Its walk
    state is the history and a cell its sibling actions share: the first asks
    ``fn`` once, and the context is dead where ``fn`` chose another action. An
    action that is not an ``int`` in ``range(action_arity)`` (a bool or a
    float included) is a ``ComponentFormatError``."""

    def __init__(self, fn: Callable[[History], int], action_arity: int = 2):
        self.fn = fn
        self.action_arity = count(action_arity, "action_arity", 1)

    def root(self) -> tuple[int, Any]:
        return 1, ((), (), [])  # (actions, percepts, fn's action once asked)

    def extend(self, state: Any, symbol: int) -> tuple[int, Any]:
        if state is None:
            return 0, None
        actions, percepts, chosen = state
        if len(actions) > len(percepts):
            return 1, (actions, percepts + (symbol,), [])
        if not chosen:  # siblings share one call of fn
            h = History(actions, percepts)
            action = self.fn(h)
            if type(action) is not int or action not in range(self.action_arity):
                raise ComponentFormatError(
                    f"policy chose {action!r} at {h!r}, outside range({self.action_arity})"
                )
            chosen.append(action)
        return (1, (actions + (symbol,), percepts, chosen)) if chosen[0] == symbol else (0, None)


@dataclass(frozen=True)
class StationaryPolicy(_ProductScale, Policy):
    """History-independent action distribution (sums to <= 1).

    Its walk weighs each action by its numerator over D, the lcm of the
    probabilities' denominators: the product scale, with D_a = D and D_p = 1.
    """

    probs: tuple[Fraction, ...] = (HALF, HALF)

    def __post_init__(self):
        probs = exact_masses(self.probs, "action masses")
        if not probs:
            raise ComponentFormatError("a policy needs at least one action mass")
        d = math.lcm(*(p.denominator for p in probs))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_bases", (d, 1))
        object.__setattr__(self, "_numerators", _over(probs, d))

    @property
    def action_arity(self) -> int:  # type: ignore[override]
        return len(self.probs)

    def root(self) -> tuple[int, Any]:
        return 1, (1, False)  # (weight, action pending)

    def extend(self, state: Any, symbol: int) -> tuple[int, Any]:
        mass, pending = state
        if not pending:
            mass *= self._numerators[symbol]
        return mass, (mass, not pending)


def _uniform(arity: int, what: str) -> tuple[Fraction, ...]:
    """``arity`` masses of 1/arity each, the arity checked by :func:`count`."""
    return (Fraction(1, count(arity, what, 1)),) * arity


def uniform_policy(action_arity: int = 2) -> StationaryPolicy:
    return StationaryPolicy(_uniform(action_arity, "action_arity"))


def constant_policy(action: int, action_arity: int = 2) -> StationaryPolicy:
    if type(action) is not int or action not in range(count(action_arity, "action_arity", 1)):
        raise ComponentFormatError(f"constant action {action!r} is outside range({action_arity})")
    return StationaryPolicy(tuple(Fraction(a == action) for a in range(action_arity)))


# ---------------------------------------------------------------------------
# Built-in joint components
# ---------------------------------------------------------------------------


class _StepRule(_ProductScale):
    """Walk of the product and echo components, joint and environment: an
    action's mass is fixed, and a percept's depends only on the pending action.

    ``_steps`` holds the action numerators over D_a and, for each pending
    action, the percept numerators over D_p. An environment has no action
    row: each action weighs 1 over D_a = 1. The walk state is (mass, pending
    action), the action None after a percept.
    """

    _steps: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]

    def _fix_steps(
        self, action_probs: Sequence[Fraction] | None, percept_rows: Sequence[Sequence[Fraction]]
    ):
        """Check every row by :func:`exact_masses`, then set ``_bases``,
        ``_steps`` and ``declared_measure`` (every row sums to 1)."""
        percepts = [exact_masses(row, "percept masses") for row in percept_rows]
        given = [] if action_probs is None else [exact_masses(action_probs, "action masses")]
        actions = given[0] if given else (ONE,) * self.action_arity  # an env's actions weigh 1
        if not actions or not all(percepts):
            raise ComponentFormatError("a component needs at least one action and one percept")
        rows = given + percepts
        d_a = math.lcm(*(p.denominator for p in actions))
        d_p = math.lcm(*(p.denominator for row in percepts for p in row))
        steps = (_over(actions, d_a), tuple(_over(row, d_p) for row in percepts))
        object.__setattr__(self, "_bases", (d_a, d_p))
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "declared_measure", all(sum(row) == 1 for row in rows))

    def root(self) -> tuple[int, Any]:
        return 1, (1, None)  # (mass, pending action)

    def extend(self, state: Any, symbol: int) -> tuple[int, Any]:
        if state is None:
            return 0, None
        mass, action = state
        if action is None:
            mass *= self._steps[0][symbol]
            return (mass, (mass, symbol)) if mass else (0, None)
        mass *= self._steps[1][action][symbol]
        return (mass, (mass, None)) if mass else (0, None)


@dataclass(frozen=True)
class ProductJoint(_StepRule, JointSemimeasure):
    """Position-wise independent symbol masses: nu(x) = prod p_pos(x_i).

    A measure iff the masses sum to 1 at both action and percept positions;
    smaller sums make it strictly defective (per-symbol halting leak).
    """

    action_probs: tuple[Fraction, ...] = (HALF, HALF)
    percept_probs: tuple[Fraction, ...] = (HALF, HALF)

    def __post_init__(self):
        self._fix_steps(self.action_probs, (self.percept_probs,) * len(self.action_probs))

    @property
    def action_arity(self) -> int:  # type: ignore[override]
        return len(self.action_probs)

    @property
    def percept_arity(self) -> int:  # type: ignore[override]
        return len(self.percept_probs)

    eval = JointSemimeasure.fold


def uniform_measure(action_arity: int = 2, percept_arity: int = 2) -> ProductJoint:
    """The uniform joint measure nu(x) = prod 1/arity."""
    return ProductJoint(
        _uniform(action_arity, "action_arity"), _uniform(percept_arity, "percept_arity")
    )


def defective_uniform(symbol_mass: Fraction = Fraction(1, 4)) -> ProductJoint:
    """Strictly defective i.i.d. component: nu(x) = symbol_mass^len(x)."""
    return ProductJoint((symbol_mass, symbol_mass), (symbol_mass, symbol_mass))


@dataclass(frozen=True)
class ActionEchoJoint(_StepRule, JointSemimeasure):
    """Uniform actions; percept echoes the preceding action (binary).

    The percept matches the action with mass ``match`` and mismatches with
    mass ``mismatch``; slack 1 - match - mismatch is a per-step halting leak.
    match=1 is the pure copy machine (joint value 2^-ceil(len/2) on
    copy-consistent strings, 0 elsewhere); match=0, mismatch=1 the pure
    anticopy machine.
    """

    match: Fraction = ONE
    mismatch: Fraction = ZERO

    def __post_init__(self):
        rows = ((self.match, self.mismatch), (self.mismatch, self.match))
        self._fix_steps((HALF, HALF), rows)

    eval = JointSemimeasure.fold


def copy_machine() -> ActionEchoJoint:
    """Uniform at action positions, deterministic copy at percept positions."""
    return ActionEchoJoint(ONE, ZERO)


def anticopy_machine() -> ActionEchoJoint:
    """Uniform at action positions, deterministic complement at percept positions."""
    return ActionEchoJoint(ZERO, ONE)


def leaky_copy(match: Fraction = Fraction(3, 4)) -> ActionEchoJoint:
    """Copy machine with a per-step halting leak at percept positions."""
    return ActionEchoJoint(match, ZERO)


# ---------------------------------------------------------------------------
# Built-in chronological environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoisyCopyEnv(_StepRule, ChronEnv):
    """Binary env emitting e_t = a_t with mass ``match``, 1-a_t with ``mismatch``.

    History-independent; match=1 is the identity environment (the percept
    deterministically repeats the action, a measure per action sequence).
    """

    match: Fraction = ONE
    mismatch: Fraction = ZERO

    def __post_init__(self):
        self._fix_steps(None, ((self.match, self.mismatch), (self.mismatch, self.match)))

    eval = ChronEnv.fold


def mu_id() -> NoisyCopyEnv:
    """The identity environment: the percept equals the action, always.

    Binary actions, empty observation space, binary reward space; a measure
    per action sequence.
    """
    return NoisyCopyEnv(ONE, ZERO)


def complement_env() -> NoisyCopyEnv:
    """Deterministic environment emitting the complement of the action."""
    return NoisyCopyEnv(ZERO, ONE)


@dataclass(frozen=True)
class IIDEnv(_StepRule, ChronEnv):
    """Action-independent i.i.d. percept distribution."""

    percept_probs: tuple[Fraction, ...] = (HALF, HALF)

    def __post_init__(self):
        self._fix_steps(None, (self.percept_probs,) * self.action_arity)

    @property
    def percept_arity(self) -> int:  # type: ignore[override]
        return len(self.percept_probs)

    eval = ChronEnv.fold


def uniform_env(percept_arity: int = 2) -> IIDEnv:
    return IIDEnv(_uniform(percept_arity, "percept_arity"))


# ---------------------------------------------------------------------------
# Explicit finite tables
# ---------------------------------------------------------------------------


def _check_row(context: Any, row: Sequence[Fraction], arity: int) -> tuple[Fraction, ...]:
    if len(row) != arity:
        raise ComponentFormatError(f"row at context {context!r} has arity {len(row)} != {arity}")
    return exact_masses(row, f"conditionals at context {context!r}")


def _default_row(default: str, arity: int) -> tuple[Fraction, ...]:
    """Conditional masses beyond the defined contexts under a default rule."""
    return _uniform(arity, "arity") if default == "uniform" else (ZERO,) * arity


class _TableWalk(_ProductScale):
    """Constructor and walk of the table components.

    ``rows`` maps a context to the conditional masses of the symbol after it.
    The walk keys each row's numerators over D_a or D_p at the interleaved
    context before that symbol: an environment's percept row at the pending
    prefix ``a1 e1 ... at``. Beyond the table the walk extends by the default
    rule, except at an environment's actions, which have no rows and weigh 1
    each. The walk state is (interleaved context, mass).
    """

    def __init__(
        self,
        rows: Mapping[Any, Sequence[Fraction]],
        default: str = "halt",
        action_arity: int = 2,
        percept_arity: int = 2,
        declared_measure: bool = False,
    ):
        if default not in ("halt", "uniform"):
            raise ComponentFormatError(f"unknown default rule {default!r}")
        self.action_arity = count(action_arity, "action_arity", 1)
        self.percept_arity = count(percept_arity, "percept_arity", 1)
        self.default = default
        self.declared_measure = declared_measure
        arities = (action_arity, percept_arity)
        self.rows = {}
        by_prefix = {}
        for context, row in rows.items():
            key, prefix = self._keys(context)
            _check_alphabet(self, key, prefix)
            self.rows[key] = by_prefix[prefix] = _check_row(key, row, arities[len(prefix) % 2])
        env = isinstance(self, ChronEnv)
        defaults = (
            (ONE,) * action_arity if env else _default_row(default, action_arity),
            _default_row(default, percept_arity),
        )
        # D_a and D_p: the lcm of the denominators of the rows at even and at
        # odd prefix lengths, the default row's included.
        self._bases = tuple(
            math.lcm(
                *(p.denominator for x, row in by_prefix.items() if len(x) % 2 == k for p in row),
                *(p.denominator for p in defaults[k]),
            )
            for k in (0, 1)
        )
        self._numerators = {x: _over(row, self._bases[len(x) % 2]) for x, row in by_prefix.items()}
        self._default_numerators = tuple(map(_over, defaults, self._bases))

    def root(self) -> tuple[int, Any]:
        return 1, ((), 1)  # (interleaved context, mass)

    def extend(self, state: Any, symbol: int) -> tuple[int, Any]:
        if state is None:
            return 0, None
        x, mass = state
        row = self._numerators.get(x)
        mass *= (self._default_numerators[len(x) % 2] if row is None else row)[symbol]
        return (mass, (x + (symbol,), mass)) if mass else (0, None)


class TableJoint(_TableWalk, JointSemimeasure):
    """Joint semimeasure from an explicit conditional table.

    ``rows`` maps a context string (tuple of symbol indices) to the
    conditional masses of the next symbol. Beyond the defined contexts the
    component extends by ``default``: "uniform" (proper conditionals) or
    "halt" (all further mass 0, making defectiveness explicit).
    """

    @staticmethod
    def _keys(context: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rows key, interleaved prefix) of a context: the same tuple."""
        x = tuple(context)
        return x, x

    eval = JointSemimeasure.fold


class TableEnv(_TableWalk, ChronEnv):
    """Chronological environment from an explicit conditional table.

    ``rows`` maps (percept prefix, action prefix including the current
    action) to conditional masses of the next percept. Beyond defined
    contexts, extends by the declared default rule.
    """

    @staticmethod
    def _keys(context: tuple[Sequence[int], Sequence[int]]) -> tuple[tuple, tuple[int, ...]]:
        """(rows key, interleaved prefix ``a1 e1 ... at``) of a context."""
        percepts, actions = map(tuple, context)
        if len(actions) != len(percepts) + 1:
            raise ComponentFormatError(
                f"context {(percepts, actions)!r} must supply one more action than percepts"
            )
        steps = tuple(s for step in zip(actions, percepts) for s in step)
        return (percepts, actions), steps + actions[-1:]

    eval = ChronEnv.fold


def _symbols(context: str) -> tuple:
    """The symbols of a context string; a character other than an ASCII digit
    0-9 stays as it is, for the table constructor to reject."""
    return tuple(int(c) if "0" <= c <= "9" else c for c in context)


def _reject_unknown_keys(what: str, mapping: Mapping[str, Any], known: Sequence[str]) -> None:
    """Name the first key of a parsed JSON object that is not in ``known``."""
    for key in mapping:
        if key not in known:
            raise ComponentFormatError(
                f"{what} has unknown key {key!r}; expected {', '.join(known)}"
            )


def table_component(definition: Mapping[str, Any]) -> JointSemimeasure | ChronEnv:
    """Build a table component from a parsed definition dict.

    Expected fields: kind ("joint_table" | "env_table"), alphabet
    ({"actions": n, "percepts": n}), conditionals, default_rule,
    declared_measure, and no other. See docs/component_format.md for the exact
    schema; conditional values are exact rational strings, never floats.
    """
    fields = ("kind", "alphabet", "conditionals", "default_rule", "declared_measure")
    _reject_unknown_keys("table component", definition, fields)
    kind = definition.get("kind")
    alphabet = definition.get("alphabet", {})
    if not isinstance(alphabet, dict) or not all(
        type(n) is int and n > 0 for n in alphabet.values()
    ):
        raise ComponentFormatError(
            f"alphabet must be an object of positive integer arities, got {alphabet!r}"
        )
    _reject_unknown_keys("alphabet", alphabet, ("actions", "percepts"))
    action_arity = alphabet.get("actions", 2)
    percept_arity = alphabet.get("percepts", 2)
    default = definition.get("default_rule", "halt")
    if not isinstance(default, str):
        raise ComponentFormatError(f"default_rule must be a string, got {default!r}")
    declared = definition.get("declared_measure", False)
    if not isinstance(declared, bool):
        raise ComponentFormatError(
            f"declared_measure must be a JSON boolean (true or false), got {declared!r}"
        )
    conditionals = definition.get("conditionals", {})
    if not isinstance(conditionals, dict) or not all(
        isinstance(row, list) and all(isinstance(v, str) for v in row)
        for row in conditionals.values()
    ):
        raise ComponentFormatError(
            "conditionals must be an object mapping context strings to arrays of "
            f"rational strings, got {conditionals!r}"
        )
    conditionals = {ctx: tuple(map(prob, row)) for ctx, row in conditionals.items()}
    if kind == "joint_table":
        rows = {_symbols(ctx): row for ctx, row in conditionals.items()}
        return TableJoint(rows, default, action_arity, percept_arity, declared)
    if kind == "env_table":
        rows = {
            tuple(map(_symbols, ctx.partition("|")[::2])): row
            for ctx, row in conditionals.items()
        }
        return TableEnv(rows, default, action_arity, percept_arity, declared)
    raise ComponentFormatError(f"unknown component kind {kind!r}")


# ---------------------------------------------------------------------------
# Context enumeration and exact comparison
# ---------------------------------------------------------------------------


def contexts(nu: JointSemimeasure | ChronEnv, depth: int) -> Iterator[Any]:
    """Every context of ``nu`` up to ``depth``, the order all checks report in.

    Joint components yield interleaved strings of length <= depth, ordered
    by (length, symbols); environments yield (percepts, actions) pairs of
    t <= depth steps, ordered by (t, actions, percepts). A context's
    position in this order is its *slot*.
    """
    return _contexts(_alphabet(nu), count(depth, "depth"))


# (joint, action arity, percept arity): all that the contexts of a component
# depend on.
_Alphabet = tuple[bool, int, int]


def _alphabet(nu: JointSemimeasure | ChronEnv | _Alphabet) -> _Alphabet:
    if isinstance(nu, tuple):  # an alphabet is its own
        return nu
    return isinstance(nu, JointSemimeasure), nu.action_arity, nu.percept_arity


def _contexts(alphabet: _Alphabet, depth: int) -> Iterator[Any]:
    joint, n_actions, n_percepts = alphabet
    for t in range(depth + 1):
        if joint:
            yield from product(*(range(n_percepts if pos % 2 else n_actions) for pos in range(t)))
            continue
        for actions in product(range(n_actions), repeat=t):
            for percepts in product(range(n_percepts), repeat=t):
                yield percepts, actions


def _widths(alphabet: _Alphabet, depth: int) -> list[int]:
    """How many contexts each level 0..depth holds."""
    joint, n_actions, n_percepts = alphabet
    if not joint:
        return [(n_actions * n_percepts) ** t for t in range(depth + 1)]
    widths, width = [], 1
    for t in range(depth + 1):
        widths.append(width)
        width *= n_percepts if t % 2 else n_actions
    return widths


def _context_at(nu: JointSemimeasure | ChronEnv | _Alphabet, slot: int) -> Any:
    """The context of ``nu`` at position ``slot`` of :func:`contexts` order."""
    joint, n_actions, n_percepts = _alphabet(nu)
    t, width = 0, 1
    while slot >= width:
        slot -= width
        width *= (n_percepts if t % 2 else n_actions) if joint else n_actions * n_percepts
        t += 1
    # The slot within level t in a mixed radix, most significant digit first:
    # a joint context's symbols, or an environment's t actions, then t percepts.
    if joint:
        bases = [n_percepts if pos % 2 else n_actions for pos in range(t)]
    else:
        bases = [n_actions] * t + [n_percepts] * t
    digits = [0] * len(bases)
    for pos in range(len(bases) - 1, -1, -1):
        slot, digits[pos] = divmod(slot, bases[pos])
    return tuple(digits) if joint else (tuple(digits[t:]), tuple(digits[:t]))


def walk(
    nu: JointSemimeasure | ChronEnv | _Alphabet,
    depth: int,
    root: tuple[Any, Any],
    step: Callable[[Any, int], tuple[Any, Any]],
    gains: Sequence[int] | None = None,
) -> tuple[list, list, list]:
    """Every context of ``nu`` (or of its alphabet) to ``depth``, depth first, in one loop.

    From ``root``, the empty context's (mass, state), each node shallower
    than ``depth`` (a check: to ``depth``) is popped once, and one pass of
    ``step(state, symbol)`` files its children's masses: joint kinds by next
    symbol, environments by action then percept. A context is filed at its
    *slot*, its position in :func:`contexts` order (:func:`_context_at`
    inverts it). No walk steps below a node whose state is None: the slots
    below keep their column's first value. Returns (masses, [], []), every
    context's mass by slot (None below a dead node); with ``gains``, a factor
    per level, a check's rows (lhs, rhs, above) for the contexts to
    ``depth``: a row per joint context, or per environment context and next
    action at ``slot * fan + action``; lhs is the context's mass times its
    level's gain, rhs its row's children summed, and above the (row, symbol)
    of each child above lhs, unsorted. An undefined context that a step raises
    by its length alone is named from the node's slot.

    Measured slower, so not to retry: a level-at-a-time walk by ``map`` (a
    walked ``ChronEnumApprox(3, 60)`` check took 115 ms, not 19, as each
    pending node queried its tape through ``eval``; mixtures gained nothing,
    and it holds whole levels), which merged nothing, unlike the fold
    :func:`_distinct_nodes` that ``ChronEnumApprox`` stays out of; flattened
    mixture states (``copy_vs_uniform`` env check 46 ms, not 32); a mass
    column plus slice arithmetic (half this loop's gain); entering a tape's
    first query without ``eval``, which hides the enumeration from a
    tracer's ``ChronEnumApprox.eval`` span; and keeping every check's
    columns to the end of a scope of checks (``claims_default`` peak RSS
    30.4 MB, not 29.3, at the same time).
    """
    filing = gains is None
    depth = count(depth, "depth") + (not filing)  # a check steps one level further, into its rows
    alphabet = _alphabet(nu)
    joint, n_actions, n_percepts = alphabet
    if n_actions < 1 or n_percepts < 1:
        raise ValueError(f"an alphabet of {n_actions} actions and {n_percepts} percepts is empty")
    offsets = [0, *accumulate(_widths(alphabet, depth))]
    groups, fan = ((None,), 1) if joint else (range(n_actions), n_actions)
    ranges = [range(n_percepts if t % 2 or not joint else n_actions) for t in range(depth)]
    # An environment's index within level t is a_index * P**t + p_index, its
    # action and percept strings read as numbers.
    percept_strings = [n_percepts**t for t in range(depth + 1)]
    column = [None] * offsets[-1] if filing else [0] * (offsets[-2] * fan)
    sums, above = [] if filing else column.copy(), []
    column[0] = root[0]  # the root's mass, or a dead root's check row
    stack = [(0, 0, *root)] if depth and root[1] is not None else []  # (level, index, mass, state)
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
        # Plain loops and branches: no list of children, no comprehension.
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
        except UndefinedConditionalError as error:  # located on the node's string
            x = _context_at(alphabet, row // fan)
            raise error.at(x + (s,) if joint else _history(*x) + (a,)) from None
    return column, sums, above


def _distinct_nodes(
    alphabet: _Alphabet, depth: int, root: tuple[Any, Any], step: Callable[[Any, int], tuple]
) -> Iterator[tuple[int, int, Any, list[list], int]]:
    """The nodes :func:`walk` pops on levels t < ``depth``, each distinct (mass,
    state) of a level once: yields (t, n, mass, children, index), n the
    contexts that reach it, ``children`` its children's (mass, state) by
    symbol, a list per next action (one for a joint kind), ``index`` the
    least index within level t of a context that reaches it. ``step`` is
    pure, so equal nodes have equal subtrees: a child joins level t + 1 with n
    added unless its state is None. An unhashable state raises ``TypeError``,
    which :func:`_folded`, the fold's one reader, leaves to :func:`walk`."""
    joint, n_actions, n_percepts = alphabet
    if n_actions < 1 or n_percepts < 1:
        raise ValueError("an empty alphabet")  # for walk to name
    level = {root: [1, 0]} if root[1] is not None else {}
    for t in range(depth):
        symbols = range(n_percepts if t % 2 or not joint else n_actions)
        below: dict = {}
        for (mass, state), (n, index) in level.items():
            pending = (state,) if joint else (step(state, a)[1] for a in range(n_actions))
            children = [[step(p, s) for s in symbols] for p in pending]
            yield t, n, mass, children, index
            if t + 1 < depth:
                kids = zip(chain.from_iterable(children), _child_indices(alphabet, t, index))
                for kid, i in kids:
                    if kid[1] is not None:
                        held = below.setdefault(kid, [0, i])
                        held[0] += n
                        held[1] = min(held[1], i)
        level = below


def _folded(alphabet: _Alphabet, depth: int, root: tuple, step: Callable) -> list[tuple] | None:
    """The nodes of :func:`_distinct_nodes`, for every reader; None where a state
    cannot be hashed or anything raises, which :func:`walk` raises again in order."""
    try:
        return list(_distinct_nodes(alphabet, depth, root, step))
    except Exception:
        return None


def _slots(
    alphabet: _Alphabet,
    depth: int,
    root: tuple[Any, Any],
    step: Callable[[Any, int], tuple],
    named: Callable[[int, Any], bool] | None,
) -> list[tuple[int, list[tuple[int, int, Any]]]]:
    """Each level 0..``depth`` of the walk of ``root`` as (symbols n, entries), its
    entries (slot, contexts, mass) in slot order: from :func:`_folded`, the root,
    then each child of each distinct node at the least slot that reaches it,
    weighted by the contexts that do, none below a dead node. Where ``named`` is
    None, or holds for some filed (n, mass), a context the reader must name or
    count alone, or the fold cannot be read: from :func:`walk`, one entry per
    slot, None below a dead node."""
    levels = list(_levels(alphabet, count(depth, "depth")))
    nodes = None if named is None else _folded(alphabet, depth, root, step)
    if nodes is not None:
        filed: list[list] = [[(0, 1, root[0])], *([] for _ in range(depth))]
        for t, n, _, children, index in nodes:
            start = levels[t + 1][1].start
            kids = zip(_child_indices(alphabet, t, index), chain.from_iterable(children))
            filed[t + 1] += [(start + i, n, kid[0]) for i, kid in kids]
        if not any(named(n, m) for (n, _), level in zip(levels, filed) for _, _, m in level):
            return [(n, sorted(level)) for (n, _), level in zip(levels, filed)]  # distinct slots
    masses = walk(alphabet, depth, root, step)[0]
    return [(n, [*zip(slots, repeat(1), masses[slots.start : slots.stop])]) for n, slots in levels]


def _child_indices(alphabet: _Alphabet, t: int, index: int) -> Sequence[int]:
    """The indices within level t + 1 of the children of the context at
    ``index`` within level t, in the order :func:`walk` steps them."""
    joint, n_actions, n_percepts = alphabet
    if joint:
        width = n_percepts if t % 2 else n_actions
        return range(index * width, index * width + width)
    actions, percepts = divmod(index, n_percepts**t)
    stride = n_percepts ** (t + 1)
    first = actions * n_actions * stride + percepts * n_percepts
    return [first + a * stride + e for a in range(n_actions) for e in range(n_percepts)]


@dataclass(frozen=True)
class MismatchRow:
    """Two exactly-compared evaluations at one context, the witness."""

    witness: tuple
    lhs: Fraction
    rhs: Fraction

    @property
    def verdict(self) -> str:
        return "equal" if self.lhs == self.rhs else "mismatch"


def exact_mass(nu: JointSemimeasure | ChronEnv | Policy, n: int, mass: Any) -> Fraction:
    """The exact mass a walk numerator of ``nu`` at a context of ``n`` symbols
    stands for. Every reader of walk masses outside the checkers converts
    here before it divides."""
    scale = nu.scale(n)
    if scale == 1 and isinstance(mass, Fraction):
        return mass
    return Fraction(mass, scale)


def times_ratio(
    nu: JointSemimeasure | ChronEnv, running: Fraction, num: Any, n: int, den: Any, m: int
) -> Fraction:
    """``running`` times the walk mass ``num`` of ``nu`` at ``n`` symbols over
    its walk mass ``den`` at ``m``: one ``Fraction``, built from the products
    (of the scales too, unless both masses are over one)."""
    if n == m:
        return Fraction(running.numerator * num, running.denominator * den)
    return Fraction(running.numerator * num * nu.scale(m), running.denominator * den * nu.scale(n))


def compare(
    lhs: JointSemimeasure | ChronEnv, rhs: JointSemimeasure | ChronEnv, depth: int
) -> tuple[list[MismatchRow], int, int]:
    """Evaluate both sides at every context of ``lhs`` up to ``depth``.

    Returns (rows in :func:`contexts` order, count of contexts where ``lhs``
    is undefined, count of the others where ``rhs`` is undefined). Both sides
    walk together (:func:`_paired`), a context per slot (:func:`_slots`), and
    the rows take their contexts from :func:`contexts` order. Two sides over
    different alphabets are a ``ComponentFormatError``.
    """
    alphabet, root, step = _paired(lhs, rhs)
    rows, contexts, lhs_undefined, rhs_undefined = [], _contexts(alphabet, depth), 0, 0
    for n, entries in _slots(alphabet, depth, root, step, None):
        for (_, _, masses), context in zip(entries, contexts):
            if masses is None:
                lhs_undefined += 1
            elif masses[1] is None:
                rhs_undefined += 1
            else:
                lhs_mass, rhs_mass = exact_mass(lhs, n, masses[0]), exact_mass(rhs, n, masses[1])
                rows.append(MismatchRow(context, lhs_mass, rhs_mass))
    return rows, lhs_undefined, rhs_undefined


def _levels(alphabet: _Alphabet, depth: int) -> Iterator[tuple[int, range]]:
    """(symbols n, slots) of each level 0..depth of :func:`contexts` order."""
    start, step = 0, 1 if alphabet[0] else 2
    for t, width in enumerate(_widths(alphabet, depth)):
        yield step * t, range(start, start + width)
        start += width


def _paired(lhs: JointSemimeasure | ChronEnv, rhs: JointSemimeasure | ChronEnv) -> tuple:
    """(alphabet, root, step) of a walk of both sides: a node's mass is their
    masses, its state the pair of states; None where ``lhs`` is undefined,
    (lhs, None) where only ``rhs`` is, else (lhs, rhs). ``rhs`` is never
    extended where either side is undefined, nor is either side below a
    context where ``lhs`` is: those contexts count as undefined."""
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
    return alphabet, root, step


def max_ratio(rows: Iterable[MismatchRow]) -> tuple[Fraction | None, Any]:
    """(max of lhs/rhs, its first witness) over rows with rhs > 0.

    The first row attaining the maximum wins; (None, None) without rows.
    """
    best: Fraction | None = None
    witness = None
    for row in rows:
        ratio = row.lhs / row.rhs
        if best is None or ratio > best:
            best, witness = ratio, row.witness
    return best, witness


# ---------------------------------------------------------------------------
# Exhaustive checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    """One checked context: the prefix mass vs the summed extension mass."""

    context: Any
    lhs: Fraction
    rhs: Fraction

    @property
    def verdict(self) -> str:
        if self.lhs > self.rhs:
            return "strict"
        if self.lhs == self.rhs:
            return "equal"
        return "violation"


def _exact_row(context: Any, lhs: Any, rhs: Any, scale: int) -> CheckRow:
    return CheckRow(context, Fraction(lhs, scale), Fraction(rhs, scale))


class _Walked(UserList):
    """A column of a folded check, walked when first read: ``columns()``, a
    cached call, gives (lhs, rhs, witnesses) as :func:`_columns` files them."""

    def __init__(self, columns: Callable[[], tuple], k: int):
        self._columns, self._k = columns, k

    @property
    def data(self) -> list:  # type: ignore[override]
        return self._columns()[self._k]

    def __getitem__(self, index: Any) -> Any:
        return self.data[index]


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Deterministic report of an exhaustive defining-condition check.

    Rows are kept as two flat numerator columns indexed by row slot, the
    row's position in report order: ``lhs`` holds each prefix's numerator
    and ``rhs`` its children's summed numerators, both over the children's
    scale, which ``levels`` gives per checked depth as (rows, scale). The
    verdicts are counted once, at construction, from the columns alone. A
    row's context is derived from its slot only when ``rows`` or
    ``violations`` is read: ``row_contexts()`` yields every row's context
    in slot order. ``rows`` builds the exact :class:`CheckRow` tuple when
    first read, and ``violations`` only the violating rows. A folded check
    (:func:`_check`) counts its verdicts without columns, and its columns are
    walked when first read. Two reports are equal when their exact rows and
    every other field are.
    """

    kind: str
    depth: int
    root_mass: Fraction
    monotone_violations: tuple[Any, ...]
    declared_measure: bool
    lhs: Sequence = field(repr=False)
    rhs: Sequence = field(repr=False)
    levels: Sequence[tuple[int, int]] = field(repr=False)
    row_contexts: Callable[[], Iterator[Any]] = field(repr=False)

    @cached_property
    def _tally(self) -> tuple[int, int, int]:
        """(strict, equal, violating) rows, counted from the columns."""
        strict = sum(map(operator.gt, self.lhs, self.rhs))
        equal = sum(map(operator.eq, self.lhs, self.rhs))
        return strict, equal, len(self.lhs) - strict - equal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckReport):
            return NotImplemented
        fields = ("kind", "depth", "root_mass", "monotone_violations", "declared_measure", "rows")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    def _columns(self) -> Iterator[tuple[Any, Any, Any, int]]:
        """(context, lhs, rhs, scale) of every row, in slot order."""
        scales = chain.from_iterable(repeat(scale, n) for n, scale in self.levels)
        return zip(self.row_contexts(), self.lhs, self.rhs, scales)

    @property
    def contexts(self) -> int:
        """How many rows were checked (``len(rows)``, without building them)."""
        return sum(n for n, _ in self.levels)

    @property
    def rows(self) -> tuple[CheckRow, ...]:
        rows = self.__dict__.get("_rows")
        if rows is None:
            rows = tuple(starmap(_exact_row, self._columns()))
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def violations(self) -> tuple[CheckRow, ...]:
        if not self._tally[2]:
            return ()
        bad = map(operator.lt, self.lhs, self.rhs)
        return tuple(starmap(_exact_row, compress(self._columns(), bad)))

    @property
    def strict_rows(self) -> int:
        return self._tally[0]

    @property
    def equal_rows(self) -> int:
        return self._tally[1]

    @property
    def ok(self) -> bool:
        return not self._tally[2] and not self.monotone_violations and self.root_mass <= 1

    @property
    def declaration_verified(self) -> bool | None:
        """True/False when the measure declaration is confirmed/refuted up to
        the checked depth; None when a defect declaration could not be
        confirmed at this depth."""
        if self.declared_measure:
            return self.strict_rows == 0
        return True if self.strict_rows > 0 else None


def check_semimeasure(nu: JointSemimeasure, depth: int) -> CheckReport:
    """Exhaustively check subadditivity (and monotonicity) up to ``depth``.

    Every context x with len(x) <= depth is compared against the summed mass
    of its one-symbol extensions. Violations are data, not failures; rows are
    ordered lexicographically by (length, symbols).
    """
    return _check(nu, depth)


def check_chronological(nu: ChronEnv, depth: int) -> CheckReport:
    """Exhaustively check the chronological condition up to ``depth``.

    For every (e, a) pair with t <= depth and every next action a', verifies
    nu(e || a) >= sum_e' nu(e e' || a a'). One row per (e, a, a'), in
    :func:`contexts` order; the row of (e, a, a') has slot
    ``slot(e, a) * |A| + a'``.
    """
    return _check(nu, depth)


def _check_rows(alphabet: _Alphabet, depth: int) -> Iterator[Any]:
    """The row contexts of :func:`_check` in slot order: each joint context,
    or (e, a, a') for each environment context (e, a) and next action a'."""
    if alphabet[0]:
        return _contexts(alphabet, depth)
    next_actions = range(alphabet[1])
    return ((e, a, a_next) for e, a in _contexts(alphabet, depth) for a_next in next_actions)


def _check_gains(nu: Any, depth: int, joint: bool) -> tuple[list[int], list[int]]:
    """(scales, gains) of a check's levels 0..depth + 1: a context's numerator
    times its level's gain is over its children's scale."""
    scales = [nu.scale((1 if joint else 2) * t) for t in range(depth + 2)]
    return scales, [b // a for a, b in zip(scales, scales[1:])]


def _columns(nu: Any, depth: int, alphabet: _Alphabet) -> tuple[list, list, list]:
    """(lhs, rhs, witnesses) of the check of ``nu`` as :func:`walk` files them, or
    as ``ChronEnumApprox``'s ``_check_columns`` reads them off its tables."""
    if hasattr(nu, "_check_columns"):
        return nu._check_columns(depth, alphabet)
    gains = _check_gains(nu, depth, alphabet[0])[1]
    return walk(alphabet, depth, nu.root(), nu.extend, gains)


def _row_counts(nu: Any, depth: int, alphabet: _Alphabet) -> Counter | None:
    """The check's rows of ``nu`` by (level, lhs, rhs), each distinct node of
    :func:`_folded` once, counted by the contexts that reach it, the root's row
    first. The rows below a dead node are left out: each holds 0 against 0.
    None where only the walk can tell: a check read off tables, a dead root, a
    violation, a witness, a fold that cannot be read. The gains, then the root,
    are taken in :func:`_columns`' order, so an error they raise is the walk's."""
    if hasattr(nu, "_check_columns"):
        return None
    gains = _check_gains(nu, depth, alphabet[0])[1]
    nodes = _folded(alphabet, depth + 1, nu.root(), nu.extend)
    if not nodes:  # a dead root has none
        return None
    rows: Counter = Counter()
    for t, n, mass, children, _ in nodes:
        lhs = mass * gains[t]
        for kids in children:
            masses = [m for m, _ in kids]
            total = sum(masses)
            if lhs < total or max(masses) > lhs:
                return None
            rows[t, lhs, total] += n
    return rows


def _check(
    nu: JointSemimeasure | ChronEnv | Policy, depth: int, alphabet: _Alphabet | None = None
) -> CheckReport:
    """The one check, over ``alphabet`` (default: that of ``nu``): a row per joint
    context, or per environment context and next action, holds the context's
    numerator against the summed numerators of its children. The verdicts are
    counted from :func:`_row_counts`, and :func:`_columns` (one walk, or a
    ``ChronEnumApprox``'s tables) files the columns when first read, or at once
    where the fold cannot decide or for a policy, whose check reads every
    column. The root's row holds the root mass over its gain."""
    count(depth, "depth")
    alphabet = alphabet or _alphabet(nu)
    joint = alphabet[0]
    fan = 1 if joint else alphabet[1]  # rows per context
    widths = [width * fan for width in _widths(alphabet, depth)]
    walked = cache(partial(_columns, nu, depth, alphabet))
    rows = None if isinstance(nu, Policy) else _row_counts(nu, depth, alphabet)
    if rows is None:
        lhs, rhs, witnesses = walked()
        root = lhs[0]
    else:
        root, witnesses = next(iter(rows))[1], ()
        lhs, rhs = _Walked(walked, 0), _Walked(walked, 1)
    monotone = []
    for row, s in sorted(witnesses):  # symbol order within a row
        x = _context_at(alphabet, row // fan)
        monotone.append(x + (s,) if joint else (x[0] + (s,), x[1] + (row % fan,)))
    scales = _check_gains(nu, depth, joint)[0][1:]
    report = CheckReport(
        kind="semimeasure" if joint else "chronological",
        depth=depth,
        root_mass=Fraction(root, scales[0]),
        monotone_violations=tuple(monotone),
        declared_measure=nu.declared_measure,
        lhs=lhs,
        rhs=rhs,
        levels=tuple(zip(widths, scales)),
        row_contexts=partial(_check_rows, alphabet, depth),
    )
    if rows is not None:  # every row strict or equal
        strict = sum(n for (_, prefix, total), n in rows.items() if prefix > total)
        object.__setattr__(report, "_tally", (strict, sum(widths) - strict, 0))
    return report


def _policy_rows(alphabet: _Alphabet, depth: int) -> Iterator[tuple]:
    """The (actions, percepts) row contexts of a policy check: histories of
    t < depth steps, in :func:`contexts` order."""
    return ((actions, percepts) for percepts, actions in _contexts(alphabet, depth - 1))


def check_policy(pi: Policy, depth: int, percept_arity: int = 2) -> CheckReport:
    """Chronological condition with action/percept roles swapped, folded from the
    environment-mode check to ``depth - 1``: the |P| children of its row (h, a) weigh
    pi(h a), so h's row sums its |A| rows' rhs against |P| times their lhs.
    A ``pi`` of another kind than ``Policy`` is a ``ComponentFormatError``."""
    of_kind(pi, "checked policy", Policy)
    count(depth, "depth")
    count(percept_arity, "percept_arity", 1)
    fan, alphabet = pi.action_arity, (False, pi.action_arity, percept_arity)
    rows = partial(_policy_rows, alphabet, depth)
    if not depth:  # no history is shorter than the empty one: no rows
        root = exact_mass(pi, 0, pi.root()[0])
        return CheckReport("policy", 0, root, (), False, [], [], (), rows)
    report = _check(pi, depth - 1, alphabet)
    return replace(
        report,
        kind="policy",
        depth=depth,
        monotone_violations=tuple((a, e[:-1]) for e, a in report.monotone_violations if not e[-1]),
        declared_measure=False,
        lhs=[percept_arity * m for m in report.lhs[::fan]],
        rhs=[sum(report.rhs[i : i + fan]) for i in range(0, len(report.rhs), fan)],
        levels=tuple((n // fan, scale * percept_arity) for n, scale in report.levels),
        row_contexts=rows,
    )
