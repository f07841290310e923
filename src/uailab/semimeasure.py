"""Joint semimeasures, chronological environments, policies, and their checkers.

A joint semimeasure assigns exact mass to finite interleaved action/percept
strings and satisfies nu(x) >= sum_s nu(xs) at every context. A chronological
environment nu(e_1:t || a_1:t) satisfies the one-sided version: for every
action extension, the next-percept masses sum to at most the prefix mass.
Checkers enumerate every context up to a depth exhaustively and report each
violation as data (never as an exception).

Components declare whether they are measures (equality everywhere) or
strictly defective; checkers verify the declaration up to the checked depth.

Walks share prefixes: ``root()`` gives the empty context's mass and a walk
state, and ``extend(state, symbol)`` gives the mass and state one symbol
further. A component has one evaluator: either ``eval``, walked by defaults
whose state is the context itself, evaluated from scratch, or ``root``,
``extend`` and ``scale`` with ``eval = JointSemimeasure.fold`` (or
``ChronEnv.fold``), which walks to the context after rejecting any symbol
outside the alphabet. The six built-in components share two walks that cost
O(1) per step: one step rule for the product and echo components (an
action's mass fixed, a percept's chosen by the pending action) and one table
walk for both table kinds (a row per interleaved context). Environments take
the action and the percept of a step as two symbols, and walk as joint
components whose every action weighs 1: after an action the mass is the
unchanged mass of the complete prefix. A state of None is a dead context:
its mass and that of every extension is zero, and ``extend(None, s)`` is
``(0, None)``; only overrides whose zero mass is absorbing return it. Every
exhaustive check is one depth-first :func:`walk`, which addresses each
context by its *slot*, its position in :func:`contexts` order, and builds no
context. A check files numerators into flat columns by slot, and a context
is derived from its slot only where a row, a violation or a witness is read.
States live only inside one walk.

A context is *undefined* for a component when its ``root`` or ``extend``
raises ``UndefinedConditionalError`` or its subclass ``NormalizationError``;
every extension of an undefined context is undefined too. Readers leave
undefined contexts out instead of raising: :func:`compare` counts them per
side, and the planners leave undefined actions out (see :mod:`uailab.agents`).

Walk masses are numerators over a declared scale: a mass returned for a
context of n symbols stands for ``Fraction(mass, nu.scale(n))``, where
``scale(n)`` is a positive ``int`` that divides ``scale(n + 1)``; an
environment's scale does not change at an action (``scale(2t + 1) ==
scale(2t)``). The default scale is 1, so a component that keeps ``Fraction``
masses needs no override. Built-ins whose masses are products of fixed
rationals use ``D_a**ceil(n/2) * D_p**floor(n/2)``, with D the lcm of the
action (D_a) or percept (D_p) masses' denominators, and return ``int``
numerators, so a step is one integer product. The checkers compare a
context's numerator times ``scale(n') // scale(n)`` with the sum of its
children's numerators in ``int``; every other reader converts a mass with
:func:`exact_mass` before dividing (``int / int`` is a float).

All components are immutable after construction; evaluation is pure.
"""
from __future__ import annotations

import abc
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
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
    frac_str,
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
        return _fold(self, x, x)

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
        return _fold(self, (percepts, actions), _history(percepts, actions))

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


def _check_alphabet(nu: JointSemimeasure | ChronEnv, context: Any, x: Sequence) -> None:
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


def _fold(nu: JointSemimeasure | ChronEnv, context: Any, x: tuple[int, ...]) -> Prob:
    """The exact mass of the interleaved string ``x`` of ``context`` by one walk."""
    _check_alphabet(nu, context, x)
    mass, state = nu.root()
    for s in x:
        mass, state = nu.extend(state, s)
    return exact_mass(nu, len(x), mass)


class Policy(abc.ABC):
    """A policy, evaluable as a chronological semimeasure over actions.

    ``weight(actions, percepts)`` is the joint probability of emitting the
    action prefix given the percepts seen before each action; only
    ``percepts[:len(actions) - 1]`` is consulted.
    """

    action_arity: int = 2

    @abc.abstractmethod
    def weight(self, actions: tuple[int, ...], percepts: tuple[int, ...]) -> Prob:
        ...


class DeterministicPolicy(Policy):
    """Total function from histories to actions, wrapped as a policy."""

    def __init__(self, fn: Callable[[History], int], action_arity: int = 2):
        self.fn = fn
        self.action_arity = action_arity

    def weight(self, actions: tuple[int, ...], percepts: tuple[int, ...]) -> Prob:
        for i, a in enumerate(actions):
            if self.fn(History(actions[:i], percepts[:i])) != a:
                return ZERO
        return ONE


@dataclass(frozen=True)
class StationaryPolicy(Policy):
    """History-independent action distribution (sums to <= 1)."""

    probs: tuple[Fraction, ...] = (HALF, HALF)

    def __post_init__(self):
        if any(p < 0 for p in self.probs) or sum(self.probs) > 1:
            raise ComponentFormatError("action masses must be >= 0 and sum to <= 1")

    @property
    def action_arity(self) -> int:  # type: ignore[override]
        return len(self.probs)

    def weight(self, actions: tuple[int, ...], percepts: tuple[int, ...]) -> Prob:
        out = ONE
        for a in actions:
            out *= self.probs[a]
        return out


def uniform_policy(action_arity: int = 2) -> StationaryPolicy:
    return StationaryPolicy(tuple(Fraction(1, action_arity) for _ in range(action_arity)))


def constant_policy(action: int, action_arity: int = 2) -> DeterministicPolicy:
    return DeterministicPolicy(lambda h: action, action_arity)


@dataclass(frozen=True)
class MixturePolicy(Policy):
    """Weighted mixture of policies, mixed at the joint-value level."""

    policies: tuple[Policy, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.policies) != len(self.weights):
            raise ComponentFormatError("policy/weight length mismatch")
        if not self.policies:
            raise ComponentFormatError("policy mixture needs at least one policy")
        if any(w <= 0 for w in self.weights) or sum(self.weights) > 1:
            raise ComponentFormatError("policy weights must be positive and sum to <= 1")
        if len({p.action_arity for p in self.policies}) > 1:
            raise ComponentFormatError("mixed policies must share one action arity")

    @property
    def action_arity(self) -> int:  # type: ignore[override]
        return self.policies[0].action_arity

    def weight(self, actions: tuple[int, ...], percepts: tuple[int, ...]) -> Prob:
        return sum(
            (w * p.weight(actions, percepts) for p, w in zip(self.policies, self.weights)),
            ZERO,
        )


# ---------------------------------------------------------------------------
# Built-in joint components
# ---------------------------------------------------------------------------


def _over(row: Sequence[Fraction], d: int) -> tuple[int, ...]:
    """Numerators of exact masses over a common denominator ``d``."""
    return tuple(p.numerator * (d // p.denominator) for p in row)


class _ProductScale:
    """Walk scale of a component whose steps multiply by rationals fixed at
    construction (its symbol masses, or a table's conditionals).

    ``_bases`` = (D_a, D_p): every action mass is a numerator over D_a, every
    percept mass one over D_p, so scale(n) = D_a**ceil(n/2) * D_p**floor(n/2).
    """

    _bases: tuple[int, int]

    def scale(self, n: int) -> int:
        d_a, d_p = self._bases
        return d_a ** ((n + 1) // 2) * d_p ** (n // 2)


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
        """Check every row (exact, >= 0, sum <= 1), then set ``_bases``,
        ``_steps`` and ``declared_measure`` (every row sums to 1)."""
        percepts = [tuple(row) for row in percept_rows]
        rows = percepts if action_probs is None else [tuple(action_probs), *percepts]
        for row in rows:
            if any(type(p) not in (int, Fraction) for p in row):
                raise ComponentFormatError(f"symbol masses must be exact rationals, got {row!r}")
            if any(p < 0 for p in row) or sum(row) > 1:
                raise ComponentFormatError(
                    f"symbol masses must be >= 0 and sum to <= 1, got {row!r}"
                )
        actions = (ONE,) * self.action_arity if action_probs is None else rows[0]
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
        tuple(Fraction(1, action_arity) for _ in range(action_arity)),
        tuple(Fraction(1, percept_arity) for _ in range(percept_arity)),
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
    return IIDEnv(tuple(Fraction(1, percept_arity) for _ in range(percept_arity)))


# ---------------------------------------------------------------------------
# Explicit finite tables
# ---------------------------------------------------------------------------


def _check_row(context: Any, row: Sequence[Fraction], arity: int) -> tuple[Fraction, ...]:
    vals = tuple(prob(v) for v in row)
    if len(vals) != arity:
        raise ComponentFormatError(f"row at context {context!r} has arity {len(vals)} != {arity}")
    if sum(vals) > 1:
        raise ComponentFormatError(
            f"conditionals at context {context!r} sum to {frac_str(sum(vals))} > 1"
        )
    return vals


def _default_row(default: str, arity: int) -> tuple[Fraction, ...]:
    """Conditional masses beyond the defined contexts under a default rule."""
    if default == "uniform":
        return tuple(Fraction(1, arity) for _ in range(arity))
    return tuple(ZERO for _ in range(arity))


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
        self.action_arity = action_arity
        self.percept_arity = percept_arity
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
    """The symbols of a context string; a character that is not a digit stays
    as it is, for the table constructor to reject."""
    return tuple(int(c) if c.isdecimal() else c for c in context)


def table_component(definition: Mapping[str, Any]) -> JointSemimeasure | ChronEnv:
    """Build a table component from a parsed definition dict.

    Expected fields: kind ("joint_table" | "env_table"), alphabet
    ({"actions": n, "percepts": n}), conditionals, default_rule,
    declared_measure. See docs/component_format.md for the exact schema;
    conditional values are exact rational strings, never floats.
    """
    kind = definition.get("kind")
    alphabet = definition.get("alphabet", {})
    if not isinstance(alphabet, dict) or not all(
        type(n) is int and n > 0 for n in alphabet.values()
    ):
        raise ComponentFormatError(
            f"alphabet must be an object of positive integer arities, got {alphabet!r}"
        )
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
    return _contexts(_alphabet(nu), depth)


# (joint, action arity, percept arity): all that the contexts of a component
# depend on.
_Alphabet = tuple[bool, int, int]


def _alphabet(nu: JointSemimeasure | ChronEnv) -> _Alphabet:
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


def _context_at(nu: JointSemimeasure | ChronEnv, slot: int) -> Any:
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


Step = Callable[[Any, int], tuple[Any, Any]]


def walk(
    nu: JointSemimeasure | ChronEnv,
    depth: int,
    root: tuple[Any, Any],
    step: Step,
    last_children: bool = True,
) -> Iterator[tuple[int, int, tuple[Any, Any], list | None]]:
    """Every context of ``nu`` up to ``depth`` by its slot, depth first.

    Yields (slot, t, node, kids) from ``root``; a node is a (mass, state)
    pair. ``slot`` is the context's position in :func:`contexts` order, so
    callers file results into flat columns by it, and ``t`` its level (its
    symbols, or an environment's steps). The walk builds no context:
    :func:`_context_at` derives one from its slot where a caller needs it.
    ``kids`` are the node's one-context extensions by ``step``, computed
    once and then walked (None at level ``depth`` unless ``last_children``):
    joint kinds give [node per next symbol], environments [[node per
    percept] per action], sharing each pending action. Only the open path
    is held, never a whole level.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    alphabet = _alphabet(nu)
    joint, n_actions, n_percepts = alphabet
    actions_range, percepts_range = range(n_actions), range(n_percepts)
    offsets = [0, *accumulate(_widths(alphabet, depth))]
    # An environment's index within level t is a_index * P**t + p_index, its
    # action and percept strings read as numbers.
    percept_strings = [n_percepts**t for t in range(depth + 1)]
    stack = [(0, 0, root)]  # (level, index within the level, node)
    pop, extend = stack.pop, stack.extend
    while stack:
        t, index, node = pop()
        if t == depth and not last_children:
            yield offsets[t] + index, t, node, None
            continue
        state = node[1]
        # Plain loops below: a comprehension costs one more call per node.
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


@dataclass(frozen=True)
class MismatchRow:
    """Two exactly-compared evaluations at one context, the witness."""

    witness: tuple
    lhs: Fraction
    rhs: Fraction

    @property
    def verdict(self) -> str:
        return "equal" if self.lhs == self.rhs else "mismatch"


def exact_mass(nu: JointSemimeasure | ChronEnv, n: int, mass: Any) -> Fraction:
    """The exact mass a walk numerator of ``nu`` at a context of ``n`` symbols
    stands for. Every reader of walk masses outside the checkers converts
    here before it divides."""
    scale = nu.scale(n)
    if scale == 1 and isinstance(mass, Fraction):
        return mass
    return Fraction(mass, scale)


def compare(
    lhs: JointSemimeasure | ChronEnv, rhs: JointSemimeasure | ChronEnv, depth: int
) -> tuple[list[MismatchRow], int, int]:
    """Evaluate both sides at every context of ``lhs`` up to ``depth``.

    Returns (rows in :func:`contexts` order, count of contexts where ``lhs``
    is undefined, count of the others where ``rhs`` is undefined). Both
    sides walk together, their masses filed by slot; ``rhs`` is never
    extended where ``lhs`` or ``rhs`` is undefined. The rows take their
    contexts from :func:`contexts` order once the walk ends.
    """
    no_rhs = object()  # the rhs state at and below a context where rhs is undefined

    def step(state: Any, symbol: int) -> tuple[Any, Any]:
        if state is None:  # lhs undefined here and below
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

    root: tuple = (None, None)  # lhs undefined at the root
    try:
        lhs_mass, lhs_state = lhs.root()
        root = ((lhs_mass, None), (lhs_state, no_rhs))  # rhs undefined unless it returns
        rhs_mass, rhs_state = rhs.root()
        root = ((lhs_mass, rhs_mass), (lhs_state, rhs_state))
    except UndefinedConditionalError:
        pass
    alphabet = _alphabet(lhs)
    pairs: list[tuple[Any, Any] | None] = [None] * sum(_widths(alphabet, depth))
    lhs_undefined = rhs_undefined = 0
    for slot, _, (masses, _), _ in walk(lhs, depth, root, step, last_children=False):
        if masses is None:
            lhs_undefined += 1
        elif masses[1] is None:
            rhs_undefined += 1
        else:
            pairs[slot] = masses
    rows = []
    for context, masses in zip(_contexts(alphabet, depth), pairs):
        if masses is not None:
            n = len(context) if alphabet[0] else 2 * len(context[1])
            rows.append(
                MismatchRow(context, exact_mass(lhs, n, masses[0]), exact_mass(rhs, n, masses[1]))
            )
    return rows, lhs_undefined, rhs_undefined


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
    first read, and ``violations`` only the violating rows. Two reports are
    equal when their exact rows and every other field are.
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

    def __post_init__(self):
        strict = sum(map(operator.gt, self.lhs, self.rhs))
        equal = sum(map(operator.eq, self.lhs, self.rhs))
        object.__setattr__(self, "_tally", (strict, equal, len(self.lhs) - strict - equal))

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
        return len(self.lhs)

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


def _check(nu: JointSemimeasure | ChronEnv, depth: int) -> CheckReport:
    """The one walk of both checks: a row per joint context, or per
    environment context and next action, holds the context's numerator
    against the summed numerators of its children."""
    alphabet = _alphabet(nu)
    joint = alphabet[0]
    fan = 1 if joint else nu.action_arity  # rows per context
    widths = [width * fan for width in _widths(alphabet, depth)]
    lhs_column: list[Any] = [None] * sum(widths)
    rhs_column: list[Any] = [None] * len(lhs_column)
    witnesses: list[tuple[int, int]] = []  # (row, symbol) of a child above its prefix
    # A context's numerator times its level's gain is over its children's scale.
    scales = [nu.scale((1 if joint else 2) * t) for t in range(depth + 2)]
    gains = [scales[t + 1] // scales[t] for t in range(depth + 1)]
    root = nu.root()
    for slot, t, (lhs, _), kids in walk(nu, depth, root, nu.extend):
        if gains[t] != 1:
            lhs *= gains[t]
        row = slot * fan
        for group in (kids,) if joint else kids:
            rhs, above = 0, False
            for mass, _ in group:  # a plain loop: no list, no comprehension per row
                rhs += mass
                if mass > lhs:
                    above = True
            lhs_column[row] = lhs
            rhs_column[row] = rhs
            if above:
                witnesses.extend((row, s) for s, (m, _) in enumerate(group) if m > lhs)
            row += 1
    witnesses.sort()  # symbol order within a row
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


def _policy_rows(alphabet: _Alphabet, depth: int) -> Iterator[tuple]:
    """The (actions, percepts) row contexts of a policy check: histories of
    t < depth steps, in :func:`contexts` order."""
    return ((actions, percepts) for percepts, actions in _contexts(alphabet, depth - 1))


def check_policy(pi: Policy, depth: int, percept_arity: int = 2) -> CheckReport:
    """Chronological condition with action/percept roles swapped."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    alphabet = (False, pi.action_arity, percept_arity)
    lhs_column, rhs_column = [], []
    for actions, percepts in _policy_rows(alphabet, depth):
        lhs_column.append(pi.weight(actions, percepts[: max(0, len(actions) - 1)]))
        children = [pi.weight(actions + (a,), percepts) for a in range(pi.action_arity)]
        rhs_column.append(sum(children, ZERO))
    return CheckReport(
        kind="policy",
        depth=depth,
        root_mass=pi.weight((), ()),
        monotone_violations=(),
        declared_measure=False,
        lhs=lhs_column,
        rhs=rhs_column,
        levels=((len(lhs_column), 1),),  # policy weights are exact masses already
        row_contexts=partial(_policy_rows, alphabet, depth),
    )
