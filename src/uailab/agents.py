"""Finite-horizon value computation and expectimax action selection.

Planning uses full-width expectimax over exact masses — no sampling, no
pruning beyond zero-mass branches — at cost O((|A||E|)^m) nodes. The
recursions of expectimax and ``policy_value`` walk the belief from the
history's state, one ``extend`` per node, so a node costs O(1) per mixture
component for the built-in beliefs and their environment views instead of a
from-scratch evaluation of its whole prefix. The objective weights each
step's reward by the unnormalized mass at the time the reward is received,
which coincides with the classical expectimax recursion for measures and
extends it to strictly defective beliefs (missing mass earns zero reward).
Ties are always broken by the fixed alphabet order, smallest action first,
identically in expectimax and in the brute-force policy-enumeration oracle.

An action is undefined at a node where the belief is undefined (see
:mod:`uailab.semimeasure`) at the action or at one of its percepts. Planners
leave undefined actions out of the max, and the one-step rule out of its map.
A node below the root with no defined action adds no further reward; a root
with none, or an undefined history, raises ``UndefinedConditionalError``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any

from .core import (
    BINARY_PERCEPTS,
    EMPTY_HISTORY,
    ZERO,
    ComponentFormatError,
    History,
    PerceptAlphabet,
    UndefinedConditionalError,
)
from .semimeasure import ChronEnv, JointSemimeasure, Policy, exact_mass
from .transforms import dual, env


def policy_value(
    pi: Policy,
    nu: ChronEnv,
    horizon: int,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
    history: History = EMPTY_HISTORY,
) -> Fraction:
    """Exact expected return of a policy over ``horizon`` further steps.

    Sums reward(e_t) * pi(a_1:t || e_<t) * nu(e_1:t || a_1:t) over all
    continuations of ``history``: the masses of ``dual(nu, pi)``, walked from
    the history's state. Branches of zero mass, the policy's zero weight
    included, are pruned without extending deeper (their rewards weigh
    nothing), so an undefined history raises only where the policy weighs it.
    """
    joint = dual(nu, pi)

    def recurse(state: Any, n: int, remaining: int) -> Fraction:
        total = ZERO
        for a in range(nu.action_arity):
            pending = joint.extend(state, a)[1]
            if pending is None:  # the policy weighs a 0, or the context is dead
                continue
            for e in range(nu.percept_arity):
                mass, child = joint.extend(pending, e)
                if mass == 0:
                    continue
                total += percepts.reward(e) * exact_mass(joint, n + 2, mass)
                if remaining > 1:
                    total += recurse(child, n + 2, remaining - 1)
        return total

    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return recurse(_history_node(joint, history)[1], 2 * len(history.actions), horizon)


def _history_node(nu: ChronEnv | JointSemimeasure, history: History) -> tuple[Any, Any]:
    """(mass, walk state) of a complete ``history``."""
    if len(history.actions) != len(history.percepts):
        raise ComponentFormatError("planning starts from a complete history")
    mass, state = nu.root()
    for a, e in zip(history.actions, history.percepts):
        mass, state = nu.extend(nu.extend(state, a)[1], e)
    return mass, state


def _action_values(
    nu: ChronEnv, state: Any, n: int, remaining: int, percepts: PerceptAlphabet
) -> dict[int, Fraction]:
    """Expectimax value-to-go of each defined action from the walk state of a
    complete history of ``n`` symbols."""
    values = {}
    for a in range(nu.action_arity):
        try:
            pending = nu.extend(state, a)[1]
            kids = [nu.extend(pending, e) for e in range(nu.percept_arity)]
        except UndefinedConditionalError:
            continue  # an undefined action has no value
        total = ZERO
        for e, (mass, child) in enumerate(kids):
            if mass == 0:
                continue  # extensions carry zero mass too (monotonicity)
            reward = percepts.reward(e)
            if reward:
                total += reward * exact_mass(nu, n + 2, mass)
            if remaining > 1:
                below = _action_values(nu, child, n + 2, remaining - 1, percepts)
                total += max(below.values(), default=ZERO)  # none defined: no further reward
        values[a] = total
    return values


def _plan(
    nu: ChronEnv, history: History, horizon: int, percepts: PerceptAlphabet
) -> tuple[Any, dict[int, Fraction]]:
    """(mass numerator of a complete ``history``, value of each defined action
    over ``horizon`` steps); an error naming the history where none is defined."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values: dict[int, Fraction] = {}
    try:
        mass, state = _history_node(nu, history)
        values = _action_values(nu, state, 2 * len(history.actions), horizon, percepts)
    except UndefinedConditionalError:
        pass  # an undefined history has no defined action
    if not values:
        raise UndefinedConditionalError((history.percepts, history.actions), "no defined action")
    return mass, values


def expectimax_action(
    nu: ChronEnv,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> int:
    """Action attaining the expectimax optimum over the remaining horizon."""
    values = _plan(nu, history, horizon, percepts)[1]
    return max(values, key=values.__getitem__)  # the first maximum: the smallest action


def expectimax_value(
    nu: ChronEnv,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> Fraction:
    """Optimal expected return over the remaining horizon."""
    return max(_plan(nu, history, horizon, percepts)[1].values())


def joint_aixi_action(
    joint: JointSemimeasure,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> int:
    """Planning against the environment view of a joint history distribution.

    The belief at step t conditions only on the realized prefix, never on
    later planned actions: every mass query issued by the recursion pairs
    equally many actions and percepts (tests verify this structurally).
    """
    return expectimax_action(env(joint), history, horizon, percepts)


def dualistic_aixi_action(
    belief: ChronEnv,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> int:
    """Planning against a chronological belief (mixture of environments)."""
    return expectimax_action(belief, history, horizon, percepts)


def one_step_action_values(
    belief: ChronEnv,
    history: History = EMPTY_HISTORY,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> dict[int, Fraction]:
    """Action-value map from one-step lookahead on conditional percept mass.

    action -> sum_e reward(e) * belief(e | history, action) for each defined
    action; errors if the history has zero mass under the belief
    (conditionals undefined).
    """
    mass, values = _plan(belief, history, 1, percepts)
    if mass == 0:
        raise UndefinedConditionalError((history.percepts, history.actions))
    mass = exact_mass(belief, 2 * len(history.actions), mass)
    return {a: v / mass for a, v in values.items()}


def one_step_action(
    belief: ChronEnv,
    history: History = EMPTY_HISTORY,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> int:
    """Greedy one-step lookahead (the self-predictive decision rule).

    Coincides with expectimax at horizon 1 whenever the history has positive
    mass: the shared denominator does not move the argmax.
    """
    values = one_step_action_values(belief, history, percepts)
    return max(values, key=values.__getitem__)


def brute_force_action(
    nu: ChronEnv,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> int:
    """Independent oracle: best first action by enumerating all policies.

    A deterministic policy over the remaining horizon is a map from percept
    histories (relative to the root) to actions; enumeration order puts the
    root action in the most significant position so the first policy
    attaining the maximum has the lexicographically smallest root action —
    the same tie rule expectimax uses. A policy that picks an undefined
    action at a reached node where some action is defined is left out.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    nodes: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(horizon):
        nodes.extend(frontier)
        frontier = [s + (e,) for s in frontier for e in range(nu.percept_arity)]
    index = {node: i for i, node in enumerate(nodes)}

    def masses(actions, percs, a) -> list[Fraction] | None:
        """The mass of each percept after action ``a``; None where ``a`` is undefined."""
        try:
            return [nu.eval(percs + (e,), actions + (a,)) for e in range(nu.percept_arity)]
        except UndefinedConditionalError:
            return None

    def value(assignment, rel, actions, percs, remaining) -> Fraction | None:
        """The policy's value from node ``rel``; None where it is left out."""
        a = assignment[index[rel]]
        row = masses(actions, percs, a)
        if row is None:  # with no defined action, no further reward
            defined = any(masses(actions, percs, b) is not None for b in range(nu.action_arity))
            return None if defined else ZERO
        total = ZERO
        for e, mass in enumerate(row):
            if mass == 0:
                continue
            total += percepts.reward(e) * mass
            if remaining > 1:
                rest = value(assignment, rel + (e,), actions + (a,), percs + (e,), remaining - 1)
                if rest is None:
                    return None
                total += rest
        return total

    best_value: Fraction | None = None
    best_root = 0
    for assignment in product(range(nu.action_arity), repeat=len(nodes)):
        v = value(assignment, (), history.actions, history.percepts, horizon)
        if v is not None and (best_value is None or v > best_value):
            best_value, best_root = v, assignment[0]
    if masses(history.actions, history.percepts, best_root) is None:
        raise UndefinedConditionalError((history.percepts, history.actions), "no defined action")
    return best_root
