"""Finite-horizon value computation and expectimax action selection.

Planning uses full-width expectimax over exact masses — no sampling, no
pruning beyond zero-mass branches — at cost O((|A||E|)^m) nodes. The
recursion walks the belief from the history's state, one ``extend`` per
node, so a node costs O(1) per mixture component for the built-in beliefs
and their environment views instead of a from-scratch evaluation of its
whole prefix. The objective weights each
step's reward by the unnormalized mass at the time the reward is received,
which coincides with the classical expectimax recursion for measures and
extends it to strictly defective beliefs (missing mass earns zero reward).
Ties are always broken by the fixed alphabet order, smallest action first,
identically in expectimax and in the brute-force policy-enumeration oracle.
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
from .transforms import env


def policy_value(
    pi: Policy,
    nu: ChronEnv,
    horizon: int,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
    history: History = EMPTY_HISTORY,
) -> Fraction:
    """Exact expected return of a policy over ``horizon`` further steps.

    Sums reward(e_t) * pi(a_1:t || e_<t) * nu(e_1:t || a_1:t) over all
    continuations of ``history``; zero-mass branches are pruned without
    evaluating deeper (their rewards weigh nothing).
    """

    def recurse(actions: tuple[int, ...], percs: tuple[int, ...], remaining: int) -> Fraction:
        total = ZERO
        for a in range(nu.action_arity):
            w = pi.weight(actions + (a,), percs)
            if w == 0:
                continue
            for e in range(nu.percept_arity):
                mass = nu.eval(percs + (e,), actions + (a,))
                if mass == 0:
                    continue
                total += percepts.reward(e) * w * mass
                if remaining > 1:
                    total += recurse(actions + (a,), percs + (e,), remaining - 1)
        return total

    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return recurse(history.actions, history.percepts, horizon)


def _state_at(nu: ChronEnv, history: History) -> tuple[Any, Any]:
    """The walk node (mass numerator, state) of ``nu`` after a complete ``history``."""
    if len(history.actions) != len(history.percepts):
        raise ComponentFormatError("planning starts from a complete history")
    node = nu.root()
    for a, e in zip(history.actions, history.percepts):
        node = nu.extend(nu.extend(node[1], a)[1], e)
    return node


def _expectimax_value(
    nu: ChronEnv, state: Any, n: int, remaining: int, percepts: PerceptAlphabet
) -> tuple[Fraction, int]:
    """(best value-to-go, lexicographically smallest maximizing action) from
    the walk state of a complete history of ``n`` symbols."""
    best_value: Fraction | None = None
    best_action = 0
    for a in range(nu.action_arity):
        pending = nu.extend(state, a)[1]
        total = ZERO
        for e in range(nu.percept_arity):
            mass, child = nu.extend(pending, e)
            if mass == 0:
                continue  # extensions carry zero mass too (monotonicity)
            reward = percepts.reward(e)
            if reward:
                total += reward * exact_mass(nu, n + 2, mass)
            if remaining > 1:
                total += _expectimax_value(nu, child, n + 2, remaining - 1, percepts)[0]
        if best_value is None or total > best_value:
            best_value, best_action = total, a
    assert best_value is not None
    return best_value, best_action


def expectimax_action(
    nu: ChronEnv,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> int:
    """Action attaining the expectimax optimum over the remaining horizon.

    Exact arithmetic throughout; undefined conditionals along explored
    branches (possible for lazily-derived environment views) propagate as
    errors naming the branch.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n = 2 * len(history.actions)
    return _expectimax_value(nu, _state_at(nu, history)[1], n, horizon, percepts)[1]


def expectimax_value(
    nu: ChronEnv,
    history: History = EMPTY_HISTORY,
    horizon: int = 1,
    percepts: PerceptAlphabet = BINARY_PERCEPTS,
) -> Fraction:
    """Optimal expected return over the remaining horizon."""
    n = 2 * len(history.actions)
    return _expectimax_value(nu, _state_at(nu, history)[1], n, horizon, percepts)[0]


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

    action -> sum_e reward(e) * belief(e | history, action); errors if the
    history has zero mass under the belief (conditionals undefined). Every
    conditional is one walk step from the history's node.
    """
    mass, state = _state_at(belief, history)
    if mass == 0:
        raise UndefinedConditionalError((history.percepts, history.actions))
    n = 2 * len(history.actions)
    mass = exact_mass(belief, n, mass)
    values = {}
    for a in range(belief.action_arity):
        pending = belief.extend(state, a)[1]
        masses = (belief.extend(pending, e)[0] for e in range(belief.percept_arity))
        values[a] = sum(
            (
                percepts.reward(e) * (exact_mass(belief, n + 2, m) / mass)
                for e, m in enumerate(masses)
            ),
            ZERO,
        )
    return values


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
    best = max(values.values())
    return min(a for a, v in values.items() if v == best)


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
    the same tie rule expectimax uses.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    nodes: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(horizon):
        nodes.extend(frontier)
        frontier = [s + (e,) for s in frontier for e in range(nu.percept_arity)]
    index = {node: i for i, node in enumerate(nodes)}

    def value_of(assignment: tuple[int, ...]) -> Fraction:
        def recurse(rel: tuple[int, ...], actions, percs, remaining) -> Fraction:
            a = assignment[index[rel]]
            total = ZERO
            for e in range(nu.percept_arity):
                mass = nu.eval(percs + (e,), actions + (a,))
                if mass == 0:
                    continue
                total += percepts.reward(e) * mass
                if remaining > 1:
                    total += recurse(rel + (e,), actions + (a,), percs + (e,), remaining - 1)
            return total

        return recurse((), history.actions, history.percepts, horizon)

    best_value: Fraction | None = None
    best_root = 0
    for assignment in product(range(nu.action_arity), repeat=len(nodes)):
        v = value_of(assignment)
        if best_value is None or v > best_value:
            best_value, best_root = v, assignment[0]
    return best_root
