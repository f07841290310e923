"""Finite-horizon value computation and expectimax action selection.

Planning uses full-width expectimax over exact masses — no sampling, no
pruning beyond zero-mass branches — at cost O((|A||E|)^m) nodes. Expectimax
and ``policy_value`` (on ``dual(nu, pi)``) are one recursion that folds the
action values below each percept by their max or by the policy's sum. It
walks from the history's state, which the checked fold walk reaches, one
``extend`` per node: O(1) per mixture component for the built-in beliefs and
their environment views, not a from-scratch evaluation of each prefix. The
objective weights each step's reward by the unnormalized mass at the time
the reward is received, which coincides with the classical expectimax
recursion for measures and extends it to strictly defective beliefs (missing
mass earns zero reward). Ties are always broken by the fixed alphabet order,
smallest action first, identically in expectimax and in the brute-force
policy-enumeration oracle.

An action is undefined at a node where the belief is undefined (see
:mod:`uailab.semimeasure`) at the action or at one of its percepts. Planners
leave undefined actions out of the max, and the one-step rule out of its map.
A node below the root with no defined action adds no further reward; a root
with none, or an undefined history, raises ``UndefinedConditionalError``.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Callable

from .core import (
    BINARY_PERCEPTS,
    EMPTY_HISTORY,
    ZERO,
    ComponentFormatError,
    History,
    PerceptAlphabet,
    UndefinedConditionalError,
)
from .semimeasure import ChronEnv, JointSemimeasure, Policy, _checked_walk, exact_mass
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
    continuations of ``history``: the masses of ``dual(nu, pi)``, summed by the
    expectimax recursion. Branches of zero mass, the policy's zero weight
    included, are pruned without extending deeper (their rewards weigh
    nothing), so an undefined history raises only where the policy weighs it.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    joint = dual(nu, pi)
    state, n = _history_node(joint, history, percepts)[1], 2 * len(history.actions)
    return _total(*_action_values(joint, state, n, horizon, percepts, _total))


def _check_percepts(nu: ChronEnv | JointSemimeasure, percepts: PerceptAlphabet) -> None:
    """A reward for each of the belief's percepts, and for no other."""
    if len(percepts.symbols) != nu.percept_arity:
        raise ComponentFormatError(
            f"percept alphabet has {len(percepts.symbols)} symbols, "
            f"the belief {nu.percept_arity} percepts"
        )


def _history_node(
    nu: ChronEnv | JointSemimeasure, history: History, percepts: PerceptAlphabet
) -> tuple[Any, Any]:
    """(mass, walk state) of a complete ``history``, by the checked fold walk,
    for planning with the rewards of ``percepts``."""
    if len(history.actions) != len(history.percepts):
        raise ComponentFormatError("planning starts from a complete history")
    _check_percepts(nu, percepts)
    return _checked_walk(nu, (history.percepts, history.actions), history.symbols())


def _action_values(
    nu: Any, state: Any, n: int, remaining: int, percepts: PerceptAlphabet, fold: Callable
) -> tuple[dict[int, Fraction], dict[int, UndefinedConditionalError]]:
    """(value-to-go of each defined action, error of each undefined one) from
    the walk state of a complete history of ``n`` symbols of a belief or a
    dual; below each percept, its child's pair adds ``fold(values, errors)``."""
    values, left_out = {}, {}
    for a in range(nu.action_arity):
        try:
            pending = nu.extend(state, a)[1]
            kids = [nu.extend(pending, e) for e in range(nu.percept_arity)]
        except UndefinedConditionalError as error:
            left_out[a] = error  # an undefined action has no value
            continue
        total = ZERO
        for e, (mass, child) in enumerate(kids):
            if mass == 0:
                continue  # extensions carry zero mass too (monotonicity)
            reward = percepts.reward(e)
            if reward:
                total += reward * exact_mass(nu, n + 2, mass)
            if remaining > 1:
                total += fold(*_action_values(nu, child, n + 2, remaining - 1, percepts, fold))
        values[a] = total
    return values, left_out


def _best(values: dict, left_out: dict) -> Fraction:
    """Expectimax's fold: the best value (none defined: no further reward)."""
    return max(values.values(), default=ZERO)


def _total(values: dict, left_out: dict) -> Fraction:
    """A policy's fold: the sum, or the first undefined action's error."""
    for error in left_out.values():
        raise error
    return sum(values.values(), ZERO)


def _plan(
    nu: ChronEnv, history: History, horizon: int, percepts: PerceptAlphabet
) -> tuple[Any, dict[int, Fraction]]:
    """(mass numerator of a complete ``history``, value of each defined action
    over ``horizon`` steps); an error naming the history where none is defined."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values: dict[int, Fraction] = {}
    try:
        mass, state = _history_node(nu, history, percepts)
        values = _action_values(nu, state, 2 * len(history.actions), horizon, percepts, _best)[0]
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
    _check_percepts(nu, percepts)
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
