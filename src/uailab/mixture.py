"""Finite Bayesian mixtures over joint or chronological components.

A mixture is a weighted component list with all weights positive and summing
to at most 1 (deficient priors allowed; shipped scenarios use weights as
given). Mixtures of joint components are joint semimeasures; mixtures of
environments are chronological environments. ``posterior_weights`` and
``predictive`` evaluate one history from scratch. A mixture's walk state
carries every live component's mass, so walks read the unnormalized
posterior w_i nu_i(prefix) at each node without re-evaluating the prefix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .core import (
    ZERO,
    ComponentFormatError,
    History,
    Prob,
    UndefinedConditionalError,
)
from .semimeasure import ChronEnv, JointSemimeasure, Policy, walk


def uniform_prior(n: int) -> tuple[Fraction, ...]:
    """Default prior over a scenario's component list."""
    return tuple(Fraction(1, n) for _ in range(n))


def harmonic_prior(n: int) -> tuple[Fraction, ...]:
    """w_i = 1/(i(i+1)) for enumeration-ordered components; sums to n/(n+1)."""
    return tuple(Fraction(1, i * (i + 1)) for i in range(1, n + 1))


def _validate_weights(components: Sequence, weights: Sequence[Fraction]) -> None:
    if len(components) != len(weights):
        raise ComponentFormatError("component/weight length mismatch")
    if not components:
        raise ComponentFormatError("mixture needs at least one component")
    if any(w <= 0 for w in weights):
        raise ComponentFormatError("mixture weights must be > 0")
    if sum(weights) > 1:
        raise ComponentFormatError("mixture weights must sum to <= 1")


class _Mixture:
    """Construction, the walk and the budgeted sum shared by both mixture kinds.

    The walk state is (mass, parts): parts holds (index, mass, state) for
    every component whose own state is not dead, so w_i * mass_i is the
    unnormalized posterior weight of component i; dead components are
    skipped from then on.
    """

    components: tuple
    weights: tuple[Fraction, ...]
    name_prefix = "component"

    def __init__(
        self,
        components: Sequence,
        weights: Sequence[Fraction],
        names: Sequence[str] | None = None,
    ):
        _validate_weights(components, weights)
        self.components = tuple(components)
        self.weights = tuple(weights)
        self.names = tuple(names) if names else tuple(
            f"{self.name_prefix}_{i}" for i in range(len(self.components))
        )
        self.action_arity = self.components[0].action_arity
        self.percept_arity = self.components[0].percept_arity
        self.declared_measure = all(c.declared_measure for c in self.components) and (
            sum(self.weights) == 1
        )

    def _node(self, parts: list) -> tuple[Prob, Any]:
        if not parts:
            return ZERO, None
        w = self.weights
        terms = [w[i] * m for i, m, _ in parts]
        mass = sum(terms[1:], terms[0])
        return mass, (mass, tuple(parts))

    def root(self) -> tuple[Prob, Any]:
        parts = []
        for i, c in enumerate(self.components):
            m, state = c.root()
            if state is not None:
                parts.append((i, m, state))
        return self._node(parts)

    def extend(self, state: Any, symbol: int) -> tuple[Prob, Any]:
        if state is None:
            return ZERO, None
        mass, old_parts = state
        parts = []
        unchanged = True  # e.g. an environment's action step
        components = self.components
        for i, old, s in old_parts:
            m, s = components[i].extend(s, symbol)
            if s is not None:
                parts.append((i, m, s))
            unchanged = unchanged and m is old and s is not None
        if unchanged:
            return mass, (mass, tuple(parts))
        return self._node(parts)

    def eval_at_budget(self, *args) -> Prob:
        """sum_i w_i nu_i at the budget; ``args`` are a context and a budget."""
        return sum(
            (w * c.eval_at_budget(*args) for c, w in zip(self.components, self.weights)), ZERO
        )


class JointMixture(_Mixture, JointSemimeasure):
    """xi(x) = sum_i w_i nu_i(x), itself a joint semimeasure."""

    components: tuple[JointSemimeasure, ...]

    def eval(self, x: tuple[int, ...]) -> Prob:
        return sum((w * c.eval(x) for c, w in zip(self.components, self.weights)), ZERO)


class EnvMixture(_Mixture, ChronEnv):
    """Mixture of environments: (e, a) -> sum_i w_i nu_i(e || a)."""

    components: tuple[ChronEnv, ...]
    name_prefix = "env"

    def eval(self, percepts: tuple[int, ...], actions: tuple[int, ...]) -> Prob:
        return sum(
            (w * c.eval(percepts, actions) for c, w in zip(self.components, self.weights)),
            ZERO,
        )


def dual_mixture(
    envs: Sequence[ChronEnv],
    env_weights: Sequence[Fraction],
    policies: Sequence[Policy],
    policy_weights: Sequence[Fraction],
    pair_weights: dict[tuple[int, int], Fraction] | None = None,
) -> JointMixture:
    """Mixture over dual(env, policy) for all pairs.

    With the default factored prior, the pair (nu_j, pi_k) gets weight
    policy_weights[k] * env_weights[j] (agent and environment independent).
    An explicit non-factored ``pair_weights`` grid (keyed by (env index,
    policy index), missing entries meaning zero) is accepted for
    counterexample construction.
    """
    from .transforms import dual

    _validate_weights(envs, env_weights)
    _validate_weights(policies, policy_weights)
    components: list[JointSemimeasure] = []
    weights: list[Fraction] = []
    names: list[str] = []
    for j, nu in enumerate(envs):
        for k, pi in enumerate(policies):
            if pair_weights is None:
                w = policy_weights[k] * env_weights[j]
            else:
                w = pair_weights.get((j, k), ZERO)
                if w == 0:
                    continue
            components.append(dual(nu, pi))
            weights.append(w)
            names.append(f"dual_env{j}_policy{k}")
    return JointMixture(components, weights, names)


@dataclass(frozen=True)
class PosteriorState:
    """Exact posterior weights after a history plus a pending action.

    posterior[i] = w_i nu_i(prefix) / xi(prefix); components with zero mass
    on the prefix get posterior exactly 0. By construction
    sum_i posterior[i] * xi(prefix) = sum_i w_i nu_i(prefix), exactly.
    """

    prefix: tuple[int, ...]
    prior: tuple[Fraction, ...]
    component_masses: tuple[Fraction, ...]
    mixture_mass: Fraction
    posterior: tuple[Fraction, ...]


def _pending_prefix(h: History, action: int) -> tuple[int, ...]:
    return h.with_action(action).symbols()


def posterior_weights(mixture: JointMixture, h: History, action: int) -> PosteriorState:
    """History-conditional component weights under the mixture.

    Errors on a zero-probability prefix: the posterior is undefined there.
    """
    prefix = _pending_prefix(h, action)
    masses = tuple(c.eval(prefix) for c in mixture.components)
    total = sum((w * m for w, m in zip(mixture.weights, masses)), ZERO)
    if total == 0:
        raise UndefinedConditionalError(prefix, "posterior weights")
    post = tuple(w * m / total for w, m in zip(mixture.weights, masses))
    return PosteriorState(
        prefix=prefix,
        prior=mixture.weights,
        component_masses=masses,
        mixture_mass=total,
        posterior=post,
    )


def predictive(mixture: JointMixture, h: History, action: int) -> dict[int, Fraction]:
    """Next-percept distribution e -> xi(prefix + e) / xi(prefix).

    Equals the posterior-weighted component conditionals (checked exactly by
    the test suite over all histories to depth 4).
    """
    prefix = _pending_prefix(h, action)
    denom = mixture.eval(prefix)
    if denom == 0:
        raise UndefinedConditionalError(prefix, "predictive distribution")
    return {
        e: mixture.eval(prefix + (e,)) / denom for e in range(mixture.percept_arity)
    }


def check_predictive_consistency(
    mixture: JointMixture, depth: int
) -> list[tuple[tuple, Fraction, Fraction]]:
    """Mismatches between the two faces of the predictive conditional.

    For every complete history to ``depth``, action, and percept with a
    positive pending prefix: the mixture conditional xi(e | prefix) must
    equal the posterior-weighted component conditionals (components with
    zero posterior contribute nothing). Returns mismatch triples
    (witness, lhs, rhs) in the :func:`contexts` order of the pending
    prefixes; empty means exact agreement everywhere. Both sides read the
    per-component masses of one mixture walk.
    """
    found: list[tuple[int, tuple, Fraction, Fraction]] = []
    root = mixture.root()
    for order, prefix, (mass, state), kids in walk(mixture, 2 * depth + 1, root, mixture.extend):
        if len(prefix) % 2 == 0 or mass == 0:
            continue
        posterior = [(mixture.weights[i] * m / mass, i, m) for i, m, _ in state[1]]
        for e, (child_mass, child_state) in enumerate(kids):
            child = {i: m for i, m, _ in child_state[1]} if child_state else {}
            lhs = child_mass / mass
            rhs = ZERO
            for post, i, m in posterior:
                if post != 0:
                    rhs += post * (child.get(i, ZERO) / m)
            if lhs != rhs:
                found.append((order, (prefix, e), lhs, rhs))
    found.sort(key=lambda item: item[0])  # stable: percept order within a prefix
    return [item[1:] for item in found]
