"""Finite Bayesian mixtures over joint or chronological components.

A mixture is a weighted component list with all weights positive and summing
to at most 1 (deficient priors allowed; shipped scenarios use weights as
given). Mixtures of joint components are joint semimeasures; mixtures of
environments are chronological environments. A mixture's ``eval`` is the
fold of its walk. ``posterior_weights`` and ``predictive`` evaluate one
history by such point queries. A mixture's walk state carries every live
component's weighted mass, so walks read the unnormalized posterior
w_i nu_i(prefix) at each node without re-evaluating the prefix.

A mixture's walk scale is the lcm of its components' scales times the lcm
of its weights' denominators, so with integer components its masses are
integers too. A component that keeps ``Fraction`` masses (scale 1) still
mixes exactly: the mixture's numerators are then ``Fraction`` as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .core import (
    ZERO,
    ComponentFormatError,
    History,
    UndefinedConditionalError,
)
from .semimeasure import ChronEnv, JointSemimeasure, Policy, _context_at, exact_mass, walk


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
    """Construction and the walk shared by both mixture kinds.

    The walk state is (length, mass, parts): parts holds (index, weighted
    mass, state) for every component whose own state is not dead, where the
    weighted mass is w_i * nu_i as a numerator over the mixture's scale, the
    unnormalized posterior weight of component i; the mass is their sum.
    Dead components are skipped from then on.
    """

    components: tuple
    weights: tuple[Fraction, ...]
    name_prefix = "component"
    _kind: type = object
    # An environment's action moves neither its mass nor its scale.
    _actions_keep_mass = False

    def __init__(
        self,
        components: Sequence,
        weights: Sequence[Fraction],
        names: Sequence[str] | None = None,
    ):
        _validate_weights(components, weights)
        for c in components:
            if not isinstance(c, self._kind):
                raise ComponentFormatError(
                    f"{type(self).__name__} component {c!r} is not a {self._kind.__name__}"
                )
        if len({(c.action_arity, c.percept_arity) for c in components}) > 1:
            raise ComponentFormatError("mixed components must share one alphabet")
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
        self._weight_scale = math.lcm(*(Fraction(w).denominator for w in self.weights))
        self._levels: list[tuple[int, tuple]] = []

    def _level(self, n: int) -> tuple[int, tuple]:
        """(scale, per-component factors) at context length n: component i's
        numerator times its factor is w_i * nu_i over the mixture's scale."""
        levels = self._levels
        while len(levels) <= n:
            member = [c.scale(len(levels)) for c in self.components]
            lcm = math.lcm(*member)
            factors = tuple(
                w.numerator * (self._weight_scale // w.denominator) * (lcm // s)
                for w, s in zip(map(Fraction, self.weights), member)
            )
            levels.append((self._weight_scale * lcm, factors))
        return levels[n]

    def scale(self, n: int) -> int:
        return self._level(n)[0]

    def _node(self, n: int, parts: list) -> tuple[Any, Any]:
        if not parts:
            return 0, None
        mass = parts[0][1]
        for part in parts[1:]:
            mass += part[1]
        return mass, (n, mass, tuple(parts))

    def root(self) -> tuple[Any, Any]:
        factors = self._level(0)[1]
        parts = []
        for i, c in enumerate(self.components):
            m, state = c.root()
            if state is not None:
                parts.append((i, m * factors[i], state))
        return self._node(0, parts)

    def extend(self, state: Any, symbol: int) -> tuple[Any, Any]:
        if state is None:
            return 0, None
        n, mass, old_parts = state
        components = self.components
        parts = []
        if self._actions_keep_mass and n % 2 == 0:
            for i, weighted, s in old_parts:
                s = components[i].extend(s, symbol)[1]
                if s is not None:
                    parts.append((i, weighted, s))
            if len(parts) == len(old_parts):
                return mass, (n + 1, mass, tuple(parts))
            return self._node(n + 1, parts)
        levels = self._levels
        factors = (levels[n + 1] if n + 1 < len(levels) else self._level(n + 1))[1]
        mass = 0
        for i, _, s in old_parts:
            m, s = components[i].extend(s, symbol)
            if s is not None:
                m *= factors[i]
                mass += m
                parts.append((i, m, s))
        return (mass, (n + 1, mass, tuple(parts))) if parts else (0, None)


class JointMixture(_Mixture, JointSemimeasure):
    """xi(x) = sum_i w_i nu_i(x), itself a joint semimeasure."""

    components: tuple[JointSemimeasure, ...]
    _kind = JointSemimeasure

    eval = JointSemimeasure.fold


class EnvMixture(_Mixture, ChronEnv):
    """Mixture of environments: (e, a) -> sum_i w_i nu_i(e || a)."""

    components: tuple[ChronEnv, ...]
    name_prefix = "env"
    _kind = ChronEnv
    _actions_keep_mass = True

    eval = ChronEnv.fold


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


def posterior_weights(mixture: JointMixture, h: History, action: int) -> PosteriorState:
    """History-conditional component weights under the mixture.

    Errors on a zero-probability prefix: the posterior is undefined there.
    """
    prefix = h.with_action(action).symbols()
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
    prefix = h.with_action(action).symbols()
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
    found: list[tuple[int, int, Fraction, Fraction]] = []  # (slot, percept, lhs, rhs)
    root = mixture.root()
    for slot, n, (mass, state), kids in walk(mixture, 2 * depth + 1, root, mixture.extend):
        if n % 2 == 0 or mass == 0:
            continue
        total = exact_mass(mixture, n, mass)
        weighted = [(i, exact_mass(mixture, n, m)) for i, m, _ in state[2]]  # w_i nu_i
        posterior = [(w_nu / total, i, w_nu) for i, w_nu in weighted]
        for e, (child_mass, child_state) in enumerate(kids):
            child = {i: m for i, m, _ in child_state[2]} if child_state else {}
            lhs = exact_mass(mixture, n + 1, child_mass) / total
            rhs = ZERO
            for post, i, w_nu in posterior:
                if post != 0:
                    rhs += post * (exact_mass(mixture, n + 1, child.get(i, 0)) / w_nu)
            if lhs != rhs:
                found.append((slot, e, lhs, rhs))
    found.sort()  # by (slot, percept), which no two mismatches share
    return [((_context_at(mixture, slot), e), lhs, rhs) for slot, e, lhs, rhs in found]
