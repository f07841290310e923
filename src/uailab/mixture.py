"""Finite Bayesian mixtures over joint components, environments or policies.

A mixture is a weighted component list whose weights pass
:func:`uailab.core.exact_masses`: one positive ``int`` or ``Fraction`` per
component, summing to at most 1 (deficient priors allowed; shipped scenarios
use weights as given), kept as ``Fraction``s. Mixtures of joint components
are joint semimeasures; mixtures of environments are chronological
environments; mixtures of policies are policies. The three kinds share one
walk, and a mixture's ``eval`` (a policy mixture's ``weight``) is its fold;
its exhaustive check is any component's. ``posterior_weights`` and
``predictive`` evaluate one history of a joint mixture by such point
queries. A mixture's walk state carries every live component's weighted
mass, so walks read the unnormalized posterior w_i nu_i(prefix) at each
node without re-evaluating the prefix. So
:func:`check_predictive_consistency` reads both faces of the predictive
identity off one walk: they differ exactly by the child mass of the
components whose weighted mass at the prefix is 0.

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
    ONE,
    ZERO,
    ComponentFormatError,
    History,
    UndefinedConditionalError,
    count,
    exact_masses,
    of_kind,
)
from .semimeasure import (
    ChronEnv,
    JointSemimeasure,
    Policy,
    _alphabet,
    _checked_walk,
    _context_at,
    _slots,
    _uniform,
    times_ratio,
)


def uniform_prior(n: int) -> tuple[Fraction, ...]:
    """Default prior over a scenario's component list."""
    return _uniform(n, "n")


def harmonic_prior(n: int) -> tuple[Fraction, ...]:
    """w_i = 1/(i(i+1)) for enumeration-ordered components; sums to n/(n+1)."""
    return tuple(Fraction(1, i * (i + 1)) for i in range(1, count(n, "n", 1) + 1))


class _Mixture:
    """Construction and the walk shared by the three mixture kinds.

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
    # The parity of the positions whose symbol moves no member's mass nor
    # scale: an environment's actions (0), a policy's percepts (1).
    _kept_parity: int | None = None

    def __init__(
        self,
        components: Sequence,
        weights: Sequence[Fraction],
        names: Sequence[str] | None = None,
    ):
        self.weights = exact_masses(weights, "mixture weights", items=len(components))
        for c in components:
            of_kind(c, f"{type(self).__name__} component", self._kind)
        if len({(c.action_arity, c.percept_arity) for c in components}) > 1:
            raise ComponentFormatError("mixed components must share one alphabet")
        self.components = tuple(components)
        self._extends = tuple(c.extend for c in self.components)  # bound once, called per step
        self.names = tuple(names) if names else tuple(
            f"{self.name_prefix}_{i}" for i in range(len(self.components))
        )
        self.action_arity = self.components[0].action_arity
        self.percept_arity = self.components[0].percept_arity
        self.declared_measure = all(c.declared_measure for c in self.components) and (
            sum(self.weights) == 1
        )
        self._weight_scale = math.lcm(*(w.denominator for w in self.weights))
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
                for w, s in zip(self.weights, member)
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
        extends = self._extends
        parts = []
        if n % 2 == self._kept_parity:
            for i, weighted, s in old_parts:
                s = extends[i](s, symbol)[1]
                if s is not None:
                    parts.append((i, weighted, s))
            if len(parts) == len(old_parts):
                return mass, (n + 1, mass, tuple(parts))
            return self._node(n + 1, parts)
        levels = self._levels
        factors = (levels[n + 1] if n + 1 < len(levels) else self._level(n + 1))[1]
        mass = 0
        for i, _, s in old_parts:
            m, s = extends[i](s, symbol)
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
    _kept_parity = 0

    eval = ChronEnv.fold


class MixturePolicy(_Mixture, Policy):
    """zeta(a_1:t || e_<t) = sum_i w_i pi_i(a_1:t || e_<t), itself a policy."""

    components: tuple[Policy, ...]
    name_prefix = "policy"
    _kind = Policy
    _kept_parity = 1


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
    A mixture of another kind than ``JointMixture`` is a ``ComponentFormatError``.
    """
    of_kind(mixture, "posterior mixture", JointMixture)
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
    the test suite over all histories to depth 4). One checked walk reaches
    the pending prefix, and one ``extend`` step each percept. A mixture of
    another kind than ``JointMixture`` is a ``ComponentFormatError``.
    """
    of_kind(mixture, "predictive mixture", JointMixture)
    prefix = h.with_action(action).symbols()
    n = len(prefix)
    denom, state = _checked_walk(mixture, prefix, prefix)
    if denom == 0:
        raise UndefinedConditionalError(prefix, "predictive distribution")
    try:
        kids = [mixture.extend(state, e)[0] for e in range(mixture.percept_arity)]
    except UndefinedConditionalError as error:  # a member's view, at the prefix
        raise error.at(prefix) from None
    return {e: times_ratio(mixture, ONE, m, n + 1, denom, n) for e, m in enumerate(kids)}


def check_predictive_consistency(
    mixture: JointMixture, depth: int
) -> list[tuple[tuple, Fraction, Fraction]]:
    """Mismatches between the two faces of the predictive conditional.

    For every complete history to ``depth``, action, and percept with a
    positive pending prefix x: the mixture conditional xi(e | x) must equal
    the posterior-weighted component conditionals, which leave out the
    components of zero posterior. Both faces read one mixture walk, where
    w_i nu_i(x) / xi(x) times w_i nu_i(x e) / w_i nu_i(x) is w_i nu_i(x e) / xi(x),
    so they differ exactly by the child mass of the live components whose
    weighted mass w_i nu_i(x) is 0, an integer sum. Returns mismatch triples
    (witness, xi(x e) / xi(x), the same without that mass) in the
    :func:`contexts` order of the pending prefixes; empty means agreement,
    which is settled over the walk's distinct nodes, each once
    (:func:`~uailab.semimeasure._slots`). Only a mismatch, or a fold that
    cannot be read, walks every context. A component of another kind is a ``ComponentFormatError``.
    """
    of_kind(mixture, "predictive-consistency mixture", JointMixture)

    def step(state: Any, symbol: int) -> tuple[Any, Any]:
        """A pending prefix's state pairs the mixture's with its live components
        of zero posterior; a percept after it files (lhs, rhs) where they differ."""
        if len(state) == 3:  # a complete history (n, mass, parts): an action
            mass, pending = mixture.extend(state, symbol)
            zero = mass and frozenset(i for i, m, _ in pending[2] if m == 0)
            return None, pending and (pending, zero)
        pending, zero = state
        mass, child = mixture.extend(pending, symbol)
        gained = zero and child and sum(m for i, m, _ in child[2] if i in zero)
        n, denom, _ = pending
        ratios = (mass, mass - gained) if gained else ()
        return tuple(times_ratio(mixture, ONE, m, n + 1, denom, n) for m in ratios) or None, child

    depth = 2 * count(depth, "depth") + 2
    root = (None, mixture.root()[1])
    levels = _slots(_alphabet(mixture), depth, root, step, lambda n, pair: pair is not None)
    hits = [(_context_at(mixture, s), pair) for _, level in levels for s, _, pair in level if pair]
    return [((x[:-1], x[-1]), *pair) for x, pair in hits]
