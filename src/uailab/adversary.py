"""Adversarial action sequences against joint predictors, and domination probes.

The adversary plays against a predictor while the true environment is the
identity (the percept repeats the action). At each step it picks the action
whose copy-conditional — the predictor's probability that the percept will
equal the action — is smallest, then the percept copies it. The recorded
cumulative product equals the predictor's environment-view value of the
played (a, a) pair, exactly (telescoping). The greedy finite construction is
deliberately myopic: the asymptotic diagonal constructions are incomputable,
and the greedy analog's drop thresholds are computed by oracle runs, never
assumed. Traces walk the predictor: one move is two ``extend`` steps.

Domination probes report the exact max ratio mu/xi over all strings to a
depth, with witnesses; ratios against zero are reported as unbounded
witnesses, never silently skipped. A probe is one :func:`compare` walk, and
counts the contexts where mu or xi is undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .core import ONE, UndefinedConditionalError
from .semimeasure import ChronEnv, JointSemimeasure, compare, exact_mass, max_ratio


@dataclass(frozen=True)
class AdversaryStep:
    """One adversary move: the chosen action and its copy-conditional."""

    t: int
    action: int
    conditional: Fraction
    cumulative: Fraction


@dataclass(frozen=True)
class AdversaryTrace:
    """Adversarial action sequence with per-step conditionals and products.

    ``truncated`` flags traces stopped early by a zero-mass prefix. The
    cumulative column is exactly the telescoping product of the recorded
    conditionals and is non-increasing in t.
    """

    steps: tuple[AdversaryStep, ...]
    truncated: bool

    @property
    def actions(self) -> tuple[int, ...]:
        return tuple(s.action for s in self.steps)

    @property
    def final_product(self) -> Fraction:
        return self.steps[-1].cumulative if self.steps else ONE


def _copy_step(xi: JointSemimeasure, n: int, state: Any, action: int) -> tuple[Fraction, Any]:
    """(xi(percept == action | prefix, action), state after the copy) from the
    walk state of the played prefix of ``n`` symbols; error on a zero-mass
    pending prefix."""
    denom, pending = xi.extend(state, action)
    if denom == 0:
        raise UndefinedConditionalError(action, "copy conditional of the pending action")
    mass, child = xi.extend(pending, action)
    return exact_mass(xi, n + 2, mass) / exact_mass(xi, n + 1, denom), child


def greedy_antipredict(xi: JointSemimeasure, steps: int) -> AdversaryTrace:
    """Greedily minimize the predictor's copy-conditional for ``steps`` moves.

    At each step every action with a positive pending-prefix mass is a
    candidate; the smallest conditional wins, ties to the smallest action.
    When no candidate remains (zero-mass prefix in every direction) the
    trace is truncated and flagged.
    """
    trace: list[AdversaryStep] = []
    state = xi.root()[1]
    cumulative = ONE
    for t in range(1, steps + 1):
        candidates: list[tuple[Fraction, int, Any]] = []
        for a in range(xi.action_arity):
            try:
                conditional, child = _copy_step(xi, 2 * (t - 1), state, a)
            except UndefinedConditionalError:
                continue
            candidates.append((conditional, a, child))
        if not candidates:
            return AdversaryTrace(tuple(trace), truncated=True)
        conditional, action, state = min(candidates)  # ties: smallest action
        cumulative *= conditional
        trace.append(AdversaryStep(t, action, conditional, cumulative))
        if cumulative == 0:
            return AdversaryTrace(tuple(trace), truncated=True)
    return AdversaryTrace(tuple(trace), truncated=False)


def copy_conditional_trace(
    xi: JointSemimeasure, actions: Sequence[int]
) -> AdversaryTrace:
    """Copy-conditionals of a predictor along a supplied action sequence.

    The percepts copy the actions (identity environment); the recorded
    conditionals are the predictor's per-step probabilities of that copy,
    i.e. its predictions at the percept positions. Accepts normalized
    predictors as well. Truncates with a flag on a zero-mass prefix.
    """
    trace: list[AdversaryStep] = []
    state = xi.root()[1]
    cumulative = ONE
    for t, a in enumerate(tuple(actions), start=1):
        try:
            conditional, state = _copy_step(xi, 2 * (t - 1), state, a)
        except ZeroDivisionError:  # undefined or unnormalizable conditional
            return AdversaryTrace(tuple(trace), truncated=True)
        cumulative *= conditional
        trace.append(AdversaryStep(t, a, conditional, cumulative))
        if cumulative == 0:
            return AdversaryTrace(tuple(trace), truncated=True)
    return AdversaryTrace(tuple(trace), truncated=False)


@dataclass(frozen=True)
class DominationReport:
    """Exact max of mu/xi over the probed region, with witness.

    ``unbounded_witnesses`` lists contexts where mu > 0 while xi = 0 (no
    finite constant works); 0/0 contexts are skipped and counted, as are the
    contexts where mu is undefined and the others where xi is. Used both
    to confirm inclusion domination (mixtures dominate their components by
    1/weight) and to search for failures in the opposite direction.
    """

    depth: int
    max_ratio: Fraction | None
    witness: tuple | None
    unbounded_witnesses: tuple
    skipped_zero_zero: int
    contexts_checked: int
    undefined_mu: int
    undefined_xi: int


def domination_probe(
    mu: JointSemimeasure | ChronEnv,
    xi: JointSemimeasure | ChronEnv,
    depth: int,
) -> DominationReport:
    """Max over strings (or (e || a) pairs) to ``depth`` of mu/xi, exact.

    Both arguments must be the same kind: joint semimeasures are compared on
    interleaved strings, environments on percept/action pairs for every
    action string.
    """
    if isinstance(mu, JointSemimeasure) != isinstance(xi, JointSemimeasure):
        raise TypeError("domination_probe needs two components of the same kind")
    rows, undefined_mu, undefined_xi = compare(mu, xi, depth)
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
