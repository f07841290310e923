"""Perspective maps between history distributions and environments.

``env`` turns a joint history distribution into an environment by stripping
its action conditionals: env(nu)(e_1:t || a_1:t) = prod_i nu(e_i | h_<i a_i).
It is computed lazily per query because well-definedness (positive
conditioning prefixes) is a per-prefix condition. A view raises where its
conditional is undefined, and readers such as :func:`compare` count those
contexts instead (see :mod:`uailab.semimeasure`). A view's walk state holds
no prefix, so histories that meet in its base meet in it; it raises with the
undefined context's length, which the walking reader locates. ``dual`` goes
the other way, combining an environment with a policy into the history
distribution they induce, and ``dual_mixture`` mixes the duals of every
(environment, policy) pair. ``chron_to_joint`` is the semimeasure
representation of an environment with a configurable action filler (uniform
by default). ``normalize`` rescales one-symbol conditionals to sum to 1
(Solomonoff normalization). Each takes only its kind of component, by
:func:`~uailab.core.of_kind`.

Views, duals and normalized predictors evaluate only by walking: ``eval`` is
the fold of the walk (``ChronEnv.fold`` or ``JointSemimeasure.fold``). A view
walks its base: each of its steps takes O(1) base steps. A dual's walk is the
product of its policy's walk and its environment's, and so is its scale.
Views and normalized predictors divide, so they keep ``Fraction`` masses
(scale 1), one per conditional: :func:`~uailab.semimeasure.times_ratio`
builds it from their base's numerators. Normalization can lower a
conditional nu(s | x) only where nu(x) > 0, nu(x s) > 0 and the children
of x outweigh x, where the semimeasure condition fails: so
:func:`check_normalization_dominance` reads the semimeasure check's rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Any, Sequence

from .adversary import DominationReport, _domination_reports
from .core import (
    ONE,
    ZERO,
    ComponentFormatError,
    NormalizationError,
    Prob,
    UndefinedConditionalError,
    count,
    exact_masses,
    of_kind,
)
from .mixture import EnvMixture, JointMixture, MixturePolicy
from .semimeasure import (
    ChronEnv,
    JointSemimeasure,
    MismatchRow,
    Policy,
    StationaryPolicy,
    _alphabet,
    _check,
    _context_at,
    _paired,
    _row_counts,
    _slots,
    _widths,
    compare,
    exact_mass,
    times_ratio,
    uniform_policy,
)


class EnvView(ChronEnv):
    """Lazy environment view of a joint semimeasure."""

    def __init__(self, base: JointSemimeasure):
        self.base = of_kind(base, "env view base", JointSemimeasure)
        self.action_arity = base.action_arity
        self.percept_arity = base.percept_arity
        self.declared_measure = False

    eval = ChronEnv.fold

    def root(self) -> tuple[Prob, Any]:
        # (mass, base state, base mass of the pending prefix or None, length):
        # no prefix, so the states of two histories that meet are equal.
        return ONE, (ONE, self.base.root()[1], None, 0)

    def extend(self, state: Any, symbol: int) -> tuple[Prob, Any]:
        mass, base_state, denom, n = state
        if denom is None:
            try:
                denom, base_state = self.base.extend(base_state, symbol)
            except UndefinedConditionalError as exc:
                denom = exc  # an action moves no mass: raised with the percept
            return mass, (mass, base_state, denom, n + 1)
        if isinstance(denom, ZeroDivisionError):
            raise denom
        if denom == 0:  # the pending prefix, its action included, weighs 0
            raise UndefinedConditionalError(None, "env view", length=n)
        base_mass, base_state = self.base.extend(base_state, symbol)
        mass = times_ratio(self.base, mass, base_mass, n + 1, denom, n)
        return mass, (mass, base_state, None, n + 1)


def env(nu: JointSemimeasure) -> EnvView:
    """Environment view of a joint distribution (lazy; needs nu > 0 per query)."""
    return EnvView(nu)


class DualJoint(JointSemimeasure):
    """History distribution induced by an environment and a policy.

    Joint value on a complete prefix: pi(a_1:t || e_<t) * nu(e_1:t || a_1:t);
    on a pending action the policy factor includes the pending action. No
    positivity requirement: products of unconditional values, no division.
    Its walk is the product of the policy's walk and the environment's: the
    state pairs theirs, and the mass and scale multiply, the scale computed
    once per length. A component of
    another kind, or a policy of another action arity, is a
    ``ComponentFormatError``.
    """

    def __init__(self, nu: ChronEnv, pi: Policy):
        of_kind(nu, "dual environment", ChronEnv)
        of_kind(pi, "dual policy", Policy)
        if pi.action_arity != nu.action_arity:
            raise ComponentFormatError(
                f"{type(pi).__name__} of {pi.action_arity} actions cannot act in "
                f"{type(nu).__name__} of {nu.action_arity} actions"
            )
        self.nu = nu
        self.pi = pi
        self.action_arity = nu.action_arity
        self.percept_arity = nu.percept_arity
        self.declared_measure = False
        self._scales: list[int] = []  # scale(n) by n, each computed once

    eval = JointSemimeasure.fold

    # The environment never steps where the policy weighs 0.
    def root(self) -> tuple[Any, Any]:
        pi_mass, pi_state = self.pi.root()  # below 1 for a deficient policy mixture
        nu_mass, nu_state = self.nu.root() if pi_mass else (0, None)
        return (0, None) if nu_state is None else (pi_mass * nu_mass, (pi_state, nu_state))

    def extend(self, state: Any, symbol: int) -> tuple[Any, Any]:
        if state is None:
            return 0, None
        pi_mass, pi_state = self.pi.extend(state[0], symbol)
        nu_mass, nu_state = self.nu.extend(state[1], symbol) if pi_mass else (0, None)
        return (0, None) if nu_state is None else (pi_mass * nu_mass, (pi_state, nu_state))

    def scale(self, n: int) -> int:
        scales = self._scales
        while len(scales) <= n:
            scales.append(self.pi.scale(len(scales)) * self.nu.scale(len(scales)))
        return scales[n]


def dual(nu: ChronEnv, pi: Policy) -> DualJoint:
    """Combine an environment and a policy of its action alphabet into their
    history distribution."""
    return DualJoint(nu, pi)


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
    policy index), missing entries meaning zero, a key off the grid an
    error) is accepted for counterexample construction.
    """
    env_weights = exact_masses(env_weights, "env weights", items=len(envs))
    policy_weights = exact_masses(policy_weights, "policy weights", items=len(policies))
    if pair_weights is None:
        pair_weights = {
            (j, k): v * p for j, v in enumerate(env_weights) for k, p in enumerate(policy_weights)
        }
    grid = dict(zip(pair_weights, exact_masses(pair_weights.values(), "pair weights")))
    pairs = [(j, k) for j in range(len(envs)) for k in range(len(policies))]
    outside = sorted(grid.keys() - set(pairs), key=repr)
    if outside:
        raise ComponentFormatError(f"pair weights keyed outside the (env, policy) grid: {outside}")
    pairs = [pair for pair in pairs if grid.get(pair)]
    return JointMixture(
        [dual(envs[j], policies[k]) for j, k in pairs],
        [grid[pair] for pair in pairs],
        [f"dual_env{j}_policy{k}" for j, k in pairs],
    )


def chron_to_joint(
    nu: ChronEnv, action_filler: Sequence[Fraction] | None = None
) -> DualJoint:
    """Semimeasure representation of an environment.

    Fills action positions with a history-independent distribution (uniform
    1/|A| by default, any element of the action simplex as config). The
    resulting joint semimeasure recovers nu under ``env`` wherever positivity
    holds; percepts in action positions are impossible by History typing.
    """
    of_kind(nu, "dual environment", ChronEnv)
    if action_filler is None:
        return DualJoint(nu, uniform_policy(nu.action_arity))
    return DualJoint(nu, StationaryPolicy(action_filler))


class NormalizedPredictor(JointSemimeasure):
    """Solomonoff normalization of a joint semimeasure.

    Conditionals are rescaled symbol-wise to sum to 1 at every context (both
    action and percept positions); environment-prediction experiments consume
    only the percept-position conditionals via ``env``. A context whose
    one-symbol continuations all have zero mass has no normalized
    conditional: hard error.
    """

    def __init__(self, base: JointSemimeasure):
        self.base = of_kind(base, "normalized base", JointSemimeasure)
        self.action_arity = base.action_arity
        self.percept_arity = base.percept_arity
        self.declared_measure = True

    eval = JointSemimeasure.fold

    def root(self) -> tuple[Prob, Any]:
        # (mass, base state, context, memo of the base children and their sum)
        return ONE, (ONE, self.base.root()[1], (), [])

    def extend(self, state: Any, symbol: int) -> tuple[Prob, Any]:
        if state is None:
            return ZERO, None
        mass, base_state, x, memo = state
        n = len(x) + 1
        if not memo:  # siblings share one evaluation of the base children
            kids = [self.base.extend(base_state, s) for s in range(self.arity_at(len(x)))]
            memo.append((kids, sum(m for m, _ in kids)))
        kids, total = memo[0]
        if total == 0:
            raise NormalizationError(x)
        base_mass, base_state = kids[symbol]
        mass = times_ratio(self.base, mass, base_mass, n, total, n)
        return (mass, (mass, base_state, x + (symbol,), [])) if mass else (ZERO, None)


def normalize(nu: JointSemimeasure) -> NormalizedPredictor:
    """Per-symbol rescaling of conditionals to sum exactly to 1."""
    return NormalizedPredictor(nu)


@dataclass(frozen=True)
class FactoringReport:
    """Exhaustive exact comparison backing the factoring identities.

    ``joint_rows``: mixture-of-duals vs dual-of-mixtures as joint values.
    ``env_rows``: env of the dual mixture vs the direct environment mixture
    on positive contexts (undefined contexts are skipped and counted).
    """

    depth: int
    joint_rows: tuple[MismatchRow, ...]
    env_rows: tuple[MismatchRow, ...]
    skipped_env_contexts: int

    @property
    def joint_mismatches(self) -> tuple[MismatchRow, ...]:
        return tuple(r for r in self.joint_rows if r.verdict == "mismatch")

    @property
    def env_mismatches(self) -> tuple[MismatchRow, ...]:
        return tuple(r for r in self.env_rows if r.verdict == "mismatch")

    @property
    def ok(self) -> bool:
        return not self.joint_mismatches and not self.env_mismatches


def factoring_check(
    envs: Sequence[ChronEnv],
    env_weights: Sequence[Fraction],
    policies: Sequence[Policy],
    policy_weights: Sequence[Fraction],
    depth: int,
    pair_weights: dict[tuple[int, int], Fraction] | None = None,
) -> FactoringReport:
    """Verify the product-prior factoring identities exhaustively to ``depth``.

    (i) the pairwise dual mixture equals dual(mixture policy, mixture env)
    as joint values on every interleaved string; (ii) the environment view
    of the dual mixture equals the direct environment mixture on positive
    contexts. Both hold exactly for factored pair weights w[nu,pi] =
    policy_w * env_w; a deliberately non-factored grid produces witnesses.
    """
    pair_mix = dual_mixture(envs, env_weights, policies, policy_weights, pair_weights)
    direct = EnvMixture(envs, env_weights)
    factored = dual(direct, MixturePolicy(tuple(policies), tuple(policy_weights)))
    joint_rows, _, _ = compare(pair_mix, factored, depth)
    env_rows, *undefined = compare(env(pair_mix), direct, depth // 2)
    return FactoringReport(
        depth=depth,
        joint_rows=tuple(joint_rows),
        env_rows=tuple(env_rows),
        skipped_env_contexts=sum(undefined),
    )


def check_env_dual_roundtrip(
    nu: ChronEnv, pi: Policy, depth: int
) -> tuple[list[MismatchRow], int]:
    """env(dual(nu, pi)) == nu on every positive context, exhaustively.

    Returns (mismatch rows, contexts skipped where either side is undefined).
    Both sides walk together, each context's masses an int or a Fraction over
    its side's scale, which match where they cross-multiply equal. The contexts
    are counted over the distinct pairs of states of each level
    (:func:`~uailab.semimeasure._slots`) unless a pair mismatches; then every
    context is compared, and each mismatch named from its slot.
    """
    view = env(dual(nu, pi))
    alphabet, root, step = _paired(view, nu)

    def differ(n: int, masses: Any) -> bool:
        """Both sides defined at ``n`` symbols, and their masses unequal."""
        if masses is None or masses[1] is None:
            return False
        lhs, rhs = masses
        crossed = lhs.numerator * rhs.denominator * nu.scale(n)
        return crossed != rhs.numerator * lhs.denominator * view.scale(n)

    mismatches, compared = [], 0
    for n, entries in _slots(alphabet, depth, root, step, differ):
        for slot, contexts, masses in entries:
            if masses is not None and masses[1] is not None:
                compared += contexts
                if differ(n, masses):
                    lhs, rhs = exact_mass(view, n, masses[0]), exact_mass(nu, n, masses[1])
                    mismatches.append(MismatchRow(_context_at(alphabet, slot), lhs, rhs))
    return mismatches, sum(_widths(alphabet, depth)) - compared


def check_representation_roundtrip(
    nu: ChronEnv, action_filler: Sequence[Fraction] | None, depth: int
) -> tuple[list[MismatchRow], int]:
    """env(chron_to_joint(nu, filler)) == nu on positive contexts."""
    return check_env_dual_roundtrip(nu, chron_to_joint(nu, action_filler).pi, depth)


def check_normalization_dominance(
    nu: JointSemimeasure, depth: int
) -> tuple[list[MismatchRow], int]:
    """Normalized conditionals never fall below the raw ones, pointwise.

    The normalized conditional of x s, nu(x s) over the summed children of
    x as in :class:`NormalizedPredictor`, falls below the raw nu(x s) / nu(x)
    for nonnegative masses exactly where nu(x) > 0, nu(x s) > 0 and the
    children of x outweigh x. So the semimeasure check's rows decide it, and
    only those rare contexts are folded again, for their rows. Returns
    (rows carrying (raw, normalized), contexts skipped as undefined: each x
    with nu(x) = 0 once, each child of an x whose children sum to 0). The
    skipped contexts are counted from the check's distinct rows
    (:func:`~uailab.semimeasure._row_counts`) unless a row violates it. A
    ``nu`` of another kind than ``JointSemimeasure`` is a ``ComponentFormatError``.
    """
    of_kind(nu, "normalization-dominance component", JointSemimeasure)
    alphabet = _alphabet(nu)
    counted = _row_counts(nu, count(depth, "depth"), alphabet)
    if counted is not None:
        arities = [nu.arity_at(t) for t in range(depth + 1)]
        skipped = sum(_widths(alphabet, depth)) - sum(counted.values())  # 0 against 0
        for (t, lhs, rhs), n in counted.items():
            if lhs == 0 or rhs == 0:
                skipped += n if lhs == 0 else n * arities[t]
        return [], skipped
    report = _check(nu, depth)
    rows: list[MismatchRow] = []
    skipped = 0
    columns = enumerate(zip(report.lhs, report.rhs))
    for t, (width, scale) in enumerate(report.levels):
        arity = nu.arity_at(t)
        for slot, (prefix, total) in islice(columns, width):
            if prefix == 0 or total == 0:
                skipped += 1 if prefix == 0 else arity
            elif prefix < total:
                x = _context_at(nu, slot)
                for s in range(arity):
                    mass = nu.fold(x + (s,)) * scale  # over the columns' scale
                    if mass:
                        rows.append(MismatchRow((x, s), mass / prefix, mass / total))
    return rows, skipped


def env_view_ratio_probe(
    envs: Sequence[ChronEnv],
    env_weights: Sequence[Fraction],
    policies: Sequence[Policy],
    policy_weights: Sequence[Fraction],
    depth: int,
    pair_weights: dict[tuple[int, int], Fraction] | None = None,
) -> DominationReport:
    """Domination probe of env(joint mixture) over the direct environment mixture.

    mu = env(sum_pairs w dual(nu, pi)), xi = sum_nu w_nu nu, with the counts
    :func:`~uailab.adversary.domination_probe` reports.
    """
    return _ratio_reports(envs, env_weights, policies, policy_weights, depth, pair_weights)[-1]


def _ratio_reports(
    envs: Sequence[ChronEnv],
    env_weights: Sequence[Fraction],
    policies: Sequence[Policy],
    policy_weights: Sequence[Fraction],
    depth: int,
    pair_weights: dict[tuple[int, int], Fraction] | None = None,
) -> list[DominationReport]:
    """:func:`env_view_ratio_probe`'s report at every depth 0..``depth``, from one walk."""
    pair_mix = dual_mixture(envs, env_weights, policies, policy_weights, pair_weights)
    return _domination_reports(env(pair_mix), EnvMixture(envs, env_weights), depth)
