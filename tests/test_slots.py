"""``semimeasure._slots``, the one per-slot reading of the level fold, against
the plain walk it falls back to.

``compare``, the dual round trip, the domination probes and the
predictive-consistency check read their levels from ``_slots``. From the
fold, each entry stands for the contexts that reach one distinct node, at the
least slot among them, so its mass must be the walk's at that slot, and a
level's contexts must add up to the walk's slots that lie below no dead or
undefined node. Where the reader names a mass, or the fold cannot be read,
the entries are the walk's, one per slot. The subjects are drawn table pairs,
which leave sides undefined, and the pairs that ``conj9_search`` probes and
``sanity_checks`` round-trips.
"""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from uailab.experiments import _DIAGONAL_GRID, builtin_components, pair_scenarios, scenario_mixtures
from uailab.mixture import EnvMixture
from uailab.semimeasure import (
    DeterministicPolicy,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _folded,
    _levels,
    _paired,
    _slots,
    constant_policy,
    uniform_policy,
    walk,
)
from uailab.transforms import chron_to_joint, dual, dual_mixture, env

F = Fraction
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)
ROWS = st.sampled_from([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 3), F(1, 2))])
JOINT_KEYS = [x for n in range(4) for x in product((0, 1), repeat=n)]
ENV_KEYS = [
    (e, a)
    for t in range(2)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1), repeat=t + 1)
]
DEFAULTS = st.sampled_from(["halt", "uniform"])
POLICIES = [
    uniform_policy(),
    StationaryPolicy((F(1, 3), F(1, 2))),
    constant_policy(0),
    DeterministicPolicy(lambda h: 1),  # its state holds a list: the walk decides
]


def tables(cls, keys):
    rows = st.tuples(*(ROWS for _ in keys)).map(lambda masses: dict(zip(keys, masses)))
    return st.builds(cls, rows, DEFAULTS)


def live(alphabet, depth, root, step):
    """Per level, the contexts below no dead node: a plain recursion over
    every context that merges nothing."""
    joint, n_actions, n_percepts = alphabet
    counts = [0] * (depth + 1)

    def visit(t, state):
        counts[t] += 1
        if t == depth or state is None:
            return
        pending = [state] if joint else [step(state, a)[1] for a in range(n_actions)]
        for p in pending:
            for s in range(n_percepts if t % 2 or not joint else n_actions):
                visit(t + 1, step(p, s)[1])

    visit(0, root[1])
    return counts


def assert_slots_match_the_walk(lhs, rhs, depth, folds=None):
    """``_slots`` of the pair walk of ``lhs`` and ``rhs`` against ``walk``;
    ``folds``, where given, whether the fold can be read."""
    alphabet, root, step = _paired(lhs, rhs)
    masses = walk(alphabet, depth, root, step)[0]
    walked = [(n, [(s, 1, masses[s]) for s in slots]) for n, slots in _levels(alphabet, depth)]
    assert _slots(alphabet, depth, root, step, None) == walked
    assert _slots(alphabet, depth, root, step, lambda n, m: True) == walked
    got = _slots(alphabet, depth, root, step, lambda n, m: False)
    readable = _folded(alphabet, depth, root, step) is not None
    assert folds in (None, readable)
    if not readable:
        assert got == walked
        return
    assert [n for n, _ in got] == [n for n, _ in walked]
    counts = live(alphabet, depth, root, step)
    for (_, entries), (_, slots), reached in zip(got, _levels(alphabet, depth), counts):
        filed = [slot for slot, _, _ in entries]
        assert filed == sorted(set(filed)) and set(filed) <= set(slots)
        assert all(mass == masses[slot] for slot, _, mass in entries)
        assert sum(contexts for _, contexts, _ in entries) == reached


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(tables(TableJoint, JOINT_KEYS), tables(TableJoint, JOINT_KEYS), st.integers(0, 4))
def test_drawn_joint_pairs_slot_as_the_walk(a, b, depth):
    assert_slots_match_the_walk(a, b, depth)
    assert_slots_match_the_walk(a, dual(TableEnv({}, "uniform"), uniform_policy()), depth)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(tables(TableEnv, ENV_KEYS), tables(TableJoint, JOINT_KEYS), st.integers(0, 3))
def test_drawn_env_pairs_slot_as_the_walk(nu, joint, depth):
    view = env(joint)  # undefined where joint's pending prefix weighs 0
    assert_slots_match_the_walk(view, nu, depth)  # an undefined lhs, and dead nodes below
    assert_slots_match_the_walk(nu, view, depth)  # an undefined rhs
    for pi in POLICIES:
        assert_slots_match_the_walk(env(dual(nu, pi)), nu, depth)


def conj9_pairs():
    mixtures = scenario_mixtures()
    for name in ("copy_vs_uniform", "adversary_rich"):
        mdef = mixtures[name]
        yield f"{name}:forward", env(mdef.joint), mdef.chron
        yield f"{name}:backward", mdef.chron, env(mdef.joint)
    hetero = pair_scenarios()["hetero_pair"]
    direct = EnvMixture(hetero.envs, hetero.env_weights)
    grid = (hetero.envs, hetero.env_weights, hetero.policies, hetero.policy_weights)
    for name, weights in (("factored", None), ("diagonal", _DIAGONAL_GRID)):
        yield f"hetero:{name}", env(dual_mixture(*grid, weights)), direct


def roundtrip_pairs():
    components = builtin_components()
    mu, noisy = components["mu_id"], components["noisy_copy_env"]
    pairs = [
        ("mu_id+uniform_policy", mu, uniform_policy()),
        ("uniform_env+uniform_policy", components["uniform_env"], uniform_policy()),
        ("noisy_copy+uniform_policy", noisy, uniform_policy()),
        ("mu_id+constant_policy", mu, constant_policy(1)),
        ("representation:mu_id", mu, chron_to_joint(mu).pi),
        ("representation:noisy_copy", noisy, chron_to_joint(noisy).pi),
    ]
    for name, nu, pi in pairs:
        yield name, env(dual(nu, pi)), nu


SHIPPED = {name: (lhs, rhs, 4) for name, lhs, rhs in conj9_pairs()}
SHIPPED.update({name: (lhs, rhs, 5) for name, lhs, rhs in roundtrip_pairs()})


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_pairs_fold_and_slot_as_the_walk(name):
    lhs, rhs, depth = SHIPPED[name]
    assert_slots_match_the_walk(lhs, rhs, depth, folds=True)
