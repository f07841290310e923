"""The shared context enumerator, the walk and the exact compare primitive.

Every exhaustive check walks contexts by their slot, their position in
``contexts`` order, and most compare through ``compare``; these tests pin
the order contract, the slot-to-context inverse and the walk's slots, and
check ``compare`` against plain ``itertools.product`` loops on random tables.
"""
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uailab.core import UndefinedConditionalError
from uailab.semimeasure import (
    IIDEnv,
    MismatchRow,
    ProductJoint,
    StationaryPolicy,
    TableEnv,
    TableJoint,
    _context_at,
    compare,
    contexts,
    max_ratio,
    walk,
)
from uailab.transforms import check_env_dual_roundtrip, dual, env

F = Fraction

# Binary conditional rows: measures, defective rows and dead ends.
ROWS = [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 4), F(1, 2)), (F(1, 3), F(1, 3))]
JOINT_KEYS = [x for n in range(4) for x in product((0, 1), repeat=n)]
ENV_KEYS = [
    (e, a)
    for t in range(2)
    for e in product((0, 1), repeat=t)
    for a in product((0, 1), repeat=t + 1)
]


def tables(cls, keys):
    return st.builds(
        lambda rows, default: cls(dict(zip(keys, rows)), default),
        st.lists(st.sampled_from(ROWS), min_size=len(keys), max_size=len(keys)),
        st.sampled_from(["halt", "uniform"]),
    )


FILLERS = st.sampled_from([(F(1, 2), F(1, 2)), (1, 0), (F(1, 4), F(3, 4)), (F(1, 3), F(1, 3))])


def test_joint_contexts_ordered_by_length_then_symbols():
    nu = ProductJoint((F(1, 2), F(1, 2)), (F(1, 3), F(1, 3), F(1, 3)))
    got = list(contexts(nu, 4))
    every = {x for n in range(5) for x in product(*(range(nu.arity_at(i)) for i in range(n)))}
    assert got == sorted(every, key=lambda s: (len(s), s))


def test_env_contexts_ordered_by_steps_actions_percepts():
    nu = IIDEnv((F(1, 3), F(1, 3), F(1, 3)))
    expected = [
        (percepts, actions)
        for t in range(4)
        for actions in product(range(2), repeat=t)
        for percepts in product(range(3), repeat=t)
    ]
    assert list(contexts(nu, 3)) == expected


def test_max_ratio_keeps_the_first_maximum():
    rows = [MismatchRow("a", F(1), F(2)), MismatchRow("b", F(2), F(2)), MismatchRow("c", F(3), F(3))]
    assert max_ratio(rows) == (F(1), "b")
    assert max_ratio([]) == (None, None)


@settings(max_examples=60, deadline=None)
@given(tables(TableJoint, JOINT_KEYS), tables(TableEnv, ENV_KEYS), FILLERS)
# The view gives action 0 no mass after (0, 1): undefined at two contexts.
@example(TableJoint({(0, 1): (0, 1)}, "uniform"), TableEnv({}, "uniform"), (1, 0))
def test_compare_equals_a_plain_product_loop(joint, nu, filler):
    pi = StationaryPolicy(filler)

    # Environment contexts; the view is undefined wherever a pending prefix
    # is dead, as lhs and as rhs.
    view = env(joint)
    for lhs, rhs in ((view, nu), (nu, view)):
        expected, lhs_undefined, rhs_undefined = [], 0, 0
        for t in range(3):
            for actions in product(range(2), repeat=t):
                for percepts in product(range(2), repeat=t):
                    try:
                        value = lhs.eval(percepts, actions)
                    except UndefinedConditionalError:
                        lhs_undefined += 1
                        continue
                    try:
                        expected.append(((percepts, actions), value, rhs.eval(percepts, actions)))
                    except UndefinedConditionalError:
                        rhs_undefined += 1
        rows, *undefined = compare(lhs, rhs, 2)
        assert [(r.witness, r.lhs, r.rhs) for r in rows] == expected
        assert undefined == [lhs_undefined, rhs_undefined]

    # Joint contexts.
    rhs = dual(nu, pi)
    expected = [
        (x, joint.eval(x), rhs.eval(x)) for n in range(5) for x in product(range(2), repeat=n)
    ]
    rows, *undefined = compare(joint, rhs, 4)
    assert [(r.witness, r.lhs, r.rhs) for r in rows] == expected
    assert undefined == [0, 0]

    mismatches, _ = check_env_dual_roundtrip(nu, pi, 3)
    assert mismatches == []


ALPHABETS = st.tuples(st.booleans(), st.sampled_from([2, 3]), st.sampled_from([2, 3]))


@settings(max_examples=40, deadline=None)
@given(ALPHABETS, st.integers(0, 4))
def test_slot_to_context_inverts_contexts_order(alphabet, depth):
    joint, n_actions, n_percepts = alphabet
    cls = TableJoint if joint else TableEnv
    nu = cls({}, "uniform", n_actions, n_percepts)
    every = list(contexts(nu, depth))
    assert [_context_at(nu, slot) for slot in range(len(every))] == every


def interleaved(nu, context):
    """A context of ``nu`` as the symbols a walk steps through."""
    if isinstance(nu, TableJoint):
        return context
    percepts, actions = context
    return tuple(s for step in zip(actions, percepts) for s in step)


@settings(max_examples=40, deadline=None)
@given(ALPHABETS, st.integers(0, 4))
def test_walk_yields_each_slot_once_with_its_context_node(alphabet, depth):
    # A step whose mass and state are the interleaved string walked so far,
    # so each slot holds the context it was filed for.
    joint, n_actions, n_percepts = alphabet
    cls = TableJoint if joint else TableEnv
    nu = cls({}, "uniform", n_actions, n_percepts)
    every = [interleaved(nu, context) for context in contexts(nu, depth)]
    assert walk(nu, depth, ((), ()), lambda x, s: (x + (s,),) * 2) == (every, [], [])

    # A state ending in symbol 1 is dead: nothing below it is stepped to.
    def step(x, s):
        if x is None:  # an environment's percepts after a dead action
            return None, None
        return x + (s,), (None if s == 1 else x + (s,))

    masses = walk(nu, depth, ((), ()), step)[0]
    assert masses == [x if 1 not in x[:-1] else None for x in every]

    # Check rows, the mass a context's length: lhs is its row's context's
    # length, rhs the summed lengths of the row's children, each above lhs.
    gains = [1] * (depth + 1)
    lhs, rhs, above = walk(nu, depth, (0, ()), lambda x, s: (len(x) + 1, x + (s,)), gains)
    rows = [x for x in every for _ in range(1 if joint else n_actions)]
    if joint:
        kids = [nu.arity_at(len(x)) for x in rows]
        assert rhs == [n * (len(x) + 1) for n, x in zip(kids, rows)]
    else:
        kids = [n_percepts] * len(rows)
        assert rhs == [n_percepts * (len(x) + 2) for x in rows]
    assert lhs == [len(x) for x in rows]
    assert sorted(above) == [(row, s) for row, n in enumerate(kids) for s in range(n)]
