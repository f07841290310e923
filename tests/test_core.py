from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uailab.core import (
    BINARY_PERCEPTS,
    ComponentFormatError,
    History,
    PerceptAlphabet,
    PerceptSymbol,
    history_from_symbols,
    prob,
)

F = Fraction


def test_interleave_basic():
    h = History((1,), (1,))
    assert h.symbols() == (1, 1)
    assert h.steps == 1 and not h.pending


def test_interleave_pending_action():
    h = History((0, 1), (1,))
    assert h.pending
    assert h.symbols() == (0, 1, 1)


def test_interleave_rejects_extra_percepts():
    with pytest.raises(ComponentFormatError):
        History((1,), (1, 0))


def test_split_examples():
    def split(h):
        return h.actions, h.percepts

    assert split(History((1, 0), (1, 0))) == ((1, 0), (1, 0))
    assert split(History()) == ((), ())
    assert split(History((1,), ())) == ((1,), ())


def test_roundtrip_exhaustive_to_six_symbols():
    # Every valid (actions, percepts) pair with at most 6 interleaved symbols.
    for t in range(4):
        for actions in product((0, 1), repeat=t):
            for percepts in product((0, 1), repeat=t):
                h = History(actions, percepts)
                assert (h.actions, h.percepts) == (actions, percepts)
                assert history_from_symbols(h.symbols()) == h
            if t >= 1:
                for percepts in product((0, 1), repeat=t - 1):
                    h = History(actions, percepts)
                    assert (h.actions, h.percepts) == (actions, percepts)
                    assert history_from_symbols(h.symbols()) == h


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_exact_arithmetic_no_drift(p, q):
    assert (p + q) - q == p


def test_prob_rejects_floats_and_negatives():
    with pytest.raises(ComponentFormatError):
        prob(0.5)
    with pytest.raises(ComponentFormatError):
        prob(-1)
    with pytest.raises(ComponentFormatError):
        prob("3/2")  # above 1
    assert prob("3/4") == F(3, 4)
    assert prob("0.25") == F(1, 4)


@pytest.mark.parametrize("text", ["abc", "1/0", "", "1/2/3"])
def test_prob_reports_unparsable_strings_as_format_errors(text):
    with pytest.raises(ComponentFormatError, match="exact rational"):
        prob(text)


def test_history_alternation_enforced():
    with pytest.raises(ComponentFormatError):
        History((1,), (1, 0))
    h = History((1,), (1,))
    with pytest.raises(ComponentFormatError):
        h.with_percept(0)  # nothing pending
    h2 = h.with_action(0)
    assert h2.pending
    with pytest.raises(ComponentFormatError):
        h2.with_action(1)


def test_binary_percepts_reward_is_the_bit():
    assert BINARY_PERCEPTS.reward(0) == 0
    assert BINARY_PERCEPTS.reward(1) == 1
    assert BINARY_PERCEPTS.symbols[0].observation is None


def test_percept_alphabet_validates_reward_range():
    with pytest.raises(ComponentFormatError):
        PerceptAlphabet(
            symbols=(PerceptSymbol(None, F(2)),),
            reward_bounds=(F(0), F(1)),
        )
    # ints and negative rewards are exact too
    shifted = PerceptAlphabet((PerceptSymbol(0, -1), PerceptSymbol(1, F(-1, 2))), (-1, F(0)))
    assert (shifted.reward(0), shifted.reward(1)) == (-1, F(-1, 2))


@pytest.mark.parametrize(
    "symbols, bounds, match",
    [
        ((PerceptSymbol(0, 0),), (0, 1, 2), "reward bounds must be a \\(low, high\\) pair"),
        ((PerceptSymbol(0, 0),), None, "reward bounds must be a \\(low, high\\) pair"),
        ((PerceptSymbol(0, 0),), 5, "reward bounds must be a \\(low, high\\) pair"),
        ((0, 1), (0, 1), "percept alphabet needs PerceptSymbols"),
        ((), (0, 1), "percept alphabet needs PerceptSymbols"),
        (None, (0, 1), "percept alphabet needs PerceptSymbols"),
    ],
    ids=["three_bounds", "none_bounds", "int_bounds", "int_symbols", "no_symbols", "none_symbols"],
)
def test_percept_alphabet_refuses_a_malformed_shape_by_name(symbols, bounds, match):
    # These escaped as ValueError (unpacking), TypeError and AttributeError.
    with pytest.raises(ComponentFormatError, match=match):
        PerceptAlphabet(symbols, bounds)


@pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
def test_percept_alphabet_rewards_and_bounds_are_exact(bad):
    # A True reward and (0.0, 1.0) bounds were accepted; "1" and None escaped as TypeError.
    for reward, bounds in ((bad, (0, 1)), (0, (bad, 1)), (0, (-1, bad))):
        with pytest.raises(ComponentFormatError, match="must be ints or Fractions"):
            PerceptAlphabet((PerceptSymbol(None, reward),), bounds)
