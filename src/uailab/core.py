"""Exact probabilities, alphabets, and alternating action/percept histories.

Every probability in this package is an exact nonnegative rational
(`fractions.Fraction`). Floats are rejected at construction sites: verdicts
about subadditivity, domination, and convergence must never be rounding
artifacts. Floats appear only in emitted CSV columns explicitly suffixed
``_float``.

All types here are immutable values and safe to share across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable

Prob = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class UndefinedConditionalError(ZeroDivisionError):
    """Conditioning on a zero-mass prefix.

    Raised instead of returning a 0/NaN sentinel: silent sentinels would
    corrupt exact domination verdicts. Carries the offending context.
    """

    def __init__(self, context: Any, detail: str = ""):
        self.context = context
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"conditional undefined at zero-mass context {context!r}{suffix}")


class NormalizationError(UndefinedConditionalError):
    """All one-symbol continuations of a context have zero mass, so its
    normalized conditionals are undefined."""

    def __init__(self, context: Any):
        super().__init__(context, "normalization: zero continuation mass")


class ComponentFormatError(ValueError):
    """A component or mixture definition violates its format contract."""


def prob(value: int | str | Fraction, *, top: Fraction | None = ONE) -> Fraction:
    """Build an exact nonnegative rational, rejecting floats.

    Accepts ints, Fractions, and strings like "3/4", "2", or "0.25" (parsed
    exactly). ``top`` bounds the value from above (default 1, pass None for
    unbounded quantities such as rewards or ratios).
    """
    if isinstance(value, bool):
        raise ComponentFormatError("bool is not a probability")
    if isinstance(value, float):
        raise ComponentFormatError(f"floats are not exact: {value!r}")
    if isinstance(value, (int, Fraction)):
        out = Fraction(value)
    elif isinstance(value, str):
        try:
            out = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ComponentFormatError(f"cannot parse {value!r} as an exact rational") from None
    else:
        raise ComponentFormatError(f"cannot interpret {value!r} as an exact rational")
    if out < 0:
        raise ComponentFormatError(f"negative probability {out}")
    if top is not None and out > top:
        raise ComponentFormatError(f"probability {out} exceeds {top}")
    return out


def exact(value: int | str | Fraction) -> Fraction:
    """Exact rational without the [0, 1] bound (rewards, ratios)."""
    if isinstance(value, float):
        raise ComponentFormatError(f"floats are not exact: {value!r}")
    return Fraction(value.strip()) if isinstance(value, str) else Fraction(value)


def frac_str(value: Fraction) -> str:
    """Canonical "num/den" rendering used in CSV artifacts."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class PerceptSymbol:
    """A percept: an opaque observation label plus an exact reward."""

    observation: Any
    reward: Fraction


@dataclass(frozen=True)
class PerceptAlphabet:
    """Finite ordered percept set with rewards in a declared bounded range."""

    symbols: tuple[PerceptSymbol, ...]
    reward_bounds: tuple[Fraction, Fraction]

    def __post_init__(self):
        if not self.symbols:
            raise ComponentFormatError("percept alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ComponentFormatError("percept symbols must be distinct")
        lo, hi = self.reward_bounds
        for s in self.symbols:
            if isinstance(s.reward, float):
                raise ComponentFormatError("rewards must be exact rationals")
            if not (lo <= s.reward <= hi):
                raise ComponentFormatError(
                    f"reward {s.reward} outside declared range [{lo}, {hi}]"
                )

    def reward(self, index: int) -> Fraction:
        return self.symbols[index].reward


# Empty observation space, binary reward space: reward equals the percept bit.
BINARY_PERCEPTS = PerceptAlphabet(
    symbols=(PerceptSymbol(None, ZERO), PerceptSymbol(None, ONE)),
    reward_bounds=(ZERO, ONE),
)


@dataclass(frozen=True)
class History:
    """An alternating action/percept string, possibly ending after an action.

    ``actions`` and ``percepts`` are tuples of symbol indices; strict
    alternation means ``len(actions) - len(percepts)`` is 0 (complete) or 1
    (pending action). A complete t-step history has 2t interleaved symbols.
    """

    actions: tuple[int, ...] = ()
    percepts: tuple[int, ...] = ()

    def __post_init__(self):
        gap = len(self.actions) - len(self.percepts)
        if gap not in (0, 1):
            raise ComponentFormatError(
                f"malformed history: {len(self.actions)} actions vs "
                f"{len(self.percepts)} percepts"
            )
        for sym in (*self.actions, *self.percepts):
            if not isinstance(sym, int) or sym < 0:
                raise ComponentFormatError(f"symbol indices must be ints >= 0, got {sym!r}")

    @property
    def steps(self) -> int:
        """Number of completed (action, percept) rounds."""
        return len(self.percepts)

    @property
    def pending(self) -> bool:
        """True when the history ends after an action awaiting its percept."""
        return len(self.actions) > len(self.percepts)

    def symbols(self) -> tuple[int, ...]:
        """Interleaved view a1 e1 a2 e2 ... (trailing action if pending)."""
        out: list[int] = []
        for i, a in enumerate(self.actions):
            out.append(a)
            if i < len(self.percepts):
                out.append(self.percepts[i])
        return tuple(out)

    def with_action(self, action: int) -> History:
        if self.pending:
            raise ComponentFormatError("history already ends in a pending action")
        return History(self.actions + (action,), self.percepts)

    def with_percept(self, percept: int) -> History:
        if not self.pending:
            raise ComponentFormatError("no pending action to answer")
        return History(self.actions, self.percepts + (percept,))

    def child(self, action: int, percept: int) -> History:
        return History(self.actions + (action,), self.percepts + (percept,))


EMPTY_HISTORY = History((), ())


def history_from_symbols(symbols: Iterable[int]) -> History:
    """Rebuild a History from its interleaved symbol string."""
    seq = tuple(symbols)
    return History(seq[0::2], seq[1::2])
