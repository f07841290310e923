"""A fixed monotone machine and budget-bounded program enumeration.

The instruction encoding below is frozen: changing it invalidates every
recorded experiment (the enumeration cache is keyed by the definition hash).
Programs are finite bit strings read left to right in atomic 3-bit opcodes:

    000 OUT0   append 0 to the output
    001 OUT1   append 1 to the output
    010 OUTR   append the register to the output
    011 READA  register <- next input action (chronological read discipline)
    100 FLIP   register <- 1 - register
    101 SKIP0  if register == 0, skip the next opcode
    110 JBACK  jump to the start of the program
    111 HALT   stop

The register starts at 0; output is append-only, so the output after k steps
is always a prefix of the output after k+1 steps, and identical inputs and
budgets give identical runs. A program is charged only for the bits it
actually reads (consumed prefix), which makes the counted program set
prefix-free by construction. Runs that consumed zero bits are not programs
and are never counted, so a zero-bit length budget, or a zero step budget
(every run stops before its first fetch), yields the empty enumeration;
a negative budget is rejected. READA may read action k only when at most
k-1 percepts are still owed (actions_read <= outputs so far); earlier or
unavailable reads suspend the run, which then contributes only its output
so far. Joint enumeration supplies no action tape, so READA always
suspends there.

Enumeration explores the opcode tree lazily: a run branches 8 ways whenever
it fetches a fresh opcode, and becomes a counted leaf of weight
2^-(bits consumed) when it halts, exhausts the step budget, reaches the
output cap, suspends awaiting input, or would fetch beyond the length
budget. Masses are nondecreasing in both the length and step budgets. One
depth-first walk with integer weights serves every mode (``_Walk``). Along
a tape, the joint mode's empty one or a played one, a walk from the root
files every prefix length at once. With no tape the walk branches on each
action READA reads, so it yields every tape of a length at once, and each
``ChronEnumApprox`` keeps its walk from one tape length to the next, so
that each node of the opcode tree is interpreted once. A run carries its
output as one integer code, the symbols under a leading 1 bit (the empty
output is 1), so emitting a symbol is ``code = 2 * code + bit`` and an
output prefix of k symbols is a right shift. The walk files each tape's
numerators over its scale by output code, under the tape's code; the cache,
the memo and every reader hold them in that one form. ``ChronEnumApprox``'s
own walk codes its percept string and action tape the same way. Its
chronological check visits no context: it files each row from the tapes'
numerators, the nonzero entries only, and tells the opcode-tree walk the
last length it asks, so that the walk parks no run past it. The public
``table`` and ``tables`` build each ``Fraction`` only when they are read.

The interpreter fast-forwards laps. When JBACK lands at pc 0 with the
register and action count of an earlier landing in the same segment, or
with register 0 and no action read, as the run started, the run read no
action in between, so it repeats that lap exactly until a budget stops it:
each lap takes the same steps and appends the same k symbols. The
interpreter adds at once every whole lap that ends inside both budgets
(steps, and the lap's last k symbols repeated onto the code) and runs on
from pc 0, so status, pc, register and steps are those of the plain run.
One landing is kept per register value, which catches laps of one or two
landings.

Worked example programs (lengths on the frozen machine):

    constant-zero  000110          (6 bits)   output 000...
    echo           011010110       (9 bits)   percept t = action t
    complement     011100010110    (12 bits)  percept t = 1 - action t

At desk scale, joint enumeration reaches program_bits 24 in about 0.8 s,
and chronological checks reach program_bits 18 at depth 7 in about 1.1 s,
21 at depth 5 in about 1.8 s and 24 at depth 5 in about 10 s; each 3 more
bits cost 3-6x (measured limits in docs/machine.md). A joint table, the
tables of every tape of one length, and each prefix table of
``enumerate_chron`` are one cache entry each, memoized in-process by name
and stored on disk keyed by (definition hash, budgets); UAILAB_CACHE_DIR
is the only switch (empty disables the disk cache). A file stores the
walk's integer numerators as they are, under a SHA-256 of their bytes that
a read checks before it parses, and a read builds no ``Fraction``. See
docs/cache_format.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import inf
from pathlib import Path
from typing import Any, Callable, Sequence

from .core import ComponentFormatError, Prob, count
from .semimeasure import ChronEnv, JointSemimeasure, _check_alphabet, _history, _widths

OUT0, OUT1, OUTR, READA, FLIP, SKIP0, JBACK, HALT = range(8)
OPCODE_BITS = 3

MACHINE_DEFINITION = """\
uailab monotone machine, definition 1
opcodes (3 bits, most significant first, fetched atomically):
000 OUT0; 001 OUT1; 010 OUTR; 011 READA; 100 FLIP; 101 SKIP0; 110 JBACK; 111 HALT
register starts 0; binary output; JBACK targets program bit 0
READA allowed only when actions_read <= outputs_emitted and input remains
weighting: 2^-(bits consumed); zero-bit runs are not counted
"""

MACHINE_HASH = hashlib.sha256(MACHINE_DEFINITION.encode()).hexdigest()

PROGRAM_CONST0 = "000110"
PROGRAM_ECHO = "011010110"
PROGRAM_COMPLEMENT = "011100010110"

CACHE_ENV_VAR = "UAILAB_CACHE_DIR"
CACHE_FORMAT = 2

Numerators = dict[int, int]  # output code -> mass over the walk's scale


@dataclass(frozen=True)
class RunResult:
    """Outcome of one program run."""

    output: tuple[int, ...]
    consumed_bits: int
    status: str  # halted | step_limit | output_limit | awaiting_input | program_exhausted
    steps: int
    actions_read: int


def _bits(values: Sequence[int], what: str) -> tuple[int, ...]:
    """``values`` checked by the one rule for bits, of a program or an action
    tape: each is the ``int`` 0 or 1, never a bool, float or string."""
    try:
        bits = tuple(values)
    except TypeError:
        raise ComponentFormatError(f"{what} must be a sequence of bits, got {values!r}") from None
    if any(type(b) is not int or b not in (0, 1) for b in bits):
        raise ComponentFormatError(f"{what} must be bits, the ints 0 and 1, got {bits!r}")
    return bits


def _parse_bits(program: str | Sequence[int]) -> tuple[int, ...]:
    if isinstance(program, str):
        if any(c not in "01" for c in program):
            raise ComponentFormatError(f"program must be a bit string, got {program!r}")
        return tuple(int(c) for c in program)
    return _bits(program, "program")


def _decode_ops(bits: tuple[int, ...]) -> list[int]:
    return [
        (bits[i] << 2) | (bits[i + 1] << 1) | bits[i + 2]
        for i in range(0, len(bits) - len(bits) % OPCODE_BITS, OPCODE_BITS)
    ]


def _run_segment(
    ops: Sequence[int],
    pc: int,
    reg: int,
    steps: int,
    code: int,
    n_out: int,
    nread: int,
    tape: Sequence[int] | None,
    max_steps: int,
    max_output: int | None,
) -> tuple[str, int, int, int, int, int, int]:
    """Advance until a fetch is needed or the run ends.

    The output so far is ``code``, its ``n_out`` symbols under a leading 1
    bit (the empty output is 1). Returns (status, pc, reg, steps, code,
    n_out, nread) with status "fetch" when the next opcode must be
    materialized (pc is the resume point).
    """
    n = len(ops)
    # Each symbol takes a step, so a run never emits more than max_steps.
    limit = max_steps + 1 if max_output is None else max_output
    # (reads, steps, output length) at pc 0, by register value; every run
    # starts at pc 0 with register 0, no reads and no output
    landings: list[tuple[int, int, int] | None] = [(0, 0, 0), None]
    while True:
        if steps >= max_steps:
            return "step_limit", pc, reg, steps, code, n_out, nread
        if pc >= n:
            return "fetch", pc, reg, steps, code, n_out, nread
        op = ops[pc]
        # Branches in order of how often enumeration runs execute them.
        if op <= OUTR:
            steps += 1
            # OUT0 and OUT1 emit their own opcode value
            code = 2 * code + (reg if op == OUTR else op)
            n_out += 1
            pc += 1
            if n_out >= limit:
                return "output_limit", pc, reg, steps, code, n_out, nread
        elif op == SKIP0:
            if reg:
                pc += 1
            elif pc + 1 < n:
                pc += 2
            else:
                # The skipped slot occupies program bits: materialize it first.
                return "fetch", pc, reg, steps, code, n_out, nread
            steps += 1
        elif op == JBACK:
            steps += 1
            pc = 0
            # Back at pc 0 with the register and reads of an earlier landing,
            # the run repeats that lap exactly until a budget stops it: skip
            # every whole lap that ends inside both budgets, so the run goes
            # on from pc 0 as the plain run would.
            seen = landings[reg]
            if seen is not None and seen[0] == nread:
                lap, k = steps - seen[1], n_out - seen[2]
                laps = (max_steps - steps) // lap
                if k:
                    laps = min(laps, (limit - 1 - n_out) // k)
                if laps > 0:
                    steps += lap * laps
                    if k:  # the lap's k symbols, repeated
                        span = k * laps
                        block = code & ((1 << k) - 1)
                        code = code << span | block * ((1 << span) - 1) // ((1 << k) - 1)
                        n_out += span
            landings[reg] = (nread, steps, n_out)
        elif op == FLIP:
            steps += 1
            reg ^= 1
            pc += 1
        elif op == READA:
            steps += 1
            if tape is None or nread >= len(tape) or nread > n_out:
                return "awaiting_input", pc, reg, steps, code, n_out, nread
            reg = tape[nread]
            nread += 1
            pc += 1
        else:  # HALT
            return "halted", pc, reg, steps + 1, code, n_out, nread


def _back_at_start(
    code: int, n_out: int, steps: int, max_steps: int, cap: int
) -> tuple[int, int] | None:
    """(code, n_out) at the end of a run that a JBACK fetched at ``steps``
    returns to the start state (pc 0, register 0, no reads), or None when
    the interpreter must decide.

    From there the run repeats its first ``steps`` steps and the JBACK as
    laps, each appending the ``n_out`` symbols of ``code`` again, until a
    budget stops it. A silent run ends with the output it has. Otherwise
    the output reaches the cap within the first ``steps`` steps of a lap,
    so it is the first ``cap`` symbols of the repetition when the step
    budget surely covers those steps.
    """
    if not n_out:
        return code, n_out
    laps = -(-(cap - n_out) // n_out)
    if steps + laps * (steps + 1) > max_steps:
        return None
    span = (laps + 1) * n_out
    block = code - (1 << n_out)  # the lap's symbols
    repeated = (1 << span) + block * ((1 << span) - 1) // ((1 << n_out) - 1)
    return repeated >> (span - cap), cap


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # a code's digits to its symbols


def _output(code: int) -> tuple[int, ...]:
    """The symbols that ``code`` holds under its leading 1 bit."""
    return tuple(bin(code)[3:].encode().translate(_BIT_VALUES))


def _code(symbols: Iterable[int]) -> int:
    """The code of a binary string: its symbols under a leading 1 bit."""
    return int("1" + "".join(map(str, symbols)), 2)


def run_program(
    program: str | Sequence[int],
    actions: Sequence[int] | None = None,
    max_steps: int = 200,
    max_output: int | None = None,
) -> RunResult:
    """Run a program on the frozen machine; deterministic and monotone.

    Non-halting programs simply produce what they produce within the step
    budget. The result reports how many program bits were actually read.
    """
    bits = _parse_bits(program)
    count(max_steps, "max_steps")
    if max_output is not None:
        count(max_output, "max_output")
    available = _decode_ops(bits)
    tape = _bits(actions, "run_program's actions") if actions is not None else None
    ops: list[int] = []
    pc, reg, steps, code, n_out, nread = 0, 0, 0, 1, 0, 0
    while True:
        status, pc, reg, steps, code, n_out, nread = _run_segment(
            ops, pc, reg, steps, code, n_out, nread, tape, max_steps, max_output
        )
        if status == "fetch":
            if len(ops) < len(available):
                ops.append(available[len(ops)])
                continue
            status = "program_exhausted"
        return RunResult(
            output=_output(code),
            consumed_bits=OPCODE_BITS * len(ops),
            status=status,
            steps=steps,
            actions_read=nread,
        )


@cache
def _record(max_ops: int, max_steps: int, cap: int) -> tuple[struct.Struct, int, int]:
    """The fixed-width record of a run parked for ``cap`` under these
    budgets, with the widths of its code and step fields: the opcodes and
    the actions read, each padded and followed by its count, the output
    code's and the step count's bytes, then pc and reg. ``s`` fields pad
    and truncate silently, so each width holds its field's bound: a run
    parked for cap has at most max_ops opcodes, has read at most cap
    actions, and holds code < 2**cap (cap - 1 symbols) and steps <=
    max_steps."""
    code_width = cap // 8 + 1
    step_width = (max_steps.bit_length() + 7) // 8
    layout = struct.Struct(f"={max_ops}sB{cap}sB{code_width}s{step_width}sBB")
    return layout, code_width, step_width


def _pack(parked: bytearray, record: tuple[struct.Struct, int, int], node: tuple) -> None:
    """Push a walk node onto ``parked`` as one ``record``."""
    ops, pc, reg, steps, code, _, _, reads = node
    layout, code_width, step_width = record
    parked += layout.pack(
        bytes(ops),
        len(ops),
        bytes(reads),
        len(reads),
        code.to_bytes(code_width, "little"),
        steps.to_bytes(step_width, "little"),
        pc,
        reg,
    )


def _unpack(parked: bytearray, record: tuple[struct.Struct, int, int]) -> tuple:
    """Pop the last ``record`` pushed onto ``parked``, as a walk node."""
    layout = record[0]
    start = len(parked) - layout.size
    ops, n_ops, reads, n_reads, code, steps, pc, reg = layout.unpack_from(parked, start)
    del parked[start:]
    code = int.from_bytes(code, "little")
    return (
        tuple(ops[:n_ops]),
        pc,
        reg,
        int.from_bytes(steps, "little"),
        code,
        code.bit_length() - 1,
        n_reads,
        tuple(reads[:n_reads]),
    )


_FETCHED = tuple((op,) for op in range(8))  # each opcode a fetch can append


class _Walk:
    """The walk of the opcode tree under these budgets, along ``tape`` or,
    with none, branching at READA; it files each run's weight by the
    actions it read and the output prefixes its segments reach.

    A node of n opcodes carries 8**(max_ops - n), the total weight of the
    counted runs below it. Output is append-only, so a node adds its weight
    to each output prefix first reached in its segment, keyed by the prefix's
    code (its symbols under a leading 1 bit); a call for length t files the
    lengths ``lo..t``, where ``lo`` is 0 along a tape and t with none. The
    empty prefix gets the root's weight when the root forks, since every run
    below it is counted. Each tape's table stays keyed by these codes, under
    the tape's code: the form the cache, the memo and every reader keep.

    Along a tape (``()`` for the joint mixture, where READA suspends, or the
    played tape), one call from the root files every prefix length 0..t,
    with segments capped at t. With no tape, a run branches into both action
    values wherever READA may read a fresh action, segments run uncapped to
    a fetch, an action the run awaits, a halt or the step limit, and the
    walk is kept from one length to the next so that each node runs its
    segment once. Of a segment that ends at output length N, the prefix of
    length t is ``code >> (N - t)``; when N > t the walk keeps the code for
    the lengths above t that later calls ask. A run that can go on only at
    N >= t goes on only at length N + 1: the walk parks it, as one
    :func:`_record`, until it reaches that length, and there pops and
    continues each one. So the nodes a call runs are exactly those whose
    segments start below its length and no earlier call ran.

    Where a run fetches, each child takes its first step in place, as the
    interpreter would, and is pushed with the status it stops in, to be
    filed when it pops in its first-reach place; segments run only from the
    root, from JBACK, back at pc 0, and past a READA a segment stopped at.
    At the last level a child that would fetch again ends there: the OUTs
    file their symbol at once and only JBACK runs on, in place along a tape,
    first, as it would pop, settling by shifts from the start state
    (:func:`_back_at_start`), and with no tape pushed, after the OUTs file.

    A walk told the ``last`` length any call will ask parks a run only for a
    length up to it, and keeps no code for later lengths once it reaches it.
    """

    def __init__(
        self, max_ops: int, max_steps: int, tape: tuple[int, ...] | None = None, last: float = inf
    ):
        self.max_ops, self.max_steps, self.tape, self.last = max_ops, max_steps, tape, last
        self.cap = -1  # the last length walked; -1 until the root has run
        # records by the length that continues them
        self.parked: defaultdict[int, bytearray] = defaultdict(bytearray)
        # actions read -> code -> weight, by output length, of the segments
        # whose output passed the last length walked
        self.future = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))

    def tables(self, t: int) -> dict[int, Numerators]:
        """The tables of every tape this call files, integer numerators over
        8**max_ops by output code, under the tape's code: along a tape, the
        tape's prefix of each length 0..t; with none, every tape of length
        t. A new walk takes any t up to ``self.last`` and starts at the
        root; otherwise t is ``self.cap + 1``."""
        max_ops, max_steps, tape, last, parked, future = (
            self.max_ops, self.max_steps, self.tape, self.last, self.parked, self.future
        )
        lo, seg_cap = (t, None) if tape is None else (0, t)
        weights = [8 ** (max_ops - n) for n in range(max_ops + 1)]
        masses: defaultdict[tuple[int, ...], defaultdict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for n_out, later in future.items():
            for reads, by_code in later.items():
                filed = masses[reads]
                for code, w in by_code.items():
                    filed[code >> (n_out - t)] += w
        future.pop(t, None)
        resumed, record = parked.pop(t, bytearray()), _record(max_ops, max_steps, t)
        # (ops, pc, reg, steps, output code, output length, actions read, the
        #  actions the run reads: the tape, or those chosen at branches, then
        #  the status and length a child's first step left, or None and the same)
        stack: list[tuple] = [((), 0, 0, 0, 1, 0, 0, tape or (), None, 0)] if self.cap < 0 else []
        while stack or resumed:
            if stack:
                ops, pc, reg, steps, code, n_start, nread, reads, status, n_out = stack.pop()
                if status is None:
                    status, pc, reg, steps, code, n_out, nread = _run_segment(
                        ops, pc, reg, steps, code, n_start, nread, reads, max_steps, seg_cap
                    )
                if n_out >= lo and n_out > n_start:
                    # Every node starts below t, so the segment reached new
                    # lengths first..top: filed shortest first, as the
                    # tables list them, and any past t kept for later calls.
                    w = weights[len(ops)]
                    first = n_start + 1 if n_start >= lo else lo
                    top = n_out if n_out < t else t
                    filed = masses[reads]
                    if first == top:  # one length, as every segment of a tapeless walk files
                        filed[code >> (n_out - top)] += w
                    else:
                        for shift in range(n_out - first, n_out - top - 1, -1):
                            filed[code >> shift] += w
                    if n_out > t < last:
                        future[n_out][reads][code] += w
                if not (
                    status == "fetch" and len(ops) < max_ops
                    or status == "awaiting_input" and nread <= n_out and tape is None
                ):
                    continue
                if not ops and lo == 0:
                    # The root forks: every run below it is counted, and
                    # each holds the empty output.
                    masses[reads][1] = weights[0]
                if n_out >= t:
                    if n_out < last:
                        node = (ops, pc, reg, steps, code, n_out, nread, reads)
                        _pack(parked[n_out + 1], _record(max_ops, max_steps, n_out + 1), node)
                    continue
            else:
                ops, pc, reg, steps, code, n_out, nread, reads = _unpack(resumed, record)
            if pc < len(ops) and ops[pc] == READA:
                # READA has already counted its step; each branch resumes past it.
                stack += [
                    (ops, pc + 1, a, steps, code, n_out, nread + 1, reads + (a,), None, n_out)
                    for a in (0, 1)
                ]
                continue
            s, n1 = steps + 1, n_out + 1
            go = "fetch" if s < max_steps else "step_limit"
            if pc < len(ops):  # SKIP0 steps over the new slot, whatever it holds
                if len(ops) + 1 < max_ops:
                    stack += [
                        (ops + op, pc + 2, reg, s, code, n_out, nread, reads, go, n_out)
                        for op in _FETCHED
                    ]
                continue
            jback = ops + _FETCHED[JBACK]
            if len(ops) + 1 == max_ops:
                if tape is None:
                    stack.append((jback, pc, reg, steps, code, n_out, nread, reads, None, n_out))
                else:
                    # settled by shifts if JBACK returns the run to its start state
                    settled = reg == nread == 0 and _back_at_start(code, n_out, steps, max_steps, t)
                    j_code, j_out = settled or _run_segment(
                        jback, pc, reg, steps, code, n_out, nread, reads, max_steps, t
                    )[4:6]
                    filed = masses[reads]
                    for shift in range(j_out - n_out - 1, -1, -1):
                        filed[j_code >> shift] += 1
                if n1 >= lo:  # OUTR emits reg before OUT1 and OUT0 emit their bits
                    filed = masses[reads]
                    filed[2 * code + reg] += 2
                    filed[2 * code + 1 - reg] += 1
                continue
            emit = "output_limit" if n1 == seg_cap else go
            stack += [
                (ops + _FETCHED[OUT0], pc + 1, reg, s, 2 * code, n_out, nread, reads, emit, n1),
                (ops + _FETCHED[OUT1], pc + 1, reg, s, 2 * code + 1, n_out, nread, reads, emit, n1),
                (ops + _FETCHED[OUTR], pc + 1, reg, s, 2 * code + reg, n_out, nread, reads, emit, n1),
            ]
            # READA reads where it may: the tape's next action, or with none both
            acts = () if nread > n_out else (0, 1) if tape is None else tape[nread : nread + 1]
            if acts:
                stack += [
                    (ops + _FETCHED[READA], pc + 1, a, s, code, n_out, nread + 1,
                     reads + (a,) if tape is None else reads, go, n_out)
                    for a in acts
                ]
            stack += [
                (ops + _FETCHED[FLIP], pc + 1, 1 - reg, s, code, n_out, nread, reads, go, n_out),
                # with register 0, SKIP0 waits, steps unchanged, for the slot it skips
                (ops + _FETCHED[SKIP0], pc + reg, reg, steps + reg, code, n_out, nread, reads,
                 go if reg else "fetch", n_out),
                (jback, pc, reg, steps, code, n_out, nread, reads, None, n_out),
            ]
        self.cap = t
        tables: dict[int, Numerators] = {}
        for reads, by_code in masses.items():
            # The tapes an output of each length lo..t is filed under: the
            # actions read before it, for every way a branch goes on to lo.
            n, head, pad = len(reads), _code(reads), max(lo - len(reads), 0)
            keys = [
                [(head >> max(n - k, 0) << pad) + rest for rest in range(1 << pad)]
                for k in range(lo, t + 1)
            ]
            for code, mass in by_code.items():
                for tape in keys[code.bit_length() - 1 - lo]:
                    table = tables.setdefault(tape, {})
                    table[code] = table.get(code, 0) + mass
            by_code.clear()  # filed: released before the next branch's entries exist
        return tables


def _masses(codes: Numerators, mass: Callable[[int], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """The table of ``codes`` as exact masses by output string, in its
    order; ``mass`` builds one ``Fraction`` per distinct numerator."""
    return {_output(code): mass(n) for code, n in codes.items()}


class _Tables(Mapping):
    """``ChronEnumApprox.tables``: a read-only view of the tables held by
    tape code, each built as exact masses by percept string when read, with
    one ``Fraction`` per distinct numerator across them. Counting and
    listing the tapes builds none."""

    def __init__(self, codes: dict[int, Numerators], unit: int):
        self._codes, self._mass = codes, cache(lambda n: Fraction(n, unit))

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(_output, self._codes)

    def __getitem__(self, key: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        if not isinstance(key, tuple) or not set(key) <= {0, 1}:  # equal to no binary string
            raise KeyError(key)
        return _masses(self._codes[_code(map(int, key))], self._mass)


class JointEnumApprox(JointSemimeasure):
    """Budget-bounded lower approximation of the program-weighted joint mixture.

    mass(x) sums 2^-(bits) over counted runs whose output extends x, for
    every x up to ``max_len`` symbols. Masses are nondecreasing in both
    budgets; evaluation beyond ``max_len`` raises rather than guessing. The
    walk reads the numerators by output code over ``unit``, the walk's
    scale 8**(program_bits // 3), and its state is the code of the string
    so far; ``table`` builds them as exact masses by output string.
    """

    def __init__(self, max_len: int, codes: Numerators, unit: int):
        self.max_len, self._codes, self._unit = max_len, codes, unit
        self.declared_measure = False

    eval = JointSemimeasure.fold

    @property
    def table(self) -> dict[tuple[int, ...], Fraction]:
        return _masses(self._codes, cache(lambda n: Fraction(n, self._unit)))

    def scale(self, n: int) -> int:
        return self._unit

    def root(self) -> tuple[int, Any]:
        return self._codes.get(1, 0), 1

    def extend(self, state: int, symbol: int) -> tuple[int, Any]:
        code, n = 2 * state + symbol, state.bit_length()
        if n > self.max_len:
            raise ComponentFormatError(f"string of length {n} beyond recorded depth {self.max_len}")
        return self._codes.get(code, 0), code


class ChronEnumApprox(ChronEnv):
    """Budget-bounded lower approximation of the chronological program mixture.

    Masses for a length-t query use the action tape truncated to t: the
    machine may only see actions up to time t before emitting percept t.
    A tape's first query goes through ``eval``, which takes its table from
    the cache entry of every tape of that length (:meth:`_walk_tapes`). Each
    table is that entry's own: numerators over 8**(program_bits // 3), the
    walk's scale, by percept code, under the tape's code (symbols under a
    leading 1 bit, as outputs are coded). The walk carries the percept
    string and the action tape as codes and reads them, and so do a check's
    rows (:meth:`_check_columns`). ``tables`` is their view, in the order the
    tapes were asked, as exact masses by percept string under each tape.
    """

    def __init__(self, program_bits: int, steps: int):
        self.program_bits = count(program_bits, "program_bits")
        self.steps = count(steps, "steps")
        self._codes: dict[int, Numerators] = {}  # tape code -> percept code -> numerator
        self._unit = 8 ** (program_bits // OPCODE_BITS)
        self._walker: _Walk | None = None  # this environment's walk, kept across lengths
        self._last: float = inf  # the last length a running check asks

    @property
    def tables(self) -> Mapping[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
        return _Tables(self._codes, self._unit)

    def scale(self, n: int) -> int:
        return self._unit

    def root(self) -> tuple[int, Any]:
        self.eval((), ())  # the first query of the empty tape enumerates it
        mass = self._codes[1].get(1, 0)
        return mass, (1, 1, mass)  # (percept code, tape code, mass)

    def extend(self, state: Any, symbol: int) -> tuple[int, Any]:
        if len(state) == 3:  # a complete history: the action's table joins the state
            code, tape, mass = state
            tape = 2 * tape + symbol
            return mass, (code, tape, mass, self._codes.get(tape))
        code, tape, mass, table = state
        code = 2 * code + symbol
        if table is None:
            self.eval(_output(code), _output(tape))  # the walk's first query of the tape
            table = self._codes[tape]
        mass = table.get(code, 0)
        return mass, (code, tape, mass)

    def _walk_tapes(self, t: int) -> dict[int, Numerators]:
        """The tables of every tape of length t. This environment's walk
        goes on from the last length it built if that is t - 1, so across
        lengths 0, 1, ... each node of the opcode tree runs its segment
        once; otherwise a new walk starts at the root, told the last length
        of a running check, and is dropped when it reaches it."""
        walker, self._walker = self._walker, None  # a walk cut short leaves none
        if walker is None or walker.cap != t - 1:
            walker = _Walk(self.program_bits // OPCODE_BITS, self.steps, last=self._last)
        tables = walker.tables(t)
        if t < walker.last:  # a walk at its last length is done
            self._walker = walker
        return tables

    def _check_columns(self, depth: int, alphabet: tuple) -> tuple:
        """The check's (lhs, rhs, witnesses) as :func:`~uailab.semimeasure.walk`
        files them, read from each tape's numerators instead of from every
        context. The scale is constant, so the row (e, a, a') holds e's
        numerator in a's table, and each entry e e' of the table of a a' adds
        to that row's rhs, a witness where it exceeds the row's lhs. An absent
        entry is zero: mass below a zero-mass context still lands in its row.
        The tapes go in rising code order. The first a length lacks is
        queried through ``eval``, and its siblings are filed from the same
        cache entry; a walk they start ends at depth + 1."""
        codes, zeros = self._codes, (0,) * (depth + 1)

        def table(tape: int) -> dict[int, int]:
            if tape not in codes:
                t = tape.bit_length() - 1
                self.eval(zeros[:t], _output(tape))
                entry = self._entry(t)
                for sibling in range(tape + 1, 2 << t):
                    codes.setdefault(sibling, entry.get(sibling, {}))
            return codes[tape]

        lhs = [0] * (2 * sum(_widths(alphabet, depth)))
        rhs, witnesses = lhs.copy(), []
        self._last = depth + 1
        try:
            start = 0  # the slot of level t's first context
            for t in range(depth + 1):
                width = 1 << t
                for tape in range(width, 2 * width):  # the codes of the tapes of length t
                    base = start + (tape - width - 1) * width  # e's slot is base + its code
                    for code, m in table(tape).items():
                        row = 2 * (base + code)
                        lhs[row] = lhs[row + 1] = m
                    for a in (0, 1):
                        for code, m in table(2 * tape + a).items():
                            row = 2 * (base + (code >> 1)) + a
                            rhs[row] += m
                            if m > lhs[row]:
                                witnesses.append((row, code & 1))
                start += width * width
        finally:
            self._last = inf
        return lhs, rhs, witnesses

    def eval(self, percepts: tuple[int, ...], actions: tuple[int, ...]) -> Prob:
        """Not the fold of the walk: ``extend`` enters here to enumerate a
        tape it has no table for, so a fold would recurse through it. A new
        tape's table is its length's cache entry's, built if none is held."""
        percepts, actions = tuple(percepts), tuple(actions)
        _check_alphabet(self, (percepts, actions), _history(percepts, actions))
        tape = _code(actions)
        table = self._codes.get(tape)
        if table is None:
            table = self._codes[tape] = self._entry(len(actions)).get(tape, {})
        return Fraction(table.get(_code(percepts), 0), self._unit)

    def _entry(self, t: int) -> dict[int, Numerators]:
        """The cache entry of the tapes of length t: their tables by tape code."""
        budgets = [self.program_bits, self.steps, t]
        return _stored("chron_L{}_S{}_T{}", budgets, lambda: self._walk_tapes(t), "tables")


# ---------------------------------------------------------------------------
# Cache (versioned; invalidated by machine definition changes)
# ---------------------------------------------------------------------------

_MEMO: dict[str, dict] = {}  # payloads by cache entry name


def _cache_dir() -> Path | None:
    configured = os.environ.get(CACHE_ENV_VAR)
    if configured == "":
        return None
    if configured:
        return Path(configured)
    return Path.home() / ".cache" / "uailab"


def _cache_path(name: str) -> Path | None:
    base = _cache_dir()
    if base is None:
        return None
    return base / f"{MACHINE_HASH[:12]}_{name}.json"


def _header(budgets: list[int], field: str, digest: str) -> bytes:
    """The bytes of an entry's file before the value of ``field``: the other
    fields, as ``json.dumps(payload, sort_keys=True)`` writes them."""
    stamp = {"budgets": budgets, "format": CACHE_FORMAT, "machine": MACHINE_HASH, "sha256": digest}
    return f'{json.dumps(stamp, sort_keys=True)[:-1]}, "{field}": '.encode()


def _by_code(value: Any) -> dict[int, Any]:
    """``value`` as read, keyed by the codes of its keys; a ValueError
    unless it is an object whose keys hold only the digits 0 and 1."""
    if not isinstance(value, dict) or "".join(value).strip("01"):
        raise ValueError("not an object of binary keys")
    return {int("1" + k, 2): v for k, v in value.items()}


def _decode(table: Any) -> Numerators:
    """A table of numerators as read, keyed by output code; a ValueError
    unless it is an object of binary keys and ints of at least 0, no bool."""
    codes = _by_code(table)
    if not set(map(type, codes.values())) <= {int} or min(codes.values(), default=0) < 0:
        raise ValueError("not a table of numerators")
    return codes


def _cache_read(name: str, budgets: list[int], field: str) -> dict | None:
    """The cached ``table`` (or ``tables``, one table per tape), or None when
    the entry is missing, stale or damaged.

    The other fields must be the bytes this library writes for ``budgets``,
    and ``sha256`` the hash of the value's bytes as read."""
    path = _cache_path(name)
    if path is None:
        return None
    try:
        data = path.read_bytes()
    except OSError:
        return None
    start = len(_header(budgets, field, "0" * 64))
    body = data[start:-1]
    if data[-1:] != b"}" or data[:start] != _header(budgets, field, hashlib.sha256(body).hexdigest()):
        return None
    try:
        value = json.loads(body)
        if field == "table":
            return _decode(value)
        return {tape: _decode(table) for tape, table in _by_code(value).items()}
    except ValueError:
        return None


def _dumped(table: dict[int, Any]) -> str:
    """``table`` as ``json.dumps(..., sort_keys=True)`` writes it, each code
    keyed by the digits of its symbols. A key's closing quote sorts below
    every digit, so the entries sort as their keys do."""
    return "{%s}" % ", ".join(sorted(f'"{bin(k)[3:]}": {v}' for k, v in table.items()))


def _cache_write(name: str, budgets: list[int], field: str, value: dict) -> None:
    path = _cache_path(name)
    if path is None:
        return
    if field == "tables":
        value = {tape: _dumped(table) for tape, table in value.items()}
    body = _dumped(value).encode()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return  # cache is an optimization; never fail the computation
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_header(budgets, field, hashlib.sha256(body).hexdigest()))
            fh.write(body)
            fh.write(b"}")
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):  # a failed write leaves no temp file
            os.unlink(tmp)


def _whole_opcodes(program_bits: int) -> int:
    """The program bits a budget's runs can read: whole opcodes only."""
    return OPCODE_BITS * (program_bits // OPCODE_BITS)


def _stored(
    template: str, budgets: list[int], compute: Callable[[], dict], field: str = "table"
) -> dict:
    """One cache entry's payload from the memo, the disk cache, or else ``compute()``.

    The entry is ``template`` filled with ``budgets``, whose program bits
    count whole opcodes only (no run fetches a bit past them: 9 and 10 bits
    share an entry). ``compute`` returns integer numerators over the walk's
    scale by code for them, kept and written as they are."""
    budgets = [_whole_opcodes(budgets[0]), *budgets[1:]]
    name = template.format(*budgets)
    value = _MEMO.get(name)
    if value is None:
        value = _cache_read(name, budgets, field)
        if value is None:
            value = compute()
            _cache_write(name, budgets, field, value)
        _MEMO[name] = value
    return value


def enumerate_joint(program_bits: int, steps: int, max_len: int = 16) -> JointEnumApprox:
    """Enumerate all programs within the budgets into a joint mass table.

    One depth-first walk with integer weights and no leaf list. At
    max_len 16, program_bits 24 takes about 0.8 s and under 30 MB; each 3
    more bits cost 5-6x (docs/machine.md).
    """
    codes = _stored(
        "joint_L{}_S{}_D{}",
        [count(program_bits, "program_bits"), count(steps, "steps"), count(max_len, "max_len")],
        # No actions: READA always suspends, and every prefix up to max_len counts.
        lambda: _Walk(program_bits // OPCODE_BITS, steps, ()).tables(max_len).get(1, {}),
    )
    return JointEnumApprox(max_len, codes, 8 ** (program_bits // OPCODE_BITS))


def enumerate_chron(program_bits: int, steps: int, actions: Sequence[int]) -> ChronEnumApprox:
    """Chronological enumeration primed for the given action string.

    The returned environment answers any (percepts, actions) query; prefixes
    of ``actions`` are enumerated eagerly, by one walk along the whole tape,
    and each is its own cache entry.
    """
    approx = ChronEnumApprox(program_bits, steps)
    tape = _bits(actions, "enumerate_chron's actions")
    walk = cache(lambda: _Walk(program_bits // OPCODE_BITS, steps, tape).tables(len(tape)))
    for t in range(len(tape) + 1):
        prefix = _code(tape[:t])
        approx._codes[prefix] = _stored(
            "chron_L{}_S{}_A" + (bin(prefix)[3:] or "empty"),
            [program_bits, steps],
            lambda: walk().get(prefix, {}),
        )
    return approx


def clear_memo() -> None:
    """Drop in-process enumeration memos (disk cache untouched)."""
    _MEMO.clear()
