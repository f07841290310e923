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
depth-first walk with integer weights serves both modes; a chronological
walk branches on each action READA reads, so it yields every tape of a
length at once. The walk for tape length t returns the nodes its output
cap stopped (runs whose output reached t, and runs awaiting an action they
could read at t); the walk for length t + 1 resumes from exactly those
nodes, re-running each from its start state, so across lengths 0, 1, ...
each node of the opcode tree is walked once (only the stopped nodes'
segments run again). A run carries its output as one integer code, the
symbols under a leading 1 bit (the empty output is 1), so emitting a
symbol is ``code = 2 * code + bit`` and an output prefix of k symbols is a
right shift. The walk keys masses by code and decodes each code into its
output tuple once, when it builds the table entry; a stopped node is one
fixed-width record that holds the code's bytes. ``ChronEnumApprox``'s own
walk codes its percept string and action tape the same way, and reads each
tape's numerators by code.

The interpreter fast-forwards laps. When JBACK lands at pc 0 with the
register and action count of an earlier landing in the same segment, or
with register 0 and no action read, as the run started, the run read no
action in between, so it repeats that lap exactly until a budget stops it:
each lap takes the same steps and appends the same k symbols. The
interpreter adds whole laps at once (steps, and the lap's last k symbols
repeated onto the code), leaving the last one or two to run step by step,
so status, pc, register and steps are those of the plain run. One landing
is kept per register value, which catches laps of one or two landings.

Worked example programs (lengths on the frozen machine):

    constant-zero  000110          (6 bits)   output 000...
    echo           011010110       (9 bits)   percept t = action t
    complement     011100010110    (12 bits)  percept t = 1 - action t

At desk scale, joint enumeration reaches program_bits 24 in about 1.5 s
and chronological checks reach program_bits 18 at depth 7 in about 4 s; each
3 more bits cost 3-6x (measured limits in docs/machine.md). A joint table,
the tables of every tape of one length, and each prefix table of
``enumerate_chron`` are one cache entry each, memoized in-process by name
and stored on disk keyed by (definition hash, budgets); UAILAB_CACHE_DIR
is the only switch (empty disables the disk cache). A file stores the
walk's integer numerators as they are, under a SHA-256 of their bytes that
a read checks before it parses; each entry becomes its ``Fraction`` once,
in place when computed. See docs/cache_format.md.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable, Sequence

from .core import ZERO, ComponentFormatError, Prob
from .semimeasure import ChronEnv, JointSemimeasure, _check_alphabet, _history

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

Table = dict[tuple[int, ...], Fraction]  # output string -> mass
Numerators = dict[tuple[int, ...], int]  # output string -> mass over the walk's scale


@dataclass(frozen=True)
class RunResult:
    """Outcome of one program run."""

    output: tuple[int, ...]
    consumed_bits: int
    status: str  # halted | step_limit | output_limit | awaiting_input | program_exhausted
    steps: int
    actions_read: int


def _parse_bits(program: str | Sequence[int]) -> tuple[int, ...]:
    if isinstance(program, str):
        if any(c not in "01" for c in program):
            raise ComponentFormatError(f"program must be a bit string, got {program!r}")
        return tuple(int(c) for c in program)
    bits = tuple(int(b) for b in program)
    if any(b not in (0, 1) for b in bits):
        raise ComponentFormatError("program bits must be 0 or 1")
    return bits


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
            # whole laps, leaving the last one or two to run step by step.
            seen = landings[reg]
            if seen is not None and seen[0] == nread:
                lap, k = steps - seen[1], n_out - seen[2]
                laps = (max_steps - steps) // lap
                if k:
                    laps = min(laps, (limit - 1 - n_out) // k)
                if laps > 1:
                    laps -= 1
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


# Symbol values and their digits, for output codes and cache keys alike.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _output(code: int) -> tuple[int, ...]:
    """The output symbols that ``code`` holds under its leading 1 bit."""
    return tuple(bin(code)[3:].encode().translate(_DIGIT_VALUES))


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
    available = _decode_ops(bits)
    tape = tuple(actions) if actions is not None else None
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
    """The fixed-width record of a node that a walk with these budgets
    stops, with the widths of its code and step fields: the opcodes and the
    actions read, each padded and followed by its count, the output code's
    and the step count's bytes, then pc and reg. ``s`` fields pad and
    truncate silently, so each width holds its field's bound: a stopped
    node has at most max_ops opcodes, reads at most cap actions, and holds
    code < 2**(cap + 1) and steps <= max_steps."""
    code_width = cap // 8 + 1
    step_width = (max_steps.bit_length() + 7) // 8
    layout = struct.Struct(f"={max_ops}sB{cap}sB{code_width}s{step_width}sBB")
    return layout, code_width, step_width


def _pack(stopped: bytearray, record: tuple[struct.Struct, int, int], node: tuple) -> None:
    """Push a walk node onto ``stopped`` as one ``record``."""
    ops, pc, reg, steps, code, _, _, reads = node
    layout, code_width, step_width = record
    stopped += layout.pack(
        bytes(ops),
        len(ops),
        bytes(reads),
        len(reads),
        code.to_bytes(code_width, "little"),
        steps.to_bytes(step_width, "little"),
        pc,
        reg,
    )


def _unpack(stopped: bytearray, record: tuple[struct.Struct, int, int]) -> tuple:
    """Pop the last ``record`` pushed onto ``stopped``, as a walk node."""
    layout = record[0]
    start = len(stopped) - layout.size
    ops, n_ops, reads, n_reads, code, steps, pc, reg = layout.unpack_from(stopped, start)
    del stopped[start:]
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


def _walk(
    max_ops: int,
    max_steps: int,
    cap: int,
    tape: tuple[int, ...] | None,
    starts: bytearray | None = None,
) -> tuple[dict[tuple[int, ...], dict[int, int]], bytearray]:
    """Masses of every counted run, in units of 8**-max_ops, from one walk.

    Runs follow ``tape``; with ``tape=None`` a run branches into both action
    values wherever READA may read a fresh action below the output cap. The
    masses are keyed by the actions chosen at those branches, then by the
    output prefix's code (its symbols under a leading 1 bit). A node of n
    opcodes carries 8**(max_ops - n), the total weight of the counted runs
    below it; output is append-only, so the node adds that weight to each
    output prefix of length 1..cap first reached in its segment, and every
    counted run adds its weight to the empty prefix (code 1) when it ends.

    The children of a node one opcode short of the length budget can never
    fetch, so the walk settles all eight where their parent fetches. Each
    ends after its opcode, an OUT child with one more symbol, except JBACK,
    which runs on: in place along a tape, before the OUT children, so every
    prefix keeps its first-reach place; pushed in a chronological walk. In
    place, a JBACK that returns the run to its start state settles by
    shifts when the budgets allow (:func:`_back_at_start`); any other runs
    through the interpreter.

    The walk starts at the root, or at the nodes ``starts``, records of the
    walk at cap - 1 (:func:`_record`), which it pops one at a time. With
    ``tape=None`` it also returns, packed as they started in records of
    this walk's budgets, the nodes the cap stopped: runs whose output
    reached the cap and runs awaiting an action they could read at the cap.
    A walk at cap + 1 differs from this one only from those nodes down, so
    resuming from them yields every output prefix of length cap + 1 (and
    shorter prefixes only along their re-run segments).
    """
    weights = [8 ** (max_ops - n) for n in range(max_ops + 1)]
    masses: defaultdict[tuple[int, ...], defaultdict[int, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    stopped = bytearray()
    record = _record(max_ops, max_steps, cap)
    # the walk at cap - 1 packed the starts
    start_record = None if starts is None else _record(max_ops, max_steps, cap - 1)
    # (ops, pc, reg, steps, output code, output length, actions read,
    #  actions chosen at branches)
    stack: list[tuple] = [((), 0, 0, 0, 1, 0, 0, ())] if starts is None else []
    while stack or starts:
        node = stack.pop() if stack else _unpack(starts, start_record)
        ops, pc, reg, steps, code, n_start, nread, reads = node
        w = weights[len(ops)]
        inputs = reads if tape is None else tape
        status, pc, reg, steps, code, n_out, nread = _run_segment(
            ops, pc, reg, steps, code, n_start, nread, inputs, max_steps, cap
        )
        top = n_out if n_out < cap else cap
        if top > n_start:
            by_code = masses[reads]
            # shortest new prefix first, as the tables list them
            for shift in range(n_out - n_start - 1, n_out - top - 1, -1):
                by_code[code >> shift] += w
        if status == "fetch":
            if len(ops) + 1 < max_ops:
                stack += [
                    (ops + op, pc, reg, steps, code, n_out, nread, reads) for op in _FETCHED
                ]
                continue
            if len(ops) < max_ops:
                # Settle the eight children in the order the stack would pop
                # them: HALT, JBACK, SKIP0, FLIP, READA, OUTR, OUT1, OUT0.
                by_code = masses[reads]
                if pc < len(ops):  # SKIP0 skips the new slot: every child ends silent
                    by_code[1] += 8
                    continue
                branches = tape is None and nread <= n_out < cap  # READA's action branches
                # Every child is a run counted here but a pushed JBACK and READA's branches.
                by_code[1] += 8 - (tape is None) - branches
                jback = (ops + _FETCHED[JBACK], pc, reg, steps, code, n_out, nread, reads)
                if tape is not None:  # JBACK alone runs on, and lists its prefixes first
                    settled = None
                    if reg == nread == 0:  # JBACK returns the run to its start state
                        settled = _back_at_start(code, n_out, steps, max_steps, cap)
                    j_code, j_out = settled or _run_segment(*jback[:7], tape, max_steps, cap)[4:6]
                    for shift in range(j_out - n_out - 1, j_out - min(j_out, cap) - 1, -1):
                        by_code[j_code >> shift] += 1
                else:
                    stack.append(jback)
                    if branches:  # each branch ends silent under its action
                        masses[reads + (0,)][1] += 1
                        masses[reads + (1,)][1] += 1
                    elif nread <= n_out:  # READA could read at the cap
                        _pack(stopped, record, (ops + _FETCHED[READA],) + jback[1:])
                    if n_out + 1 >= cap:  # each OUT child reaches the cap
                        for op in (OUTR, OUT1, OUT0):
                            _pack(stopped, record, (ops + _FETCHED[op],) + jback[1:])
                if n_out < cap:  # OUTR emits reg before OUT1 and OUT0 emit their bits
                    by_code[2 * code + reg] += 2
                    by_code[2 * code + 1 - reg] += 1
                continue
            # otherwise boundary suspension: counted with its output so far
        elif tape is None and (
            status == "output_limit" or status == "awaiting_input" and nread <= n_out
        ):
            if n_out < cap:
                # READA has already counted its step; each branch resumes past it.
                stack.extend(
                    (ops, pc + 1, a, steps, code, n_out, nread + 1, reads + (a,)) for a in (0, 1)
                )
                continue
            _pack(stopped, record, node)
        if ops:  # a zero-bit run is not a program, whatever ends it
            masses[reads][1] += w
    return masses, stopped


def _walk_tables(
    program_bits: int,
    steps: int,
    cap: int,
    tape: tuple[int, ...] | None,
    starts: bytearray | None = None,
) -> tuple[dict[tuple[int, ...], Numerators], bytearray]:
    """Mass tables keyed by action tape from one :func:`_walk`, and the
    nodes the cap stopped. Each mass is an integer numerator over the walk's
    scale 8**(program_bits // 3); :func:`_stored` turns it into a Fraction.

    Along a given tape, an output prefix of length k belongs to the tape's
    prefix ``tape[:k]``; with ``tape=None`` the tables are those of every
    tape of length ``cap``, each summing the branches it extends. Each
    output code is decoded once per table entry.
    """
    masses, stopped = _walk(program_bits // OPCODE_BITS, steps, cap, tape, starts)
    tables: dict[tuple[int, ...], Numerators] = {}
    for reads, by_code in masses.items():
        for code, mass in by_code.items():
            n_out = code.bit_length() - 1
            if tape is not None:
                tapes = [tape[:n_out]]
            elif n_out == cap:
                tapes = [reads + rest for rest in product((0, 1), repeat=cap - len(reads))]
            else:
                continue
            out = _output(code)
            for actions in tapes:
                table = tables.setdefault(actions, {})
                table[out] = table.get(out, 0) + mass
        by_code.clear()  # decoded: released before the next branch's entries exist
    return tables, stopped


def _check_budgets(program_bits: int, steps: int) -> None:
    if program_bits < 0:
        raise ComponentFormatError(f"program_bits must be >= 0, got {program_bits}")
    if steps < 0:
        raise ComponentFormatError(f"steps must be >= 0, got {steps}")


class JointEnumApprox(JointSemimeasure):
    """Budget-bounded lower approximation of the program-weighted joint mixture.

    mass(x) sums 2^-(bits) over counted runs whose output extends x, for
    every x up to ``max_len`` symbols. Masses are nondecreasing in both
    budgets; evaluation beyond ``max_len`` raises rather than guessing. The
    walk reads the table, whose masses are ``Fraction`` (scale 1).
    """

    def __init__(self, max_len: int, table: dict):
        self.max_len = max_len
        self.table = table
        self.declared_measure = False

    eval = JointSemimeasure.fold

    def root(self) -> tuple[Prob, Any]:
        return self.table.get((), ZERO), ()

    def extend(self, state: tuple[int, ...], symbol: int) -> tuple[Prob, Any]:
        x = state + (symbol,)
        if len(x) > self.max_len:
            raise ComponentFormatError(
                f"string of length {len(x)} beyond recorded depth {self.max_len}"
            )
        return self.table.get(x, ZERO), x


class ChronEnumApprox(ChronEnv):
    """Budget-bounded lower approximation of the chronological program mixture.

    Masses for a length-t query use the action tape truncated to t: the
    machine may only see actions up to time t before emitting percept t.
    ``tables`` holds the tables of the tapes asked for so far; a tape's first
    query goes through ``eval``, which takes its table from the cache entry
    of every tape of that length (:meth:`_walk_tapes`). Every mass is
    a multiple of 8**-(program_bits // 3), the walk's scale. The walk carries
    the percept string and the action tape as codes (symbols under a leading
    1 bit, as outputs are coded) and reads each tape's numerators by percept
    code, from a private copy of its table that ``eval`` files with it.
    """

    def __init__(self, program_bits: int, steps: int):
        _check_budgets(program_bits, steps)
        self.program_bits = program_bits
        self.steps = steps
        self.tables: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        self._codes: dict[int, dict[int, int]] = {}  # tape code -> percept code -> numerator
        self._code_of = _Codes()
        self._unit = 8 ** (program_bits // OPCODE_BITS)
        # (cap, packed nodes it stopped) of this environment's last walk
        self._stopped: tuple[int, bytearray] | None = None

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

    def _table_for(self, actions: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        """Tape ``actions``'s table, enumerated if no table holds it yet, and
        the walk's copy of it, numerators by percept code."""
        table = self.tables.get(actions)
        if table is None:
            t = len(actions)
            tables = _stored(
                "chron_L{}_S{}_T{}",
                [self.program_bits, self.steps, t],
                lambda: self._walk_tapes(t),
                "tables",
            )
            table = self.tables[actions] = tables.get(actions, {})
        code_of, unit = self._code_of, self._unit
        tape = code_of[actions]
        if tape not in self._codes:
            self._codes[tape] = {
                code_of[out]: m.numerator * (unit // m.denominator) for out, m in table.items()
            }
        return table

    def _walk_tapes(self, t: int) -> dict[tuple[int, ...], Numerators]:
        """The tables of every tape of length t. The walk resumes from the
        nodes this environment's walk for length t - 1 stopped, if that was
        its last walk, so across lengths 0, 1, ... each node of the opcode
        tree is walked once; otherwise it starts at the root."""
        cap, starts = self._stopped or (None, None)
        self._stopped = None  # the walk consumes them; one cut short leaves none
        tables, stopped = _walk_tables(
            self.program_bits, self.steps, t, None, starts if cap == t - 1 else None
        )
        self._stopped = (t, stopped)
        return tables

    def eval(self, percepts: tuple[int, ...], actions: tuple[int, ...]) -> Prob:
        """Not the fold of the walk: ``extend`` enters here to enumerate a
        tape it has no table for, so a fold would recurse through it."""
        percepts, actions = tuple(percepts), tuple(actions)
        _check_alphabet(self, (percepts, actions), _history(percepts, actions))
        return self._table_for(actions).get(percepts, ZERO)


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


def _string_key(x: tuple[int, ...]) -> str:
    return bytes(x).translate(_DIGIT_CHARS).decode()


def _key_string(key: str) -> tuple[int, ...]:
    return tuple(key.encode().translate(_DIGIT_VALUES))


class _Codes(dict):
    """The code of each binary string, built on first use: the tables of
    every tape of one length share their output strings."""

    def __missing__(self, symbols: tuple[int, ...]) -> int:
        code = self[symbols] = int("1" + _string_key(symbols), 2)
        return code


class _Masses(dict):
    """The mass of each numerator over the walk's scale for ``program_bits``,
    built on first use: a table's entries share a few hundred numerators."""

    def __init__(self, program_bits: int):
        self.unit = 8 ** (program_bits // OPCODE_BITS)

    def __missing__(self, n: int) -> Fraction:
        mass = self[n] = Fraction(n, self.unit)
        return mass


def _header(budgets: list[int], field: str, digest: str) -> bytes:
    """The bytes of an entry's file before the value of ``field``: the other
    fields, as ``json.dumps(payload, sort_keys=True)`` writes them."""
    stamp = {"budgets": budgets, "format": CACHE_FORMAT, "machine": MACHINE_HASH, "sha256": digest}
    return f'{json.dumps(stamp, sort_keys=True)[:-1]}, "{field}": '.encode()


def _digit_keyed(value: Any) -> bool:
    """Whether ``value`` as read is an object whose keys hold only digits."""
    return isinstance(value, dict) and not "".join(value).strip("0123456789")


def _decode(table: Any, masses: _Masses) -> Table:
    """A table of numerators as read, with output keys and their masses;
    a ValueError unless it is an object of digit keys and int values."""
    if not _digit_keyed(table) or not set(map(type, table.values())) <= {int}:
        raise ValueError("not a table of numerators")
    return {_key_string(k): masses[n] for k, n in table.items()}


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
    masses = _Masses(budgets[0])
    try:
        value = json.loads(body)
        if field == "table":
            return _decode(value, masses)
        if not _digit_keyed(value):
            raise ValueError("not an object of tape tables")
        return {_key_string(k): _decode(table, masses) for k, table in value.items()}
    except ValueError:
        return None


def _dumped(table: dict[tuple[int, ...], Any]) -> str:
    """``table`` as ``json.dumps(..., sort_keys=True)`` writes it, keyed by
    digit strings. A key's closing quote sorts below every digit, so the
    entries sort as their keys do."""
    return "{%s}" % ", ".join(sorted(f'"{_string_key(k)}": {v}' for k, v in table.items()))


def _cache_write(name: str, budgets: list[int], field: str, value: dict) -> None:
    path = _cache_path(name)
    if path is None:
        return
    if field == "tables":
        value = {actions: _dumped(table) for actions, table in value.items()}
    body = _dumped(value).encode()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(_header(budgets, field, hashlib.sha256(body).hexdigest()))
            fh.write(body)
            fh.write(b"}")
        os.replace(tmp, path)
    except OSError:
        pass  # cache is an optimization; never fail the computation


def _stored(
    template: str, budgets: list[int], compute: Callable[[], dict], field: str = "table"
) -> dict:
    """One cache entry's payload from the memo, the disk cache, or else ``compute()``.

    The entry is ``template`` filled with ``budgets``, whose program bits
    count whole opcodes only (no run fetches a bit past them: 9 and 10 bits
    share an entry). ``compute`` returns integer numerators over the walk's
    scale for them, written as they are, then turned into masses in place."""
    budgets = [OPCODE_BITS * (budgets[0] // OPCODE_BITS), *budgets[1:]]
    name = template.format(*budgets)
    value = _MEMO.get(name)
    if value is None:
        value = _cache_read(name, budgets, field)
        if value is None:
            value = compute()
            _cache_write(name, budgets, field, value)
            masses = _Masses(budgets[0])
            for table in [value] if field == "table" else value.values():
                for out, n in table.items():
                    table[out] = masses[n]
        _MEMO[name] = value
    return value


def enumerate_joint(program_bits: int, steps: int, max_len: int = 16) -> JointEnumApprox:
    """Enumerate all programs within the budgets into a joint mass table.

    One depth-first walk with integer weights and no leaf list. At
    max_len 16, program_bits 24 takes about 1.5 s and under 30 MB; each 3
    more bits cost 4-5x (docs/machine.md).
    """
    _check_budgets(program_bits, steps)
    if max_len < 0:
        raise ComponentFormatError(f"max_len must be >= 0, got {max_len}")
    table = _stored(
        "joint_L{}_S{}_D{}",
        [program_bits, steps, max_len],
        # No actions: READA always suspends, and every prefix up to max_len counts.
        lambda: _walk_tables(program_bits, steps, max_len, ())[0].get((), {}),
    )
    return JointEnumApprox(max_len, table)


def enumerate_chron(program_bits: int, steps: int, actions: Sequence[int]) -> ChronEnumApprox:
    """Chronological enumeration primed for the given action string.

    The returned environment answers any (percepts, actions) query; prefixes
    of ``actions`` are enumerated eagerly, by one walk along the whole tape,
    and each is its own cache entry.
    """
    approx = ChronEnumApprox(program_bits, steps)
    tape = tuple(actions)
    if any(a not in (0, 1) for a in tape):
        raise ComponentFormatError(f"actions must be 0 or 1, got {tape}")
    walk = cache(lambda: _walk_tables(program_bits, steps, len(tape), tape)[0])
    for t in range(len(tape) + 1):
        prefix = tape[:t]
        approx.tables[prefix] = _stored(
            "chron_L{}_S{}_A" + (_string_key(prefix) or "empty"),
            [program_bits, steps],
            lambda: walk().get(prefix, {}),
        )
    return approx


def clear_memo() -> None:
    """Drop in-process enumeration memos (disk cache untouched)."""
    _MEMO.clear()
