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
and are never counted, so a zero-bit length budget yields the empty
enumeration. READA may read action k only when at most k-1 percepts are
still owed (actions_read <= outputs so far); earlier or unavailable reads
suspend the run, which then contributes only its output so far. Joint
enumeration supplies no action tape, so READA always suspends there.

Enumeration explores the opcode tree lazily: a run branches 8 ways whenever
it fetches a fresh opcode, and becomes a counted leaf of weight
2^-(bits consumed) when it halts, exhausts the step budget, reaches the
output cap, suspends awaiting input, or would fetch beyond the length
budget. Masses are nondecreasing in both the length and step budgets.

Worked example programs (lengths on the frozen machine):

    constant-zero  000110          (6 bits)   output 000...
    echo           011010110       (9 bits)   percept t = action t
    complement     011100010110    (12 bits)  percept t = 1 - action t

Enumerations at desk scale should keep program_bits <= 16. Results are
cached on disk keyed by (definition hash, budgets); see docs/machine.md and
docs/cache_format.md.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import ZERO, ComponentFormatError, Prob, frac_str
from .semimeasure import ChronEnv, JointSemimeasure

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
CACHE_FORMAT = 1


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
    out: list[int],
    nread: int,
    tape: Sequence[int] | None,
    max_steps: int,
    max_output: int | None,
) -> tuple[str, int, int, int, int]:
    """Advance until a fetch is needed or the run ends; ``out`` is mutated.

    Returns (status, pc, reg, steps, nread) with status "fetch" when the
    next opcode must be materialized (pc is the resume point).
    """
    n = len(ops)
    while True:
        if steps >= max_steps:
            return "step_limit", pc, reg, steps, nread
        if pc >= n:
            return "fetch", pc, reg, steps, nread
        op = ops[pc]
        if op == SKIP0 and reg == 0 and pc + 1 >= n:
            # The skipped slot occupies program bits: materialize it first.
            return "fetch", pc, reg, steps, nread
        steps += 1
        if op == OUT0 or op == OUT1:
            out.append(op)  # opcode value doubles as the emitted symbol
            pc += 1
            if max_output is not None and len(out) >= max_output:
                return "output_limit", pc, reg, steps, nread
        elif op == OUTR:
            out.append(reg)
            pc += 1
            if max_output is not None and len(out) >= max_output:
                return "output_limit", pc, reg, steps, nread
        elif op == READA:
            if tape is None or nread >= len(tape) or nread > len(out):
                return "awaiting_input", pc, reg, steps, nread
            reg = tape[nread]
            nread += 1
            pc += 1
        elif op == FLIP:
            reg ^= 1
            pc += 1
        elif op == SKIP0:
            pc += 2 if reg == 0 else 1
        elif op == JBACK:
            pc = 0
        else:  # HALT
            return "halted", pc, reg, steps, nread


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
    pc, reg, steps, nread = 0, 0, 0, 0
    out: list[int] = []
    while True:
        status, pc, reg, steps, nread = _run_segment(
            ops, pc, reg, steps, out, nread, tape, max_steps, max_output
        )
        if status == "fetch":
            if len(ops) < len(available):
                ops.append(available[len(ops)])
                continue
            status = "program_exhausted"
        return RunResult(
            output=tuple(out),
            consumed_bits=OPCODE_BITS * len(ops),
            status=status,
            steps=steps,
            actions_read=nread,
        )


def _enumerate_leaves(
    max_ops: int,
    max_steps: int,
    tape: tuple[int, ...] | None,
    max_output: int | None,
) -> list[tuple[int, tuple[int, ...]]]:
    """All counted runs as (opcodes consumed, output); order-independent."""
    leaves: list[tuple[int, tuple[int, ...]]] = []
    stack: list[tuple[tuple[int, ...], int, int, int, tuple[int, ...], int]] = [
        ((), 0, 0, 0, (), 0)
    ]
    while stack:
        ops, pc, reg, steps, out, nread = stack.pop()
        buf = list(out)
        status, pc2, reg2, steps2, nread2 = _run_segment(
            ops, pc, reg, steps, buf, nread, tape, max_steps, max_output
        )
        if status == "fetch":
            if len(ops) >= max_ops:
                if ops:  # boundary suspension: counted with output so far
                    leaves.append((len(ops), tuple(buf)))
                continue  # a zero-bit run is not a program
            snapshot = tuple(buf)
            for k in range(8):
                stack.append((ops + (k,), pc2, reg2, steps2, snapshot, nread2))
        else:
            leaves.append((len(ops), tuple(buf)))
    return leaves


class JointEnumApprox(JointSemimeasure):
    """Budget-bounded lower approximation of the program-weighted joint mixture.

    mass(x) sums 2^-(bits) over counted runs whose output extends x, for
    every x up to ``max_len`` symbols. Masses are nondecreasing in both
    budgets; evaluation beyond ``max_len`` raises rather than guessing.
    """

    def __init__(self, program_bits: int, steps: int, max_len: int, table: dict):
        self.program_bits = program_bits
        self.steps = steps
        self.max_len = max_len
        self.table = table
        self.declared_measure = False

    def eval(self, x: tuple[int, ...]) -> Prob:
        if len(x) > self.max_len:
            raise ComponentFormatError(
                f"string of length {len(x)} beyond recorded depth {self.max_len}"
            )
        return self.table.get(tuple(x), ZERO)

    def eval_at_budget(self, x: tuple[int, ...], budget: int) -> Prob:
        capped = enumerate_joint(
            min(self.program_bits, budget), min(self.steps, budget), self.max_len
        )
        return capped.eval(x)


class ChronEnumApprox(ChronEnv):
    """Budget-bounded lower approximation of the chronological program mixture.

    Masses for a length-t query use the action tape truncated to t: the
    machine may only see actions up to time t before emitting percept t.
    Tables per action string are computed lazily and memoized.
    """

    def __init__(self, program_bits: int, steps: int, use_cache: bool = True):
        self.program_bits = program_bits
        self.steps = steps
        self.use_cache = use_cache
        self.tables: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}

    def _table_for(self, actions: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        table = self.tables.get(actions)
        if table is None:
            table = _chron_table(self.program_bits, self.steps, actions, self.use_cache)
            self.tables[actions] = table
        return table

    def eval(self, percepts: tuple[int, ...], actions: tuple[int, ...]) -> Prob:
        percepts, actions = tuple(percepts), tuple(actions)
        if len(percepts) != len(actions):
            raise ComponentFormatError("percept/action strings must have equal length")
        return self._table_for(actions).get(percepts, ZERO)

    def eval_at_budget(
        self, percepts: tuple[int, ...], actions: tuple[int, ...], budget: int
    ) -> Prob:
        capped = ChronEnumApprox(
            min(self.program_bits, budget), min(self.steps, budget), self.use_cache
        )
        return capped.eval(percepts, actions)


# ---------------------------------------------------------------------------
# Cache (versioned; invalidated by machine definition changes)
# ---------------------------------------------------------------------------

_MEMO_JOINT: dict[tuple[int, int, int], dict] = {}
_MEMO_CHRON: dict[tuple[int, int, tuple[int, ...]], dict] = {}


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


def _cache_read(name: str) -> dict | None:
    path = _cache_path(name)
    if path is None or not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("format") != CACHE_FORMAT or payload.get("machine") != MACHINE_HASH:
        return None
    return payload


def _cache_write(name: str, payload: dict) -> None:
    path = _cache_path(name)
    if path is None:
        return
    payload = {"format": CACHE_FORMAT, "machine": MACHINE_HASH, **payload}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass  # cache is an optimization; never fail the computation


def _string_key(x: tuple[int, ...]) -> str:
    return "".join(str(s) for s in x)


def _key_string(key: str) -> tuple[int, ...]:
    return tuple(int(c) for c in key)


def enumerate_joint(
    program_bits: int, steps: int, max_len: int = 16, use_cache: bool = True
) -> JointEnumApprox:
    """Enumerate all programs within the budgets into a joint mass table.

    Guidance: program_bits <= 16 at desk scale (the opcode tree has
    8^(program_bits // 3) paths).
    """
    memo_key = (program_bits, steps, max_len)
    table = _MEMO_JOINT.get(memo_key)
    if table is None:
        name = f"joint_L{program_bits}_S{steps}_D{max_len}"
        payload = _cache_read(name) if use_cache else None
        if payload is not None and payload.get("budgets") == list(memo_key):
            table = {
                _key_string(k): Fraction(v) for k, v in payload["table"].items()
            }
        else:
            table = {}
            for n_ops, out in _enumerate_leaves(
                program_bits // OPCODE_BITS, steps, None, max_len
            ):
                w = Fraction(1, 8**n_ops)
                for cut in range(min(len(out), max_len) + 1):
                    key = out[:cut]
                    table[key] = table.get(key, ZERO) + w
            if use_cache:
                _cache_write(
                    name,
                    {
                        "budgets": list(memo_key),
                        "table": {
                            _string_key(k): frac_str(v) for k, v in sorted(table.items())
                        },
                    },
                )
        _MEMO_JOINT[memo_key] = table
    return JointEnumApprox(program_bits, steps, max_len, table)


def _chron_table(
    program_bits: int, steps: int, actions: tuple[int, ...], use_cache: bool = True
) -> dict[tuple[int, ...], Fraction]:
    memo_key = (program_bits, steps, actions)
    table = _MEMO_CHRON.get(memo_key)
    if table is not None:
        return table
    name = f"chron_L{program_bits}_S{steps}_A{_string_key(actions) or 'empty'}"
    payload = _cache_read(name) if use_cache else None
    if payload is not None and payload.get("budgets") == [program_bits, steps]:
        table = {_key_string(k): Fraction(v) for k, v in payload["table"].items()}
    else:
        t = len(actions)
        table = {}
        for n_ops, out in _enumerate_leaves(
            program_bits // OPCODE_BITS, steps, actions, t
        ):
            if len(out) >= t:
                key = out[:t]
                table[key] = table.get(key, ZERO) + Fraction(1, 8**n_ops)
        if use_cache:
            _cache_write(
                name,
                {
                    "budgets": [program_bits, steps],
                    "table": {
                        _string_key(k) or "": frac_str(v) for k, v in sorted(table.items())
                    },
                },
            )
    _MEMO_CHRON[memo_key] = table
    return table


def enumerate_chron(
    program_bits: int, steps: int, actions: Sequence[int], use_cache: bool = True
) -> ChronEnumApprox:
    """Chronological enumeration primed for the given action string.

    The returned environment answers any (percepts, actions) query; prefixes
    of ``actions`` are enumerated eagerly.
    """
    approx = ChronEnumApprox(program_bits, steps, use_cache)
    tape = tuple(actions)
    for t in range(len(tape) + 1):
        approx._table_for(tape[:t])
    return approx


def clear_memo() -> None:
    """Drop in-process enumeration memos (disk cache untouched)."""
    _MEMO_JOINT.clear()
    _MEMO_CHRON.clear()
