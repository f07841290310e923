import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uailab import utm
from uailab.core import ComponentFormatError, frac_str
from uailab.semimeasure import check_chronological, check_semimeasure
from uailab.utm import (
    CACHE_ENV_VAR,
    FLIP,
    HALT,
    JBACK,
    MACHINE_DEFINITION,
    MACHINE_HASH,
    OUT0,
    OUT1,
    OUTR,
    PROGRAM_COMPLEMENT,
    PROGRAM_CONST0,
    PROGRAM_ECHO,
    READA,
    SKIP0,
    ChronEnumApprox,
    clear_memo,
    enumerate_chron,
    enumerate_joint,
    run_program,
)

F = Fraction


def bits_upto(n):
    for length in range(n + 1):
        for bits in product("01", repeat=length):
            yield "".join(bits)


def test_const0_outputs_zeros_within_budget():
    result = run_program(PROGRAM_CONST0, max_steps=100)
    assert result.output == (0,) * 50  # one output per two steps
    assert result.status == "step_limit"
    assert result.consumed_bits == 6


def test_empty_program_consumes_nothing():
    result = run_program("", max_steps=100)
    assert result.output == ()
    assert result.consumed_bits == 0
    assert result.status == "program_exhausted"


def test_echo_reads_actions_chronologically():
    result = run_program(PROGRAM_ECHO, actions=(1, 0), max_steps=50)
    assert result.output == (1, 0)
    assert result.actions_read == 2
    assert result.status == "awaiting_input"
    assert result.consumed_bits == 9


def test_complement_program():
    result = run_program(PROGRAM_COMPLEMENT, actions=(1, 0, 1), max_steps=50)
    assert result.output == (0, 1, 0)
    assert result.consumed_bits == 12


def test_read_discipline_blocks_peeking():
    # READA READA: the second read would run one action ahead of the output.
    program = "011011"
    result = run_program(program, actions=(1, 0), max_steps=50)
    assert result.actions_read == 1
    assert result.status == "awaiting_input"


def test_monotone_output_exhaustive_small_programs():
    budgets = (5, 20, 80, 200)
    for program in bits_upto(8):
        previous = None
        for steps in budgets:
            result = run_program(program, max_steps=steps)
            if previous is not None:
                assert result.output[: len(previous.output)] == previous.output
                assert result.consumed_bits >= previous.consumed_bits
            previous = result


def test_determinism_same_run_twice():
    for program in (PROGRAM_CONST0, PROGRAM_ECHO, "101110001"):
        a = run_program(program, actions=(1, 1), max_steps=77)
        b = run_program(program, actions=(1, 1), max_steps=77)
        assert a == b


def test_zero_length_budget_has_no_programs():
    approx = enumerate_joint(0, 200, max_len=6)
    assert approx.eval(()) == 0
    assert approx.eval((0,)) == 0


def test_root_mass_at_most_one_for_all_budgets():
    for bits in range(0, 11):
        approx = enumerate_joint(bits, 200, max_len=6)
        assert approx.eval(()) <= 1


def test_budget_monotone_in_length_exhaustive():
    tables = {}
    for bits in range(0, 11):
        tables[bits] = enumerate_joint(bits, 200, max_len=8).table
    for bits in range(0, 10):
        lo, hi = tables[bits], tables[bits + 1]
        for key in set(lo) | set(hi):
            assert lo.get(key, F(0)) <= hi.get(key, F(0)), (bits, key)


def test_budget_monotone_in_steps():
    grids = [enumerate_joint(9, s, max_len=8).table for s in (0, 5, 25, 100, 200)]
    for lo, hi in zip(grids, grids[1:]):
        for key in set(lo) | set(hi):
            assert lo.get(key, F(0)) <= hi.get(key, F(0)), key


def test_enum_approx_is_semimeasure_at_every_budget():
    for bits, steps in ((3, 60), (6, 60), (9, 200), (10, 200)):
        approx = enumerate_joint(bits, steps, max_len=6)
        assert check_semimeasure(approx, 5).ok, (bits, steps)


def test_chron_enum_passes_chronological_check():
    for bits, steps in ((3, 60), (6, 200), (9, 200)):
        approx = ChronEnumApprox(bits, steps)
        assert check_chronological(approx, 5).ok, (bits, steps)


def test_chron_monotone_budgets_per_tape():
    tape = (1, 0, 1)
    masses = []
    for bits in (3, 6, 9, 12):
        approx = enumerate_chron(bits, 200, tape)
        masses.append(approx.eval(tape, tape))
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    small = enumerate_chron(9, 40, tape)
    large = enumerate_chron(9, 200, tape)
    assert small.eval(tape, tape) <= large.eval(tape, tape)


def test_echo_lower_bounds_the_chron_mixture():
    # The echo program consumes 9 bits, so the copy sequence keeps mass
    # >= 2^-9 at every prefix once the budgets cover it.
    approx = enumerate_chron(9, 200, (1, 0, 1, 1))
    for t in range(1, 5):
        tape = (1, 0, 1, 1)[:t]
        assert approx.eval(tape, tape) >= F(1, 512)


def test_complement_lower_bounds_the_chron_mixture():
    approx = enumerate_chron(12, 200, (1, 0, 1))
    for t in range(1, 4):
        tape = (1, 0, 1)[:t]
        flipped = tuple(1 - a for a in tape)
        assert approx.eval(flipped, tape) >= F(1, 4096)


def test_const0_lower_bounds_the_joint_mixture():
    approx = enumerate_joint(6, 200, max_len=8)
    for length in range(9):
        assert approx.eval((0,) * length) >= F(1, 64)


def test_eval_beyond_recorded_depth_raises():
    approx = enumerate_joint(6, 50, max_len=4)
    with pytest.raises(ComponentFormatError, match="string of length 5 beyond recorded depth 4"):
        approx.eval((0,) * 5)
    check_semimeasure(approx, 3)  # its children are recorded
    with pytest.raises(ComponentFormatError, match="beyond recorded depth 4"):
        check_semimeasure(approx, 4)


def test_enumerations_reject_symbols_outside_the_alphabet():
    joint = enumerate_joint(6, 60, max_len=4)
    for bad in (-1, 2):
        for x, position in (((bad,), 0), ((0, bad), 1)):
            with pytest.raises(ComponentFormatError, match="outside the alphabet") as err:
                joint.eval(x)
            assert f"context {x!r}" in str(err.value)
            assert f"position {position}" in str(err.value)
    approx = ChronEnumApprox(6, 60)
    for bad in (-1, 2, 5):
        for context, position in ((((0,), (bad,)), 0), (((bad,), (0,)), 1)):
            with pytest.raises(ComponentFormatError, match="outside the alphabet") as err:
                approx.eval(*context)
            assert f"context {context!r}" in str(err.value)
            assert f"position {position}" in str(err.value)
    assert approx.tables == {}  # rejected before any tape's table is filed
    clear_memo()


def test_machine_definition_frozen():
    # The documented encoding is load-bearing: the worked programs and every
    # committed artifact assume exactly this machine.
    assert "000 OUT0; 001 OUT1; 010 OUTR; 011 READA" in MACHINE_DEFINITION
    assert len(MACHINE_HASH) == 64
    assert (len(PROGRAM_CONST0), len(PROGRAM_ECHO), len(PROGRAM_COMPLEMENT)) == (6, 9, 12)


def test_disk_cache_roundtrip(cache_dir):
    clear_memo()
    first = enumerate_joint(6, 60, max_len=6)
    files = list(cache_dir.glob("*joint_L6_S60*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["machine"] == MACHINE_HASH
    clear_memo()
    second = enumerate_joint(6, 60, max_len=6)
    assert first.table == second.table
    # A stale or foreign cache entry is ignored, not trusted.
    files[0].write_text(json.dumps({**payload, "machine": "0" * 64}))
    clear_memo()
    third = enumerate_joint(6, 60, max_len=6)
    assert third.table == first.table
    clear_memo()


def test_a_failed_cache_write_leaves_no_temp_file(cache_dir, monkeypatch):
    clear_memo()
    monkeypatch.setenv(CACHE_ENV_VAR, "")  # the cache switched off
    expected = enumerate_joint(6, 60, max_len=4).table
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
    (cache_dir / f"{MACHINE_HASH[:12]}_joint_L6_S60_D4.json").mkdir()  # in the entry's way
    for _ in range(2):
        clear_memo()
        assert enumerate_joint(6, 60, max_len=4).table == expected
    assert list(cache_dir.glob("*.tmp")) == []
    clear_memo()


def test_bad_program_strings_rejected():
    with pytest.raises(ComponentFormatError):
        run_program("01a")
    with pytest.raises(ComponentFormatError):
        run_program([0, 2])


# ---------------------------------------------------------------------------
# Reference oracles, kept frozen: the list-based interpreter the integer-coded
# one replaced, a step-by-step run on it, and the per-leaf enumerator the walk
# replaced. The leaf enumerator lists every counted run, then adds 2^-(bits)
# per leaf and output prefix.
# ---------------------------------------------------------------------------


def frozen_run_segment(
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


def frozen_run(bits, actions, max_steps, max_output):
    """run_program's fields from the frozen interpreter, fetching one opcode
    at a time from the bit list ``bits``."""
    available = [
        (bits[i] << 2) | (bits[i + 1] << 1) | bits[i + 2] for i in range(0, len(bits) - 2, 3)
    ]
    tape = tuple(actions) if actions is not None else None
    ops, out = [], []
    pc, reg, steps, nread = 0, 0, 0, 0
    while True:
        status, pc, reg, steps, nread = frozen_run_segment(
            ops, pc, reg, steps, out, nread, tape, max_steps, max_output
        )
        if status == "fetch":
            if len(ops) < len(available):
                ops.append(available[len(ops)])
                continue
            status = "program_exhausted"
        return {
            "output": tuple(out),
            "consumed_bits": 3 * len(ops),
            "status": status,
            "steps": steps,
            "actions_read": nread,
        }


def oracle_leaves(max_ops, max_steps, tape, max_output):
    leaves = []
    stack = [((), 0, 0, 0, (), 0)]
    while stack:
        ops, pc, reg, steps, out, nread = stack.pop()
        buf = list(out)
        status, pc2, reg2, steps2, nread2 = frozen_run_segment(
            ops, pc, reg, steps, buf, nread, tape, max_steps, max_output
        )
        if status == "fetch":
            if len(ops) >= max_ops:
                if ops:
                    leaves.append((len(ops), tuple(buf)))
                continue
            snapshot = tuple(buf)
            for k in range(8):
                stack.append((ops + (k,), pc2, reg2, steps2, snapshot, nread2))
        elif ops:
            leaves.append((len(ops), tuple(buf)))
    return leaves


def oracle_joint(bits, steps, max_len):
    table = {}
    for n_ops, out in oracle_leaves(bits // 3, steps, None, max_len):
        for cut in range(min(len(out), max_len) + 1):
            table[out[:cut]] = table.get(out[:cut], 0) + F(1, 8**n_ops)
    return table


def oracle_chron(bits, steps, actions):
    t = len(actions)
    table = {}
    for n_ops, out in oracle_leaves(bits // 3, steps, actions, t):
        if len(out) >= t:
            table[out[:t]] = table.get(out[:t], 0) + F(1, 8**n_ops)
    return table


def table_for(approx, tape):
    """Tape ``tape``'s table as ``approx.tables`` shows it, enumerated by a
    query of the tape through ``eval`` if no table holds it yet."""
    approx.eval((0,) * len(tape), tape)
    return approx.tables[tape]


def tapes_upto(n):
    for t in range(n + 1):
        yield from product((0, 1), repeat=t)


# Step budgets 2, 3 and 7 stop runs on the last level of the opcode tree,
# where the walk settles the eight children of a node without running them;
# at 3 bits the root's children are that level, and max_len 0 caps every
# output child at once.
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 5, 7, 60, 200])
@pytest.mark.parametrize("bits", [0, 3, 6, 9, 12])
def test_walk_matches_leaf_oracle(bits, steps):
    clear_memo()
    for max_len in (0, 1, 6):
        assert enumerate_joint(bits, steps, max_len).table == oracle_joint(
            bits, steps, max_len
        ), max_len
    expected = {tape: oracle_chron(bits, steps, tape) for tape in tapes_upto(5)}
    approx = ChronEnumApprox(bits, steps)
    for tape, table in expected.items():
        assert table_for(approx, tape) == table, tape
    assert list(approx.tables) == list(expected)  # only the requested tapes
    for tape in product((0, 1), repeat=5):
        clear_memo()
        primed = enumerate_chron(bits, steps, tape)
        assert primed.tables == {tape[:t]: expected[tape[:t]] for t in range(6)}, tape
    clear_memo()


def test_walk_matches_leaf_oracle_at_15_bits():
    clear_memo()
    approx = ChronEnumApprox(15, 200)
    for tape in tapes_upto(3):
        assert table_for(approx, tape) == oracle_chron(15, 200, tape), tape
    clear_memo()
    primed = enumerate_chron(15, 200, (1, 0, 1))
    for t in range(4):
        assert primed.tables[(1, 0, 1)[:t]] == approx.tables[(1, 0, 1)[:t]]
    for tape in ((1, 0, 1, 1, 0, 0), (0, 1, 1, 0, 1, 0)):
        clear_memo()
        primed = enumerate_chron(15, 200, tape)
        for t in range(7):
            assert primed.tables[tape[:t]] == oracle_chron(15, 200, tape[:t]), tape[:t]
    clear_memo()


def first_reach_order(bits, steps, max_len):
    """The walk's key order for a joint table: the leaf oracle's, with the
    empty prefix moved behind the first counted run's own prefixes."""
    listed = list(oracle_joint(bits, steps, max_len))
    if not listed:
        return []
    _, first_output = oracle_leaves(bits // 3, steps, None, max_len)[0]
    first_run = min(len(first_output), max_len)
    return listed[1 : 1 + first_run] + [()] + listed[1 + first_run :]


def test_joint_table_lists_prefixes_in_first_reach_order(monkeypatch):
    # The leaf oracle lists each output prefix with the first counted run
    # that outputs it, shortest first. The walk reaches the same prefixes in
    # the same order, except the empty one, which it lists when the first
    # run ends, after that run's own prefixes.
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    for bits, steps, max_len in ((9, 60, 6), (12, 200, 8), (15, 200, 32)):
        clear_memo()
        expected = first_reach_order(bits, steps, max_len)
        assert list(enumerate_joint(bits, steps, max_len).table) == expected, bits
    clear_memo()


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(0, 12),
    steps=st.sampled_from([*range(9), 60, 200]),
    max_len=st.integers(0, 8),
    tape=st.none() | st.lists(st.integers(0, 1), max_size=8).map(tuple),
)
def test_walk_matches_leaf_oracle_on_drawn_budgets(bits, steps, max_len, tape):
    clear_memo()
    if tape is None:
        table = enumerate_joint(bits, steps, max_len).table
        assert table == oracle_joint(bits, steps, max_len)
        assert list(table) == first_reach_order(bits, steps, max_len)
    else:
        # The played walk follows the tape; the chronological one branches.
        primed = enumerate_chron(bits, steps, tape)
        approx = ChronEnumApprox(bits, steps)
        for t in range(len(tape) + 1):
            expected = oracle_chron(bits, steps, tape[:t])
            assert primed.tables[tape[:t]] == expected, t
            assert table_for(approx, tape[:t]) == expected, t
    clear_memo()


def _opcode_bits(*ops):
    return [(op >> shift) & 1 for op in ops for shift in (2, 1, 0)]


# Loops that run until a budget stops them: silent ones, and ones that emit
# one symbol or more per pass (OUTR FLIP alternates; echo needs actions).
JBACK_LOOPS = [
    _opcode_bits(JBACK),
    _opcode_bits(FLIP, JBACK),
    _opcode_bits(SKIP0, FLIP, JBACK),
    _opcode_bits(OUT0, JBACK),
    _opcode_bits(OUT1, OUT0, JBACK),
    _opcode_bits(OUTR, FLIP, JBACK),
    _opcode_bits(READA, OUTR, JBACK),
    _opcode_bits(FLIP, SKIP0, OUT1, OUTR, JBACK),
]


def _random_programs(rng, count):
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:  # any bit string, partial opcodes included
            yield [rng.randrange(2) for _ in range(rng.randrange(46))]
        elif kind == 1:  # a shipped loop, then more bits it may never read
            yield rng.choice(JBACK_LOOPS) + [rng.randrange(2) for _ in range(rng.randrange(7))]
        else:  # random opcodes closed by JBACK
            body = [rng.randrange(8) for _ in range(rng.randrange(1, 7))]
            yield _opcode_bits(*body, JBACK)


def test_run_program_matches_frozen_step_by_step_run():
    rng = random.Random(20261018)
    longest = 0
    for program in _random_programs(rng, 240):
        n_actions = rng.randrange(13)
        tape = None if rng.random() < 0.25 else [rng.randrange(2) for _ in range(n_actions)]
        for max_steps in (0, 1, 2, 7, 60, 200, 1000):
            for max_output in (None, 0, 1, 2, 16):
                result = run_program(program, tape, max_steps, max_output)
                expected = frozen_run(program, tape, max_steps, max_output)
                assert vars(result) == expected, (program, tape, max_steps, max_output)
                longest = max(longest, len(result.output))
    assert longest > 64  # output codes past 2**64 were compared too


# Programs that lap: JBACK returns to pc 0 with the register and reads of an
# earlier landing, so the interpreter skips whole laps. Silent laps, laps of
# two landings (the register flips each pass), and laps that emit.
LAPS = [
    (JBACK,),
    (FLIP, JBACK),
    (SKIP0, FLIP, JBACK),
    (FLIP, OUTR, JBACK),
    (OUT1, OUT0, JBACK),
    (OUTR, FLIP, OUTR, JBACK),
    (FLIP, SKIP0, OUT1, OUTR, JBACK),
    (READA, OUTR, JBACK),
]
LAP_BODIES = st.sampled_from(LAPS) | st.lists(
    st.sampled_from([OUT0, OUT1, OUTR, READA, FLIP, SKIP0, HALT]), max_size=5
).map(lambda body: (*body, JBACK))


@settings(max_examples=300, deadline=None)
@given(
    LAP_BODIES,
    st.none() | st.lists(st.integers(0, 1), max_size=8),
    st.integers(0, 1000),
    st.none() | st.integers(0, 64),
)
# The output cap falls on the last symbol of a lap: the 10th lap of OUT1 OUT0.
@example((OUT1, OUT0, JBACK), None, 1000, 20)
@example((FLIP, OUTR, JBACK), None, 1000, 7)
# The step budget ends exactly where a lap does.
@example((FLIP, JBACK), None, 600, None)
@example((FLIP, OUTR, JBACK), [], 999, 64)
# The whole laps jumped at once end exactly on the step budget, or exactly
# one symbol short of the output cap, for a lap of one landing (OUT1 OUT0)
# and of two (FLIP OUTR, whose register flips each pass).
@example((OUT1, OUT0, JBACK), None, 300, None)
@example((FLIP, OUTR, JBACK), None, 606, None)
@example((OUT1, OUT0, JBACK), None, 1000, 21)
@example((FLIP, OUTR, JBACK), None, 1000, 9)
def test_lap_fast_forward_matches_frozen_step_by_step_run(body, tape, max_steps, max_output):
    program = _opcode_bits(*body)
    result = run_program(program, tape, max_steps, max_output)
    assert vars(result) == frozen_run(program, tape, max_steps, max_output)


def _jback_child(ops, tape, max_steps, cap):
    """The state at which the run of ``ops`` fetches past its end, as the
    walk hands it to a JBACK child, when the JBACK returns it to the start
    state (register 0, no reads); else None."""
    status, pc, reg, steps, code, n_out, nread = utm._run_segment(
        ops, 0, 0, 0, 1, 0, 0, tape, max_steps, cap
    )
    if status == "fetch" and pc == len(ops) and reg == 0 == nread:
        return steps, code, n_out
    return None


def _settled_and_run(ops, tape, max_steps, cap):
    """The start-state settle of the JBACK child of ``ops`` and the
    interpreter's (code, n_out) for the same child."""
    steps, code, n_out = _jback_child(ops, tape, max_steps, cap)
    run = utm._run_segment(
        ops + (JBACK,), len(ops), 0, steps, code, n_out, 0, tape, max_steps, cap
    )
    return utm._back_at_start(code, n_out, steps, max_steps, cap), run[4:6]


def test_start_state_settle_matches_the_interpreter():
    # Every program of up to three opcodes whose JBACK child is back at the
    # start state, on tapes that block and allow reads: where the settle
    # answers, it is the interpreter's answer.
    settled = declined = 0
    for n in range(4):
        for ops in product(range(8), repeat=n):
            for tape in ((), (1, 0, 1)):
                for max_steps in (1, 2, 3, 5, 7, 12, 60, 200):
                    for cap in range(9):
                        if _jback_child(ops, tape, max_steps, cap) is None:
                            continue
                        got, run = _settled_and_run(ops, tape, max_steps, cap)
                        if got is None:
                            declined += 1
                        else:
                            assert got == run, (ops, tape, max_steps, cap)
                            settled += 1
    assert settled > 1_000 and declined > 100


@pytest.mark.parametrize(
    "ops, max_steps, cap, settled, run",
    [
        # silent laps end with their output, whatever the budgets
        ((), 60, 6, (1, 0), (1, 0)),
        ((FLIP, FLIP), 3, 4, (1, 0), (1, 0)),
        ((FLIP, FLIP), 200, 0, (1, 0), (1, 0)),
        # max_len 0: only a silent run fetches
        ((), 1, 0, (1, 0), (1, 0)),
        # 1 + 4 * 2 steps: the budget covers the lap that reaches the cap
        ((OUT0,), 9, 5, (0b100000, 5), (0b100000, 5)),
        ((OUT1, OUT0, FLIP, FLIP), 19, 7, (0b11010101, 7), (0b11010101, 7)),
        ((OUT1, OUTR), 5, 3, (0b1101, 3), (0b1101, 3)),
        # one step short the interpreter decides: the step budget stops
        # the last symbol of OUT0, but not that of OUT1 OUT0 FLIP FLIP
        ((OUT0,), 8, 5, None, (0b10000, 4)),
        ((OUT1, OUT0, FLIP, FLIP), 18, 7, None, (0b11010101, 7)),
    ],
)
def test_start_state_settle_at_its_budget_bounds(ops, max_steps, cap, settled, run):
    assert _settled_and_run(ops, (), max_steps, cap) == (settled, run)


@pytest.mark.parametrize("bits, steps, max_len", [(15, 200, 32), (18, 200, 24)])
def test_walk_matches_leaf_oracle_at_long_output_caps(monkeypatch, bits, steps, max_len):
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    assert enumerate_joint(bits, steps, max_len).table == oracle_joint(bits, steps, max_len)
    clear_memo()


# Names and bytes of the cache entries these two calls write: one per tape
# length the depth-3 check asks (0 to 4, each holding every tape of that
# length) and one joint file, hashed as name, NUL, bytes, NUL in name order.
PINNED_CACHE_NAMES = sorted(
    [f"{MACHINE_HASH[:12]}_joint_L6_S60_D6.json"]
    + [f"{MACHINE_HASH[:12]}_chron_L9_S200_T{t}.json" for t in range(5)]
)
PINNED_CACHE_SHA256 = "34d9708cdf7d99409297bd71f66c93b85e5bf67c3eb8e4aabc95791a6aee0fc6"
PINNED_JOINT_SHA256 = "275e767848cb298f672d015ac174457012dbf93368e8b52089d607f0f752fddb"


def _numerators(table, bits):
    """A cache file's table of integer numerators, as exact masses."""
    return {tuple(map(int, k)): F(n, 8 ** (bits // 3)) for k, n in table.items()}


def test_cache_files_match_the_leaf_enumerator(cache_dir):
    clear_memo()
    assert check_chronological(ChronEnumApprox(9, 200), 3).ok
    enumerate_joint(6, 60, max_len=6)
    clear_memo()
    names = sorted(p.name for p in cache_dir.iterdir())
    assert names == PINNED_CACHE_NAMES
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (cache_dir / name).read_bytes() + b"\0")
    assert digest.hexdigest() == PINNED_CACHE_SHA256
    joint = cache_dir / f"{MACHINE_HASH[:12]}_joint_L6_S60_D6.json"
    assert hashlib.sha256(joint.read_bytes()).hexdigest() == PINNED_JOINT_SHA256
    assert _numerators(json.loads(joint.read_text())["table"], 6) == oracle_joint(6, 60, 6)
    for t in range(5):
        path = cache_dir / f"{MACHINE_HASH[:12]}_chron_L9_S200_T{t}.json"
        payload = json.loads(path.read_text())
        tables = {
            tuple(map(int, tape)): _numerators(table, 9)
            for tape, table in payload["tables"].items()
        }
        assert set(tables) <= set(product((0, 1), repeat=t)), t
        for tape in product((0, 1), repeat=t):
            assert tables.get(tape, {}) == oracle_chron(9, 200, tape), tape


def record_walks(monkeypatch):
    """(length, walked from the root) of each call of the one walk, in
    order: the joint and played walks, which start at the root, and each
    length of a chronological walk, which starts at the root on its first
    length."""
    walks = []
    tables = utm._Walk.tables
    monkeypatch.setattr(
        utm._Walk, "tables", lambda self, t: walks.append((t, self.cap < 0)) or tables(self, t)
    )
    return walks


def forbid_walks(monkeypatch, why):
    """Fail the test if any walk, joint, played or chronological, starts."""
    monkeypatch.setattr(utm._Walk, "tables", lambda *args: pytest.fail(why))


def test_bits_past_the_last_whole_opcode_share_its_entries(cache_dir, monkeypatch):
    # 9 and 10 bits are the same machine: 3 opcodes, scale 8**3.
    walks = record_walks(monkeypatch)
    clear_memo()
    joint = [enumerate_joint(bits, 200, 4).table for bits in (9, 10)]
    chron = [check_chronological(ChronEnumApprox(bits, 200), 2) for bits in (9, 10)]
    primed = [enumerate_chron(bits, 200, (1, 0)).tables for bits in (9, 10, 11)]
    clear_memo()
    assert joint[0] == joint[1] and chron[0] == chron[1] and primed[0] == primed[1] == primed[2]
    # the joint table, tape lengths 0 to 3 in one walk, the primed tape
    assert walks == [(4, True), (0, True), (1, False), (2, False), (3, False), (2, True)]
    names = sorted(p.name.split("_", 1)[1] for p in cache_dir.iterdir())
    assert names == sorted(
        ["joint_L9_S200_D4.json"]
        + [f"chron_L9_S200_T{t}.json" for t in range(4)]
        + [f"chron_L9_S200_A{key}.json" for key in ("empty", "1", "10")]
    )
    payload = json.loads((cache_dir / f"{MACHINE_HASH[:12]}_joint_L9_S200_D4.json").read_text())
    assert payload["budgets"] == [9, 200, 4]
    assert _numerators(payload["table"], 10) == joint[1] == oracle_joint(10, 200, 4)


def test_clear_memo_forces_a_new_walk(monkeypatch):
    calls = record_walks(monkeypatch)
    clear_memo()
    approx = ChronEnumApprox(6, 60)
    approx.eval((0, 0), (1, 1))  # length 2: a walk from the root
    approx.eval((1, 0), (1, 0))  # same length: served by the same entry
    approx.eval((1, 0, 0), (1, 1, 0))  # length 3: resumes the length-2 walk
    enumerate_joint(6, 60, max_len=4)
    enumerate_joint(6, 60, max_len=4)
    assert calls == [(2, True), (3, False), (4, True)]
    clear_memo()
    ChronEnumApprox(6, 60).eval((0, 0, 0), (1, 1, 1))  # a new environment walks from the root
    enumerate_joint(6, 60, max_len=4)
    assert calls[3:] == [(3, True), (4, True)]
    clear_memo()


def test_walk_runs_no_segment_for_most_of_the_last_level(monkeypatch):
    # Every child takes its first step where its parent fetches, so only
    # the root and the JBACK children, back at pc 0, run a segment: 162
    # above the last level and 270 on it, where the other 454 of its 724
    # JBACK children return the run to its start state and settle by
    # shifts. The 1,310 children that used to run a segment for one step
    # (the OUTs, FLIP, SKIP0, READA and HALT, and the children a SKIP0
    # steps over) run none. A walk that interprets them again, or stops
    # settling the last level, shows here.
    calls = []
    run = utm._run_segment
    monkeypatch.setattr(utm, "_run_segment", lambda *args: calls.append(args) or run(*args))
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    enumerate_joint(15, 200, 16)
    assert len(calls) == 433
    clear_memo()


def test_played_walk_settles_its_last_level_along_the_tape(monkeypatch):
    # Along a played tape the last level settles as in the joint walk: of
    # its 1,282 JBACK children, which run in place, the 454 that JBACK
    # returns to the start state settle by shifts, and the other 828 run
    # capped at the tape's length. Above it only the 247 JBACK children
    # and the root run a segment: the 1,913 children that used to run one
    # for a single step, READA reading the tape among them, take it where
    # their parent fetches. A walk that pushed the last level's JBACK
    # children, ran them all, or interprets single steps again, shows here.
    calls = []
    run = utm._run_segment
    monkeypatch.setattr(utm, "_run_segment", lambda *args: calls.append(args) or run(*args))
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    enumerate_chron(15, 200, (1, 0, 1, 1, 0, 0))
    assert len(calls) == 1_076
    clear_memo()


@pytest.mark.parametrize("bits, depth, segments", [(12, 6, 5_485), (15, 5, 20_504)])
def test_chronological_check_runs_each_node_once(monkeypatch, bits, depth, segments):
    # The check asks tape lengths 0 to depth + 1 in turn, and one walk
    # serves them all: no node's segment (opcodes, start pc, actions
    # chosen) is interpreted twice, and the walk runs as many segments as
    # one walk from the root at the deepest length. Segments run from the
    # root, from JBACK children and from the branches past a READA that a
    # segment stopped at; the children that take one step where their
    # parent fetches, the two branches past a freshly fetched READA among
    # them, no longer reach the interpreter (467 and 3,174 fewer segments).
    starts = []
    run = utm._run_segment
    monkeypatch.setattr(
        utm, "_run_segment", lambda *args: starts.append((args[0], args[1], args[7])) or run(*args)
    )
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    assert check_chronological(ChronEnumApprox(bits, 200), depth).ok
    assert len(set(starts)) == len(starts) == segments
    clear_memo()


@pytest.mark.parametrize("bits, depth, records", [(12, 6, 2_671), (15, 5, 9_037)])
def test_chronological_check_parks_only_what_it_pops(monkeypatch, bits, depth, records):
    # The check asks no length past depth + 1, so its walk parks no run for
    # a longer one and pops every record it packs: a walk that did not know
    # its last length packed 5,275 and 18,499. A longer query after it
    # starts a new walk from the root and answers as a fresh environment.
    packed, popped = [], []
    pack, unpack = utm._pack, utm._unpack
    monkeypatch.setattr(utm, "_pack", lambda *args: packed.append(1) or pack(*args))
    monkeypatch.setattr(utm, "_unpack", lambda *args: popped.append(1) or unpack(*args))
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    approx = ChronEnumApprox(bits, 200)
    assert check_chronological(approx, depth).ok
    assert len(packed) == len(popped) == records
    tapes = list(product((0, 1), repeat=depth + 2))
    later = [approx.eval((1,) * (depth + 2), actions) for actions in tapes]
    clear_memo()
    fresh = ChronEnumApprox(bits, 200)
    assert later == [fresh.eval((1,) * (depth + 2), actions) for actions in tapes]
    assert {a: approx.tables[a] for a in tapes} == {a: fresh.tables[a] for a in tapes}
    clear_memo()


def _segment_start(ops, pc, reg, nread, reads):
    """Where a segment the walk runs starts: at the root, at a JBACK child,
    back at pc 0 when it runs, or on a branch past a READA that a segment
    stopped at, holding the action it read; else None."""
    if not ops:
        return "root"
    if pc == len(ops) - 1 and ops[pc] == JBACK:
        return "jback"
    if pc and ops[pc - 1] == READA and nread and reg == reads[nread - 1]:
        return "read"
    return None


@pytest.mark.parametrize(
    "walk, starts",
    [
        (lambda: enumerate_joint(15, 200, 16), {"root", "jback"}),
        (lambda: enumerate_chron(15, 200, (1, 0, 1, 1, 0, 0)), {"root", "jback"}),
        (lambda: check_chronological(ChronEnumApprox(12, 200), 6), {"root", "jback", "read"}),
    ],
    ids=["joint", "played", "chronological"],
)
def test_only_jumps_and_branches_reach_the_interpreter(monkeypatch, walk, starts):
    # Every other child takes its first step where its parent fetches: the
    # OUTs, FLIP, SKIP0, READA along a tape or branching with none, and
    # the children a SKIP0 steps over. A walk that hands one of them to the
    # interpreter again shows here.
    seen = []
    run = utm._run_segment

    def spy(ops, pc, reg, steps, code, n_out, nread, reads, max_steps, cap):
        seen.append(_segment_start(ops, pc, reg, nread, reads))
        return run(ops, pc, reg, steps, code, n_out, nread, reads, max_steps, cap)

    monkeypatch.setattr(utm, "_run_segment", spy)
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    walk()
    clear_memo()
    assert None not in seen and set(seen) == starts


def test_a_walk_cut_short_leaves_no_walk_behind(monkeypatch):
    # A walk that raises in the middle of a length leaves the environment
    # no walk to go on from: the next query walks from the root and answers
    # as the leaf oracle does, at that length and the next.
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    approx = ChronEnumApprox(9, 200)
    assert table_for(approx, (1, 0)) == oracle_chron(9, 200, (1, 0))
    walks = record_walks(monkeypatch)
    run, runs = utm._run_segment, []

    def cut_once(*args):
        runs.append(args)
        if len(runs) == 40:  # of the 45 segments the length-3 walk runs from length 2
            raise RuntimeError("cut short")
        return run(*args)

    monkeypatch.setattr(utm, "_run_segment", cut_once)
    with pytest.raises(RuntimeError, match="cut short"):
        table_for(approx, (1, 0, 1))
    for tape in product((0, 1), repeat=3):
        assert table_for(approx, tape) == oracle_chron(9, 200, tape), tape
    assert table_for(approx, (0, 1, 1, 0)) == oracle_chron(9, 200, (0, 1, 1, 0))
    assert walks == [(3, False), (3, True), (4, False)]
    clear_memo()


# Each damage turns a cache entry into a miss: recomputed, then rewritten.
CACHE_DAMAGE = {
    "bad_value": lambda payload: {**payload, "table": {k: "oops" for k in payload["table"]}},
    "table_is_list": lambda payload: {**payload, "table": list(payload["table"])},
    "payload_is_list": lambda payload: [payload],
    "non_digit_key": lambda payload: {**payload, "table": {"0x": "1/2", **payload["table"]}},
}


def _enumerate(kind):
    if kind == "joint":
        return enumerate_joint(6, 60, max_len=6).table
    return enumerate_chron(9, 200, (1, 0)).tables[(1, 0)]


@pytest.mark.parametrize("kind", ["joint", "chron"])
@pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
def test_damaged_cache_entry_is_recomputed(cache_dir, monkeypatch, kind, damage):
    clear_memo()
    monkeypatch.setenv(CACHE_ENV_VAR, "")  # the cache switched off
    expected = _enumerate(kind)
    clear_memo()
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
    _enumerate(kind)
    pattern = "*joint_L6_S60_D6.json" if kind == "joint" else "*chron_L9_S200_A10.json"
    (path,) = cache_dir.glob(pattern)
    good = path.read_text()
    path.write_text(json.dumps(CACHE_DAMAGE[damage](json.loads(good))))
    clear_memo()
    assert _enumerate(kind) == expected
    assert path.read_text() == good  # the damaged entry was rewritten
    clear_memo()


# The same damages, adapted to the nested ``tables`` of a per-length entry.
TABLES_DAMAGE = {
    "bad_value": lambda payload: {
        **payload,
        "tables": {a: {k: "oops" for k in t} for a, t in payload["tables"].items()},
    },
    "table_is_list": lambda payload: {
        **payload,
        "tables": {a: list(t) for a, t in payload["tables"].items()},
    },
    "tables_is_list": lambda payload: {**payload, "tables": list(payload["tables"].values())},
    "payload_is_list": lambda payload: [payload],
    "non_digit_key": lambda payload: {
        **payload,
        "tables": {a: {"0x": "1/2", **t} for a, t in payload["tables"].items()},
    },
    "non_digit_tape": lambda payload: {**payload, "tables": {"0x": {}, **payload["tables"]}},
}


def _length_two_tables():
    approx = ChronEnumApprox(9, 200)
    return {tape: table_for(approx, tape) for tape in product((0, 1), repeat=2)}


@pytest.mark.parametrize("damage", sorted(TABLES_DAMAGE))
def test_damaged_length_entry_is_recomputed(cache_dir, monkeypatch, damage):
    clear_memo()
    monkeypatch.setenv(CACHE_ENV_VAR, "")  # the cache switched off
    expected = _length_two_tables()
    assert expected == {tape: oracle_chron(9, 200, tape) for tape in expected}
    clear_memo()
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
    _length_two_tables()
    (path,) = cache_dir.glob("*chron_L9_S200_T2.json")
    good = path.read_text()
    path.write_text(json.dumps(TABLES_DAMAGE[damage](json.loads(good))))
    clear_memo()
    assert _length_two_tables() == expected
    assert path.read_text() == good  # the damaged entry was rewritten
    clear_memo()


def _fill_cache():
    """Every kind of cache entry at small budgets: a joint file, the
    per-length files of lengths 0 to 2 and the prefix files of a tape."""
    approx = ChronEnumApprox(9, 200)
    lengths = {tape: table_for(approx, tape) for t in range(3) for tape in product((0, 1), repeat=t)}
    return enumerate_joint(6, 60, max_len=6).table, lengths, enumerate_chron(9, 200, (1, 0)).tables


def _cache_bytes(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _tables_in(path):
    payload = json.loads(path.read_text())
    return [payload["table"]] if "table" in payload else list(payload["tables"].values())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_damaged_cache_file_is_a_miss(tmp_path_factory, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CACHE_ENV_VAR, "")
        clear_memo()
        expected = _fill_cache()
        cache_dir = tmp_path_factory.mktemp("cache")
        mp.setenv(CACHE_ENV_VAR, str(cache_dir))
        clear_memo()
        _fill_cache()
        good = _cache_bytes(cache_dir)
        name = data.draw(st.sampled_from(sorted(good)), label="file")
        raw = good[name]
        damage = data.draw(st.sampled_from(["flip", "truncate", "delete"]), label="damage")
        if damage == "flip":
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            mask = data.draw(st.integers(1, 255), label="mask")
            raw = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
        elif damage == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            payload = json.loads(raw)
            tables = [payload["table"]] if "table" in payload else list(payload["tables"].values())
            table = data.draw(st.sampled_from(tables), label="table")
            del table[data.draw(st.sampled_from(sorted(table)), label="entry")]
            raw = json.dumps(payload, sort_keys=True).encode()
        (cache_dir / name).write_bytes(raw)
        clear_memo()
        assert _fill_cache() == expected
        assert _cache_bytes(cache_dir) == good  # the damaged file was rewritten
        clear_memo()


def test_format_one_file_is_a_miss(cache_dir):
    clear_memo()
    good = enumerate_joint(6, 60, 4).table
    (path,) = cache_dir.glob("*joint_L6_S60_D4.json")
    written = path.read_text()
    payload = json.loads(written)
    # The same entry as format 1 wrote it: exact "num/den" strings, no checksum.
    old = {k: payload[k] for k in ("budgets", "machine")}
    old["format"] = 1
    old["table"] = {k: frac_str(F(n, 8**2)) for k, n in payload["table"].items()}
    path.write_text(json.dumps(old, sort_keys=True))
    clear_memo()
    assert enumerate_joint(6, 60, 4).table == good
    assert path.read_text() == written
    # A format-1 entry written while zero-bit runs still counted (mass 1 at
    # the empty output) is a miss as well, rewritten empty.
    stale = cache_dir / f"{MACHINE_HASH[:12]}_joint_L6_S0_D4.json"
    old = {"budgets": [6, 0, 4], "format": 1, "machine": MACHINE_HASH, "table": {"": "1/1"}}
    stale.write_text(json.dumps(old, sort_keys=True))
    clear_memo()
    assert enumerate_joint(6, 0, 4).table == {}
    assert json.loads(stale.read_text())["format"] == utm.CACHE_FORMAT == 2
    clear_memo()


# Values behind a matching checksum that are still no table of numerators.
FORGED = {
    "bool_value": lambda table: {**table, "0": True},
    "string_value": lambda table: {**table, "0": "17"},
    "float_value": lambda table: {**table, "0": 17.0},
    "negative_value": lambda table: {**table, "0": -17},
    "non_digit_key": lambda table: {**table, "0x": 1},
    "non_binary_key": lambda table: {**table, "2": 5},
    "table_is_list": lambda table: list(table.values()),
}


def _forge(path, field, change):
    """Rewrite the entry at ``path`` with ``change`` applied to its value,
    under the checksum of the changed value's bytes."""
    payload = json.loads(path.read_text())
    value = payload[field] = change(payload[field])
    payload["sha256"] = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
    path.write_text(json.dumps(payload, sort_keys=True))


@pytest.mark.parametrize("kind", ["joint", "length"])
@pytest.mark.parametrize("forge", sorted(FORGED))
def test_forged_checksum_over_a_bad_table_is_a_miss(cache_dir, kind, forge):
    read = (lambda: enumerate_joint(6, 60, max_len=6).table) if kind == "joint" else _length_two_tables
    clear_memo()
    expected = read()
    (path,) = cache_dir.glob("*joint_L6_S60_D6.json" if kind == "joint" else "*chron_L9_S200_T2.json")
    good = path.read_text()
    if kind == "joint":
        _forge(path, "table", FORGED[forge])
    else:
        _forge(path, "tables", lambda tables: {**tables, "01": FORGED[forge](tables["01"])})
    clear_memo()
    assert read() == expected
    assert path.read_text() == good
    clear_memo()


# Forged tape keys in place of "01": "2" names no tape, and ``int("1" + key,
# 2)`` would read "0 " as the tape "0" and "1_0" as the tape "10".
@pytest.mark.parametrize("key", ["2", "0 ", "1_0"])
def test_forged_checksum_over_a_non_binary_tape_is_a_miss(cache_dir, key):
    clear_memo()
    expected = _length_two_tables()
    (path,) = cache_dir.glob("*chron_L9_S200_T2.json")
    good = path.read_text()
    _forge(path, "tables", lambda tables: {k if k != "01" else key: t for k, t in tables.items()})
    clear_memo()
    assert _length_two_tables() == expected
    assert path.read_text() == good
    clear_memo()


def test_cache_files_are_what_json_dumps_writes(cache_dir):
    clear_memo()
    _fill_cache()
    for name, raw in _cache_bytes(cache_dir).items():
        payload = json.loads(raw)
        assert raw == json.dumps(payload, sort_keys=True).encode(), name
        field = list(payload)[-1]  # the value sorts last
        assert field in ("table", "tables"), name
        marker = f', "{field}": '.encode()
        body = raw[raw.index(marker) + len(marker) : -1]
        assert hashlib.sha256(body).hexdigest() == payload["sha256"], name
    clear_memo()


def test_warm_reads_walk_nothing_and_parse_no_strings(cache_dir, monkeypatch):
    clear_memo()
    cold = (
        enumerate_joint(9, 60, max_len=6).table,
        check_chronological(ChronEnumApprox(9, 200), 3),
        enumerate_chron(9, 200, (1, 0, 1)).tables,
    )
    forbid_walks(monkeypatch, "walked on a warm read")
    clear_memo()
    warm = (
        enumerate_joint(9, 60, max_len=6).table,
        check_chronological(ChronEnumApprox(9, 200), 3),
        enumerate_chron(9, 200, (1, 0, 1)).tables,
    )
    assert warm == cold
    paths = list(cache_dir.iterdir())
    assert len(paths) == 1 + 5 + 4
    for path in paths:
        for table in _tables_in(path):
            assert {type(n) for n in table.values()} <= {int}, path.name
    clear_memo()


def test_counting_and_listing_tapes_builds_no_fraction(monkeypatch):
    # perfbench/tracer.py counts an environment's tapes before and after
    # every eval: the view counts and lists them with no mass built.
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    approx = ChronEnumApprox(15, 200)
    assert check_chronological(approx, 5).ok
    with monkeypatch.context() as patch:
        patch.setattr(utm, "Fraction", lambda *args: pytest.fail("built a Fraction"))
        assert len(approx.tables) == 127
        assert list(approx.tables) == list(tapes_upto(6))
    assert sum(len(table) for table in approx.tables.values()) == 5257
    clear_memo()


def test_views_find_what_a_dict_of_their_keys_would():
    # Keys equal to a binary string find it, as in a dict; others, such as
    # (10,), whose digits are those of (1, 0), find nothing.
    clear_memo()
    table = enumerate_joint(6, 60, 4).table
    tables = enumerate_chron(9, 200, (1, 0)).tables
    assert table[(1, 0)] == table[(True, 0.0)] == oracle_joint(6, 60, 4)[(1, 0)]
    assert tables[(1,)] == tables[(True,)] == oracle_chron(9, 200, (1,))
    for key in [(10,), (2,), ("1", "0"), "10", 10, None]:
        assert key not in table and key not in tables, key
    clear_memo()


@pytest.mark.parametrize("steps", [0, 1, 5, 60, 200])
@pytest.mark.parametrize("bits", [0, 3, 6, 9, 12, 15])
def test_resumed_walk_matches_leaf_oracle(cache_dir, monkeypatch, bits, steps):
    expected = {tape: oracle_chron(bits, steps, tape) for tape in tapes_upto(6)}
    ascending = list(expected)
    shuffled = ascending[:]
    random.Random(100 * bits + steps).shuffle(shuffled)

    def check(sequence, clear_between_lengths=False):
        approx = ChronEnumApprox(bits, steps)
        for tape in sequence:
            if clear_between_lengths and tape == (0,) * len(tape):
                clear_memo()
            assert table_for(approx, tape) == expected[tape], tape
        assert list(approx.tables) == sequence  # only the requested tapes
        clear_memo()

    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    check(ascending)
    check(ascending[::-1])
    check(shuffled)
    check(ascending, clear_between_lengths=True)
    # A cache that holds lengths 1, 3 and 4 only: lengths 0, 2 and 5 walk
    # from the root, 6 resumes 5, and the rest are read from disk.
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
    for t in (1, 3, 4):
        table_for(ChronEnumApprox(bits, steps), (0,) * t)
        clear_memo()
    assert len(list(cache_dir.iterdir())) == 3
    check(ascending)
    assert len(list(cache_dir.iterdir())) == 7


def test_enumerate_chron_rejects_non_binary_actions():
    with pytest.raises(ComponentFormatError, match="actions"):
        enumerate_chron(6, 60, (2,))
    with pytest.raises(ComponentFormatError, match="actions"):
        enumerate_chron(6, 60, (1, 0, -1))


@pytest.mark.parametrize(
    "bad", [[2], ["1"], [True], [1.0], [0, -1], 5], ids=["two", "str", "bool", "float", "neg", "int"]
)
def test_programs_and_action_tapes_are_bits_by_one_rule(bad):
    # [2] and ['1'] once escaped from run_program as IndexError and TypeError,
    # [True] and [1.0] were read as bits, and enumerate_chron keyed its tables
    # by (True,). Each refusal names the sequence that failed.
    program = bad * 6 if isinstance(bad, list) else bad
    for call, what in (
        (lambda: run_program(program), "program"),
        (lambda: run_program(PROGRAM_ECHO, actions=bad), "run_program's actions"),
        (lambda: enumerate_chron(6, 60, bad), "enumerate_chron's actions"),
    ):
        with pytest.raises(ComponentFormatError, match=f"^{what} must be"):
            call()
    assert run_program([0, 1, 1, 0, 1, 0, 1, 1, 0], [1, 0]) == run_program(PROGRAM_ECHO, (1, 0))


def test_negative_program_bits_rejected():
    with pytest.raises(ComponentFormatError, match="program_bits"):
        enumerate_joint(-3, 60, max_len=4)
    with pytest.raises(ComponentFormatError, match="program_bits"):
        ChronEnumApprox(-3, 60).eval((), ())
    with pytest.raises(ComponentFormatError, match="program_bits"):
        enumerate_chron(-1, 60, (1,))


def test_negative_steps_rejected_before_any_walk(cache_dir, monkeypatch):
    forbid_walks(monkeypatch, "walked")
    clear_memo()
    for build in (
        lambda: enumerate_joint(6, -5, 4),
        lambda: ChronEnumApprox(6, -5),
        lambda: enumerate_chron(6, -1, (1,)),
    ):
        with pytest.raises(ComponentFormatError, match="steps"):
            build()
    assert list(cache_dir.iterdir()) == []
    assert not utm._MEMO


def test_zero_steps_give_the_empty_enumeration(monkeypatch):
    # Every run stops at the step limit before its first fetch: zero bits.
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    clear_memo()
    assert enumerate_joint(6, 0, 4).table == {}
    assert enumerate_joint(0, 0, 4).table == {}
    approx = ChronEnumApprox(6, 0)
    assert approx.eval((), ()) == 0 and approx.eval((0,), (1,)) == 0
    assert enumerate_chron(6, 0, (1, 0)).tables == {(): {}, (1,): {}, (1, 0): {}}
    clear_memo()


def test_negative_max_len_rejected_before_any_walk(cache_dir, monkeypatch):
    forbid_walks(monkeypatch, "walked")
    clear_memo()
    with pytest.raises(ComponentFormatError, match="max_len"):
        enumerate_joint(6, 60, -1)
    assert list(cache_dir.iterdir()) == []
    assert not utm._MEMO


def test_packed_nodes_pop_back_in_reverse_order():
    # (ops, pc, reg, steps, output code, output length, actions read, actions chosen)
    nodes = [
        ((), 0, 0, 0, 1, 0, 0, ()),
        ((3, 7, 0), 2, 1, 255, 0b110, 2, 1, (1,)),
        ((1, 2, 3, 4, 5, 6, 7), 7, 0, 70_000, 2**9, 9, 3, (1, 1, 0)),
        ((6, 5, 4), 1, 1, 256, 2**72 + 0b101, 72, 2, (0, 1)),
    ]
    # each field at its bound: 7 opcodes, 70,000 steps, a 72-symbol code
    record = utm._record(7, 70_000, 72)
    stopped = bytearray()
    for node in nodes:
        utm._pack(stopped, record, node)
    assert len(stopped) == 4 * record[0].size
    assert [utm._unpack(stopped, record) for _ in nodes] == nodes[::-1]
    assert stopped == bytearray()


# The variable-length packing the fixed-width records replaced, kept frozen:
# opcodes, actions, the code's and the step count's bytes, then a trailer of
# pc, reg and the four lengths.
def frozen_pack(stopped, node):
    ops, pc, reg, steps, code, _, _, reads = node
    code_bytes = code.to_bytes((code.bit_length() + 7) // 8, "little")
    step_bytes = steps.to_bytes((steps.bit_length() + 7) // 8, "little")
    stopped += bytes(ops + reads)
    stopped += code_bytes
    stopped += step_bytes
    stopped += bytes((pc, reg, len(ops), len(reads), len(code_bytes), len(step_bytes)))


def frozen_unpack(stopped):
    pc, reg, n_ops, n_reads, n_code, n_steps = stopped[-6:]
    start = len(stopped) - 6 - n_ops - n_reads - n_code - n_steps
    body = bytes(stopped[start:-6])
    del stopped[start:]
    code_at = n_ops + n_reads
    steps_at = code_at + n_code
    code = int.from_bytes(body[code_at:steps_at], "little")
    return (
        tuple(body[:n_ops]),
        pc,
        reg,
        int.from_bytes(body[steps_at:], "little"),
        code,
        code.bit_length() - 1,
        n_reads,
        tuple(body[n_ops:code_at]),
    )


@pytest.mark.parametrize("steps", [60, 200, 1000])
@pytest.mark.parametrize("bits", [6, 9, 12, 15])
def test_records_pop_the_nodes_the_frozen_packing_round_trips(monkeypatch, bits, steps):
    # One chronological walk at lengths 0 to 6, each going on from the
    # last. Every record it parks pops the node packed there as the frozen
    # packing gives it back, in the same order: those popped during the
    # walk, and those still parked after it. No record waits for a length
    # already walked.
    mirrors = {}  # id of the records -> (the records, the same nodes packed frozen)
    pack, unpack = utm._pack, utm._unpack
    checked = 0

    def mirrored_pack(stopped, record, node):
        frozen_pack(mirrors.setdefault(id(stopped), (stopped, bytearray()))[1], node)
        pack(stopped, record, node)

    def checked_unpack(stopped, record):
        nonlocal checked
        node = unpack(stopped, record)
        assert node == frozen_unpack(mirrors[id(stopped)][1])
        checked += 1
        return node

    monkeypatch.setattr(utm, "_pack", mirrored_pack)
    monkeypatch.setattr(utm, "_unpack", checked_unpack)
    walker = utm._Walk(bits // 3, steps)
    for cap in range(7):
        walker.tables(cap)
        assert walker.cap == cap and all(length > cap for length in walker.parked), cap
    for length, stopped in walker.parked.items():
        records, record = bytearray(stopped), utm._record(bits // 3, steps, length)
        frozen = bytearray(mirrors[id(stopped)][1])
        assert len(records) % record[0].size == 0, length
        while records:
            assert unpack(records, record) == frozen_unpack(frozen), length
            checked += 1
        assert not frozen, length
    assert checked >= 4  # 6 bits park four nodes
