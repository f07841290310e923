import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from uailab import utm
from uailab.core import ComponentFormatError
from uailab.semimeasure import check_chronological, check_semimeasure
from uailab.utm import (
    CACHE_ENV_VAR,
    MACHINE_DEFINITION,
    MACHINE_HASH,
    PROGRAM_COMPLEMENT,
    PROGRAM_CONST0,
    PROGRAM_ECHO,
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


def test_eval_at_budget_monotone_with_limit():
    approx = enumerate_joint(6, 50, max_len=6)
    for x in [(), (0,), (0, 0), (1, 1)]:
        values = [approx.eval_at_budget(x, k) for k in (0, 3, 6, 20, 50, 100)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == approx.eval(x)


def test_eval_beyond_recorded_depth_raises():
    approx = enumerate_joint(6, 50, max_len=4)
    with pytest.raises(ComponentFormatError):
        approx.eval((0,) * 5)


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


def test_bad_program_strings_rejected():
    with pytest.raises(ComponentFormatError):
        run_program("01a")
    with pytest.raises(ComponentFormatError):
        run_program([0, 2])


# ---------------------------------------------------------------------------
# Reference oracle: the per-leaf enumerator the walk replaced, kept frozen.
# It lists every counted run, then adds 2^-(bits) per leaf and output prefix.
# ---------------------------------------------------------------------------


def oracle_leaves(max_ops, max_steps, tape, max_output):
    leaves = []
    stack = [((), 0, 0, 0, (), 0)]
    while stack:
        ops, pc, reg, steps, out, nread = stack.pop()
        buf = list(out)
        status, pc2, reg2, steps2, nread2 = utm._run_segment(
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
        else:
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


def tapes_upto(n):
    for t in range(n + 1):
        yield from product((0, 1), repeat=t)


@pytest.mark.parametrize("steps", [0, 1, 5, 60, 200])
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
        assert approx._table_for(tape) == table, tape
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
        assert approx._table_for(tape) == oracle_chron(15, 200, tape), tape
    clear_memo()
    primed = enumerate_chron(15, 200, (1, 0, 1))
    for t in range(4):
        assert primed.tables[(1, 0, 1)[:t]] == approx.tables[(1, 0, 1)[:t]]
    clear_memo()


# Names and bytes the per-leaf enumerator wrote for these two calls: a file
# per requested tape (the depth-3 check also asks length-4 tapes) and one
# joint file, hashed as name, NUL, bytes, NUL in name order.
PINNED_CACHE_NAMES = sorted(
    [f"{MACHINE_HASH[:12]}_joint_L6_S60_D6.json"]
    + [
        f"{MACHINE_HASH[:12]}_chron_L9_S200_A{''.join(map(str, tape)) or 'empty'}.json"
        for tape in tapes_upto(4)
    ]
)
PINNED_CACHE_SHA256 = "0c745a575764b8c0451036e191363ed3f7116c388508f45b5def2ab6317ceeb1"


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


def test_clear_memo_forces_a_new_walk(monkeypatch):
    calls = []
    walk = utm._walk
    monkeypatch.setattr(utm, "_walk", lambda *args: calls.append(args) or walk(*args))
    clear_memo()
    approx = ChronEnumApprox(6, 60)
    approx.eval((0, 0), (1, 1))
    approx.eval((1, 0), (1, 0))  # same length: served by the same walk
    enumerate_joint(6, 60, max_len=4)
    enumerate_joint(6, 60, max_len=4)
    assert len(calls) == 2
    clear_memo()
    ChronEnumApprox(6, 60).eval((0, 0), (1, 1))
    enumerate_joint(6, 60, max_len=4)
    assert len(calls) == 4
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
