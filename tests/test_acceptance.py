"""Acceptance suite: one test per criterion, exact tolerances, timed gates.

Every criterion prints one PASS/FAIL line (run with `pytest -s` to see them
on success). All comparisons are exact rational arithmetic; the only
tolerances are the two runtime ceilings stated by criteria 1 and 4.
"""
import time
from fractions import Fraction
from itertools import product

import pytest

from uailab.adversary import copy_conditional_trace, domination_probe, greedy_antipredict
from uailab.agents import brute_force_action, expectimax_action
from uailab.core import EMPTY_HISTORY, History
from uailab.experiments import (
    ScenarioConfig,
    _conditional_stats,
    builtin_components,
    load_derived,
    pair_scenarios,
    run_scenario,
    scenario_mixtures,
)
from uailab.mixture import check_predictive_consistency
from uailab.semimeasure import (
    JointSemimeasure,
    check_chronological,
    check_semimeasure,
)
from uailab.transforms import (
    check_env_dual_roundtrip,
    check_representation_roundtrip,
    env,
    factoring_check,
    normalize,
)
from uailab.utm import (
    ChronEnumApprox,
    enumerate_chron,
    enumerate_joint,
    run_program,
    PROGRAM_COMPLEMENT,
    PROGRAM_CONST0,
    PROGRAM_ECHO,
)

F = Fraction


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_definitional_invariants():
    start = time.monotonic()
    failures = []

    subjects = list(builtin_components().items())
    for mdef in scenario_mixtures().values():
        if mdef.joint is not None:
            subjects.append((f"{mdef.name}:joint", mdef.joint))
        if mdef.chron is not None:
            subjects.append((f"{mdef.name}:env", mdef.chron))
    subjects.append(
        ("normalized:copy_vs_uniform", normalize(scenario_mixtures()["copy_vs_uniform"].joint))
    )
    for name, component in subjects:
        if isinstance(component, JointSemimeasure):
            rep = check_semimeasure(component, 6)
        else:
            rep = check_chronological(component, 6)
        if not rep.ok or rep.declaration_verified is False:
            failures.append(name)

    for bits, steps in ((3, 60), (6, 60), (6, 200), (9, 200), (10, 200)):
        if not check_semimeasure(enumerate_joint(bits, steps, max_len=8), 6).ok:
            failures.append(f"enum_joint L={bits} S={steps}")
        if not check_chronological(ChronEnumApprox(bits, steps), 6).ok:
            failures.append(f"enum_chron L={bits} S={steps}")

    elapsed = time.monotonic() - start
    report(
        "1 (definitional invariant suite)",
        not failures and elapsed < 300,
        f"subjects={len(subjects)}+10 enum budgets, {elapsed:.1f}s"
        + (f", failures={failures}" if failures else ""),
    )


def test_criterion_2_transform_identities():
    from uailab.semimeasure import (
        NoisyCopyEnv,
        complement_env,
        constant_policy,
        mu_id,
        uniform_env,
        uniform_policy,
    )

    failures = []
    pairs = [
        (mu_id(), uniform_policy()),
        (uniform_env(), uniform_policy()),
        (NoisyCopyEnv(F(3, 4), F(1, 4)), uniform_policy()),
        (complement_env(), uniform_policy()),
        (mu_id(), constant_policy(1)),
    ]
    for nu, pi in pairs:
        mismatches, _ = check_env_dual_roundtrip(nu, pi, 5)
        if mismatches:
            failures.append(f"env_dual {type(nu).__name__}")
    for nu in (mu_id(), uniform_env(), NoisyCopyEnv(F(3, 4), F(1, 4))):
        for filler in (None, (F(1, 3), F(2, 3))):
            mismatches, _ = check_representation_roundtrip(nu, filler, 5)
            if mismatches:
                failures.append(f"representation {type(nu).__name__}")

    for pair in pair_scenarios().values():
        rep = factoring_check(
            pair.envs, pair.env_weights, pair.policies, pair.policy_weights, 5
        )
        if not rep.ok:
            failures.append(f"factoring {pair.name}")
    hetero = pair_scenarios()["hetero_pair"]
    non_factored = factoring_check(
        hetero.envs,
        hetero.env_weights,
        hetero.policies,
        hetero.policy_weights,
        5,
        pair_weights={(0, 0): F(1, 2), (1, 1): F(1, 2)},
    )
    if not non_factored.env_mismatches:
        failures.append("non-factored counterexample produced no witness")

    report("2 (transform identities, depth 5, exact)", not failures, str(failures))


def test_criterion_3_predictive_posterior_consistency():
    failures = []
    for mdef in scenario_mixtures().values():
        if mdef.joint is None:
            continue
        mismatches = check_predictive_consistency(mdef.joint, 4)
        if mismatches:
            failures.append((mdef.name, mismatches[0]))
    report("3 (predictive equals posterior-weighted conditionals, depth 4)", not failures, str(failures))


def test_criterion_4_expectimax_oracle_equivalence():
    from uailab.semimeasure import ChronEnv, NoisyCopyEnv, mu_id, uniform_env

    class MemoEnv(ChronEnv):
        def __init__(self, base):
            self.base = base
            self.action_arity = base.action_arity
            self.percept_arity = base.percept_arity
            self.memo = {}

        def eval(self, percepts, actions):
            key = (tuple(percepts), tuple(actions))
            if key not in self.memo:
                self.memo[key] = self.base.eval(*key)
            return self.memo[key]

    start = time.monotonic()
    beliefs = {
        "mu_id": mu_id(),
        "uniform_env": uniform_env(),
        "noisy_copy": NoisyCopyEnv(F(3, 4), F(1, 4)),
    }
    for mdef in scenario_mixtures().values():
        if mdef.joint is not None:
            beliefs[f"env({mdef.name})"] = env(mdef.joint)
        if mdef.chron is not None:
            beliefs[f"chron({mdef.name})"] = mdef.chron

    histories = [EMPTY_HISTORY]
    frontier = [EMPTY_HISTORY]
    for _ in range(2):
        frontier = [h.child(a, e) for h in frontier for a in (0, 1) for e in (0, 1)]
        histories.extend(frontier)

    disagreements = []
    for name, belief in beliefs.items():
        shared = MemoEnv(belief)
        for h in histories:
            for m in (1, 2, 3):
                got = expectimax_action(shared, h, m)
                want = brute_force_action(shared, h, m)
                if got != want:
                    disagreements.append((name, h, m, got, want))
    elapsed = time.monotonic() - start
    report(
        "4 (expectimax vs brute-force policy enumeration)",
        not disagreements and elapsed < 120,
        f"{len(beliefs)} beliefs x {len(histories)} histories x m<=3, {elapsed:.1f}s"
        + (f", disagreements={disagreements[:3]}" if disagreements else ""),
    )


def test_criterion_5_theorem8_gap():
    derived = load_derived("thm8_gap")
    mixtures = scenario_mixtures()["adversary_rich"]
    joint, chron = mixtures.joint, mixtures.chron
    w_id = F(derived["w_id"])
    recorded_T = int(derived["T"])
    trace = greedy_antipredict(joint, len(derived["trace"]))

    # Exhaustive floor: every action sequence to depth 5, not just the trace.
    floor_ok = True
    for t in range(6):
        for seq in product((0, 1), repeat=t):
            if chron.eval(seq, seq) < w_id:
                floor_ok = False
    ratios = []
    drop_step = None
    live_rows = []
    for step in trace.steps:
        played = trace.actions[: step.t]
        env_side = chron.eval(played, played)
        floor_ok = floor_ok and env_side >= w_id
        ratios.append(env_side / step.cumulative)
        if drop_step is None and step.cumulative < w_id:
            drop_step = step.t
        live_rows.append(
            {
                "t": step.t,
                "action": step.action,
                "conditional": f"{step.conditional.numerator}/{step.conditional.denominator}",
                "joint_view_product": f"{step.cumulative.numerator}/{step.cumulative.denominator}",
                "env_view_value": f"{env_side.numerator}/{env_side.denominator}",
                "ratio": f"{ratios[-1].numerator}/{ratios[-1].denominator}",
            }
        )
    strictly_increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    matches_committed = live_rows == derived["trace"]
    ok = (
        floor_ok
        and recorded_T <= 30
        and drop_step is not None
        and drop_step <= recorded_T
        and strictly_increasing
        and matches_committed
    )
    report(
        "5 (Theorem 8 finite shadow)",
        ok,
        f"w_id={derived['w_id']} floor={floor_ok}, drop at t={drop_step} (T={recorded_T}), "
        f"ratio strictly increasing={strictly_increasing}, committed match={matches_committed}",
    )


def test_criterion_6_theorem10_11_convergence():
    derived = load_derived("thm11_convergence")
    n = int(derived["sequence_length"])
    epsilon = F(derived["epsilon"])
    t_star = int(derived["t_star"])
    threshold = 1 - epsilon

    main = scenario_mixtures()["learnable_deterministic"].joint
    walks = [_conditional_stats(main, kind, n, True) for kind in ("identity", "complement")]
    mins = list(map(min, *(walk_mins for walk_mins, _ in walks)))
    bound_ok = all(m > threshold for m in mins[t_star - 1 :])
    committed_ok = [f"{m.numerator}/{m.denominator}" for m in mins] == derived["min_conditionals"]

    contrast = scenario_mixtures()["halting_contrast"].joint
    _, raw_maxs = _conditional_stats(contrast, "identity", n, False)
    contrast_fails_bound = all(m <= threshold for m in raw_maxs[t_star - 1 :])

    # Theorem 10 shadow: normalized copy-structure trace strictly increases.
    thm10 = load_derived("thm10_normalized")
    actions = tuple(int(c) for c in thm10["actions"])
    hat = normalize(scenario_mixtures()["copy_vs_uniform"].joint)
    conds = [s.conditional for s in copy_conditional_trace(hat, actions).steps]
    trace_ok = (
        [f"{c.numerator}/{c.denominator}" for c in conds] == thm10["main_conditionals"]
        and all(b > a for a, b in zip(conds, conds[1:]))
    )

    ok = t_star <= 10 and bound_ok and committed_ok and contrast_fails_bound and trace_ok
    report(
        "6 (Theorem 10/11 finite shadow)",
        ok,
        f"all 2^{n} sequences x 2 deterministic envs exceed 1-{derived['epsilon']} from "
        f"t*={t_star}; unnormalized contrast stays below; committed match={committed_ok}",
    )


def test_criterion_7_utm_lower_approximation():
    failures = []

    tables = {bits: enumerate_joint(bits, 200, max_len=8).table for bits in range(0, 11)}
    for bits in range(0, 10):
        lo, hi = tables[bits], tables[bits + 1]
        for key in set(lo) | set(hi):
            if not lo.get(key, F(0)) <= hi.get(key, F(0)):
                failures.append(f"L-monotonicity at L={bits} {key}")
    for s_lo, s_hi in ((0, 60), (60, 200)):
        lo = enumerate_joint(9, s_lo, max_len=8).table
        hi = enumerate_joint(9, s_hi, max_len=8).table
        for key in set(lo) | set(hi):
            if not lo.get(key, F(0)) <= hi.get(key, F(0)):
                failures.append(f"S-monotonicity at S={s_lo} {key}")
    for bits, table in tables.items():
        if table.get((), F(0)) > 1:
            failures.append(f"root mass at L={bits}")

    # Program shadows at their frozen lengths: constant (6 bits), echo
    # (9 bits), complement (12 bits).
    const_out = run_program(PROGRAM_CONST0, max_steps=200).output
    joint = enumerate_joint(6, 200, max_len=8)
    for cut in range(9):
        if joint.eval(const_out[:cut]) < F(1, 2) ** 6:
            failures.append(f"const0 shadow at {cut}")
    echo_tape = (1, 0, 1, 1)
    chron9 = enumerate_chron(9, 200, echo_tape)
    for t in range(1, len(echo_tape) + 1):
        if chron9.eval(echo_tape[:t], echo_tape[:t]) < F(1, 2) ** 9:
            failures.append(f"echo shadow at t={t}")
    comp_tape = (1, 0, 1)
    chron12 = enumerate_chron(12, 200, comp_tape)
    for t in range(1, len(comp_tape) + 1):
        flipped = tuple(1 - a for a in comp_tape[:t])
        if chron12.eval(flipped, comp_tape[:t]) < F(1, 2) ** 12:
            failures.append(f"complement shadow at t={t}")

    report("7 (machine lower-approximation properties)", not failures, str(failures[:5]))


def test_criterion_8_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_scenario(ScenarioConfig("thm10_normalized", out)) == 0
    identical = True
    for name in sorted(p.name for p in out_a.glob("*.csv")):
        identical = identical and (out_a / name).read_bytes() == (out_b / name).read_bytes()

    jobs_a, jobs_b = tmp_path / "j1", tmp_path / "j4"
    assert run_scenario(ScenarioConfig("thm11_convergence", jobs_a, jobs=1)) == 0
    assert run_scenario(ScenarioConfig("thm11_convergence", jobs_b, jobs=4)) == 0
    for name in sorted(p.name for p in jobs_a.glob("*.csv")):
        identical = identical and (jobs_a / name).read_bytes() == (jobs_b / name).read_bytes()

    def body(path):
        lines = (path / "summary.txt").read_text().splitlines()
        return "\n".join(lines[1:])  # first line is the timestamped header

    identical = identical and body(out_a) == body(out_b)
    identical = identical and body(jobs_a) == body(jobs_b)
    report("8 (byte-identical reruns and parallelism degrees 1 vs 4)", identical)
