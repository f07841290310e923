#!/usr/bin/env python3
"""Oracle run: derive and commit the expected artifacts for the gap and
convergence scenarios.

This script is the pre-registered derivation of every threshold the
acceptance suite asserts: it computes them by direct exact evaluation and
writes them to src/uailab/data/derived/*.json. Re-running it must reproduce
the committed files byte for byte; the scenarios then re-verify their live
runs against these values.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uailab.adversary import copy_conditional_trace, greedy_antipredict
from uailab.core import ONE, frac_str
from uailab.experiments import _conditional_stats, scenario_mixtures
from uailab.transforms import env, normalize

F = Fraction
OUT = Path(__file__).resolve().parent.parent / "src" / "uailab" / "data" / "derived"


def derive_thm8(trace_steps: int = 20) -> dict:
    mixtures = scenario_mixtures()["adversary_rich"]
    joint, chron = mixtures.joint, mixtures.chron
    w_id = chron.weights[list(chron.names).index("mu_id")]
    trace = greedy_antipredict(joint, trace_steps)
    assert not trace.truncated, "oracle trace must not truncate"
    entries = []
    previous_ratio = None
    T = None
    for step in trace.steps:
        played = trace.actions[: step.t]
        env_side = chron.eval(played, played)
        assert env_side >= w_id, f"identity floor violated at t={step.t}"
        ratio = env_side / step.cumulative
        assert previous_ratio is None or ratio > previous_ratio, (
            f"ratio not strictly increasing at t={step.t}"
        )
        previous_ratio = ratio
        if T is None and step.cumulative < w_id:
            T = step.t
        entries.append(
            {
                "t": step.t,
                "action": step.action,
                "conditional": frac_str(step.conditional),
                "joint_view_product": frac_str(step.cumulative),
                "env_view_value": frac_str(env_side),
                "ratio": frac_str(ratio),
            }
        )
    assert T is not None and T <= 30, f"drop below w_id not reached by step 30 (T={T})"
    return {
        "mixture": "adversary_rich",
        "w_id": frac_str(w_id),
        "T": T,
        "trace": entries,
    }


def derive_thm10(length: int = 8) -> dict:
    actions = (1,) * length
    main = normalize(scenario_mixtures()["copy_vs_uniform"].joint)
    main_trace = copy_conditional_trace(main, actions)
    conds = [s.conditional for s in main_trace.steps]
    assert all(b > a for a, b in zip(conds, conds[1:])), "main trace must increase"

    contrast = scenario_mixtures()["halting_contrast"].joint
    bound = F(3, 4)
    raw = copy_conditional_trace(contrast, actions)
    assert all(s.conditional < bound for s in raw.steps), "contrast must stay below 3/4"

    hat = copy_conditional_trace(normalize(contrast), actions)
    floor = bound  # normalization must lift the same mixture above the raw bound
    floor_step = next(s.t for s in hat.steps if s.conditional > floor)
    assert all(s.conditional > floor for s in hat.steps if s.t >= floor_step)
    return {
        "actions": "".join(str(a) for a in actions),
        "main_conditionals": [frac_str(c) for c in conds],
        "contrast_bound": frac_str(bound),
        "normalized_contrast_floor": frac_str(floor),
        "normalized_contrast_step": floor_step,
    }


def derive_thm11(n: int = 10) -> dict:
    main = scenario_mixtures()["learnable_deterministic"].joint
    [(mins, _)] = _conditional_stats([(main, ("identity", "complement"), True)], n, jobs=1)
    t_star = None
    epsilon = None
    for eps in (F(1, 32), F(1, 16), F(1, 8)):
        threshold = ONE - eps
        for t in range(1, n + 1):
            if all(m > threshold for m in mins[t - 1 :]):
                t_star, epsilon = t, eps
                break
        if t_star is not None:
            break
    assert t_star is not None and t_star <= 10, f"no (epsilon, t*) with t* <= 10 (mins={mins})"

    contrast = scenario_mixtures()["halting_contrast"].joint
    [(_, raw_maxs)] = _conditional_stats([(contrast, ("identity",), False)], n, jobs=1)
    assert all(m <= ONE - epsilon for m in raw_maxs[t_star - 1 :]), (
        "contrast must fail the bound at every step from t*"
    )
    return {
        "mixture": "learnable_deterministic",
        "sequence_length": n,
        "epsilon": frac_str(epsilon),
        "t_star": t_star,
        "min_conditionals": [frac_str(m) for m in mins],
    }


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, payload in (
        ("thm8_gap", derive_thm8()),
        ("thm10_normalized", derive_thm10()),
        ("thm11_convergence", derive_thm11()),
    ):
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
