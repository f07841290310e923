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

from uailab.core import ONE, frac_str
from uailab.experiments import (
    convergence_stats,
    gap_entry,
    gap_rows,
    normalized_traces,
    scenario_mixtures,
)

F = Fraction
OUT = Path(__file__).resolve().parent.parent / "src" / "uailab" / "data" / "derived"


def derive_thm8(trace_steps: int = 20) -> dict:
    mdef = scenario_mixtures()["adversary_rich"]
    w_id = mdef.chron.weights[list(mdef.chron.names).index("mu_id")]
    trace, rows = gap_rows(mdef, trace_steps)
    assert not trace.truncated, "oracle trace must not truncate"
    for step, env_side, _ in rows:
        assert env_side >= w_id, f"identity floor violated at t={step.t}"
    ratios = [ratio for _, _, ratio in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:])), "ratio not strictly increasing"
    T = next((step.t for step, _, _ in rows if step.cumulative < w_id), None)
    assert T is not None and T <= 30, f"drop below w_id not reached by step 30 (T={T})"
    return {
        "mixture": "adversary_rich",
        "w_id": frac_str(w_id),
        "T": T,
        "trace": [gap_entry(*row) for row in rows],
    }


def derive_thm10(length: int = 8) -> dict:
    actions = (1,) * length
    main_trace, raw, hat = normalized_traces(scenario_mixtures(), actions)
    conds = [s.conditional for s in main_trace.steps]
    assert all(b > a for a, b in zip(conds, conds[1:])), "main trace must increase"

    bound = F(3, 4)
    assert all(s.conditional < bound for s in raw.steps), "contrast must stay below 3/4"

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
    (mins, _), (_, raw_maxs) = convergence_stats(scenario_mixtures(), n)
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
