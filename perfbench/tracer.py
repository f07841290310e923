"""Spans and counters for the traced benchmark run.

The tracer instruments uailab from outside. ``install`` rebinds each traced
function in every loaded ``uailab`` module that holds it, so calls made
inside the library go through the wrapper too, and replaces the traced
methods and properties on their classes. ``uninstall`` restores every
original binding.

Coarse public calls get spans (name, start, end, parent span, unit id).
Per-node ``eval`` calls get counters only, because they run millions of
times per pass. ``ChronEnumApprox.eval`` is the exception: its first call
for each action tape runs an enumeration, so it gets a span; only the spans
that grew the tape table are kept in the span list, the rest are aggregated.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, function, span category)
FUNCTION_SPANS = (
    ("semimeasure", "check_semimeasure", "semimeasure.check"),
    ("semimeasure", "check_chronological", "semimeasure.check"),
    ("semimeasure", "check_policy", "semimeasure.check"),
    ("mixture", "check_predictive_consistency", "mixture.consistency"),
    ("transforms", "factoring_check", "transforms.identity_check"),
    ("transforms", "check_env_dual_roundtrip", "transforms.identity_check"),
    ("transforms", "check_representation_roundtrip", "transforms.identity_check"),
    ("transforms", "check_normalization_dominance", "transforms.identity_check"),
    ("transforms", "env_view_ratio_probe", "transforms.ratio_probe"),
    ("agents", "expectimax_action", "agents.plan"),
    ("agents", "expectimax_value", "agents.plan"),
    ("agents", "joint_aixi_action", "agents.plan"),
    ("agents", "dualistic_aixi_action", "agents.plan"),
    ("agents", "one_step_action", "agents.plan"),
    ("agents", "one_step_action_values", "agents.plan"),
    ("agents", "brute_force_action", "agents.plan"),
    ("agents", "policy_value", "agents.plan"),
    ("adversary", "greedy_antipredict", "adversary.trace"),
    ("adversary", "copy_conditional_trace", "adversary.trace"),
    ("adversary", "domination_probe", "adversary.probe"),
    ("utm", "enumerate_joint", "utm.enum_joint"),
)

# (module, class, property) read as a span
PROPERTY_SPANS = tuple(
    ("semimeasure", "CheckReport", prop, "semimeasure.report")
    for prop in ("violations", "strict_rows", "equal_rows", "ok", "declaration_verified")
)

# (module, class, method, counter); every counter here counts an ``eval``
EVAL_COUNTERS = (
    ("semimeasure", "ProductJoint", "eval", "semimeasure.eval_calls"),
    ("semimeasure", "ActionEchoJoint", "eval", "semimeasure.eval_calls"),
    ("semimeasure", "NoisyCopyEnv", "eval", "semimeasure.eval_calls"),
    ("semimeasure", "IIDEnv", "eval", "semimeasure.eval_calls"),
    ("semimeasure", "TableJoint", "eval", "semimeasure.eval_calls"),
    ("semimeasure", "TableEnv", "eval", "semimeasure.eval_calls"),
    ("mixture", "JointMixture", "eval", "mixture.eval_calls"),
    ("mixture", "EnvMixture", "eval", "mixture.eval_calls"),
    ("transforms", "EnvView", "eval", "transforms.envview_eval_calls"),
    ("transforms", "NormalizedPredictor", "eval", "transforms.normalized_eval_calls"),
    ("transforms", "DualJoint", "eval", "transforms.dual_eval_calls"),
    ("utm", "JointEnumApprox", "eval", "utm.joint_eval_calls"),
)

# (module, function, counter)
FUNCTION_COUNTERS = (
    ("mixture", "posterior_weights", "mixture.posterior_calls"),
    ("mixture", "predictive", "mixture.posterior_calls"),
)

CHRON_SPAN = "utm.chron_enum"


class Tracer:
    """In-memory spans plus counters for one traced pass at a time."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self.active = False
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the patches stay)."""
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.outer_evals: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, category, start, child seconds, evals]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._unit: str | None = None
        self._chron_envs: dict[int, Any] = {}
        self.chron_tapes = 0
        self.evals = 0  # every counted eval, ChronEnumApprox.eval included

    def _open(self, category: str) -> list:
        frame = [self._next_id, category, time.perf_counter(), 0.0, self.evals]
        self._next_id += 1
        self._depth[category] += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, keep: bool = True) -> None:
        end = time.perf_counter()
        span_id, category, start, child, evals_at_open = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[category] += duration - child
        self._depth[category] -= 1
        if self._depth[category] == 0:
            self.outer_s[category] += duration
            self.outer_calls[category] += 1
            self.outer_evals[category] += self.evals - evals_at_open
        if keep:
            parent_id = parent[0] if parent is not None else None
            self.spans.append((span_id, category, start, end, parent_id, self._unit))

    def unit(self, name: str, category: str, fn: Callable, *args):
        """Run one benchmark unit inside a top-level span."""
        self._unit = name
        frame = self._open(category)
        try:
            return fn(*args)
        finally:
            self._close(frame)
            self.chron_tapes += sum(len(e.tables) for e in self._chron_envs.values())
            self._chron_envs.clear()
            self._unit = None

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn: Callable, category: str, on_result: Callable | None = None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(category)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _chron_span(self, fn: Callable):
        tracer = self

        def wrapper(env, *args, **kwargs):
            if not tracer.active:
                return fn(env, *args, **kwargs)
            tracer.evals += 1
            tracer._chron_envs[id(env)] = env
            tapes = len(env.tables)
            frame = tracer._open(CHRON_SPAN)
            try:
                return fn(env, *args, **kwargs)
            finally:
                tracer._close(frame, keep=len(env.tables) != tapes)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn: Callable, key: str, is_eval: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
                if is_eval:
                    tracer.evals += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original: Any, replacement: Any) -> None:
        for name, module in list(sys.modules.items()):
            if name != "uailab" and not name.startswith("uailab."):
                continue
            for attr in [a for a, v in vars(module).items() if v is original]:
                self._set(module, attr, replacement)

    def install(self) -> None:
        """Patch uailab; recording starts with ``active = True``."""
        import uailab  # noqa: F401  (every submodule is loaded by the package)

        mods = {n: sys.modules[f"uailab.{n}"] for n in
                ("semimeasure", "mixture", "transforms", "agents", "adversary", "utm")}

        def count_contexts(report) -> None:
            self.counts["semimeasure.check_contexts"] += len(report.rows)

        def count_probe(report) -> None:
            self.counts["adversary.probe_contexts"] += report.contexts_checked

        def count_table(approx) -> None:
            self.counts["utm.joint_table_entries"] += len(approx.table)

        on_result = {
            "semimeasure.check": count_contexts,
            "adversary.probe": count_probe,
            "utm.enum_joint": count_table,
        }
        for mod, fn_name, category in FUNCTION_SPANS:
            original = getattr(mods[mod], fn_name)
            self._rebind(original, self._span(original, category, on_result.get(category)))
        for mod, fn_name, key in FUNCTION_COUNTERS:
            original = getattr(mods[mod], fn_name)
            self._rebind(original, self._counter(original, key))
        for mod, cls_name, prop, category in PROPERTY_SPANS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[prop]
            span = self._span(original.fget, category)
            self._set(cls, prop, property(span, doc=original.__doc__))
        for mod, cls_name, method, key in EVAL_COUNTERS:
            cls = getattr(mods[mod], cls_name)
            self._set(cls, method, self._counter(cls.__dict__[method], key, is_eval=True))
        row = mods["semimeasure"].CheckRow
        verdict = row.__dict__["verdict"]
        counted = self._counter(verdict.fget, "semimeasure.verdict_calls")
        self._set(row, "verdict", property(counted))
        chron = mods["utm"].ChronEnumApprox
        self._set(chron, "eval", self._chron_span(chron.__dict__["eval"]))

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts
        plans = self.outer_calls["agents.plan"]
        return {
            "semimeasure.check_s": self.self_s["semimeasure.check"],
            "semimeasure.check_contexts": c["semimeasure.check_contexts"],
            "semimeasure.eval_calls": c["semimeasure.eval_calls"],
            "semimeasure.verdict_calls": c["semimeasure.verdict_calls"],
            "semimeasure.report_s": self.self_s["semimeasure.report"],
            "mixture.eval_calls": c["mixture.eval_calls"],
            "mixture.posterior_calls": c["mixture.posterior_calls"],
            "mixture.consistency_s": self.self_s["mixture.consistency"],
            "transforms.envview_eval_calls": c["transforms.envview_eval_calls"],
            "transforms.normalized_eval_calls": c["transforms.normalized_eval_calls"],
            "transforms.dual_eval_calls": c["transforms.dual_eval_calls"],
            "transforms.identity_check_s": self.self_s["transforms.identity_check"],
            "transforms.ratio_probe_s": self.self_s["transforms.ratio_probe"],
            "agents.plan_calls": plans,
            "agents.plan_s": self.outer_s["agents.plan"],
            "agents.evals_per_plan": self.outer_evals["agents.plan"] / plans if plans else 0.0,
            "adversary.trace_s": self.self_s["adversary.trace"],
            "adversary.probe_s": self.self_s["adversary.probe"],
            "adversary.probe_contexts": c["adversary.probe_contexts"],
            "utm.enum_joint_s": self.self_s["utm.enum_joint"],
            "utm.joint_table_entries": c["utm.joint_table_entries"],
            "utm.chron_enum_s": self.self_s[CHRON_SPAN],
            "utm.chron_tapes": self.chron_tapes,
            "experiments.self_s": self.self_s["experiments.scenario"],
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "unit": u}
            for i, n, s, e, p, u in self.spans
        ]
