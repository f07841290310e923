"""Which components walk, and by which rule.

The six built-in components walk by two shared rules: the product and echo
components, joint and environment, take ``root`` and ``extend`` from the step
rule; both table kinds take them from the table walk. A built-in that defines
its own walk again fails here.

Policies walk too, as environments with the roles swapped, and have no
other evaluator: ``Policy`` has no default walk, and its ``weight`` is the
one fold of every policy's walk. The stationary and deterministic policies
walk by their own rules, and a policy mixture by the walk every mixture
kind shares. A dual's walk is the product of its policy's and its
environment's, and so is its scale.

A component defines either ``eval``, and walks by the ABC defaults, or its
walk with ``eval`` bound to the ABC's fold. The fold-bound classes are listed
here, so a new component picks a side on purpose; none of them may take the
ABC's default walk, which calls ``eval`` and would recurse forever.
"""
import inspect
import sys
from fractions import Fraction as F

import pytest

import uailab  # noqa: F401  (loads every submodule)
from uailab import mixture, semimeasure
from uailab.core import ONE
from uailab.mixture import EnvMixture, JointMixture, MixturePolicy
from uailab.semimeasure import (
    ChronEnv,
    DeterministicPolicy,
    JointSemimeasure,
    NoisyCopyEnv,
    Policy,
    StationaryPolicy,
    constant_policy,
)
from uailab.transforms import dual

RULES = {
    semimeasure.ProductJoint: semimeasure._StepRule,
    semimeasure.ActionEchoJoint: semimeasure._StepRule,
    semimeasure.NoisyCopyEnv: semimeasure._StepRule,
    semimeasure.IIDEnv: semimeasure._StepRule,
    semimeasure.TableJoint: semimeasure._TableWalk,
    semimeasure.TableEnv: semimeasure._TableWalk,
}
FOLDED = {
    "ProductJoint",
    "ActionEchoJoint",
    "NoisyCopyEnv",
    "IIDEnv",
    "TableJoint",
    "TableEnv",
    "JointMixture",
    "EnvMixture",
    "EnvView",
    "DualJoint",
    "NormalizedPredictor",
    "JointEnumApprox",
}


@pytest.mark.parametrize("cls", list(RULES), ids=lambda cls: cls.__name__)
def test_builtin_walks_by_its_shared_rule(cls):
    rule = RULES[cls]
    for name in ("root", "extend"):
        assert name not in vars(cls), name
        assert getattr(cls, name) is vars(rule)[name], name


def test_two_walk_implementations_serve_the_six():
    walks = {(cls.root, cls.extend) for cls in RULES}
    assert len(walks) == 2


def uailab_classes():
    """Every class defined in a loaded uailab module."""
    for name, module in list(sys.modules.items()):
        if name == "uailab" or name.startswith("uailab."):
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__ == name:
                    yield value


def test_fold_bound_classes_walk_by_their_own_rule():
    folds = {JointSemimeasure: JointSemimeasure.fold, ChronEnv: ChronEnv.fold}
    bound = set()
    for cls in uailab_classes():
        for abc, fold in folds.items():
            if issubclass(cls, abc) and vars(cls).get("eval") is fold:
                bound.add(cls.__name__)
                for name in ("root", "extend"):
                    assert getattr(cls, name) is not getattr(abc, name), (cls, name)
    assert bound == FOLDED


@pytest.mark.parametrize("abc", [JointSemimeasure, ChronEnv, Policy], ids=lambda abc: abc.__name__)
def test_a_component_without_eval_or_a_walk_cannot_be_built(abc):
    bare = type("Bare", (abc,), {})
    with pytest.raises(TypeError):
        bare()


WALK = ("root", "extend", "scale")


def test_a_policy_evaluates_only_by_its_walk():
    # A policy that defines only ``weight`` has no walk, and cannot be built.
    weight_only = type("WeightOnly", (Policy,), {"weight": lambda self, a, e: ONE})
    with pytest.raises(TypeError):
        weight_only()
    policies = [cls for cls in uailab_classes() if issubclass(cls, Policy)]
    assert {cls.__name__ for cls in policies} == {
        "Policy",
        "DeterministicPolicy",
        "StationaryPolicy",
        "MixturePolicy",
    }
    for cls in policies:
        assert cls.weight is vars(Policy)["weight"], cls
    for cls in (DeterministicPolicy, StationaryPolicy):
        for name in ("root", "extend"):
            assert name in vars(cls), (cls, name)
    assert DeterministicPolicy.scale is vars(Policy)["scale"]
    # D**ceil(n/2): the product scale of the components, with D_p = 1.
    assert StationaryPolicy.scale is vars(semimeasure._ProductScale)["scale"]


def test_one_walk_serves_the_three_mixture_kinds():
    for cls in (JointMixture, EnvMixture, MixturePolicy):
        for name in WALK:
            assert getattr(cls, name) is vars(mixture._Mixture)[name], (cls, name)
    # The positions whose symbol moves no member's mass: an environment's
    # actions, a policy's percepts, none of a joint component's.
    assert [cls._kept_parity for cls in (JointMixture, EnvMixture, MixturePolicy)] == [None, 0, 1]


def test_policy_and_dual_walks_keep_their_scales():
    pi = StationaryPolicy((F(1, 3), F(1, 2)))  # numerators 2 and 3 over D = 6
    assert [pi.scale(n) for n in range(6)] == [1, 6, 6, 36, 36, 216]
    masses, (mass, state) = [], pi.root()
    for symbol in (1, 0, 0, 1, 1):  # an action moves the weight, a percept keeps it
        mass, state = pi.extend(state, symbol)
        masses.append(mass)
    assert masses == [3, 3, 6, 6, 18]
    nu = NoisyCopyEnv(F(3, 4), F(1, 4))  # scale 4**floor(n/2)
    assert [dual(nu, pi).scale(n) for n in range(5)] == [1, 6, 24, 144, 576]
    assert [dual(nu, constant_policy(0)).scale(n) for n in range(5)] == [1, 1, 4, 4, 16]
