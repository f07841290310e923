"""Which components walk, and by which rule.

The six built-in components walk by two shared rules: the product and echo
components, joint and environment, take ``root`` and ``extend`` from the step
rule; both table kinds take them from the table walk. A built-in that defines
its own walk again fails here.

A component defines either ``eval``, and walks by the ABC defaults, or its
walk with ``eval`` bound to the ABC's fold. The fold-bound classes are listed
here, so a new component picks a side on purpose; none of them may take the
ABC's default walk, which calls ``eval`` and would recurse forever.
"""
import inspect
import sys

import pytest

import uailab  # noqa: F401  (loads every submodule)
from uailab import semimeasure
from uailab.semimeasure import ChronEnv, JointSemimeasure

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


@pytest.mark.parametrize("abc", [JointSemimeasure, ChronEnv], ids=lambda abc: abc.__name__)
def test_a_component_without_eval_or_a_walk_cannot_be_built(abc):
    bare = type("Bare", (abc,), {})
    with pytest.raises(TypeError):
        bare()
