"""The six built-in components walk by two shared rules.

The product and echo components, joint and environment, take ``root`` and
``extend`` from the step rule; both table kinds take them from the table
walk. A built-in that defines its own walk again fails here.
"""
import pytest

from uailab import semimeasure

RULES = {
    semimeasure.ProductJoint: semimeasure._StepRule,
    semimeasure.ActionEchoJoint: semimeasure._StepRule,
    semimeasure.NoisyCopyEnv: semimeasure._StepRule,
    semimeasure.IIDEnv: semimeasure._StepRule,
    semimeasure.TableJoint: semimeasure._TableWalk,
    semimeasure.TableEnv: semimeasure._TableWalk,
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
