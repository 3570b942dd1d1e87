"""The benchmark's tracer finds every mclkit name it rebinds, and puts each back.

``perfbench/tracer.py`` wraps mclkit functions and methods by name; a name
that is removed or renamed here makes ``--trace 1`` fail. This test installs
and uninstalls the tracer without running anything under it.
"""
from pathlib import Path

from mclkit import autodiff, data, ensemble, evaluation, fusion, losses, models, training

ROOT = Path(__file__).resolve().parents[1]
OWNERS = (
    autodiff, data, ensemble, evaluation, fusion, losses, models, training,
    models.MemberModel, fusion.FusionModule,
)


def test_tracer_install_rebinds_and_uninstall_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import OBJECTIVES, OP_GROUPS, Tracer

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer().install()
    try:
        rebound = {
            (owner, name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        }
    finally:
        tracer.uninstall()
    assert {(autodiff, op) for op in OP_GROUPS} <= rebound
    assert {(losses, name) for name in OBJECTIVES} <= rebound
    assert (models.MemberModel, "forward_to_tap") in rebound
    assert (fusion.FusionModule, "member_features") in rebound
    for owner, saved in zip(OWNERS, before):
        after = dict(vars(owner))
        assert after.keys() == saved.keys(), owner
        for name, value in saved.items():
            assert after[name] is value, (owner, name)
