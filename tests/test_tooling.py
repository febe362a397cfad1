"""The traced benchmark binds baxterlab functions by name, so a rename
must fail here instead of crashing the traced run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # layers imports its sibling tracer by bare name; both are only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("layers").targets()
    missing = []
    for t in targets:
        module, _, cls = t.owner.partition(":")
        owner = importlib.import_module(module)
        owner = vars(owner).get(cls) if cls else owner
        if owner is None or t.attr not in vars(owner):
            missing.append(t.name)
    assert targets and not missing, missing
