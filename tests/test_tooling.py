"""The benchmark tracer patches library functions by name; each must exist."""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_entry_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    tracer = importlib.import_module("perfbench.tracer")
    names = [entry[:2] for entry in tracer.ENTRY_POINTS] + [tracer.NORMAL_ORDER_WORD[:2]]
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(f"biorth.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing
