"""The benchmark tracer patches library functions by name; each must exist."""

import importlib
import os
from collections import OrderedDict

from biorth import bimoment, wordfun

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


def test_cache_state_counts_the_stored_trapezoid(canonical, monkeypatch):
    # the benchmark reads the table store and the memo through these hooks
    monkeypatch.syspath_prepend(ROOT)
    workloads = importlib.import_module("perfbench.workloads")
    monkeypatch.setattr(bimoment, "_TABLES", OrderedDict())
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE", OrderedDict())
    for n in (0, 1, 5, 12):
        bimoment.bimoment_table(canonical).ensure(n)
        state = workloads.cache_state()
        assert state["tables"] == 1
        assert state["entries"] == (n + 1) * (3 * n + 2) // 2
    workloads.reset_caches()
    assert workloads.cache_state() == {"tables": 0, "entries": 0, "normal_cache": 0}
