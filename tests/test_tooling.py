"""The benchmark tracer patches library functions by name; each must exist."""

import importlib
import itertools
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

    # Each round below holds 156 kbit of tables and 94 kbit of memo, within
    # budgets that two rounds together pass: a size counted before a reset
    # must not evict what the next round grows.
    monkeypatch.setattr(bimoment, "_TABLES_BUDGET", 1 << 18)
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE_BUDGET", 1 << 17)
    words = [{"".join(word): 1} for word in itertools.product("de", repeat=8)]
    for _ in range(3):
        workloads.reset_caches()
        assert sum(table.bits for table in bimoment._TABLES.values()) == 0
        assert sum(map(wordfun._form_bits, wordfun._NORMAL_CACHE.values())) == 0
        for p in (canonical, canonical.swap_ab_cd()):
            bimoment.bimoment_table(p).ensure(12)
        wordfun.functional_values(words, canonical)
        state = workloads.cache_state()
        assert (state["tables"], state["normal_cache"]) == (2, 2**9 - 1)
        assert wordfun._memo_bits == sum(map(wordfun._form_bits, wordfun._NORMAL_CACHE.values()))
