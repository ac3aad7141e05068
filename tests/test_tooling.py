"""Tooling: the benchmark tracer patches library functions by name, and each
must exist and be seen through the package in every traced round; the
benchmark reads the caches through hooks; the source line counter counts by
its rule; the reach probe gives each function no command calls a reason; the
peak-RSS script reports one command, and exits with its status when its
reader stops early."""

import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys

import biorth
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


def test_tracer_sees_package_calls_in_every_round(canonical, monkeypatch):
    # each round patches the layers afresh, and a call made through the
    # package must reach that round's wrapper, not an earlier round's
    monkeypatch.syspath_prepend(ROOT)
    tracing = importlib.import_module("perfbench.tracer")
    for _ in range(3):
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            biorth.verify_ldu(canonical, 3)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        assert [span[1] for span in tracer.spans].count("ldu.verify") == 1


def test_cache_state_counts_the_stored_trapezoid(canonical, monkeypatch):
    # the benchmark reads the table store and the word memo through these hooks
    monkeypatch.syspath_prepend(ROOT)
    workloads = importlib.import_module("perfbench.workloads")
    monkeypatch.setattr(bimoment, "_TABLES", {})
    for n in (0, 1, 5, 12):
        bimoment.bimoment_table(canonical).ensure(n)
        state = workloads.cache_state()
        assert state["tables"] == 1
        assert state["entries"] == (n + 1) * (3 * n + 2) // 2
    workloads.reset_caches()
    assert workloads.cache_state() == {"tables": 0, "entries": 0, "normal_cache": 0}

    # The table store holds the last point's table only, and normal
    # ordering keeps nothing past its batch.
    words = [{"".join(word): 1} for word in itertools.product("de", repeat=8)]
    for _ in range(3):
        workloads.reset_caches()
        assert not bimoment._TABLES
        for p in (canonical, canonical.swap_ab_cd()):
            bimoment.bimoment_table(p).ensure(12)
        assert list(bimoment._TABLES) == [canonical.swap_ab_cd()]
        wordfun.functional_values(words, canonical)
        state = workloads.cache_state()
        assert (state["tables"], state["normal_cache"]) == (1, 0)


# 17 physical lines; the code lines are 5, 8, 11, 12, 14, 16 and 17: a string
# assigned to a name is code, a docstring is not
SAMPLE_MODULE = '''"""Module docstring
over two lines."""

# a comment alone
import os  # a trailing comment


class A:
    """One-line docstring."""

    x = """not a docstring,
    a value"""

    def f(self):
        """Docstring."""
        return (1 +
                2)
'''


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_a_known_module():
    script = os.path.join(ROOT, "scripts", "src_lines.py")
    src_lines = _load_script("src_lines")
    assert src_lines.count_lines(SAMPLE_MODULE) == (17, 7)

    # the command's total row sums the counts over the package's modules
    package = os.path.join(ROOT, "src", "biorth")
    counts = []
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                counts.append(src_lines.count_lines(handle.read()))
    out = subprocess.run([sys.executable, script], capture_output=True, text=True, check=True).stdout
    total = [f"{sum(column):,d}" for column in zip(*counts)]
    assert out.split("\n")[-2].split() == ["total", *total]


def test_peak_rss_reports_one_command(canonical):
    # the script runs the command in a child process; its digest is the
    # payload's with every timings_ms removed, so it matches a run of its own
    script = os.path.join(ROOT, "scripts", "peak_rss.py")
    argv = ["functional", *param_flags(canonical), "--max-len", "4"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, script, *argv], capture_output=True, text=True, env=env, check=True
    ).stdout
    fields = dict(line.split() for line in out.splitlines())
    assert list(fields) == ["wall_s", "peak_rss_mb", "exit", "payload_sha256"]
    assert float(fields["wall_s"]) > 0 and float(fields["peak_rss_mb"]) > 0
    assert fields["exit"] == "0"

    direct = subprocess.run(
        [sys.executable, "-m", "biorth.cli", *argv], capture_output=True, text=True, env=env, check=True
    ).stdout
    payload = json.loads(direct)
    for report in payload["reports"].values():
        del report["timings_ms"]
    assert fields["payload_sha256"] == hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_peak_rss_exits_quietly_when_stdout_closes_early(canonical):
    # as under ``| head -1``: the reader is gone before the script prints,
    # and the script still exits with the child's status, without a traceback
    script = os.path.join(ROOT, "scripts", "peak_rss.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv, status in (
        (["bimoment", *param_flags(canonical), "--n", "2"], 0),
        (["bimoment", "--q", "1/2"], 2),
    ):
        child = subprocess.Popen(
            [sys.executable, script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait() == status
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_src_reach_gives_every_unreached_function_a_reason(monkeypatch):
    # every function no command calls is kept on purpose, and no reason
    # outlives its function
    script = os.path.join(ROOT, "scripts", "src_reach.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    reach = _load_script("src_reach")
    listed = [line.split()[0] for line in result.stdout.splitlines()[:-1]]
    assert listed == sorted(reach.KEPT)
    # a function kept for the tracer is one it patches
    monkeypatch.syspath_prepend(ROOT)
    tracer = importlib.import_module("perfbench.tracer")
    traced = {f"{module}.{attr}" for module, attr, *_ in tracer.ENTRY_POINTS}
    assert {name for name, why in reach.KEPT.items() if why == reach.TRACED} <= traced


def test_src_reach_names_what_breaks_the_rule():
    reach = _load_script("src_reach")
    defined = {("m.py", 1): ("m.kept", 2), ("m.py", 5): ("m.bare", 3), ("m.py", 9): ("m.run", 1)}
    kept = {"m.kept": "why", "m.run": "why", "m.gone": "why"}
    assert reach.problems(defined, {("m.py", 9)}, kept) == [
        "unreached without a reason: m.bare",
        "reason for a function that is gone: m.gone",
        "reason for a function a run reaches: m.run",
    ]
    assert reach.problems(defined, {("m.py", 9)}, {"m.kept": "why", "m.bare": "why"}) == []


def param_flags(p) -> list[str]:
    return [arg for name, value in p.to_map().items() for arg in (f"--{name}", value)]
