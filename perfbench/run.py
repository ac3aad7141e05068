#!/usr/bin/env python3
"""Benchmark of the biorth library and CLI.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/``.  One process acts as one closed-loop client with no threads: the
next unit starts when the previous one has finished.  A run makes a fixed
number of rounds of the workload's units, ``--seconds`` divided by the
workload's nominal round length (at least one), so that the same arguments
always give the same work.

``--trace 0`` measures the end-to-end metrics untraced; their times are
scaled to a reference host speed (``speed.py``).  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics from the traced
ones, plus the tracing overhead.  Each metric is printed as ``name value
unit``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when an output check failed
and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SUBPROCESS_TIMEOUT = 120


@dataclass
class Totals:
    """Unit times, and check results of units and cold commands."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    bits: int = 0

    def add(self, label: str, outcome) -> None:
        self.attempted += 1
        self.skipped += outcome.skipped
        self.bits = max(self.bits, outcome.bits)
        if not outcome.ok:
            self.failed += 1
            print(f"FAILED {label}: {outcome.note or 'a check did not pass'}", file=sys.stderr)


def start_round() -> None:
    """Empty the library caches so every round does the same work."""
    from perfbench import workloads

    workloads.reset_caches()
    gc.collect()


def run_unit(unit, totals: Totals, tracer=None) -> float:
    """Time one unit, check its output, and return the unit time."""
    from perfbench import workloads

    if tracer is not None:
        tracer.unit, tracer.enabled = len(totals.times), True
    start = time.perf_counter()
    try:
        output = unit.run()
    except Exception as exc:  # a unit that raises is a failed unit, not a crash
        output = exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
    totals.times.append(elapsed)
    if isinstance(output, Exception):
        outcome = workloads.Outcome(False, note=f"raised {output!r}")
    else:
        try:
            outcome = unit.check(output)
        except Exception as exc:  # unreadable output fails the unit
            outcome = workloads.Outcome(False, note=f"check raised {exc!r}")
    totals.add(unit.label, outcome)
    return elapsed


def run_round(units, totals: Totals, tracer=None) -> float:
    """Run every unit once from empty caches; return the summed unit time."""
    start_round()
    return sum(run_unit(unit, totals, tracer) for unit in units)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _timed_child(argv) -> tuple[float, int, str]:
    """Wall time, exit status and output of a child process.

    ``communicate`` without a timeout blocks until the child has exited,
    where one with a timeout polls and rounds times up by tens of
    milliseconds; an alarm bounds the wait instead.
    """

    def expire(signum, frame):
        raise TimeoutError(f"{argv[1]} ran longer than {SUBPROCESS_TIMEOUT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(SUBPROCESS_TIMEOUT)
    try:
        start = time.perf_counter()
        with subprocess.Popen(
            argv, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        ) as child:
            try:
                out, _ = child.communicate()
            except TimeoutError:
                child.kill()
                raise
        return time.perf_counter() - start, child.returncode, out
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cold_setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a cold interpreter that imports biorth and builds the inputs."""
    elapsed, code, _ = _timed_child(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)]
    )
    if code != 0:
        raise RuntimeError(f"set-up probe exited with status {code}")
    return elapsed


def cold_reference_seconds() -> float:
    """Wall time of a cold interpreter that imports only standard modules."""
    from perfbench import speed

    elapsed, code, _ = _timed_child([sys.executable, "-c", speed.COLD_REFERENCE])
    if code != 0:
        raise RuntimeError(f"cold reference exited with status {code}")
    return elapsed


def cold_command(argv, check) -> tuple[float, object]:
    """Wall time and checked outcome of one cold ``biorth`` subprocess."""
    from perfbench import workloads

    elapsed, code, out = _timed_child([sys.executable, "-m", "biorth.cli", *argv])
    try:
        outcome = check((code, out))
    except Exception as exc:  # unreadable output fails the command
        outcome = workloads.Outcome(False, note=f"check raised {exc!r}")
    return elapsed, outcome


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def rounds_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_s))


def untraced(workload, points, units, seed, seconds):
    """Closed loop over the run's rounds, with cold and reference samples between units.

    Each execution of a unit is scaled by the reference samples taken just
    before and just after it (``speed.py``), and a unit's time is its least
    scaled time over the rounds: the scaling takes out most of what the host's
    slow phases add, and what it misses only ever adds time.  The cold set-up
    and cold command samples are spread evenly over the units; each is scaled
    by the cold references timed around it.
    """
    from perfbench import speed, workloads

    totals = Totals()
    setup, cold, cold_reference = [], [], []
    wall_setup, wall_cold = [], []
    reference = speed.Reference()
    command = workload.cold_argv[0]

    def sample():
        before = cold_reference_seconds()
        wall_setup.append(cold_setup_seconds(workload.name, seed))
        middle = cold_reference_seconds()
        elapsed, outcome = cold_command(
            workload.cold_argv, lambda output: workloads.check_cli_output(command, workloads.CANONICAL_PARAMS, output)
        )
        after = cold_reference_seconds()
        wall_cold.append(elapsed)
        totals.add(f"cold {' '.join(workload.cold_argv)}", outcome)
        cold_reference.extend((before, middle, after))
        setup.append(wall_setup[-1] * 2 * speed.COLD_REFERENCE_S / (before + middle))
        cold.append(elapsed * 2 * speed.COLD_REFERENCE_S / (middle + after))

    total = rounds_for(workload, seconds) * len(units)
    count = workload.cold_samples
    due = [k * total // count for k in range(count)]
    executions = []  # (unit, wall time, index of the reference sample after it)
    for index in range(total):
        unit = index % len(units)
        if unit == 0:
            start_round()
        for _ in range(due.count(index)):
            sample()
        reference.sample_if_due()
        executions.append((unit, run_unit(units[unit], totals), len(reference.times)))
    reference.sample()
    times, wall_times = [math.inf] * len(units), [math.inf] * len(units)
    for unit, elapsed, k in executions:
        times[unit] = min(times[unit], elapsed * reference.scale_at(k))
        wall_times[unit] = min(wall_times[unit], elapsed)
    wall = {
        "setup_s": (statistics.median(wall_setup), "s"),
        "units_per_s": (len(wall_times) / sum(wall_times), "1/s"),
        "unit_s.p50": (statistics.median(wall_times), "s"),
        "cold_cli_s": (statistics.median(wall_cold), "s"),
    }
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "units_per_s": (len(times) / sum(times), "1/s"),
        "unit_s.p50": (statistics.median(times), "s"),
        "cold_cli_s": (statistics.median(cold), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "max_operand_bits": (totals.bits, "bits"),
    }
    info = {f"wall.{name}": value for name, value in wall.items()}
    info.update({
        "reference_s": (statistics.median(reference.times), "s"),
        "cold_reference_s": (statistics.median(cold_reference), "s"),
        "reference.samples": (len(reference.times), "count"),
        "unit_s.count": (len(times), "count"),
        "rounds": (rounds_for(workload, seconds), "count"),
        "fail_ratio": (totals.failed / totals.attempted, "ratio"),
        "skipped_checks": (totals.skipped, "count"),
        "cold.samples": (len(setup), "count"),
        "q_repeat_share": (workloads.q_repeat_share(points), "ratio"),
        "zero_share": (workloads.zero_share(points), "ratio"),
    })
    if len(times) >= 100:
        info["unit_s.p90"] = (percentile(times, 0.9), "s")
    return totals, metrics, info


def traced(workload, points, units, seconds):
    """The run's rounds, each as a pair of an untraced and a traced round."""
    from perfbench import tracer as tracing
    from perfbench import workloads

    totals = Totals()
    plain, timed, per_round = [], [], []
    tracer = None
    for _ in range(rounds_for(workload, seconds)):
        plain.append(run_round(units, totals))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timed.append(run_round(units, totals, tracer))
        finally:
            tracer.uninstall()
        per_round.append(tracing.layer_metrics(tracer, workloads.cache_state()))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl.gz")
    # median_low reports a value one round produced, so counts stay whole.
    metrics = {
        name: (statistics.median_low(r[name] for r in per_round), _unit(name))
        for name in per_round[0]
    }
    metrics["trace.overhead_ratio"] = (statistics.median(timed) / statistics.median(plain) - 1, "ratio")
    metrics["fail_ratio"] = (totals.failed / totals.attempted, "ratio")
    info = {"traced_rounds": (len(per_round), "count")}
    return totals, metrics, info


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-small", "deep-factor", "chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biorth" / "__init__.py").is_file():
        print(f"error: no biorth sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    workload, points, units = workloads.build(args.workload, args.seed)
    if args.trace:
        totals, metrics, info = traced(workload, points, units, args.seconds)
    else:
        totals, metrics, info = untraced(workload, points, units, args.seed, args.seconds)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if totals.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
