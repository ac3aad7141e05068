"""Verification report structures shared by the checking layers.

Reports separate the deterministic payload (parameters, check outcomes,
counterexamples) from wall-clock timings, so two runs of the same check on
the same inputs produce byte-identical payloads; timings live under the
single segregated key ``timings_ms``.

The check protocol: a check that searches for a counterexample is a
function returning a generator of counterexamples, and
``VerificationReport.check`` calls it in a timed span, takes the first
counterexample, if any, and records it; nothing after the first is
computed.  The counterexample shape that recurs is written once here:
``differences`` ({key, "left", "right"} at each index where two sequences
differ).  A check that is a single boolean is recorded with
``VerificationReport.add``.

The payload writers are here too: ``canonical_json`` for every JSON
report, ``csv_text`` for the two tabular commands.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from fractions import Fraction

from .core import Record, format_rational


def jsonable(value):
    """Map exact values (and containers of them) to JSON-stable forms."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_text(rows) -> str:
    """The rows (iterables of strings) as CSV text, one line each.  csv is
    imported here, so a JSON-only command does not load it."""
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def differences(key: str, left, right):
    """{key: k, "left": x, "right": y} for each index k where the two
    sequences differ, in order."""
    for k, (x, y) in enumerate(zip(left, right)):
        if x != y:
            yield {key: k, "left": x, "right": y}


class CheckResult(Record):
    """Outcome of one named check, with its first counterexample if any."""

    __slots__ = _fields = ("name", "passed", "first_failure", "skipped_reason")

    def __init__(
        self, name: str, passed: bool, first_failure: dict | None = None, skipped_reason: str | None = None
    ):
        self.name = name
        self.passed = passed
        self.first_failure = first_failure
        self.skipped_reason = skipped_reason

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.first_failure is not None:
            out["first_failure"] = jsonable(self.first_failure)
        if self.skipped_reason is not None:
            out["skipped"] = True
            out["skipped_reason"] = self.skipped_reason
        return out


class VerificationReport(Record):
    """A batch of checks for one parameter set and truncation order."""

    __slots__ = _fields = ("params", "n", "checks", "timings_ms")

    def __init__(
        self,
        params: dict[str, str],
        n: int | None,
        checks: list[CheckResult] | None = None,
        timings_ms: dict[str, float] | None = None,
    ):
        self.params = params
        self.n = n
        self.checks = [] if checks is None else checks
        self.timings_ms = {} if timings_ms is None else timings_ms

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add(self, name: str, passed: bool, first_failure: dict | None = None) -> CheckResult:
        check = CheckResult(name, passed, first_failure)
        self.checks.append(check)
        return check

    def check(self, name: str, span: str, failures) -> CheckResult:
        """Run the search ``failures()`` in the timed span ``span`` and
        record check ``name``: passed if it yields nothing, else failed
        with its first counterexample.  The search is not advanced past
        that one.  If it raises, the span is timed and no check is added."""
        with self.timed(span):
            failure = next(iter(failures()), None)
        return self.add(name, failure is None, failure)

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings_ms[name] = round((time.perf_counter() - start) * 1000.0, 3)

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "n": self.n,
            "checks": [check.to_dict() for check in self.checks],
            "timings_ms": dict(self.timings_ms),
        }
