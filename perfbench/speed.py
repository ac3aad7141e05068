"""Host-speed reference: fixed work in the benchmark's own code, not in biorth.

On a shared host the same code runs up to twice as slowly in phases that last
from a fraction of a second to several seconds, and the slowdown shows in CPU
time as much as in wall time, so neither clock alone can tell a slower program
from a slower machine.  A run therefore times the short ``reference_work``
between its units, at least every ``SAMPLE_EVERY_S``, and scales each unit
time by ``REFERENCE_S`` over the mean of the two reference samples around that
unit: the time becomes seconds at the host speed at which ``reference_work``
takes ``REFERENCE_S``, measured where the unit ran.  Times of cold processes
are scaled the same way by the cold references timed around them
(``COLD_REFERENCE``).  The raw wall times are printed next to them.

``reference_work`` imitates the three kinds of work the workloads do: a
moment-style recurrence on Fractions, products of ~15k-bit Fractions, and
CLI-style argument parsing and JSON round trips.  The library does not run in
it, so a change to the library cannot move it.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from fractions import Fraction

# About the least time of reference_work on the reference host (2-vCPU Intel
# Xeon VM, CPython 3.11).  It only fixes the scale of the reported seconds.
REFERENCE_S = 0.0125
SAMPLE_EVERY_S = 0.2  # most wall seconds between reference samples

# Cold processes (set-up and cold CLI commands) are scaled by a cold reference
# instead: an interpreter that starts, imports standard modules and exits.
# Start-up and imports slow down by another share than computing does.
# Both references take about a tenth of what they are timed next to.
COLD_REFERENCE = "import argparse, csv, dataclasses, decimal, fractions, json, statistics"
COLD_REFERENCE_S = 0.075  # likewise, the scale of the cold-process seconds

_BIG_NUM, _BIG_DEN = 3**9000 + 1, 7**6000 + 3
_PAYLOAD = {
    "params": {name: f"{name}/7" for name in "abcdq"},
    "reports": {
        f"r{i}": {
            "checks": [{"name": f"c{j}", "pass": True, "value": str(Fraction(7919 * j + 1, 104729 + i))} for j in range(40)]
        }
        for i in range(6)
    },
}
_ARGV = ["--a", "3/2", "--b", "1/3", "--c=-1/7", "--d", "0", "--q", "2/5", "--n", "10"]


def _recurrence(order: int = 18) -> list[Fraction]:
    a, c, q = Fraction(3, 2), Fraction(-3, 7), Fraction(2, 5)
    column = [Fraction(1)] + [Fraction(0)] * (order + 1)
    for _ in range(order):
        qi = Fraction(1)
        new = [Fraction(0)] * (order + 2)
        for i in range(1, order + 1):
            qi *= q
            new[i] = (1 - qi) * column[i - 1] + (a + c) * qi * column[i] - a * c * qi * column[i + 1]
        column = new
    return column


def _big_products(steps: int = 4) -> int:
    bits = 0
    for i in range(steps):
        product = Fraction(_BIG_NUM + i, _BIG_DEN) * Fraction(_BIG_DEN + i, _BIG_NUM - i)
        bits += product.numerator.bit_length()
    return bits


def _cli_round_trips(count: int = 1) -> Fraction:
    total = Fraction(0)
    for _ in range(count):
        parser = argparse.ArgumentParser()
        for name in "abcdq":
            parser.add_argument(f"--{name}", type=Fraction)
        parser.add_argument("--n", type=int)
        parser.parse_args(_ARGV)
        payload = json.loads(json.dumps(_PAYLOAD, sort_keys=True, indent=2))
        total += sum(Fraction(check["value"]) for report in payload["reports"].values() for check in report["checks"])
    return total


def reference_work() -> None:
    _recurrence()
    _big_products()
    _cli_round_trips()


class Reference:
    """Reference samples taken through one run, in order."""

    def __init__(self):
        self.times: list[float] = []
        self._mark = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self._mark = time.perf_counter()
        self.times.append(self._mark - start)

    def sample_if_due(self) -> None:
        """Sample if ``SAMPLE_EVERY_S`` has passed since the last sample ended."""
        if time.perf_counter() - self._mark >= SAMPLE_EVERY_S:
            self.sample()

    def scale_at(self, k: int) -> float:
        """Factor that turns wall seconds into reference seconds between
        samples ``k - 1`` and ``k``."""
        return 2 * REFERENCE_S / (self.times[k - 1] + self.times[k])
