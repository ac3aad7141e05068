"""The three workloads: seeded inputs, units of work and their output checks.

A round is one pass over a workload's units.  It starts with the library's
process-wide caches (bimoment tables and the ``(word, q)`` normal-order memo)
emptied, so every round does the same work; inside a round the caches are
shared, as they are inside one ``biorth verify-all`` process.

* ``cli-small`` runs the per-point subcommands through ``biorth.cli.main`` at
  ``verify-all``'s sizes, one command per unit.  Operands stay small, so
  argument parsing, reporting and per-call overhead carry most of the cost.
* ``deep-factor`` grows large moment blocks and factors them, one point per
  unit: bit growth dominates (operands of up to ~9k bits) and the work falls
  on ``bimoment``, ``ldu``, ``_linalg.det``, ``biortho``, ``repmat`` and
  ``core``.  ``asep`` does not run.
* ``chain`` compares the ansatz with the exact chain up to L=6 and checks it
  against the generator at L=7, one point per unit: a dense 2^L nullspace
  with small operands, long word products and the shared normal-order memo.
  ``ldu`` does not run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import biorth
from biorth import asep, bimoment, cli, wordfun
from biorth.core import ZeroParameter

from perfbench.probe import check_counts, max_bits

# Parameter values follow the test grid: a, b > 0, c and d in (-1, 0] with one
# zero each, and q from the grid's values, so points share a q.  Operand growth,
# and so the cost of a point, depends most on q and on the (a, c) pair, so a
# round holds fixed, distinct (q, (a, c)) combinations and the seed deals out
# the (b, d) pairs, the fuzz seeds and the order of the points: runs with
# different seeds differ in b, d, abcd and the hopping rates, while the median
# cost of a point moves little from seed to seed.  Every one of the 256
# combinations passes ``is_valid`` at order 40, so building the inputs costs
# the same for every seed.
Q_VALUES = ("1/2", "1/3", "1/4", "2/5")
AC_PAIRS = (
    ("1", "0"), ("1/2", "-1/7"), ("2", "-2/7"), ("3/2", "-3/7"),
    ("2/3", "-4/7"), ("7/2", "-5/7"), ("3/5", "-1/3"), ("4/3", "-1/2"),
)
BD_PAIRS = (
    ("1/3", "0"), ("5/6", "-1/8"), ("3/5", "-1/4"), ("2/5", "-3/8"),
    ("7/4", "-7/8"), ("1/5", "-5/8"), ("7/3", "-1/5"), ("7/5", "-1/3"),
)

# Reference point of the cold command on the two library workloads.
CANONICAL = ("1", "1/2", "-1/3", "-1/4", "1/2")


class Point(NamedTuple):
    params: biorth.AWParams
    fuzz_seed: int


def draw_points(seed: int, count: int, horizon: int) -> list[Point]:
    """``count`` points (a multiple of 8), all accepted by ``is_valid`` at ``horizon``.

    Point k of the layout takes (a, c) pair k mod 8 and q value (k + k // 8)
    mod 4, so each pair and each q is used equally often and the first 32
    combinations are distinct; the seed deals each (b, d) pair out
    ``count / 8`` times and shuffles the points.
    """
    if count <= 0 or count % len(AC_PAIRS):
        raise ValueError(f"count must be a positive multiple of {len(AC_PAIRS)}")
    rng = random.Random(seed)
    bd_column = list(BD_PAIRS) * (count // len(BD_PAIRS))
    rng.shuffle(bd_column)
    combos = [
        (Q_VALUES[(k + k // len(AC_PAIRS)) % len(Q_VALUES)], AC_PAIRS[k % len(AC_PAIRS)], bd_column[k])
        for k in range(count)
    ]
    rng.shuffle(combos)
    points = []
    for q, (a, c), (b, d) in combos:
        p = biorth.AWParams(*(Fraction(v) for v in (a, b, c, d, q)))
        if not biorth.is_valid(p, horizon):
            raise ValueError(f"{p.to_map()} is singular below order {horizon}")
        points.append(Point(p, rng.randrange(2**31)))
    return points


def q_repeat_share(points: list[Point]) -> float:
    """Share of points whose q repeats an earlier point's q (normal-order memo hits)."""
    seen, repeats = set(), 0
    for point in points:
        repeats += point.params.q in seen
        seen.add(point.params.q)
    return repeats / len(points)


def zero_share(points: list[Point]) -> float:
    """Share of points with a zero among a, b, c, d (the skipped aw-match path)."""
    return sum(_has_zero(point.params) for point in points) / len(points)


def _has_zero(p) -> bool:
    return 0 in (p.a, p.b, p.c, p.d)


@dataclass
class Outcome:
    ok: bool
    skipped: int = 0
    bits: int = 0
    note: str = ""


@dataclass(frozen=True)
class Unit:
    """One unit of work: ``run`` is timed, ``check`` reads its output afterwards."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def reset_caches() -> None:
    bimoment._TABLES.clear()
    wordfun._NORMAL_CACHE.clear()


def cache_state() -> dict:
    tables = list(bimoment._TABLES.values())
    return {
        "tables": len(tables),
        "entries": sum(len(table.stored_items()) for table in tables),
        "normal_cache": len(wordfun._NORMAL_CACHE),
    }


def param_flags(p) -> list[str]:
    flags = []
    for name, value in p.to_map().items():
        flags += [f"--{name}", value]
    return flags


def call_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


def _column_recurrence_holds(entries, p) -> bool:
    """The printed row-filled block satisfies the column-fill recurrence."""
    block = [[Fraction(v) for v in row] for row in entries]
    a, c, q = p.a, p.c, p.q
    n = len(block) - 1
    if block[0][0] != 1:
        return False
    for j in range(1, n + 1):
        for i in range(1, n):
            qi = q**i
            expected = (
                (1 - qi) * block[i - 1][j - 1]
                + (a + c) * qi * block[i][j - 1]
                - a * c * qi * block[i + 1][j - 1]
            )
            if block[i][j] != expected:
                return False
    return True


def check_cli_output(command: str, p, output) -> Outcome:
    """Gate for one CLI command: exit 0 and every printed check passed."""
    code, text = output
    if code != 0:
        return Outcome(False, note=f"exit status {code}")
    payload = json.loads(text)
    bits = max_bits(payload)
    if command == "bimoment":
        return Outcome(_column_recurrence_holds(payload["entries"], p), 0, bits)
    if command == "stationary":
        printed = payload["oracle"]["probabilities"]
        probabilities = [Fraction(0)] * len(printed)
        for config, value in printed.items():
            probabilities[int(config, 2)] = Fraction(value)
        ok = any(v["matches_oracle"] for v in payload["variants"])
        return Outcome(ok and _residual_vanishes(probabilities, biorth.to_rates(p)), 0, bits)
    if command == "verify-all":
        reports = [suite for point in payload["grid"] for suite in point["suites"].values()]
    else:
        reports = payload["reports"].values()
    failed, skipped = check_counts(check for report in reports for check in report["checks"])
    return Outcome(failed == 0, skipped, bits)


# (subcommand, size flags) at the sizes verify-all uses.
CLI_COMMANDS = (
    ("bimoment", ("--n", "8", "--fill", "rows")),
    ("ldu", ("--n", "10")),
    ("polys", ("--n", "8")),
    ("functional", ("--max-len", "6", "--trials", "60")),
    ("rep", ("--n", "16")),
    ("aw", ("--n", "6")),
    ("stationary", ("--L", "4")),
)


def cli_units(points: list[Point]) -> list[Unit]:
    units = []
    for k, point in enumerate(points):
        p = point.params
        for command, sizes in CLI_COMMANDS:
            if command == "aw" and _has_zero(p):
                continue  # aw refuses a zero parameter by design (exit 2)
            argv = [command, *param_flags(p), *sizes]
            if command == "functional":
                argv += ["--seed", str(point.fuzz_seed)]
            units.append(
                Unit(
                    f"{command} p{k}",
                    lambda argv=argv: call_cli(argv),
                    lambda output, command=command, p=p: check_cli_output(command, p, output),
                )
            )
    return units


def deep_factor_run(point: Point):
    p = point.params
    table = biorth.bimoment_table(p)
    table.ensure(26)
    grown = table.block(26)
    rows = biorth.bimoment_block(p, 17, fill="rows")
    ldu = biorth.verify_ldu(p, 19)
    dets = biorth.det_bimoment(p, 14)
    pairing = biorth.biorthogonality_check(p, 10)
    try:
        aw = biorth.verify_aw_match(p, 22)
    except ZeroParameter:
        aw = None
    return grown, rows, ldu, dets, pairing, aw


def deep_factor_check(output) -> Outcome:
    grown, rows, ldu, dets, pairing, aw = output
    ok = rows.rows() == [row[: rows.order + 1] for row in grown[: rows.order + 1]]
    ok = ok and dets[0] == dets[1] == dets[2]
    reports = [report for report in (ldu, pairing, aw) if report is not None]
    failed, skipped = check_counts(check for report in reports for check in report.checks)
    skipped += aw is None  # aw-match refuses a zero parameter: skipped, not passed
    return Outcome(ok and failed == 0, skipped, max_bits(output))


def _residual_vanishes(probabilities, rates) -> bool:
    """pi M = 0 on the chain's generator, for a probability vector over 2^L states."""
    length = len(probabilities).bit_length() - 1
    acc = [Fraction(0)] * len(probabilities)
    for (src, dst), rate in asep.generator(length, rates).items():
        acc[dst] += probabilities[src] * rate
    return not any(acc)


def _generator_shape_holds(rate_matrix, length, rates) -> bool:
    """The sparse generator has the open chain's hops and nothing else.

    Each boundary rate acts on half of the 2^L states, each of the L - 1 bonds
    hops right (rate 1) or left (rate q) on a quarter of them each, and every
    state has a diagonal entry.
    """
    boundary = (rates.alpha, rates.beta, rates.gamma, rates.delta)
    expected = (
        (sum(1 for rate in boundary if rate) << (length - 1))
        + (length - 1) * (1 + bool(rates.q)) * (1 << (length - 2))
        + (1 << length)
    )
    allowed = {*boundary, Fraction(1), rates.q}
    off_diagonal_ok = all(rate in allowed for (src, dst), rate in rate_matrix.items() if src != dst)
    return len(rate_matrix) == expected and off_diagonal_ok


def chain_run(point: Point):
    p = point.params
    comparisons = [asep.compare(length, p) for length in range(1, 7)]
    rates = biorth.to_rates(p)
    ansatz = asep.stationary_ansatz(7, p)
    rate_matrix = asep.generator(9, rates)
    relations = wordfun.check_defining_relations(p, max_len=8, trials=60, seed=point.fuzz_seed)
    return comparisons, rates, ansatz, rate_matrix, relations


def chain_check(output) -> Outcome:
    comparisons, rates, ansatz, rate_matrix, relations = output
    matching = set.intersection(*(set(c.matching_variants) for c in comparisons))
    failed, skipped = check_counts(relations.checks)
    ok = (
        bool(matching)
        and _residual_vanishes(ansatz.probabilities, rates)
        and _generator_shape_holds(rate_matrix, 9, rates)
        and failed == 0
    )
    return Outcome(ok, skipped, max_bits((comparisons, ansatz, relations)))


@dataclass(frozen=True)
class Workload:
    """A run of ``--seconds`` makes ``seconds / round_s`` rounds (at least
    one); ``round_s`` is set so that a run takes about ``--seconds`` on the
    reference host, with its cold samples.  An untraced run takes
    ``cold_samples`` cold set-up and cold command samples; the cold
    ``verify-all`` of ``cli-small`` (1.5-3 s, on a thread pool) varies most,
    so it takes more."""

    name: str
    points_per_round: int
    horizon: int
    round_s: float
    cold_samples: int
    make_units: Callable[[list[Point]], list[Unit]]
    cold_argv: tuple[str, ...]


def _point_units(run, check):
    def make(points):
        return [Unit(f"p{k}", lambda point=point: run(point), check) for k, point in enumerate(points)]

    return make


CANONICAL_PARAMS = biorth.AWParams(*(Fraction(v) for v in CANONICAL))
_CANONICAL_FLAGS = tuple(param_flags(CANONICAL_PARAMS))

WORKLOADS = {
    "cli-small": Workload("cli-small", 16, 16, 8.0, 8, cli_units, ("verify-all",)),
    "deep-factor": Workload(
        "deep-factor", 24, 26, 12.0, 6, _point_units(deep_factor_run, deep_factor_check),
        ("ldu", *_CANONICAL_FLAGS, "--n", "20"),
    ),
    "chain": Workload(
        "chain", 16, 16, 12.0, 6, _point_units(chain_run, chain_check),
        ("stationary", *_CANONICAL_FLAGS, "--L", "6"),
    ),
}


def build(name: str, seed: int) -> tuple[Workload, list[Point], list[Unit]]:
    """The workload's inputs for ``seed``: the same seed gives the same units."""
    workload = WORKLOADS[name]
    points = draw_points(seed, workload.points_per_round, workload.horizon)
    return workload, points, workload.make_units(points)
