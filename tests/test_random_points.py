"""Seeded points off the grid, drawn by family, through every subcommand.

Each point runs the seven per-point subcommands at small sizes through
``cli.main``.  A run may pass (exit 0) or refuse the point with a message
(exit 2); an exit 1 is a counterexample, and any exception escaping
``main`` is a traceback a user would see.  Every rate-valid point is a
chain with a stationary state, so there ``stationary`` must pass.
"""

import contextlib
import io
import random
from fractions import Fraction as F

import pytest

from biorth.cli import main

SEED = 3401
POINTS_PER_FAMILY = 25
COMMANDS = (
    ("bimoment", "--n", "4"),
    ("ldu", "--n", "6"),
    ("polys", "--n", "5"),
    ("functional", "--max-len", "5", "--trials", "10"),
    ("rep", "--n", "6"),
    ("aw", "--n", "4"),
    ("stationary", "--L", "5"),
)


def small(rng: random.Random, lo: int = -7) -> F:
    """A rational with numerator in [lo, 7] and denominator in [1, 7]."""
    return F(rng.randint(lo, 7), rng.randint(1, 7))


def nonzero(rng: random.Random) -> F:
    while True:
        x = small(rng)
        if x:
            return x


def q_value(rng: random.Random) -> F:
    while True:
        q = nonzero(rng)
        if q != 1:
            return q


def generic(rng):
    return (*(small(rng) for _ in range(4)), q_value(rng))


def ab_qn_one(rng):
    # ab q^N = 1, N <= 2: a finite-dimensional representation
    a, c, d, q = nonzero(rng), small(rng), small(rng), q_value(rng)
    return a, 1 / (a * q ** rng.randint(0, 2)), c, d, q


def abcd_qk_one(rng):
    # abcd q^k = 1, k from -2 (abcd = q^2) to 2
    a, b, c, q = nonzero(rng), nonzero(rng), nonzero(rng), q_value(rng)
    return a, b, c, 1 / (a * b * c * q ** rng.randint(-2, 2)), q


def q_minus_one(rng):
    return (*(small(rng) for _ in range(4)), F(-1))


def zero_cd(rng):
    return small(rng), small(rng), F(0), F(0), q_value(rng)


def rate_valid(rng):
    # a >= 0 >= c > -1, b >= 0 >= d > -1, 0 < q < 1
    def minus_below_one():
        den = rng.randint(1, 7)
        return -F(rng.randint(0, den - 1), den)

    den = rng.randint(2, 7)
    q = F(rng.randint(1, den - 1), den)
    return small(rng, 0), small(rng, 0), minus_below_one(), minus_below_one(), q


FAMILIES = (generic, ab_qn_one, abcd_qk_one, q_minus_one, zero_cd, rate_valid)


def drawn_points(seed: int):
    rng = random.Random(seed)
    return [(family, family(rng)) for family in FAMILIES for _ in range(POINTS_PER_FAMILY)]


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_every_subcommand_passes_or_refuses_at_random_points():
    for family, point in drawn_points(SEED):
        flags = [f"--{name}={value}" for name, value in zip("abcdq", point)]
        for command in COMMANDS:
            argv = [command[0], *flags, *command[1:]]
            try:
                code, err = run(argv)
            except Exception as exc:  # a traceback: fail with the point
                pytest.fail(f"{family.__name__} {argv}: {exc!r}")
            assert code in (0, 2), (family.__name__, argv, code)
            if code == 2:
                assert err.startswith("error: "), (family.__name__, argv, err)
            if family is rate_valid and command[0] == "stationary":
                assert code == 0, (argv, err)
