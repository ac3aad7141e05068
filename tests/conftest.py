from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from biorth import AWParams, is_valid
from biorth.bimoment import bimoment_table
from biorth.suites import GRID

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


def without_timings(report) -> dict:
    """A report's payload without its run-dependent ``timings_ms``."""
    return {key: value for key, value in report.to_dict().items() if key != "timings_ms"}


def make_params(point) -> AWParams:
    return AWParams(*(Fraction(x) for x in point))


def replace(record, **changes):
    """The record rebuilt through its class with the given fields changed:
    the library's records are plain classes whose fields are ``_fields``."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def naive_mul(a, b):
    """Reference product: a Fraction triple loop."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def word_terms(word: str, form) -> dict[tuple[int, int], int]:
    """A word's form (coefficients along its diagonal, then the scale)
    as {(i, j): coeff of d^i e^j}: entry k at (I - k, J - k), zeros left out."""
    i, j = word.count("d"), word.count("e")
    return {(i - k, j - k): coeff for k, coeff in enumerate(form[:-1]) if coeff}


def check_transpose_symmetry(p: AWParams, n: int) -> bool:
    """True iff transposing the block matches both parameter swaps.

    The block for (a, b, c, d, q) transposed must equal the block for
    (b, a, d, c, q) and also the block for (d, c, b, a, q).
    """
    base = bimoment_table(p)
    base.ensure(n)
    for swapped_params in (p.swap_ab_cd(), AWParams(p.d, p.c, p.b, p.a, p.q)):
        swapped = bimoment_table(swapped_params)
        swapped.ensure(n)
        for i in range(n + 1):
            for j in range(n + 1):
                if base.entry(i, j) != swapped.entry(j, i):
                    return False
    return True


def check_recurrences(p: AWParams, n: int) -> bool:
    """Verify both bulk recurrences on every stored entry of the order-n
    trapezoid whose referenced neighbours are all present."""
    table = bimoment_table(p)
    table.ensure(n)
    entries = table.stored_items()
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    ac, bd = a * c, b * d
    for (i, j), value in entries.items():
        if i >= 1 and j >= 1:
            qi = q**i
            left = entries.get((i - 1, j - 1))
            mid = entries.get((i, j - 1))
            down = entries.get((i + 1, j - 1))
            if left is not None and mid is not None and down is not None:
                if value != (1 - qi) * left + (a + c) * qi * mid - ac * qi * down:
                    return False
            qj = q**j
            up = entries.get((i - 1, j))
            right = entries.get((i - 1, j + 1))
            if left is not None and up is not None and right is not None:
                if value != (1 - qj) * left + (b + d) * qj * up - bd * qj * right:
                    return False
    return True


@pytest.fixture(scope="session")
def canonical() -> AWParams:
    return make_params(GRID[0])


@pytest.fixture(scope="session")
def grid() -> list[AWParams]:
    return [make_params(point) for point in GRID]


_small = st.integers(min_value=1, max_value=6)


@st.composite
def rationals(draw, min_num=-6, max_num=6):
    return Fraction(draw(st.integers(min_value=min_num, max_value=max_num)), draw(_small))


@st.composite
def valid_params(draw, horizon=6):
    """Random parameter sets accepted by the validity screen.

    a, b > 0 and c, d in (-1, 0] keep the hopping rates physical; the
    explicit screen rejects accidental singularities (abcd near q powers).
    """
    a = Fraction(draw(st.integers(min_value=1, max_value=8)), draw(_small))
    b = Fraction(draw(st.integers(min_value=1, max_value=8)), draw(_small))
    c = -Fraction(draw(st.integers(min_value=0, max_value=5)), 7)
    d = -Fraction(draw(st.integers(min_value=0, max_value=5)), 8)
    q = Fraction(draw(st.integers(min_value=1, max_value=4)), 5)
    p = AWParams(a, b, c, d, q)
    if not is_valid(p, horizon):
        # try a cheap perturbation before rejecting the draw outright
        p = AWParams(a / 2, b / 3, c, d, q)
        assume(is_valid(p, horizon))
    return p
