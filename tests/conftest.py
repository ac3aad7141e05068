from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from biorth import AWParams, is_valid
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


def word_terms(word: str, form) -> dict[tuple[int, int], int]:
    """A word's form (coefficients along its diagonal, then the scale)
    as {(i, j): coeff of d^i e^j}: entry k at (I - k, J - k), zeros left out."""
    i, j = word.count("d"), word.count("e")
    return {(i - k, j - k): coeff for k, coeff in enumerate(form[:-1]) if coeff}


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
