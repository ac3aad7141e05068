from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from biorth import (
    AWParams,
    HoppingRates,
    InvalidParams,
    SingularParams,
    SizeLimit,
    d_natural,
    e_natural,
    g_coeff,
    is_valid,
    parse_rational,
    phi_terminating,
    qpoch,
    to_aw_exact,
    to_rates,
    validate,
)
from biorth.core import exact_sqrt, format_rational
from biorth.reporting import jsonable

from conftest import rationals


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-1/3") == F(-1, 3)
    assert parse_rational(" 2 ") == F(2)
    for bad in ("0.5", "1/0", "", "a/b"):
        with pytest.raises(InvalidParams):
            parse_rational(bad)


def test_digit_limit_is_a_config_error():
    # Python refuses int <-> str conversions past 4300 digits
    with pytest.raises(InvalidParams, match="4300 digits"):
        parse_rational("1" * 4400)
    huge = F(10**4400)
    with pytest.raises(SizeLimit, match="4300 digits"):
        format_rational(huge)
    with pytest.raises(SizeLimit, match="4300 digits"):
        jsonable({"value": [huge]})


def test_exact_sqrt():
    assert exact_sqrt(F(9, 4)) == F(3, 2)
    assert exact_sqrt(F(0)) == F(0)
    assert exact_sqrt(F(2)) is None
    assert exact_sqrt(F(-1)) is None


def test_qpoch_oracle():
    # (1/2; 1/3)_2 = (1 - 1/2)(1 - 1/6)
    assert qpoch(F(1, 2), F(1, 3), 2) == F(5, 12)
    assert qpoch(F(1, 2), F(1, 3), 0) == 1
    with pytest.raises(InvalidParams):
        qpoch(F(1, 2), F(1, 3), -1)


@given(rationals(), st.fractions(min_value=F(-9, 10), max_value=F(9, 10)), st.integers(min_value=0, max_value=8))
def test_qpoch_recurrence(x, q, n):
    assert qpoch(x, q, n + 1) == qpoch(x, q, n) * (1 - x * q**n)


def test_phi_terminating_is_finite_sum():
    q = F(1, 2)
    # top parameter q^{-2} kills every term past k = 2, so widening the
    # truncation cannot change the value
    args = ([q**-2, F(1, 3)], [F(1, 5)], q, q)
    assert phi_terminating(*args, 2) == phi_terminating(*args, 6)
    # numerator parameter 1 makes (1; q)_k vanish for k >= 1
    assert phi_terminating([F(1), F(1, 3)], [F(1, 5)], q, q, 4) == 1


def test_params_validation():
    with pytest.raises(InvalidParams):
        AWParams(1, 1, 1, 1, 0)
    with pytest.raises(InvalidParams):
        AWParams(1, 1, 1, 1, 1)
    p = AWParams(1, F(1, 2), F(-1, 3), F(-1, 4), F(1, 2))
    assert p.qprime == F(1, 2)
    assert p.abcd == F(1, 24)


def test_rates_validation():
    with pytest.raises(InvalidParams):
        HoppingRates(0, 1, 0, 0, F(1, 2))
    with pytest.raises(InvalidParams):
        HoppingRates(1, 1, -1, 0, F(1, 2))
    with pytest.raises(InvalidParams):
        HoppingRates(1, 1, 0, 0, 1)
    HoppingRates(1, 1, 0, 0, 0)  # q = 0 is a legal chain even if the algebra rejects it


def test_to_rates_canonical(canonical):
    r = to_rates(canonical)
    assert (r.alpha, r.beta, r.gamma, r.delta) == (F(3, 8), F(4, 9), F(1, 8), F(1, 18))
    assert r.alpha + r.beta + r.gamma + r.delta == 1
    assert r.q == canonical.q


def test_to_aw_exact_roundtrip(grid):
    for p in grid:
        back = to_aw_exact(to_rates(p))
        assert back == p


def test_to_aw_exact_rejects_irrational():
    # generic rates have irrational algebraic parameters
    r = HoppingRates(F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 2))
    with pytest.raises(InvalidParams):
        to_aw_exact(r)


def test_validate_flags_singular_locus():
    # abcd = 1 makes the very first coefficient denominator vanish
    p = AWParams(2, 1, 1, F(1, 2), F(1, 2))
    with pytest.raises(SingularParams):
        validate(p, 1)
    assert not is_valid(p, 1)


def test_g_reduces_when_cd_vanish():
    p = AWParams(1, F(1, 2), 0, 0, F(1, 2))
    ab = p.a * p.b
    # all abcd factors drop out, leaving (1 - q^{j+1})(1 - ab q^j)
    for j in range(5):
        assert g_coeff(p, j) == (1 - p.q ** (j + 1)) * (1 - ab * p.q**j)


def test_naturals_match_g_structure(grid):
    for p in grid:
        validate(p, 6)
        for n in range(6):
            assert isinstance(d_natural(p, n), F)
            assert isinstance(e_natural(p, n), F)
        # shared denominators: d and e naturals are finite together
        assert g_coeff(p, 0) != 0


def test_g_nonzero_on_grid(grid):
    # sign is not guaranteed (ab > 1 makes g_0 < 0), but validity means the
    # normalizations never vanish
    for p in grid:
        for j in range(8):
            assert g_coeff(p, j) != 0
