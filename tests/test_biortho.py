from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from biorth import (
    InvalidParams,
    PolySeq,
    SizeLimit,
    bimoment_block,
    biorthogonality_check,
    bordered_determinant_check,
    build_D,
    d_natural,
    g_coeff,
    monomial_expansion_check,
    pairing,
    polys_from_inverse,
    polys_from_recurrence,
)
from biorth import biortho
from biorth._linalg import mat_mul

from conftest import GRID, make_params


def test_polyseq_rejects_non_monic():
    with pytest.raises(InvalidParams):
        PolySeq(variable="d", coeffs=((F(2),),))
    with pytest.raises(InvalidParams):
        PolySeq(variable="d", coeffs=((F(1),), (F(0), F(1), F(0))))


def test_generation_routes_agree(grid):
    for p in grid:
        for variable in ("d", "e"):
            assert polys_from_inverse(p, 9, variable).coeffs == (
                polys_from_recurrence(p, 9, variable).coeffs
            )


def test_first_polys(canonical):
    p = canonical
    pseq = polys_from_inverse(p, 3, "d")
    assert pseq.poly(0) == (1,)
    # P_1(x) = x - dnat_0
    assert pseq.poly(1) == (-d_natural(p, 0), F(1))


@given(st.sampled_from(GRID), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_pairing_is_diagonal(point, n, m):
    p = make_params(point)
    count = max(n, m) + 1
    pseq = polys_from_inverse(p, count, "d")
    qseq = polys_from_inverse(p, count, "e")
    value = pairing(p, pseq.poly(n), qseq.poly(m))
    if n != m:
        assert value == 0
    else:
        lam = F(1)
        for i in range(n):
            lam *= g_coeff(p, i)
        assert value == lam


def test_biorthogonality_report(grid):
    for p in grid:
        report = biorthogonality_check(p, 8)
        assert report.passed
        # normalizations are exactly the diagonal factors
        lam = build_D(p, 7)
        assert all(v != 0 for v in lam.values)


def test_pairing_grid_equals_single_pairings(grid):
    for p in grid:
        for count in range(1, 7):
            pseq = polys_from_inverse(p, count, "d")
            qseq = polys_from_inverse(p, count, "e")
            assert mat_mul(*biortho._pairing_factors(p, pseq, qseq)) == [
                [pairing(p, pseq.poly(n), qseq.poly(m)) for m in range(count)]
                for n in range(count)
            ]


def _first_failure_by_pairing(p, pseq, qseq):
    lam = build_D(p, pseq.count - 1).values
    for n in range(pseq.count):
        for m in range(qseq.count):
            value = pairing(p, pseq.poly(n), qseq.poly(m))
            expected = lam[n] if n == m else 0
            if value != expected:
                return {"n": n, "m": m, "value": value, "expected": expected}
    return None


def test_biorthogonality_reports_the_first_failing_pair(grid, monkeypatch):
    real = biortho.polys_from_inverse

    def perturbed(p, count, variable="d"):
        seq = real(p, count, variable)
        if variable == "d":
            return seq
        # Q_2 + 3 Q_1 fails only against P_1, Q_5 + Q_0/7 only against P_0:
        # the row-by-row scan meets (0, 5) first, a column scan (1, 2).
        rows = [list(row) for row in seq.coeffs]
        for target, source, weight in ((2, 1, F(3)), (5, 0, F(1, 7))):
            for k, value in enumerate(seq.poly(source)):
                rows[target][k] += weight * value
        return PolySeq("e", tuple(tuple(row) for row in rows))

    monkeypatch.setattr(biortho, "polys_from_inverse", perturbed)
    for p in grid:
        report = biorthogonality_check(p, 7)
        (check,) = [c for c in report.checks if c.name == "diagonal-pairing"]
        expected = _first_failure_by_pairing(p, perturbed(p, 7, "d"), perturbed(p, 7, "e"))
        assert (expected["n"], expected["m"]) == (0, 5)
        assert not check.passed
        assert check.first_failure == expected


def test_monomial_expansion(grid):
    for p in grid:
        assert monomial_expansion_check(p, 10)


def test_bordered_determinants(grid):
    for p in grid:
        for n in range(5):
            assert bordered_determinant_check(p, n)


@pytest.mark.parametrize("side", ("d", "e"))
def test_bordered_determinants_fail_when_one_side_is_perturbed(grid, monkeypatch, side):
    real = biortho.polys_from_inverse

    def perturbed(p, count, variable="d"):
        seq = real(p, count, variable)
        if variable != side:
            return seq
        last = seq.poly(count - 1)
        return PolySeq(variable, seq.coeffs[:-1] + ((last[0] + 1, *last[1:]),))

    monkeypatch.setattr(biortho, "polys_from_inverse", perturbed)
    for p in grid:
        for n in range(1, 5):
            assert not bordered_determinant_check(p, n)


def test_bordered_determinant_guard(canonical):
    with pytest.raises(SizeLimit):
        bordered_determinant_check(canonical, 7)


def test_pairing_of_plain_monomials_recovers_moments(canonical):
    # pairing with unit coefficient vectors is just a bimoment lookup
    block = bimoment_block(canonical, 3)
    for i in range(4):
        for j in range(4):
            xs = (0,) * i + (1,)
            ys = (0,) * j + (1,)
            assert pairing(canonical, xs, ys) == block.entries[i][j]
