import itertools
from fractions import Fraction as F

import pytest

from biorth import (
    AWParams,
    InvalidParams,
    SingularParams,
    SizeLimit,
    ZeroParameter,
    aw_coeffs,
    aw_eval,
    build_L,
    build_U,
    d_natural,
    e_natural,
    g_coeff,
    jacobi_moments,
    polys_from_recurrence,
    rep_rational,
    verify_algebra,
    verify_aw_match,
    verify_boundary,
    verify_ldu,
    verify_uchiyama_algebra,
)
from biorth import band, repmat, suites
from biorth.repmat import uchiyama_coeffs

from conftest import make_params


def test_rational_rep_entries(canonical):
    p = canonical
    dop, eop = rep_rational(p, 5)
    for k in range(5):
        assert dop.entry(k, k) == d_natural(p, k)
        assert eop.entry(k, k) == e_natural(p, k)
    for k in range(4):
        assert dop.entry(k, k + 1) == 1
        assert eop.entry(k + 1, k) == g_coeff(p, k)
        assert dop.entry(k + 1, k) == -p.b * p.d * p.q**k * g_coeff(p, k)
        assert eop.entry(k, k + 1) == -p.a * p.c * p.q**k
    assert dop.entry(0, 3) == 0  # outside the band


def test_algebra_on_grid(grid):
    for p in grid:
        dop, eop = rep_rational(p, 12)
        assert verify_algebra(dop, eop, p.q).passed


def test_algebra_input_guards(canonical):
    dop, eop = rep_rational(canonical, 4)
    small = rep_rational(canonical, 2)
    with pytest.raises(InvalidParams):
        verify_algebra(*small, canonical.q)


def test_boundary_vectors(grid):
    for p in grid:
        report = verify_boundary(*rep_rational(p, 10), p)
        assert report.passed


def test_sharp_flat_products_pass(grid):
    for p in grid:
        assert verify_uchiyama_algebra(p, 32).passed


def test_sharp_flat_literal_radical_fails_on_diagonal(canonical):
    # The stored products are normalized with radical square g_n.  Feeding
    # them unrescaled into the i = 0 diagonal of d e - q e d gives 601/1587
    # instead of 1 - q = 1/2: the literal square is inconsistent with the
    # exchange relation, which is why the verifier rescales by
    # (1 - q^n ac)(1 - q^n bd).
    p = canonical
    c0 = uchiyama_coeffs(p, 0)
    literal = (
        p.qprime * c0.d_nat * c0.e_nat
        + c0.dsharp_eflat_product
        - p.q * c0.esharp_dflat_product
    )
    assert literal == F(601, 1587)
    assert literal != p.qprime
    # the corrected square is the off-diagonal product of the recurrence
    scale = (1 - p.a * p.c) * (1 - p.b * p.d)
    assert scale * c0.a_squared == aw_coeffs(p, 0).A * aw_coeffs(p, 1).C


def test_aw_coeffs_edges(canonical):
    p = canonical
    assert aw_coeffs(p, 0).A == 1 / (1 - p.abcd)
    assert aw_coeffs(p, 0).C == 0  # the (1 - q^0) factor
    # defined at c = d = 0 too, where B_n is the diagonal of R = d + e
    zero_cd = AWParams(1, F(1, 2), 0, 0, F(1, 2))
    diag, _ = repmat._sum_band(zero_cd, 6)
    assert [aw_coeffs(zero_cd, n).B for n in range(6)] == diag


def test_aw_match(grid):
    for p in grid:
        assert verify_aw_match(p, 6).passed


def test_aw_match_reads_the_representation(monkeypatch, canonical):
    # the check compares rep_rational itself, not a copy of its formulas
    exact = repmat.rep_rational

    def perturbed(p, size):
        dop, eop = exact(p, size)
        diag = list(dop.diag)
        diag[3] += 1
        return repmat.TridiagonalOperator(dop.size, tuple(diag), dop.upper, dop.lower), eop

    monkeypatch.setattr(repmat, "rep_rational", perturbed)
    report = verify_aw_match(canonical, 6)
    failed = [c for c in report.checks if not c.passed]
    assert failed[0].name == "diagonal-equals-B"
    assert failed[0].first_failure["n"] == 3


def test_boundary_basis_reads_the_band(monkeypatch, canonical):
    # L and the recurrence route of P/Q read band.d_band; build_L_inverse
    # and the pairing grid do not, so a wrong band shows against them
    exact = band.d_band

    def perturbed(p, size):
        dop, g = exact(p, size)
        diag = list(dop.diag)
        if size > 2:
            diag[2] += 1
        return band.TridiagonalOperator(dop.size, tuple(diag), dop.upper, dop.lower), g

    monkeypatch.setattr(band, "d_band", perturbed)
    checks = {c.name: c.passed for c in verify_ldu(canonical, 8).checks}
    checks.update({c.name: c.passed for c in suites.polys_suite(canonical, 8, False)["polys"].checks})
    assert not checks["bimoment-equals-LDU"]
    assert not checks["lower-times-inverse"]
    assert not checks["route-equality-d"]
    assert checks["diagonal-pairing"]


# abcd = q, abcd = q^2 and abcd q = 1, each with the first order of L whose
# band reads a level-0 coefficient with a vanishing factor (the polynomials
# need count = order + 1).  Only abcd q = 1 is a pole: at abcd = q and q^2
# the factor cancels in lowest terms and nothing raises.
SINGULAR_BANDS = (
    (("1", "1", "-1/2", "-1/2", "1/4"), 2),
    (("1", "1", "-1/4", "-1/4", "1/4"), 1),
    (("2", "1", "1", "1", "1/2"), 2),
)


def _raised(build):
    try:
        build()
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("point, first_singular", SINGULAR_BANDS)
def test_band_readers_raise_where_the_band_is_singular(point, first_singular):
    p = make_params(point)
    pole = p.abcd * p.q == 1
    for n in range(14):
        for build in (build_L, build_U):
            expected = SingularParams if pole and n >= first_singular else None
            assert _raised(lambda: build(p, n)) is expected, (build.__name__, n)
        expected = (
            InvalidParams if n == 0 else SingularParams if pole and n > first_singular else None
        )
        for build in (
            lambda: polys_from_recurrence(p, n, "d"),
            lambda: polys_from_recurrence(p, n, "e"),
        ):
            assert _raised(build) is expected, n


def test_jacobi_moments_chebyshev():
    # zero diagonal, unit couplings: moments are aerated Catalan numbers
    diag = [F(0)] * 5
    off = [F(1)] * 4
    assert jacobi_moments(diag, off, 8) == [1, 0, 1, 0, 2, 0, 5, 0, 14]
    # an odd top power never reaches level 5 either, but k = 10 would
    with pytest.raises(SizeLimit):
        jacobi_moments(diag, off, 10)


def test_aw_eval_low_levels(canonical):
    p = canonical
    assert aw_eval(p, 0, 2) == 1
    # at level 0 the recurrence has no down-term (C_0 = 0), so it pins W_1
    t = F(3, 2)
    x = (t + 1 / t) / 2
    c = aw_coeffs(p, 0)
    assert c.C == 0
    assert c.A * aw_eval(p, 1, t) + c.B == 2 * x


def _series_satisfies_recurrence(p, top):
    for t in suites.AW_T_VALUES:
        values = [aw_eval(p, n, t) for n in range(top + 2)]
        twox = t + 1 / t
        for n in range(1, top + 1):
            c = aw_coeffs(p, n)
            if c.A * values[n + 1] + c.B * values[n] + c.C * values[n - 1] != twox * values[n]:
                return False
    return True


def test_aw_eval_recurrence(grid):
    for p in grid:
        assert _series_satisfies_recurrence(p, 6)


def test_aw_eval_with_a_zero():
    # the series is expanded about the first nonzero parameter
    for point in (
        (0, F(1, 2), F(-1, 3), F(-1, 4), F(1, 2)),
        (0, F(1, 3), 0, 0, F(1, 3)),
    ):
        assert _series_satisfies_recurrence(AWParams(*point), 8)


def test_aw_eval_is_symmetric(grid):
    # a permutation that puts a zero first is expanded about the pivot
    for p in grid:
        expected = {(n, t): aw_eval(p, n, t) for n in range(6) for t in suites.AW_T_VALUES}
        for a, b, c, d in itertools.permutations((p.a, p.b, p.c, p.d)):
            swapped = AWParams(a, b, c, d, p.q)
            for (n, t), value in expected.items():
                assert aw_eval(swapped, n, t) == value, (p, (a, b, c, d), n, t)


def test_aw_eval_guards(canonical):
    with pytest.raises(ZeroParameter):
        aw_eval(canonical, 1, 0)
    with pytest.raises(ZeroParameter):
        aw_eval(AWParams(0, 0, 0, 0, F(1, 2)), 1, 2)
