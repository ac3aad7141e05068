from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, strategies as st

from biorth import (
    InvalidParams,
    bimoment_block,
    build_D,
    build_L,
    build_L_inverse,
    build_U,
    build_U_inverse,
    d_natural,
    det_bimoment,
    det_closed_form,
    g_coeff,
    ldu,
    verify_ldu,
)
from biorth._linalg import det, lu_pivots

from conftest import GRID, make_params, replace


def crout_ldu(rows):
    """Textbook elimination oracle: B = L D U with unit triangular L, U."""
    n = len(rows)
    low = [[F(0)] * n for _ in range(n)]
    up = [[F(0)] * n for _ in range(n)]
    diag = [F(0)] * n
    for k in range(n):
        s = rows[k][k] - sum(low[k][m] * diag[m] * up[m][k] for m in range(k))
        diag[k] = s
        low[k][k] = up[k][k] = F(1)
        for i in range(k + 1, n):
            low[i][k] = (rows[i][k] - sum(low[i][m] * diag[m] * up[m][k] for m in range(k))) / s
            up[k][i] = (rows[k][i] - sum(low[k][m] * diag[m] * up[m][i] for m in range(k))) / s
    return low, diag, up


def test_factors_match_elimination(grid):
    for p in grid:
        n = 5
        low, diag, up = crout_ldu(bimoment_block(p, n).rows())
        assert build_L(p, n).rows() == low
        assert build_U(p, n).rows() == up
        assert list(build_D(p, n).values) == diag


def test_low_order_entries(canonical):
    p = canonical
    low = build_L(p, 2)
    assert low.entries[1][0] == d_natural(p, 0)
    assert low.entries[2][0] == d_natural(p, 0) ** 2 - p.b * p.d * g_coeff(p, 0)
    assert build_L_inverse(p, 2).entries[1][0] == -d_natural(p, 0)
    d = build_D(p, 2)
    assert d.values[0] == 1
    assert d.values[1] == F(9240, 24863)  # g_0 at the canonical point
    assert d.values[2] == g_coeff(p, 0) * g_coeff(p, 1)


def test_triangular_structure(canonical):
    n = 6
    low, up = build_L(canonical, n), build_U(canonical, n)
    for i in range(n + 1):
        assert low.entries[i][i] == 1 and up.entries[i][i] == 1
        for j in range(i + 1, n + 1):
            assert low.entries[i][j] == 0
            assert up.entries[j][i] == 0


@pytest.mark.parametrize("point", GRID)
def test_inverses_invert(point):
    p = make_params(point)
    n = 6
    for build, build_inv in ((build_L, build_L_inverse), (build_U, build_U_inverse)):
        m = build(p, n).rows()
        minv = build_inv(p, n).rows()
        for i in range(n + 1):
            for j in range(n + 1):
                acc = sum(m[i][k] * minv[k][j] for k in range(n + 1))
                assert acc == (1 if i == j else 0)


@pytest.mark.parametrize("point", GRID)
def test_verify_ldu(point):
    report = verify_ldu(make_params(point), 8)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"bimoment-equals-LDU", "lower-times-inverse", "inverse-times-upper"}


@pytest.mark.parametrize(
    "build, check, on_triangle",
    [
        ("build_L_inverse", "lower-times-inverse", lambda i, j: j <= i),
        ("build_U_inverse", "inverse-times-upper", lambda i, j: j >= i),
    ],
)
def test_each_inverse_entry_fails_its_identity(canonical, monkeypatch, build, check, on_triangle):
    # each identity is searched from the inverse's side (L^-1 L, U U^-1):
    # one added to any entry on the inverse's triangle must fail it
    n = 5
    inverse = getattr(ldu, build)(canonical, n)
    for i in range(n + 1):
        for j in range(n + 1):
            if not on_triangle(i, j):
                continue
            entries = [list(row) for row in inverse.entries]
            entries[i][j] += 1
            bumped = replace(inverse, entries=tuple(map(tuple, entries)))
            monkeypatch.setattr(ldu, build, lambda p, order: bumped)
            passed = {c.name: c.passed for c in verify_ldu(canonical, n).checks}
            assert not passed[check], (i, j)
            assert passed["bimoment-equals-LDU"]


@given(st.sampled_from(GRID), st.integers(min_value=0, max_value=7))
def test_product_recovers_block(point, n):
    p = make_params(point)
    low, diag, up = build_L(p, n).rows(), build_D(p, n).values, build_U(p, n).rows()
    block = bimoment_block(p, n).rows()
    for i in range(n + 1):
        for j in range(n + 1):
            acc = sum(low[i][k] * diag[k] * up[k][j] for k in range(min(i, j) + 1))
            assert acc == block[i][j]


def test_determinant_routes(grid):
    for p in grid:
        for n in range(25):
            from_diag, from_closed, from_elim = det_bimoment(p, n)
            assert from_diag == from_closed == from_elim
            assert from_closed == det_closed_form(p, n)


@pytest.mark.parametrize("point", GRID)
def test_pivots_are_the_diagonal_factor(point):
    p = make_params(point)
    block = bimoment_block(p, 17).rows()
    pivots, parity = lu_pivots(block)
    assert parity == 0
    assert pivots == list(build_D(p, 17).values) == crout_ldu(block)[1]


@given(st.sampled_from(GRID), st.integers(min_value=0, max_value=12))
def test_perturbed_block_changes_the_elimination_route(point, k):
    p = make_params(point)
    n = 12
    block = bimoment_block(p, n).rows()
    block[k][k] += 1
    pivots, parity = lu_pivots(block)
    value = -prod(pivots) if parity else prod(pivots)
    assert value != det_closed_form(p, n)
    assert value == det(block)
    assert pivots[:k] == list(build_D(p, n).values[:k])


@pytest.mark.parametrize("build", [build_D, det_closed_form, build_L, build_L_inverse, det_bimoment])
def test_negative_order_is_refused(canonical, build):
    with pytest.raises(InvalidParams):
        build(canonical, -1)
