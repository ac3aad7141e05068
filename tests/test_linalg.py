from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from biorth import BiorthError
from biorth._linalg import det, lu_pivots, mat_identity, mat_mul, product_mismatches

from conftest import naive_mul


# Zero often (so rows, columns and spans vanish), small and large
# numerators of both signs, and denominators that differ entry by entry.
entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)


# Which entries of a (rows x inner) and of b (inner x cols) may be nonzero.
SHAPES = {
    "lower x lower": (lambda i, k: k <= i, lambda k, j: j <= k),
    "lower x upper": (lambda i, k: k <= i, lambda k, j: j >= k),
    "upper x upper": (lambda i, k: k >= i, lambda k, j: j >= k),
    "dense x upper": (lambda i, k: True, lambda k, j: j >= k),
    "dense x dense": (lambda i, k: True, lambda k, j: True),
}


@st.composite
def factor_pairs(draw):
    """(expected, a, b): factors of one of ``SHAPES`` (trapezoidal where
    not square), with zero rows of a and zero columns of b, and expected
    the Fraction product with 0-3 entries changed."""
    a_keeps, b_keeps = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    rows = draw(st.integers(0, 6))
    inner = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    a = [[draw(entries) if a_keeps(i, k) else F(0) for k in range(inner)] for i in range(rows)]
    b = [[draw(entries) if b_keeps(k, j) else F(0) for j in range(cols)] for k in range(inner)]
    for row in draw(st.sets(st.integers(0, 5))):
        if row < rows:
            a[row] = [F(0)] * inner
    for col in draw(st.sets(st.integers(0, 5))):
        for row in b:
            if col < cols:
                row[col] = F(0)
    expected = naive_mul(a, b)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        expected[i][j] += draw(entries)  # zero leaves the entry as it was
    return expected, a, b


@settings(max_examples=150)
@given(factor_pairs())
def test_mat_mul_matches_fraction_loop(case):
    # rows and columns are cleared over their own spans and denominators, so
    # the entries must agree whatever the factors' shapes
    expected, a, b = case
    product = naive_mul(a, b)
    assert mat_mul(a, b) == product
    assert all(type(value) is F for row in mat_mul(a, b) for value in row)
    found = list(product_mismatches(expected, a, b))
    assert found == [
        (i, j, value)
        for i, row in enumerate(product)
        for j, value in enumerate(row)
        if value != expected[i][j]
    ]
    assert all(type(value) is F for _, _, value in found)


def test_mat_mul_edge_shapes():
    zero = [[F(0)] * 3 for _ in range(2)]
    assert mat_mul(zero, [[F(1, 3)] * 4 for _ in range(3)]) == [[F(0)] * 4 for _ in range(2)]
    assert mat_mul([], [[F(1)]]) == []
    # triangular factors: the nonzero spans of row and column overlap in part
    lower = [[F(i + j + 1, j + 2) if j <= i else F(0) for j in range(4)] for i in range(4)]
    upper = [list(col) for col in zip(*lower)]
    assert mat_mul(lower, upper) == naive_mul(lower, upper)
    assert mat_mul(upper, lower) == naive_mul(upper, lower)
    assert mat_mul(lower, mat_identity(4)) == lower
    # integer entries are accepted as rationals
    assert mat_mul([[1, -2]], [[F(1, 2)], [3]]) == [[F(-11, 2)]]


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(BiorthError):
        mat_mul([[F(1), F(2)]], [[F(1)]])


@st.composite
def square_matrices(draw):
    """Square matrices of order 0-7 whose first pivots are often zero:
    leading entries of the top rows cleared, whole rows cleared, and a row
    made a combination of two others."""
    n = draw(st.integers(0, 7))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(draw(st.integers(0, n))):
        cut = draw(st.integers(0, n - 1))
        m[i] = [F(0)] * cut + m[i][cut:]
    if n and draw(st.integers(0, 3)) == 0:
        m[draw(st.integers(0, n - 1))] = [F(0)] * n
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        x, y = draw(entries), draw(entries)
        m[i] = [x * u + y * v for u, v in zip(m[j], m[k])]
    return m


def signed_product(pivots, parity):
    return -prod(pivots) if parity else prod(pivots)


@given(square_matrices())
@example([])
@example([[F(0), F(1)], [F(1), F(0)]])
@example([[F(0), F(0), F(2)], [F(0), F(3), F(1)], [F(5), F(1), F(1)]])
@example([[F(1), F(2)], [F(1, 2), F(1)]])
@example([[F(1), F(2), F(3)], [F(0), F(0), F(0)], [F(4), F(5), F(6)]])
def test_lu_pivots_match_bareiss(m):
    pivots, parity = lu_pivots(m)
    value = signed_product(pivots, parity)
    assert value == det(m)
    if value:
        assert len(pivots) == len(m) and all(pivots)
    else:
        # the pivots stop at the first column without a nonzero candidate
        assert pivots[-1] == 0 and all(pivots[:-1])
    assert all(type(pivot) is F for pivot in pivots)


def test_lu_pivots_swaps_and_refuses_non_square():
    assert lu_pivots([]) == ([], 0)
    assert lu_pivots([[F(0), F(1)], [F(1), F(0)]]) == ([1, 1], 1)
    # a rotation of three rows takes two swaps
    assert lu_pivots([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == ([1, 1, 1], 0)
    assert lu_pivots([[F(1, 2), F(3)], [F(1), F(6)]]) == ([F(1, 2), 0], 0)
    with pytest.raises(BiorthError):
        lu_pivots([[F(1), F(2)]])
