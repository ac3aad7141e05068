"""Exact dense linear algebra over rationals.

Kept deliberately small: dense list-of-list matrices of Fractions, a
fraction-free (Bareiss) elimination for determinants and echelon forms, and
a nullspace routine built on top of it.  Fraction-free means intermediate
entries stay integers (after clearing row denominators), so entry growth is
bounded by minor sizes instead of compounding rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import BiorthError


def mat_mul(a, b):
    """Dense exact product of two list-of-list matrices."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            acc = Fraction(0)
            for k in range(inner):
                aik = ai[k]
                if aik:
                    acc += aik * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def _integer_rows(mat):
    """Scale each row to integers; return (rows, product of scales)."""
    scaled = []
    scale_product = Fraction(1)
    for row in mat:
        mult = lcm(*(value.denominator for value in row)) if row else 1
        scale_product *= mult
        scaled.append([int(value * mult) for value in row])
    return scaled, scale_product


def _fraction_free_echelon(m):
    """In-place fraction-free echelon form of an integer matrix.

    Returns (pivots, swaps) where pivots is a list of (row, col) positions
    and swaps counts row interchanges.  The exact-division step divides by
    the previous pivot; exactness is a determinant identity for integer
    input, and is asserted rather than trusted.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            swaps += 1
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                num = row_i[j] * pivot - mic * row_r[j]
                quot, rem = divmod(num, prev)
                if rem:
                    raise BiorthError("fraction-free elimination lost exactness")
                row_i[j] = quot
        prev = pivot
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def det(mat) -> Fraction:
    """Exact determinant via fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in mat):
        raise BiorthError("det needs a square matrix")
    rows, scale = _integer_rows(mat)
    pivots, swaps = _fraction_free_echelon(rows)
    if len(pivots) < n:
        return Fraction(0)
    value = Fraction(rows[n - 1][n - 1])
    if swaps % 2:
        value = -value
    return value / scale


def nullspace(mat):
    """Basis of {x : mat @ x = 0} as lists of Fractions."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rows, _ = _integer_rows(mat)
    pivots, _ = _fraction_free_echelon(rows)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, c in reversed(pivots):
            acc = Fraction(0)
            row = rows[r]
            for j in range(c + 1, ncols):
                if row[j] and x[j]:
                    acc += row[j] * x[j]
            x[c] = -acc / row[c]
        basis.append(x)
    return basis
