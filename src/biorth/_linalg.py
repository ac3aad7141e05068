"""Exact dense linear algebra over rationals, on integer kernels.

Dense list-of-list matrices of Fractions come in and go out, but the work
is done on plain integers.  ``Fraction`` reduces by a gcd after every
``+`` and ``*``; clearing denominators once per row (or column) and
reducing once per result avoids those gcds in the inner loops.

The kernel rule and the three-term kernel every tridiagonal recurrence
runs on live in ``core`` (``_clear_denominators``, ``three_term_pairs``).

The dense routines:

* ``mat_mul`` scales each row of the left factor and each column of the
  right factor by the lcm of its denominators, takes integer dot products
  over the overlap of the two nonzero spans (so triangular factors cost
  about half), and forms one Fraction per output entry.
  ``product_mismatches`` computes the same integer products row by row,
  lazily, and compares each with the expected entry on integers, so the
  searches of ``ldu.verify_ldu`` and of the pairing grid build a Fraction
  only for a mismatch.  A column cleared once carries its deepest row's
  denominators into every entry it meets, so on triangular factors the
  order matters: ``verify_ldu`` puts the inverse on the left of each
  inverse identity, where each of its rows is cleared over its own
  denominators.
* ``lu_pivots`` factors a square matrix by left-looking (Doolittle)
  elimination with first-nonzero pivoting and returns the pivots and the
  parity of the row swaps.  Each L row and the U column being built are
  integers over one scale, extended by an lcm as entries are appended,
  so each entry is one integer dot product and one Fraction.  It is the
  elimination route of ``ldu.det_bimoment``: on the moment blocks its
  integers stay near the size of the entries, where Bareiss's row scales
  multiply together.
* ``det`` and ``nullspace`` run a fraction-free (Bareiss) elimination on
  the row-scaled integer matrix.  ``det`` serves the bordered minors of
  ``biortho`` (order 6 at most), where it beats ``lu_pivots`` (1.6-2.6
  times as fast on the moment blocks of orders 4-7); ``nullspace`` serves
  ``asep.stationary_exact``, the dense chain solve the tests hold the
  stationary certificate to.  The two eliminations share no code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .core import BiorthError, _clear_denominators


def _spanned(vec):
    """(integers, scale, lo, hi): vec cleared of denominators, with
    [lo, hi) the span of its nonzero entries (empty when vec is zero)."""
    ints, scale = _clear_denominators(vec)
    nonzero = [k for k, value in enumerate(ints) if value]
    if not nonzero:
        return ints, scale, 0, 0
    return ints, scale, nonzero[0], nonzero[-1] + 1


def _columns(a, b, name):
    """The columns of b, each ``_spanned``, once a is checked to have as
    many columns as b has rows."""
    if any(len(row) != len(b) for row in a):
        raise BiorthError(f"{name} needs as many columns in a as rows in b")
    return [_spanned(col) for col in zip(*b)]


def _row_product(row, cols):
    """Row of a b as unreduced (integer, scale) pairs, from a ``_spanned``
    row of a and the ``_spanned`` columns of b: each entry is the integer
    dot product over the overlap of the two nonzero spans."""
    ints, row_scale, row_lo, row_hi = row
    out = []
    for col, col_scale, col_lo, col_hi in cols:
        lo, hi = max(row_lo, col_lo), min(row_hi, col_hi)
        acc = sum(map(mul, ints[lo:hi], col[lo:hi])) if lo < hi else 0
        out.append((acc, row_scale * col_scale))
    return out


def mat_mul(a, b):
    """Exact product of two list-of-list matrices of rationals.

    Entry (i, j) is the integer dot product of the scaled row i of a and
    the scaled column j of b over the overlap of their nonzero spans,
    divided by the product of the two scales.
    """
    cols = _columns(a, b, "mat_mul")
    return [[Fraction(*entry) for entry in _row_product(_spanned(row), cols)] for row in a]


def product_mismatches(expected, a, b):
    """(i, j, value) for each entry where value = (a b)[i][j] differs from
    expected[i][j], in row-major order, computed lazily: each row of a b is
    ``_row_product``, and its entries are compared with expected on
    integers (num * scale == acc * den), so a Fraction is built only for a
    mismatch.  Inconsistent shapes raise at the call."""
    cols = _columns(a, b, "product_mismatches")
    if len(expected) != len(a) or any(len(row) != len(cols) for row in expected):
        raise BiorthError("product_mismatches needs expected of the shape of a b")
    return _mismatches(expected, a, cols)


def _mismatches(expected, a, cols):
    for i, (expected_row, row) in enumerate(zip(expected, a)):
        for j, (entry, (acc, scale)) in enumerate(zip(expected_row, _row_product(_spanned(row), cols))):
            if entry.numerator * scale != acc * entry.denominator:
                yield i, j, Fraction(acc, scale)


def mat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def _integer_rows(mat):
    """Scale each row to integers; return (rows, product of scales)."""
    scaled = []
    scale_product = 1
    for row in mat:
        ints, scale = _clear_denominators(row)
        scale_product *= scale
        scaled.append(ints)
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


def _append(ints, scale, value) -> int:
    """Append value to ints, integers over scale; return the new scale.

    The scale grows to an lcm, and the earlier integers are rescaled, only
    when value's denominator does not divide it.
    """
    den = value.denominator
    if scale % den:
        grown = lcm(scale, den)
        factor = grown // scale
        ints[:] = [x * factor for x in ints]
        scale = grown
    ints.append(value.numerator * (scale // den))
    return scale


def _residual(entry, row, row_scale, col, col_scale) -> tuple[int, int]:
    """entry - (row / row_scale) . (col / col_scale), as an unreduced
    (numerator, denominator) pair: one integer dot product."""
    scale = row_scale * col_scale
    return (
        entry.numerator * scale - entry.denominator * sum(map(mul, row, col)),
        entry.denominator * scale,
    )


def lu_pivots(mat) -> tuple[list[Fraction], int]:
    """Pivots of a left-looking (Doolittle) elimination P A = L U, with the
    parity of its row swaps: det A = (-1)^parity times their product.

    Column k takes U[m][k] = A[m][k] - L[m][:m] . U[:m][k] for m < k, then
    the candidates A[i][k] - L[i][:k] . U[:k][k] for rows i >= k.  The pivot
    is the first nonzero candidate; its row is swapped up to k, and the
    others divided by it are column k of L.  Each L row and the current U
    column are integers over one scale (``_append``), so every produced
    entry is one integer dot product with the matrix entry folded in, and
    one Fraction.  Where every candidate is zero the matrix is singular:
    the pivots stop there, the last one 0.  Where all leading minors are
    nonzero no row moves and the pivots are the D of A = L D U.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise BiorthError("lu_pivots needs a square matrix")
    rows = list(mat)
    lower = [[] for _ in range(n)]
    lower_scale = [1] * n
    pivots = []
    parity = 0
    for k in range(n):
        col, col_scale = [], 1
        for m in range(k):
            value = _residual(rows[m][k], lower[m], lower_scale[m], col, col_scale)
            col_scale = _append(col, col_scale, Fraction(*value))
        candidates = [
            _residual(rows[i][k], lower[i], lower_scale[i], col, col_scale) for i in range(k, n)
        ]
        first = next((j for j, (num, _) in enumerate(candidates) if num), None)
        if first is None:
            pivots.append(Fraction(0))
            break
        if first:
            r = k + first
            rows[k], rows[r] = rows[r], rows[k]
            lower[k], lower[r] = lower[r], lower[k]
            lower_scale[k], lower_scale[r] = lower_scale[r], lower_scale[k]
            candidates[0], candidates[first] = candidates[first], candidates[0]
            parity ^= 1
        pivot = Fraction(*candidates[0])
        pivots.append(pivot)
        for i, (num, den) in enumerate(candidates[1:], k + 1):
            lower_scale[i] = _append(
                lower[i], lower_scale[i], Fraction(num * pivot.denominator, den * pivot.numerator)
            )
    return pivots, parity


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
