"""Exact dense linear algebra over rationals, on integer kernels.

Dense list-of-list matrices of Fractions come in and go out, but the work
is done on plain integers.  ``Fraction`` reduces by a gcd after every
``+`` and ``*``; clearing denominators once per row (or column) and
reducing once per result avoids those gcds in the inner loops.

The kernel rule, here and in every hot recurrence of the package: clear
the recurrence's rational coefficients to integers with one scale per row
or step, outside the entry loop (``_clear_denominators``, which lives in
``core``, whose sweeps use it too); clear the values an entry reads over
the lcm of their denominators; combine them in plain ``int`` arithmetic;
build exactly one Fraction per entry that leaves the routine.  A value
that never leaves it (a component of a walk that returns one component
per step, a row of a fill that keeps only part of each row, a table
entry not yet read, an entry of a product that is only compared) stays
an unreduced (numerator, denominator) pair of integers: a Fraction
reduces by a full-size gcd, 1.7-4 times the cost of a multiplication of
the same 1.5-6k-bit operands, and on these walks most of the common
factor it finds comes from the step's own small scale (34 of 38 bits on
average on the order-26 column fill).

Every tridiagonal recurrence is one three-term step on one kernel,
``three_term_pairs``: it takes cleared steps ((u, v, w), scale) and the
triples (x, y, z) they read, pairwise, as unreduced (numerator,
denominator) pairs, clears each triple once and cancels each result only
by the gcd of its numerator and the step scale, which is cheap because
the step scale is small.  ``three_term`` is the same step on rationals,
one reduced Fraction per entry.  Their callers keep their own
coefficients.  On ``three_term``, whose every entry is returned:
``repmat.TridiagonalOperator.matvec``, on which the band walk of
``ldu.build_L`` runs (row n of L is <e0| d^n); ``repmat.monic_recurrence``
(the P/Q and T polynomials); and ``ldu.build_L_inverse``, which keeps its
own recurrence so that L L^-1 = I stays a check.  On the pairs: the
moment table's column fill (``bimoment.BimomentTable``: column j is the
step band applied to column j-1; an entry is stored as its pair and
reduced to a Fraction in place when first read, and the rows below the
square a reader asks for are never reduced), the row fill
(``bimoment._block_by_rows``, the separate route to the block, one
Fraction per kept entry) and the walk of ``repmat.jacobi_moments`` (one
Fraction per moment).  The kernel clears the three neighbours of each
entry, not a whole column: down a moment-table column the denominators
grow from about 100 to 10,000 bits (order 48), so one column-wide scale
would bring every entry up to the largest and make each final reduction
a gcd at that size.

Two recurrences stay outside the kernel.  The boundary column
(``bimoment._extend_boundary``) is a two-term feedback recurrence: each
step reads the two entries it has just produced and yields one.  The
``asep`` transfer walk clears both site operators' bands over one
walk-wide scale S and stays on integers to the end.  It is at most 12
steps (``asep._GENERATOR_LIMIT``) over bands of at most 7 levels, so its
integers (3.4k bits at L = 12 at the costliest GRID point, against 214
reduced) still win, because no step pays a gcd; ``build_L`` and
``jacobi_moments`` walk tens to hundreds of levels, where S would
multiply in at every step, and a vector-wide scale already measured
slower there than the per-entry clearing.

The rule also covers the row sums of ``asep.generator``, the residual of
``asep.certify_stationary``, the moment sums ``wordfun._moment_sums`` (a
batch clears each moment it reads once, over one scale: the table's
denominators nearly divide one another, so over orders i + j <= 40 at the
costliest GRID point their lcm has 1,923 bits, the largest 1,838), the
closed-form sweeps ``core.g_sweep``, ``core.d_natural_sweep`` and
``repmat.aw_sweep`` (q = t/s read through integer powers of t and s), the
Askey-Wilson series ``repmat.aw_series`` (its level-independent factors
cleared once per point, one Fraction per level), the ``aw`` suite's
recurrence residual (a ``three_term`` step per level) and the banded
algebra check ``repmat.verify_algebra`` (band rows i-1 .. i+1 of both
operators over one scale per row, and no Fraction unless an entry fails).
The word route goes further: a normal form is integer coefficients over one
integer scale all along it, so ``wordfun._times_letter`` builds no
Fraction (a d letter multiplies the scale by t^J for q^-j, 0 <= j <= J),
and Fractions are built only where a public function returns.  The dense
routines:

* ``mat_mul`` scales each row of the left factor and each column of the
  right factor by the lcm of its denominators, takes integer dot products
  over the overlap of the two nonzero spans (so triangular factors cost
  about half), and forms one Fraction per output entry.
  ``product_mismatches`` computes the same integer products row by row,
  lazily, and compares each with the expected entry on integers, so the
  three products of ``ldu.verify_ldu`` build a Fraction only for a
  mismatch.  Both take the right factor as a matrix or as its
  ``Columns``, cleared once: ``verify_ldu`` clears U once for its two
  products with U on the right.
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
from math import gcd, lcm
from operator import mul

from .core import BiorthError, _clear_denominators


def three_term_pairs(steps, triples) -> list[tuple[int, int]]:
    """(u x + v y + w z) / scale for each cleared step ((u, v, w), scale)
    and the triple (x, y, z) it reads, paired in order, on unreduced
    (numerator, denominator) pairs with positive denominators, in and out:
    the triple is cleared over the lcm of its denominators (inline, as the
    innermost loop of every tridiagonal recurrence), and each result is
    cancelled only by the gcd of its numerator and the (small) step scale."""
    out = []
    for ((u, v, w), step_scale), ((xn, xd), (yn, yd), (zn, zd)) in zip(steps, triples):
        scale = lcm(xd, yd, zd)
        num = u * xn * (scale // xd) + v * yn * (scale // yd) + w * zn * (scale // zd)
        common = gcd(num, step_scale)
        out.append((num // common, step_scale // common * scale))
    return out


def three_term(steps, triples) -> list[Fraction]:
    """``three_term_pairs`` on triples of rationals, one reduced Fraction
    per entry."""
    pairs = ((x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()) for x, y, z in triples)
    return [Fraction(*pair) for pair in three_term_pairs(steps, pairs)]


def _spanned(vec):
    """(integers, scale, lo, hi): vec cleared of denominators, with
    [lo, hi) the span of its nonzero entries (empty when vec is zero)."""
    ints, scale = _clear_denominators(vec)
    nonzero = [k for k, value in enumerate(ints) if value]
    if not nonzero:
        return ints, scale, 0, 0
    return ints, scale, nonzero[0], nonzero[-1] + 1


class Columns:
    """The columns of a matrix b, each ``_spanned``: what a product a b
    reads of b, cleared once however many products read it."""

    def __init__(self, b):
        self.inner = len(b)
        self.spans = [_spanned(col) for col in zip(*b)]


def _columns(a, b, name) -> Columns:
    """b (a matrix or its ``Columns``) as ``Columns``, once a is checked to
    have as many columns as b has rows."""
    cols = b if isinstance(b, Columns) else Columns(b)
    if any(len(row) != cols.inner for row in a):
        raise BiorthError(f"{name} needs as many columns in a as rows in b")
    return cols


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
    cols = _columns(a, b, "mat_mul").spans
    return [[Fraction(*entry) for entry in _row_product(_spanned(row), cols)] for row in a]


def product_mismatches(expected, a, b):
    """(i, j, value) for each entry where value = (a b)[i][j] differs from
    expected[i][j], row by row, computed lazily: each row of a b is
    ``_row_product``, and its entries are compared with expected on
    integers (num * scale == acc * den), so a Fraction is built only for a
    mismatch.  b is a matrix or its ``Columns``.  Inconsistent shapes raise
    at the call."""
    cols = _columns(a, b, "product_mismatches").spans
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
