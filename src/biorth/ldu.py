"""Triangular-diagonal factorization of the bimoment block.

The conjectured decomposition is B = L D U with L unit lower triangular,
U unit upper triangular, and D diagonal with D_0 = 1, D_k = D_{k-1} g_{k-1}.
Row n of L is <e0| d^n for d the first operator of the monic
representation, so L is built by applying the band of ``band.d_band``
row after row.  L^{-1} comes from its own entry recurrence, written here
on the dnat and g sweeps (``core.d_natural_sweep``, ``core.g_sweep``) and
deliberately not from the band: nothing inverts a matrix numerically, so
L^{-1} L = I and U U^{-1} = I are real checks of the representation
instead of tautologies, and B = L D U ties the moment table to the same
band.  Each inverse identity is read from the inverse's side, so the
product kernel clears each row of L^{-1} (column of U^{-1}) over its own
denominators, not a column (row) over the deepest row's (column's); a
one-sided inverse of a square matrix is two-sided, so the verdicts are
those of L L^{-1} = I and U^{-1} U = I, under whose check names they
stay.

The exchange a<->b, c<->d transposes the block and fixes every g_j, so U
and U^{-1} are built as the transposes of L and L^{-1} at the swapped
point; B = L D U still checks U against the block of the unswapped point.

Determinants of the bimoment block are computed by three independent
routes: the product of the diagonal factors, a closed-form q-Pochhammer
product, and the signed product of the pivots of a left-looking L U
elimination of the block itself (``_linalg.lu_pivots``), which reads
nothing but the moment table.

Both triangular recurrences run on the shared three-term kernel
``core.three_term``: L through ``TridiagonalOperator.matvec``; L^{-1}
clears its own step coefficients once per row, and the kernel clears the
three entries of rows i-1 and i-2 each entry reads and forms one Fraction
per entry.  D is the running product of one g sweep.  The three products
of ``verify_ldu`` are compared on integers (``_linalg.product_mismatches``),
so a product entry becomes a Fraction only where it fails.  L D stays one
reduced Fraction per entry: its rows clear to D's own denominators, and
folding D into the integer rows unreduced made the products slower.
Each determinant route is one integer product and one Fraction: the
closed form takes each level's factors with q = t/s as integers, O(n)
factors in all, and the diagonal and pivot products multiply numerators
and denominators apart.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import prod

from . import _linalg, band
from .bimoment import bimoment_table
from .core import (
    AWParams,
    FrozenRecord,
    InvalidParams,
    SingularParams,
    _QPowers,
    _clear_denominators,
    d_natural_sweep,
    g_sweep,
    three_term,
)
from .reporting import VerificationReport


class TriangularFactor(FrozenRecord):
    """Unit triangular matrix of order ``order``, stored dense."""

    __slots__ = _fields = ("order", "entries")

    def __init__(self, order: int, entries: tuple[tuple[Fraction, ...], ...]):
        self._set(order, entries)

    def rows(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]


class DiagonalFactor(FrozenRecord):
    """Diagonal of the factorization: D_0 = 1, D_k = D_{k-1} g_{k-1}."""

    __slots__ = _fields = ("order", "values")

    def __init__(self, order: int, values: tuple[Fraction, ...]):
        self._set(order, values)


def build_L(p: AWParams, n: int) -> TriangularFactor:
    """Unit lower factor: row i is <e0| d^i, row i-1 times the d band, i.e.

    L[i][j] = L[i-1][j-1] + dnat_j L[i-1][j] - bd q^j g_j L[i-1][j+1].

    Rows are computed as the transposed band applied to the previous row;
    only the size-n band is read, and L[i][i] = 1 is the unit superdiagonal.
    """
    if n < 0:
        raise InvalidParams(f"order must be >= 0, got {n}")
    rows = [[Fraction(1)]]
    if n:
        dop, _ = band.d_band(p, n)
        transposed = band.TridiagonalOperator(dop.size, dop.diag, dop.lower, dop.upper)
        for i in range(1, n + 1):
            rows.append(transposed.matvec(rows[-1], i) + [Fraction(1)])
    zero = (Fraction(0),)
    return TriangularFactor(n, tuple(tuple(row) + zero * (n - i) for i, row in enumerate(rows)))


def _transposed(factor: TriangularFactor) -> TriangularFactor:
    return TriangularFactor(factor.order, tuple(zip(*factor.entries)))


def build_U(p: AWParams, n: int) -> TriangularFactor:
    """Unit upper factor: the transposed lower factor of the swapped point.

    Entrywise this is the column recurrence
    U[i][j] = U[i-1][j-1] + enat_i U[i][j-1] - ac q^i g_i U[i+1][j-1].
    """
    return _transposed(build_L(p.swap_ab_cd(), n))


def build_L_inverse(p: AWParams, n: int) -> TriangularFactor:
    """Inverse lower factor, generated by its own recurrence

    Linv[i][j] = Linv[i-1][j-1] - dnat_{i-1} Linv[i-1][j]
                 + bd q^(i-2) g_{i-2} Linv[i-2][j]

    (the two-back term is absent for i < 2).
    """
    if n < 0:
        raise InvalidParams(f"order must be >= 0, got {n}")
    bd = p.b * p.d
    q = p.q
    dnat = d_natural_sweep(p, n)
    g = g_sweep(p, n - 1)
    zero = Fraction(0)
    m = [[Fraction(1)] + [zero] * n]
    for i in range(1, n + 1):
        two_back = bd * q ** (i - 2) * g[i - 2] if i >= 2 else 0
        step = _clear_denominators([1, -dnat[i - 1], two_back])
        last = [0, *m[i - 1]]  # last[j] is Linv[i-1][j-1]
        before = m[i - 2] if i >= 2 else [0] * (n + 1)  # before[j] is Linv[i-2][j]
        row = three_term(repeat(step, i + 1), zip(last, last[1:], before))
        m.append(row + [zero] * (n - i))
    return TriangularFactor(n, tuple(tuple(r) for r in m))


def build_U_inverse(p: AWParams, n: int) -> TriangularFactor:
    """Inverse upper factor: the transposed inverse lower factor of the
    swapped point, i.e. the column recurrence

    Uinv[i][j] = Uinv[i-1][j-1] - enat_{j-1} Uinv[i][j-1]
                 + ac q^(j-2) g_{j-2} Uinv[i][j-2].
    """
    return _transposed(build_L_inverse(p.swap_ab_cd(), n))


def build_D(p: AWParams, n: int) -> DiagonalFactor:
    if n < 0:
        raise InvalidParams(f"order must be >= 0, got {n}")
    values = [Fraction(1)]
    for g in g_sweep(p, n):
        values.append(values[-1] * g)
    return DiagonalFactor(n, tuple(values))


def verify_ldu(p: AWParams, n: int) -> VerificationReport:
    """Check B = L D U on the order-n block, plus both inverse identities.

    Each product is searched row by row against the matrix it must equal
    with ``_linalg.product_mismatches``, on integers; the first mismatch
    is recorded as block vs product (B = L D U) and product vs identity
    (L^-1 L = I under "lower-times-inverse", U U^-1 = I under
    "inverse-times-upper").  The names are those of L L^-1 = I and
    U^-1 U = I, which have the same verdicts, but a failure's i, j and
    "left" are an entry of L^-1 L (resp. U U^-1), not of the product the
    name reads.
    """
    report = VerificationReport(params=p.to_map(), n=n)

    with report.timed("build"):
        lower = build_L(p, n)
        upper = build_U(p, n)
        lower_inv = build_L_inverse(p, n)
        upper_inv = build_U_inverse(p, n)
        diag = build_D(p, n)
        block = bimoment_table(p).block(n)

    def mismatches(expected, a, b, product_left):
        for i, j, value in _linalg.product_mismatches(expected, a, b):
            left, right = (value, expected[i][j]) if product_left else (expected[i][j], value)
            yield {"i": i, "j": j, "left": left, "right": right}

    def scaled_lower():  # the zeros above L's diagonal stay as they are
        return [[value * d if value else value for value, d in zip(row, diag.values)] for row in lower.rows()]

    report.check(
        "bimoment-equals-LDU",
        "factorization-product",
        lambda: mismatches(block, scaled_lower(), upper.rows(), False),
    )
    identity = _linalg.mat_identity(n + 1)
    report.check(
        "lower-times-inverse",
        "lower-inverse-identity",
        lambda: mismatches(identity, lower_inv.rows(), lower.rows(), True),
    )
    report.check(
        "inverse-times-upper",
        "upper-inverse-identity",
        lambda: mismatches(identity, upper.rows(), upper_inv.rows(), True),
    )
    return report


def det_closed_form(p: AWParams, n: int) -> Fraction:
    """Closed-form determinant of the order-n block:

    prod_{i=1}^{n} (abcd/q, q, ab, bc, ad, cd; q)_i
                   / ((abcd/q; q^2)_i (abcd; q^2)_i^2 (abcd q; q^2)_i)

    (abcd/q; q)_i and (abcd/q; q^2)_i share their first factor, 1 - abcd/q;
    it cancels and is left out of both (lowest terms), so abcd = q is a
    regular point.

    Level i = m + 1 brings the last factors 1 - x q^m and 1 - y q^(2m) of
    the Pochhammer symbols, and they enter the n - i + 1 terms i .. n of the
    product.  With q = t/s a factor is an integer over x's denominator
    times s^m (y's times s^(2m)), so the product runs on integers: each
    level's numerators raised to n - i + 1, and the denominators, the same
    at every level but for s^(2m) on the y side, once.  One Fraction.
    """
    if n < 0:
        raise InvalidParams(f"order must be >= 0, got {n}")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    xs = [abcd / q, q, a * b, b * c, a * d, c * d]
    ys = [abcd / q, abcd, abcd, abcd * q]
    tp, sp = _QPowers(q).upto(2 * (n - 1))
    num = den = 1
    s_power = 0
    for i in range(1, n + 1):
        m = i - 1
        shared = 1 if i == 1 else 0  # the cancelled first factor is met at i = 1
        level_num = prod(x.denominator * sp[m] - x.numerator * tp[m] for x in xs[shared:])
        level_den = prod(y.denominator * sp[2 * m] - y.numerator * tp[2 * m] for y in ys[shared:])
        if level_den == 0:
            raise SingularParams(f"closed-form determinant denominator vanishes at i={i}")
        uses = n - i + 1
        num *= level_num**uses
        den *= level_den**uses
        s_power += 2 * m * uses
    # xs[0] and ys[0] share their denominator, so every level's is the same
    uses = n * (n + 1) // 2
    num *= prod(y.denominator for y in ys[1:]) ** uses * q.denominator**s_power
    den *= prod(x.denominator for x in xs[1:]) ** uses
    return Fraction(num, den)


def _product(values, sign: int = 1) -> Fraction:
    """sign * prod(values), on integers: one Fraction."""
    return Fraction(sign * prod(v.numerator for v in values), prod(v.denominator for v in values))


def det_bimoment(p: AWParams, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Determinant of the order-n block via three independent routes.

    Returns (product of diagonal factors, closed form, elimination).  The
    elimination route is the signed pivot product of ``_linalg.lu_pivots``
    on the block; where ``validate`` accepts the point no row is swapped,
    since the leading minors are products of g's.  Route agreement is the
    caller's check; this function reports all three rather than
    collapsing them.
    """
    from_diagonal = _product(build_D(p, n).values)
    from_closed_form = det_closed_form(p, n)
    pivots, parity = _linalg.lu_pivots(bimoment_table(p).block(n))
    from_elimination = _product(pivots, -1 if parity else 1)
    return from_diagonal, from_closed_form, from_elimination
