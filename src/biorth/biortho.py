"""Monic bi-orthogonal polynomial sequences attached to the bimoment array.

P_n lives in the first letter, Q_n in the second.  Two independent
constructions must agree:

* rows of the inverse lower factor (``ldu.build_L_inverse``, its own
  recurrence) give the coefficients of P_n;
* :func:`monic_recurrence` on the band of the first operator
  (``band.d_band``), i.e. the characteristic polynomials of its leading
  blocks:
      P_{n+1} = (x - dnat_n) P_n + bd q^(n-1) g_{n-1} P_{n-1}.
  It is a three-term step on the shared integer kernel, through its
  Fraction form ``core.three_term``: it clears its step once per degree,
  and each coefficient is one Fraction.

Q_n is P_n at the swapped point a<->b, c<->d (the swap transposes the
moment block), so both constructions build it by swapping the parameters
once and running the P route.

Pairings against the functional must then be diagonal:
L(P_n Q_m) = Lambda_n delta_{n,m} with Lambda_n the diagonal factor.  The
whole grid of pairings is one product (P B) Q^T: P B is formed, and the
product with Q^T is searched against diag(Lambda) on integers, so a grid
entry becomes a Fraction only as the first failure.  For small orders
the same polynomials arise from bordered determinants of the moment
block.  ``pairing`` reads one pairing through the word
functional and imports ``wordfun`` when called: no command runs it, so
``polys`` does not compile the word layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from . import _linalg, band
from .bimoment import bimoment_table
from .core import (
    AWParams, FrozenRecord, InvalidParams, SingularParams, SizeLimit, _clear_denominators, three_term
)
from .ldu import build_D, build_L, build_L_inverse, build_U
from .reporting import VerificationReport

_VARIABLES = ("d", "e")


class PolySeq(FrozenRecord):
    """Sequence of monic polynomials; coeffs[n][k] multiplies x^k."""

    __slots__ = _fields = ("variable", "coeffs")

    def __init__(self, variable: str, coeffs: tuple[tuple[Fraction, ...], ...]):
        for n, row in enumerate(coeffs):
            if len(row) != n + 1 or row[n] != 1:
                raise InvalidParams(f"polynomial {n} is not monic of degree {n}")
        self._set(variable, coeffs)

    @property
    def count(self) -> int:
        return len(self.coeffs)

    def poly(self, n: int) -> tuple[Fraction, ...]:
        return self.coeffs[n]

    def square(self) -> list[list[Fraction]]:
        """The coefficient rows zero-padded to a count x count matrix."""
        return [list(row) + [Fraction(0)] * (self.count - len(row)) for row in self.coeffs]


def monic_recurrence(diag, products) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient rows (constant term first) of T_0 .. T_len(diag), where

        T_0 = 1,  T_(n+1)(x) = (x - diag[n]) T_n(x) - products[n-1] T_(n-1)(x):

    the characteristic polynomials of the leading blocks of the tridiagonal
    matrix whose diagonal is diag and whose off-diagonal pairs multiply to
    products."""
    seq = [(Fraction(1),)]
    for n, value in enumerate(diag):
        step = _clear_denominators([1, -value, -products[n - 1] if n else 0])
        cur = [0, *seq[-1], 0]  # cur[k] is the x^(k-1) coefficient of T_n
        before = [*(seq[-2] if n else ()), 0, 0]  # before[k] is the x^k coefficient of T_(n-1)
        seq.append(tuple(three_term(repeat(step, n + 2), zip(cur, cur[1:], before))))
    return tuple(seq)


def _p_side(p: AWParams, count: int, variable: str) -> AWParams:
    """The point whose P family is the requested one: p for P (variable
    "d"), the swapped point for Q ("e")."""
    if variable not in _VARIABLES:
        raise InvalidParams(f"variable must be one of {_VARIABLES}, got {variable!r}")
    if count <= 0:
        raise InvalidParams(f"count must be positive, got {count}")
    return p.swap_ab_cd() if variable == "e" else p


def polys_from_inverse(p: AWParams, count: int, variable: str = "d") -> PolySeq:
    """P_0..P_{count-1} read off the rows of the inverse lower factor (Q:
    the same at the swapped point)."""
    inv = build_L_inverse(_p_side(p, count, variable), count - 1)
    rows = [tuple(inv.entries[k][: k + 1]) for k in range(count)]
    return PolySeq(variable=variable, coeffs=tuple(rows))


def polys_from_recurrence(p: AWParams, count: int, variable: str = "d") -> PolySeq:
    """Same sequences generated by their three-term recurrences: the monic
    recurrence on the band of d (Q: the same at the swapped point)."""
    p = _p_side(p, count, variable)
    if count == 1:
        return PolySeq(variable=variable, coeffs=((Fraction(1),),))
    dop, _ = band.d_band(p, count - 1)
    products = [upper * lower for upper, lower in zip(dop.upper, dop.lower)]
    return PolySeq(variable=variable, coeffs=monic_recurrence(dop.diag, products))


def monomial_expansion_check(p: AWParams, count: int) -> bool:
    """Verify x^n = sum_k L[n][k] P_k and y^n = sum_k Q_k U[k][n], i.e.
    L P = I and Q^T U = I for P, Q the square coefficient matrices."""
    lower, upper = build_L(p, count - 1).rows(), build_U(p, count - 1).rows()
    pmat = polys_from_inverse(p, count, "d").square()
    qmat = polys_from_inverse(p, count, "e").square()
    identity = _linalg.mat_identity(count)
    return (
        _linalg.mat_mul(lower, pmat) == identity
        and _linalg.mat_mul(_linalg.mat_transpose(qmat), upper) == identity
    )


def pairing(p: AWParams, pcoeffs, qcoeffs) -> Fraction:
    """L(P(x) Q(y)) with P in the first letter and Q in the second."""
    from .wordfun import WordPoly, functional

    terms = {}
    for i, ci in enumerate(pcoeffs):
        if not ci:
            continue
        for j, cj in enumerate(qcoeffs):
            if cj:
                terms["d" * i + "e" * j] = ci * cj
    return functional(WordPoly(terms), p)


def _pairing_factors(p: AWParams, pseq: PolySeq, qseq: PolySeq):
    """(P B, Q^T): the grid [[pairing(p, P_n, Q_m) for m] for n] is their
    product.

    With P and Q the coefficient rows of the two families, zero-padded to
    a square, L(P_n Q_m) = sum_ij P[n][i] B[i][j] Q[m][j] for B the moment
    block of order count - 1.
    """
    block = bimoment_table(p).block(pseq.count - 1)
    return _linalg.mat_mul(pseq.square(), block), _linalg.mat_transpose(qseq.square())


def biorthogonality_check(p: AWParams, count: int) -> VerificationReport:
    """Check L(P_n Q_m) = Lambda_n delta_{n,m} for all n, m < count.

    The whole grid of pairings is one product (P B) Q^T
    (``_pairing_factors``).  It reads the same data as a loop over
    ``pairing``, which only ever normal-orders words d^i e^j that are
    already normal and then reads the same table entries: the polynomials
    still come from the inverse factors and the moments from the table.
    P B is formed; the product with Q^T is searched row by row against
    diag(Lambda) (``_linalg.product_mismatches``), so a grid entry becomes
    a Fraction only as the first failure.
    """
    report = VerificationReport(params=p.to_map(), n=count - 1)
    pseq = polys_from_inverse(p, count, "d")
    qseq = polys_from_inverse(p, count, "e")
    lam = build_D(p, count - 1)
    zero = Fraction(0)
    expected = [[lam.values[n] if n == m else zero for m in range(count)] for n in range(count)]

    def failures():
        for n, m, value in _linalg.product_mismatches(expected, *_pairing_factors(p, pseq, qseq)):
            yield {"n": n, "m": m, "value": value, "expected": expected[n][m]}

    report.check("diagonal-pairing", "pairing-grid", failures)

    degenerate = next((k for k, v in enumerate(lam.values) if v == 0), None)
    report.add(
        "nondegenerate-normalization",
        degenerate is None,
        None if degenerate is None else {"k": degenerate},
    )
    return report


_BORDER_LIMIT = 6


def bordered_determinant_check(p: AWParams, n: int) -> bool:
    """Compare P_n and Q_n with their bordered-determinant forms.

    P_n(x) = det of the moment block bordered by a final column of powers
    of x, divided by the order-(n-1) block determinant; Q_n is the same
    form on the transposed block (a final row of powers of y).  Cofactor
    expansion over exact minors; guarded to n <= 6 because the minor count
    grows quickly.
    """
    if n < 0:
        raise InvalidParams(f"n must be >= 0, got {n}")
    if n > _BORDER_LIMIT:
        raise SizeLimit(f"bordered determinants are guarded to n <= {_BORDER_LIMIT}")
    pseq = polys_from_inverse(p, n + 1, "d")
    qseq = polys_from_inverse(p, n + 1, "e")
    if n == 0:
        return pseq.poly(0) == (1,) and qseq.poly(0) == (1,)

    block = bimoment_table(p).block(n)
    scale = _linalg.det([row[:n] for row in block[:n]])
    if scale == 0:
        raise SingularParams(f"order-{n - 1} block determinant vanishes")

    def bordered(rows):
        # rows 0..n of the first n columns, bordered by powers of x
        coeffs = []
        for i in range(n + 1):
            minor = [row[:n] for r, row in enumerate(rows) if r != i]
            sign = -1 if (i + n) % 2 else 1
            coeffs.append(sign * _linalg.det(minor) / scale)
        return tuple(coeffs)

    # the mirror a<->b, c<->d transposes the block: Q_n is its P_n
    return bordered(block) == pseq.poly(n) and bordered(_linalg.mat_transpose(block)) == qseq.poly(n)
