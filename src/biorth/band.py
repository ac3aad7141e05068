"""The tridiagonal representation of the two boundary operators.

The pair of shifted boundary operators is represented in a rational monic
basis: the first operator has unit superdiagonal, diagonal dnat_n and
subdiagonal -bd q^n g_n; the second has subdiagonal g_n, diagonal enat_n
and superdiagonal -ac q^n.  Every entry is an exact rational.
:func:`d_band` is the one writer of the first operator's band: it is the d
of :func:`rep_rational`, and the boundary basis reads it too (the rows of
the lower factor L are <e0| d^n, and the P_n of the recurrence route are
its characteristic polynomials).  Both read each coefficient family as one
sweep of ``core`` (``d_natural_sweep``, ``e_natural_sweep``, ``g_sweep``).
``ldu.build_L_inverse`` keeps its own recurrence on purpose, as the
independent reference for both.

:meth:`TridiagonalOperator.matvec` is a three-term step on the shared
integer kernel, through its Fraction form ``core.three_term``: it clears
each band row of denominators once per operator, the kernel clears the
three values each output entry reads, and each entry is one Fraction.  The
band walk of ``ldu.build_L`` runs on matvec.  Every walk over a band, here
and in ``repmat`` and ``asep``, reads it through
:meth:`TridiagonalOperator.band_rows` and a vector through
:func:`neighbours`.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    AWParams,
    FrozenRecord,
    InvalidParams,
    ShapeError,
    _clear_denominators,
    d_natural_sweep,
    e_natural_sweep,
    g_sweep,
    three_term,
)


class TridiagonalOperator(FrozenRecord):
    """Banded operator truncation: diag[n], upper[n] = (n, n+1), lower[n] = (n+1, n)."""

    _fields = ("size", "diag", "upper", "lower")
    __slots__ = (*_fields, "_rows")

    def __init__(self, size: int, diag: tuple, upper: tuple, lower: tuple):
        if len(diag) != size or len(upper) != size - 1 or len(lower) != size - 1:
            raise ShapeError("band lengths inconsistent with size")
        self._set(size, diag, upper, lower)
        object.__setattr__(self, "_rows", None)

    def entry(self, i: int, j: int):
        if i == j:
            return self.diag[i]
        if j == i + 1:
            return self.upper[i]
        if j == i - 1:
            return self.lower[j]
        return Fraction(0)

    def band_rows(self):
        """Row i of the band, (lower[i-1], diag[i], upper[i]), with zeros
        past the edges."""
        zero = (0,)
        return zip(zero + self.lower, self.diag, self.upper + zero)

    @property
    def _cleared_rows(self):
        """The band rows, each scaled to integers by the lcm of its
        denominators; computed at the first read."""
        if self._rows is None:
            object.__setattr__(self, "_rows", [_clear_denominators(row) for row in self.band_rows()])
        return self._rows

    def matvec(self, vec, levels):
        """The first ``levels`` components of this operator applied to the
        column vector vec.  vec may be shorter than size; its missing
        components are zero.

        Output component i is the three-term step of the integer band
        row i on the three components it reads: one Fraction per
        component."""
        return three_term(self._cleared_rows[:levels], neighbours(vec, levels))


def neighbours(vec, levels: int, zero=0):
    """(vec[i-1], vec[i], vec[i+1]) for i < levels: the components band row
    i reads, with ``zero`` beyond both ends of vec."""
    # padded[i + 1] is component i
    padded = [zero, *vec[: levels + 1], *(zero,) * (levels + 1 - len(vec))]
    return zip(padded, padded[1:], padded[2:])


def d_band(p: AWParams, size: int) -> tuple[TridiagonalOperator, list[Fraction]]:
    """The size-``size`` truncation of the first operator -- diagonal
    dnat_n, unit superdiagonal, subdiagonal -bd q^n g_n -- and the g_n it
    read, g_0 .. g_(size-2)."""
    if size < 1:
        raise InvalidParams(f"size must be >= 1, got {size}")
    bd = p.b * p.d
    q = p.q
    dnat = tuple(d_natural_sweep(p, size))
    g = g_sweep(p, size - 1)
    dop = TridiagonalOperator(
        size=size,
        diag=dnat,
        upper=(Fraction(1),) * (size - 1),
        lower=tuple(-bd * q**k * g[k] for k in range(size - 1)),
    )
    return dop, g


def rep_rational(p: AWParams, size: int) -> tuple[TridiagonalOperator, TridiagonalOperator]:
    """Exact monic-basis truncations of the two operators: :func:`d_band`
    and the second operator on the same g_n."""
    dop, g = d_band(p, size)
    ac = p.a * p.c
    eop = TridiagonalOperator(
        size=size,
        diag=tuple(e_natural_sweep(p, size)),
        upper=tuple(-ac * p.q**k for k in range(size - 1)),
        lower=tuple(g),
    )
    return dop, eop
