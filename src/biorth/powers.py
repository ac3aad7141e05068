"""The power route: normal-ordered powers of a letter, and the moment sums.

The relation d e - q e d = 1 - q normal orders every product of the two
boundary operators into terms d^i e^j.  With q = t/s a normal form spread
over several diagonals, as a word polynomial's or a power's, is a
:data:`Form`: integer coefficients {(i, j): coeff of d^i e^j} over one
integer scale.  ``_times_d`` moves one diagonal of coefficients one d to
the right; it is the one place the d-rule is written, and the word route
of ``wordfun`` normal orders every word with it too.  ``_times_letter``
multiplies a form by a rational letter const + d_coeff d + e_coeff e, each
term's d part by what the same ``_times_d`` moves one entry to, read once
per j.  :func:`normal_power` is ``length`` such products, and it builds
its Fractions only where it returns.

``_moment_sums`` reads the functional of each form off the moment table:
the moments the forms read are cleared of denominators once, over one
scale, so each form is one integer dot product and one Fraction (see
``core``).  :func:`power_functional` is the functional of
(const + weight (d + e))^length, the moment-table side of the ``asep``
normalization check; ``wordfun.functional_values`` sums its word forms
with ``_moment_sums`` too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .bimoment import bimoment_table
from .core import AWParams, InvalidParams, UnsupportedQ, _QPowers, _clear_denominators, as_rational

# A normal form spread over several diagonals, as a word polynomial's or a
# power's: integer coefficients {(i, j): coeff of d^i e^j} over one integer
# scale.  The moment sums read this one.
Form = tuple[dict[tuple[int, int], int], int]


def _times_d(coeffs, top: int, depth: int, tp: list[int], sp: list[int]) -> list[int]:
    """One diagonal times d: ``coeffs``, entry k the coefficient of
    d^(I-k) e^(top-k), become those of d^(I+1-k) e^(top-k), by

        d^i e^j . d = q^(-j) d^(i+1) e^j + (1 - q^(-j)) d^i e^(j-1),

    the second from e^j d = q^(-j) d e^j + (1 - q^(-j)) e^(j-1), the bulk
    relation e d = q^(-1) d e - q^(-1) (1 - q) applied j times.  On
    integers: with q = t/s and depth >= top, q^(-j) t^depth = s^j t^(depth-j)
    is read from ``tp`` and ``sp``, the powers of t and s up to depth, so the
    result is over t^depth times the old scale.
    """
    t_depth = tp[depth]
    out = []
    lower = 0  # what the entry before moved down to this one
    j = top
    for coeff in coeffs:
        moved = sp[j] * tp[depth - j] * coeff
        out.append(moved + lower)
        lower = t_depth * coeff - moved
        j -= 1
    if j >= 0:  # the last entry had j >= 1; at j = 0 nothing moves down
        out.append(lower)
    return out


def _times_letter(form: Form, const, d_coeff, e_coeff, powers: _QPowers) -> Form:
    """The normal form (ints, scale) times the letter
    const + d_coeff d + e_coeff e, normal ordered again: d^i e^j . e =
    d^i e^(j+1), and d^i e^j . d as ``_times_d`` moves a diagonal of one
    entry, read once per j.

    An integer kernel (see ``core``): a rational letter is cleared of
    denominators once, and when it has a d part every term is put over the
    one scale t^J, J the largest j.  No Fraction is built.
    """
    ints, scale = form
    (const, d_coeff, e_coeff), letter_scale = _clear_denominators([const, d_coeff, e_coeff])
    depth = max((j for _, j in ints), default=0) if d_coeff else 0
    tp, sp = powers.upto(depth)
    t_depth = tp[depth]
    e_top, const_top = e_coeff * t_depth, const * t_depth
    # d^i e^j . d_coeff d per unit coefficient, one per j: the coefficient
    # of d^(i+1) e^j, then of d^i e^(j-1) when j > 0
    units = [_times_d((d_coeff,), j, depth, tp, sp) for j in range(depth + 1)] if d_coeff else ()
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i, j), coeff in ints.items():
        if e_top:
            key = (i, j + 1)
            out[key] = get(key, 0) + e_top * coeff
        if d_coeff:
            unit = units[j]
            key = (i + 1, j)
            out[key] = get(key, 0) + unit[0] * coeff
            if len(unit) > 1:
                key = (i, j - 1)
                out[key] = get(key, 0) + unit[1] * coeff
        if const_top:
            key = (i, j)
            out[key] = get(key, 0) + const_top * coeff
    return {key: value for key, value in out.items() if value}, scale * letter_scale * t_depth


def _fractions(form: Form) -> dict[tuple[int, int], Fraction]:
    ints, scale = form
    return {key: Fraction(value, scale) for key, value in ints.items()}


def _moment_sums(table, forms: list[Form]) -> list[Fraction]:
    """Functional of each normal form (ints, scale), off the moment table.
    The moments the forms read are cleared of denominators once, over one
    scale, so each form is one integer dot product and one Fraction.  The
    table's denominators nearly divide one another, so that scale stays
    small: over orders i + j <= 40 at the costliest GRID point their lcm
    has 1,923 bits, the largest 1,838."""
    keys = list(dict.fromkeys(key for ints, _ in forms for key in ints))
    moments, moment_scale = _clear_denominators([table.entry(i, j) for i, j in keys])
    cleared = dict(zip(keys, moments)).__getitem__
    return [
        Fraction(sum(map(mul, ints.values(), map(cleared, ints))), scale * moment_scale)
        for ints, scale in forms
    ]


def _moment_sum(p: AWParams, form: Form) -> Fraction:
    """Functional of one normal form (ints, scale), off the moment table."""
    return _moment_sums(bimoment_table(p), [form])[0]


def _power_form(const, weight, length: int, q) -> Form:
    q, const, weight = as_rational(q), as_rational(const), as_rational(weight)
    if q == 0:
        raise UnsupportedQ("normal ordering divides by q; q = 0 is unsupported")
    if length < 0:
        raise InvalidParams(f"power must be >= 0, got {length}")
    form = {(0, 0): 1}, 1
    powers = _QPowers(q)
    for _ in range(length):
        form = _times_letter(form, const, weight, weight, powers)
    return form


def normal_power(const, weight, length: int, q) -> dict[tuple[int, int], Fraction]:
    """Normal-ordered coefficients {(i, j): coeff of d^i e^j} of
    (const + weight (d + e))^length, one right multiplication per factor:
    O(length^3) coefficient updates, no word expanded, nothing memoized."""
    return _fractions(_power_form(const, weight, length, q))


def power_functional(p: AWParams, length: int, const, weight) -> Fraction:
    """Functional of (const + weight (d + e))^length, by :func:`normal_power`'s
    loop and the moment table."""
    return _moment_sum(p, _power_form(const, weight, length, p.q))
