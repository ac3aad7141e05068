"""Exact scalars, parameter records, and q-series primitives.

Everything downstream works over arbitrary-precision rationals
(``fractions.Fraction``), so every identity check in the package is an exact
equality, never a tolerance comparison.  Nothing is computed in floating
point: the only floats are wall-clock timings and the decimal column of the
stationary CSV, rounded from the exact value printed next to it.  Literals
and printed values past Python's int/str digit limit raise InvalidParams and
SizeLimit instead of ValueError.

Two parameter records exist:

* :class:`HoppingRates` -- the physical description of the open asymmetric
  exclusion process: entry/exit rates ``alpha, beta, gamma, delta`` and the
  backward hopping ratio ``q``.
* :class:`AWParams` -- the algebraic parametrisation ``(a, b, c, d, q)`` in
  which the bimoment, factorization, and operator machinery is written.

:func:`to_rates` maps ``AWParams`` to ``HoppingRates`` exactly;
:func:`to_aw_exact` inverts it when the inverse is rational (it involves
square roots, so it is rational only for perfect-square discriminants).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence


class BiorthError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(BiorthError):
    """A parameter record violates its admissibility constraints."""


class SingularParams(BiorthError):
    """A denominator in one of the closed-form coefficients vanishes."""


class DenominatorVanishes(SingularParams):
    """A q-Pochhammer factor in a basic hypergeometric denominator is zero."""


class UnsupportedQ(BiorthError):
    """An operation needs q invertible (q != 0) and was given q = 0."""


class ShapeError(BiorthError):
    """A word or matrix does not have the shape an operation requires."""


class SizeLimit(BiorthError):
    """A brute-force operation was asked to exceed its guarded size."""


class NotIrreducible(BiorthError):
    """A generator matrix does not have a one-dimensional stationary space."""


class ZeroParameter(BiorthError):
    """A formula divides by a value that is zero: the AW series at
    a = b = c = d = 0, or at t = 0."""


# ---------------------------------------------------------------------------
# rational parsing / formatting

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal ``"p"`` or ``"p/q"``.

    Decimal notation is deliberately rejected: a string like ``"0.1"`` has no
    exact binary or decimal-free meaning in this context, and silently
    rounding it would poison every downstream exact-equality check.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise InvalidParams(
            f"not an exact rational literal (use 'p' or 'p/q'): {text!r}"
        )
    try:
        return Fraction(s)
    except ValueError:  # the regex leaves only Python's digit limit
        raise InvalidParams(
            f"rational literal has more than {sys.get_int_max_str_digits()} digits "
            "(Python's int-from-str limit)"
        ) from None


def as_rational(value) -> Fraction:
    """Coerce int / Fraction / rational string to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidParams(f"expected an exact rational, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``"p"`` or ``"p/q"`` in lowest terms.

    Raises SizeLimit past Python's int-to-str digit limit
    (``sys.get_int_max_str_digits``).
    """
    try:
        return str(Fraction(value))
    except ValueError:
        raise SizeLimit(
            f"cannot print an exact value with more than {sys.get_int_max_str_digits()} "
            "digits (Python's int-to-str limit)"
        ) from None


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Return the exact rational square root of ``value`` or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Fraction(sn, sd)
    return None


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class HoppingRates:
    """Boundary injection/extraction rates and hopping asymmetry.

    alpha, beta > 0 and gamma, delta >= 0 are per-site Poisson rates;
    q in [0, 1) is the ratio of backward to forward bulk hopping.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    q: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "q"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidParams("alpha and beta must be positive")
        if self.gamma < 0 or self.delta < 0:
            raise InvalidParams("gamma and delta must be nonnegative")
        if not 0 <= self.q < 1:
            raise InvalidParams(f"q must satisfy 0 <= q < 1, got {self.q}")

    def to_map(self) -> dict[str, str]:
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "gamma": format_rational(self.gamma),
            "delta": format_rational(self.delta),
            "q": format_rational(self.q),
        }


@dataclass(frozen=True)
class AWParams:
    """Algebraic parameters (a, b, c, d, q), all exact rationals, q not in {0, 1}.

    The record itself only enforces q != 0, 1; whether a parameter set is
    usable to a given truncation depth is a separate question answered by
    :func:`validate`, because the singular locus depends on how far the
    coefficient recurrences must be unrolled.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    q: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "q"):
            object.__setattr__(self, name, as_rational(getattr(self, name)))
        if self.q == 0 or self.q == 1:
            raise InvalidParams("q must avoid 0 and 1")

    @property
    def qprime(self) -> Fraction:
        return 1 - self.q

    @property
    def abcd(self) -> Fraction:
        return self.a * self.b * self.c * self.d

    def swap_ab_cd(self) -> "AWParams":
        """Exchange a<->b and c<->d (transposes the bimoment array)."""
        return AWParams(self.b, self.a, self.d, self.c, self.q)

    def swap_ad_bc(self) -> "AWParams":
        """Exchange a<->d and b<->c (also transposes the bimoment array)."""
        return AWParams(self.d, self.c, self.b, self.a, self.q)

    def to_map(self) -> dict[str, str]:
        return {k: format_rational(getattr(self, k)) for k in ("a", "b", "c", "d", "q")}


# ---------------------------------------------------------------------------
# q-series primitives


def qpoch(x: Fraction, q: Fraction, n: int) -> Fraction:
    """Finite q-Pochhammer (x; q)_n = prod_{k=0}^{n-1} (1 - x q^k)."""
    if n < 0:
        raise InvalidParams(f"qpoch needs n >= 0, got {n}")
    x = as_rational(x)
    q = as_rational(q)
    out = Fraction(1)
    xq = x
    for _ in range(n):
        out *= 1 - xq
        xq *= q
    return out


def qpoch_multi(xs: Iterable[Fraction], q: Fraction, n: int) -> Fraction:
    """Product of (x; q)_n over every x in xs."""
    out = Fraction(1)
    for x in xs:
        out *= qpoch(x, q, n)
    return out


def phi_terminating(
    num_params: Sequence[Fraction],
    den_params: Sequence[Fraction],
    q: Fraction,
    z: Fraction,
    n: int,
) -> Fraction:
    """Terminating basic hypergeometric sum r_phi_s, truncated at k = n.

    Computes sum_{k=0}^{n} of

        (a_1,...,a_r; q)_k / ((b_1,...,b_s; q)_k (q; q)_k)
            * ((-1)^k q^binom(k,2))^(1+s-r) * z^k,

    where (a_1,...,a_r; q)_k is the product of the individual Pochhammers.
    Termination is the caller's business: pass a numerator parameter q^(-n)
    to make the k > n tail vanish identically.

    Raises DenominatorVanishes if any denominator Pochhammer is zero for
    some k <= n.
    """
    if n < 0:
        raise InvalidParams(f"phi_terminating needs n >= 0, got {n}")
    nums = [as_rational(x) for x in num_params]
    dens = [as_rational(x) for x in den_params]
    q = as_rational(q)
    z = as_rational(z)
    exponent = 1 + len(dens) - len(nums)

    total = Fraction(0)
    num_prod = Fraction(1)
    den_prod = Fraction(1)
    qfac = Fraction(1)
    zpow = Fraction(1)
    for k in range(n + 1):
        if k > 0:
            qk1 = q ** (k - 1)
            for x in nums:
                num_prod *= 1 - x * qk1
            for x in dens:
                factor = 1 - x * qk1
                if factor == 0:
                    raise DenominatorVanishes(
                        f"(b; q)_k vanishes at b={x}, k={k}"
                    )
                den_prod *= factor
            qfactor = 1 - q**k
            if qfactor == 0:
                raise DenominatorVanishes(f"(q; q)_k vanishes at k={k}")
            qfac *= qfactor
            zpow *= z
        term = num_prod / (den_prod * qfac) * zpow
        if exponent != 0:
            base = Fraction(-1) ** k * q ** (k * (k - 1) // 2)
            term *= base**exponent
        total += term
    return total


# ---------------------------------------------------------------------------
# coefficient functions shared by the factorization and operator layers
#
# Each closed form has one writer, a sweep over levels start .. stop-1 in the
# pair data S1 = a + c, P1 = ac, S2 = b + d, P2 = bd (abcd = P1 P2).  A sweep
# clears its rational constants to integers once, reads q = t/s through the
# integer powers t^k and s^k, and builds one Fraction per level; the
# per-level functions read a one-level sweep.


def _clear_denominators(vec):
    """(integers, scale): vec times the lcm of its denominators."""
    scale = lcm(*(value.denominator for value in vec))
    return [value.numerator * (scale // value.denominator) for value in vec], scale


class _QPowers:
    """t^0, t^1, ... and s^0, s^1, ... for q = t/s, one list each, grown to
    the largest exponent asked for: a sweep reads one, and a batch of the
    word route at one q shares one."""

    __slots__ = ("t", "s", "tp", "sp")

    def __init__(self, q: Fraction):
        self.t, self.s = q.numerator, q.denominator
        self.tp, self.sp = [1], [1]

    def upto(self, top: int) -> tuple[list[int], list[int]]:
        """The two lists, holding at least the exponents 0 .. top."""
        tp, sp = self.tp, self.sp
        while len(tp) <= top:
            tp.append(tp[-1] * self.t)
            sp.append(sp[-1] * self.s)
        return tp, sp


def g_sweep(p: AWParams, stop: int, start: int = 0) -> list[Fraction]:
    """Diagonal growth ratios g_start .. g_(stop-1), where

    g_j = (1 - abcd q^(j-1)) (1 - q^(j+1)) (1 - ab q^j) (1 - bc q^j)
          (1 - ad q^j) (1 - cd q^j)
        / ((1 - abcd q^(2j-1)) (1 - abcd q^(2j))^2 (1 - abcd q^(2j+1))).

    At j = 0 the first factors of numerator and denominator are both
    1 - abcd/q; they cancel and are left out (lowest terms), so abcd = q is
    a regular point.  The four cross factors are one quartic in x = q^j,
    1 - e1 x + e2 x^2 - e3 x^3 + e4 x^4, with e1 = S1 S2,
    e2 = P2 S1^2 + P1 S2^2 - 2 P1 P2, e3 = P1 P2 S1 S2 and e4 = (P1 P2)^2.
    Raises SingularParams at the first level whose denominator vanishes.
    """
    S1, P1, S2, P2 = p.a + p.c, p.a * p.c, p.b + p.d, p.b * p.d
    abcd = P1 * P2
    (e1, e2, e3, e4), quartic_scale = _clear_denominators(
        [S1 * S2, P2 * S1 * S1 + P1 * S2 * S2 - 2 * abcd, abcd * S1 * S2, abcd * abcd]
    )
    m, w = abcd.numerator, abcd.denominator
    tp, sp = _QPowers(p.q).upto(4 * stop)
    w3 = w**3

    def pole(k):  # 1 - abcd q^k = pole(k) / (w s^k)
        return w * sp[k] - m * tp[k]

    out = []
    for j in range(start, stop):
        quartic = (
            quartic_scale * sp[4 * j]
            - e1 * tp[j] * sp[3 * j]
            + e2 * tp[2 * j] * sp[2 * j]
            - e3 * tp[3 * j] * sp[j]
            + e4 * tp[4 * j]
        )
        # the scales w s^k of the poles, s^(j+1) of 1 - q^(j+1) and
        # quartic_scale s^(4j) of the quartic leave w^3 s^(2j) / quartic_scale
        num = (sp[j + 1] - tp[j + 1]) * quartic * w3 * sp[2 * j]
        den = quartic_scale * pole(2 * j) ** 2 * pole(2 * j + 1)
        if j:
            num *= pole(j - 1)
            den *= pole(2 * j - 1)
        if den == 0:
            raise SingularParams(f"g_{j} denominator vanishes for {p.to_map()}")
        out.append(Fraction(num, den))
    return out


def g_coeff(p: AWParams, j: int) -> Fraction:
    """Diagonal growth ratio g_j: level j of :func:`g_sweep`."""
    if j < 0:
        raise InvalidParams(f"g_coeff needs j >= 0, got {j}")
    return g_sweep(p, j + 1, j)[0]


def d_natural_sweep(p: AWParams, stop: int, start: int = 0) -> list[Fraction]:
    """Diagonal coefficients dnat_start .. dnat_(stop-1) of the first
    tridiagonal operator, where, with u = bd (a + c) = P2 S1 and
    v = b + d = S2,

    dnat_n = q^(n-1) / ((1 - abcd q^(2n-2)) (1 - abcd q^(2n)))
             * (u + v q - abcd v q^(n-1) - (u + abcd v) q^n - u q^(n+1)
                + abcd u q^(2n-1) + abcd v q^(2n)).

    Level 0 is written in lowest terms, (v - u) / (1 - abcd): the bracket
    carries q - abcd/q there, and q^-1 (q - abcd/q) is the cancelled factor
    1 - abcd/q^2, so abcd = q^2 is a regular point.  Raises SingularParams
    at the first level whose denominator vanishes.
    """
    S1, P1, S2, P2 = p.a + p.c, p.a * p.c, p.b + p.d, p.b * p.d
    abcd = P1 * P2
    u, v = P2 * S1, S2
    (u, v, mu, mv), scale = _clear_denominators([u, v, abcd * u, abcd * v])
    m, w = abcd.numerator, abcd.denominator
    tp, sp = _QPowers(p.q).upto(2 * stop)

    def pole(k):  # 1 - abcd q^k = pole(k) / (w s^k)
        return w * sp[k] - m * tp[k]

    out = []
    for n in range(start, stop):
        if n == 0:
            num, den = (v - u) * w, scale * pole(0)
        else:
            # the bracket times scale s^(2n); with q^(n-1) = t^(n-1)/s^(n-1)
            # and the poles' scales w^2 s^(4n-2), w^2 s^(n-1) is left
            bracket = (
                u * sp[2 * n]
                + v * tp[1] * sp[2 * n - 1]
                - mv * tp[n - 1] * sp[n + 1]
                - (u + mv) * tp[n] * sp[n]
                - u * tp[n + 1] * sp[n - 1]
                + mu * tp[2 * n - 1] * sp[1]
                + mv * tp[2 * n]
            )
            num = tp[n - 1] * bracket * w * w * sp[n - 1]
            den = scale * pole(2 * n - 2) * pole(2 * n)
        if den == 0:
            raise SingularParams(f"d_natural({n}) denominator vanishes for {p.to_map()}")
        out.append(Fraction(num, den))
    return out


def d_natural(p: AWParams, n: int) -> Fraction:
    """Diagonal coefficient of the first tridiagonal operator at level n:
    level n of :func:`d_natural_sweep`."""
    if n < 0:
        raise InvalidParams(f"d_natural needs n >= 0, got {n}")
    return d_natural_sweep(p, n + 1, n)[0]


def e_natural_sweep(p: AWParams, stop: int, start: int = 0) -> list[Fraction]:
    """Diagonal coefficients of the second tridiagonal operator:
    :func:`d_natural_sweep` at the swapped point a<->b, c<->d."""
    return d_natural_sweep(p.swap_ab_cd(), stop, start)


def e_natural(p: AWParams, n: int) -> Fraction:
    """Diagonal coefficient of the second tridiagonal operator at level n:
    :func:`d_natural` at the swapped point a<->b, c<->d."""
    return d_natural(p.swap_ab_cd(), n)


def validate(p: AWParams, n: int) -> None:
    """Check that p is usable up to truncation order n.

    Admissibility is defined operationally: every denominator appearing in
    any coefficient (g_j, the tridiagonal diagonals, the boundary moment
    recurrences, the determinant product), written in lowest terms and
    evaluated up to order n, must be nonzero, and the diagonal ratios
    g_0 .. g_{n-1} must themselves be nonzero so the factorization diagonal
    stays invertible.  Every such denominator is a product of factors
    1 - abcd q^k with k <= 2n + 1, 1 - ac q^k and 1 - bd q^k with k <= n;
    the abcd q^k loop below covers the denominators of g and of both
    tridiagonal diagonals, dnat_k and enat_k for k <= n.  So abcd = q and
    abcd = q^2, where the level-0 closed forms only look singular, are
    accepted.  Raises SingularParams on the first violation.
    """
    if n < 0:
        raise InvalidParams(f"validate needs n >= 0, got {n}")
    # with q = t/s, x q^k = 1 is x.numerator t^k = x.denominator s^k
    tp, sp = _QPowers(p.q).upto(2 * n + 1)
    abcd, ac, bd = p.abcd, p.a * p.c, p.b * p.d
    for k in range(2 * n + 2):
        if abcd.numerator * tp[k] == abcd.denominator * sp[k]:
            raise SingularParams(f"abcd q^{k} = 1 is singular")
    for k in range(n + 1):
        if ac.numerator * tp[k] == ac.denominator * sp[k]:
            raise SingularParams(f"ac q^{k} = 1 is singular")
        if bd.numerator * tp[k] == bd.denominator * sp[k]:
            raise SingularParams(f"bd q^{k} = 1 is singular")
    for k, g in enumerate(g_sweep(p, n)):
        if g == 0:
            raise SingularParams(f"g_{k} = 0 degenerates the factorization diagonal")


def is_valid(p: AWParams, n: int) -> bool:
    """True iff :func:`validate` accepts p at order n."""
    try:
        validate(p, n)
    except SingularParams:
        return False
    return True


# ---------------------------------------------------------------------------
# parameter maps


def to_rates(p: AWParams) -> HoppingRates:
    """Exact map from (a, b, c, d, q) to hopping rates.

    alpha = (1-q) / ((1+a)(1+c))      gamma = -ac * alpha
    beta  = (1-q) / ((1+b)(1+d))      delta = -bd * beta

    Requires (1+a)(1+c) != 0, (1+b)(1+d) != 0, ac <= 0, bd <= 0 so the
    resulting rates are finite and have the right signs.
    """
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    left = (1 + a) * (1 + c)
    right = (1 + b) * (1 + d)
    if left == 0 or right == 0:
        raise InvalidParams("(1+a)(1+c) and (1+b)(1+d) must be nonzero")
    if a * c > 0 or b * d > 0:
        raise InvalidParams("ac <= 0 and bd <= 0 are required for nonnegative rates")
    alpha = (1 - q) / left
    beta = (1 - q) / right
    return HoppingRates(
        alpha=alpha,
        beta=beta,
        gamma=-a * c * alpha,
        delta=-b * d * beta,
        q=q,
    )


def to_aw_exact(rates: HoppingRates) -> AWParams:
    """Exact inverse of :func:`to_rates` when the discriminants are squares.

    The root formulas involve sqrt((1-q-alpha+gamma)^2 + 4 alpha gamma) and
    its beta/delta twin; when both are perfect squares of rationals the
    algebraic parameters are rational and are returned exactly, otherwise
    InvalidParams is raised.
    """
    out = []
    for rate_in, rate_out in ((rates.alpha, rates.gamma), (rates.beta, rates.delta)):
        u = 1 - rates.q - rate_in + rate_out
        root = exact_sqrt(u * u + 4 * rate_in * rate_out)
        if root is None:
            raise InvalidParams(
                "rates do not have rational algebraic parameters; "
                "pass a, b, c, d, q directly"
            )
        out.append(((u + root) / (2 * rate_in), (u - root) / (2 * rate_in)))
    (a, c), (b, d) = out
    return AWParams(a=a, b=b, c=c, d=d, q=rates.q)
