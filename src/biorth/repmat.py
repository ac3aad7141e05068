"""The Askey-Wilson family and the checks of the tridiagonal representation.

The representation itself, the two operators' bands, is written in
``band`` (``rep_rational``, ``d_band``).  This module checks it: the
algebra d e - q e d = (1 - q) id and both boundary relations on a
truncation, and the match with the Askey-Wilson recurrence.

The sum R of the two operators must reproduce the normalized three-term
recurrence coefficients (A_n, B_n, C_n) of the attached orthogonal family,
written once in :func:`aw_sweep`: R[n][n] = B_n and
R[n][n+1] R[n+1][n] = A_n C_{n+1}, and the Hamburger moments of the two
Jacobi systems agree.  The check reads R off ``rep_rational``.
:func:`aw_series` evaluates the family through its terminating basic
hypergeometric series, all levels at one point in one sweep, so the
recurrence can be validated against an independent construction;
:func:`aw_eval` is one level of it.

:func:`jacobi_moments` walks the cleared band rows of a
``band.TridiagonalOperator`` on the kernel itself,
``core.three_term_pairs``: its components never leave, so they stay
unreduced integer pairs, and only the moments are Fractions.  The ``asep``
transfer weights do not run on the kernel: that walk is short and wide,
so it clears both site operators' bands over one walk-wide scale and stays
on integers to the end (see ``core``).  :func:`verify_algebra` reads the
cleared band rows too: d e and e d are five-diagonal, so it visits only
those entries, on integers, and builds a Fraction for the first failure
alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .band import TridiagonalOperator, neighbours, rep_rational
from .core import (
    AWParams,
    DenominatorVanishes,
    FrozenRecord,
    InvalidParams,
    ShapeError,
    SingularParams,
    SizeLimit,
    ZeroParameter,
    _QPowers,
    _clear_denominators,
    as_rational,
    d_natural,
    e_natural,
    format_rational,
    g_coeff,
    three_term_pairs,
)
from .reporting import VerificationReport, differences


class AWRecurrenceCoeffs(FrozenRecord):
    """Normalized three-term recurrence data at one level n."""

    __slots__ = _fields = ("n", "A", "B", "C")

    def __init__(self, n: int, A: Fraction, B: Fraction, C: Fraction):
        self._set(n, A, B, C)


class UchiyamaCoeffs(FrozenRecord):
    """Level-n entries of the tridiagonal pair, radical-free form.

    The off-diagonal entries carry a common radical factor with square
    a_squared = g_n; only the two cross products dsharp eflat and
    esharp dflat (each rational) are stored, alongside the two diagonals.
    """

    __slots__ = _fields = (
        "n", "d_nat", "e_nat", "dsharp_eflat_product", "esharp_dflat_product", "a_squared"
    )

    def __init__(
        self,
        n: int,
        d_nat: Fraction,
        e_nat: Fraction,
        dsharp_eflat_product: Fraction,
        esharp_dflat_product: Fraction,
        a_squared: Fraction,
    ):
        self._set(n, d_nat, e_nat, dsharp_eflat_product, esharp_dflat_product, a_squared)


def uchiyama_coeffs(p: AWParams, n: int) -> UchiyamaCoeffs:
    """Assemble the level-n coefficient data.

    With A_n the radical (A_n^2 = g_n):
        dsharp = A_n / (1 - q^n ac)        esharp = -q^n ac A_n / (1 - q^n ac)
        dflat  = -q^n bd A_n / (1 - q^n bd) eflat = A_n / (1 - q^n bd)
    """
    ac = p.a * p.c
    bd = p.b * p.d
    qn = p.q**n
    den_ac = 1 - qn * ac
    den_bd = 1 - qn * bd
    if den_ac == 0 or den_bd == 0:
        raise SingularParams(f"sharp/flat denominators vanish at level {n}")
    g = g_coeff(p, n)
    return UchiyamaCoeffs(
        n=n,
        d_nat=d_natural(p, n),
        e_nat=e_natural(p, n),
        dsharp_eflat_product=g / (den_ac * den_bd),
        esharp_dflat_product=(qn * qn * ac * bd) * g / (den_ac * den_bd),
        a_squared=g,
    )


def _sum_band(p: AWParams, size: int):
    """Band of R = d + e in the size-``size`` truncation of ``rep_rational``:
    the diagonal R[n][n] and the products R[n][n+1] R[n+1][n]."""
    dop, eop = rep_rational(p, size)
    diag = [x + y for x, y in zip(dop.diag, eop.diag)]
    products = [
        (du + eu) * (dl + el)
        for du, eu, dl, el in zip(dop.upper, eop.upper, dop.lower, eop.lower)
    ]
    return diag, products


def verify_algebra(
    dop: TridiagonalOperator, eop: TridiagonalOperator, q
) -> VerificationReport:
    """Check  d e - q e d = (1 - q) id  on the truncation interior.

    The last two rows and columns of the product feel the cut, so equality
    is asserted for all i, j <= size - 3 only.  Both products are
    five-diagonal, so the search visits the entries |i - j| <= 2 of row i
    in order: it clears band rows i-1 .. i+1 of both operators over one
    scale Z, each entry is v (d e)_ij - u (e d)_ij - (v - u) Z^2 [i = j] on
    integers (q = u/v), and a Fraction is built for the first failure only.
    """
    if dop.size != eop.size:
        raise ShapeError("operator sizes differ")
    if dop.size < 3:
        raise InvalidParams("size must be >= 3 to have a truncation interior")
    q = as_rational(q)
    u, v = q.numerator, q.denominator
    size = dop.size
    report = VerificationReport(params={"q": format_rational(q)}, n=size)

    def rescaled(rows, lo, scale):  # band row k, times scale, keyed by k
        return {k: [x * (scale // row_scale) for x in ints] for k, (ints, row_scale) in enumerate(rows, lo)}

    def failures():
        for i in range(size - 2):
            lo = max(i - 1, 0)
            d_rows, e_rows = dop._cleared_rows[lo : i + 2], eop._cleared_rows[lo : i + 2]
            scale = lcm(*(row_scale for _, row_scale in d_rows + e_rows))
            dz, ez = rescaled(d_rows, lo, scale), rescaled(e_rows, lo, scale)
            identity = (v - u) * scale * scale
            for j in range(max(i - 2, 0), min(i + 3, size - 2)):
                ks = range(max(i - 1, j - 1, 0), min(i, j) + 2)
                de = sum(dz[i][k - i + 1] * ez[k][j - k + 1] for k in ks)
                ed = sum(ez[i][k - i + 1] * dz[k][j - k + 1] for k in ks)
                value = v * de - u * ed - (identity if i == j else 0)
                if value:
                    yield {"i": i, "j": j, "value": Fraction(value, v * scale * scale)}

    report.check("interior-algebra", "interior-algebra", failures)
    return report


def verify_uchiyama_algebra(p: AWParams, size: int) -> VerificationReport:
    """Exchange relation audited on the radical-free sharp/flat data.

    Off-diagonal entries of d e - q e d carry a single radical factor whose
    rational cofactor must vanish, and the two-step entries vanish
    identically -- both irrespective of what the radical squares to.  The
    diagonal entries, by contrast, see only the paired products, and they
    pin the radical down: with square g_n the relation fails at every
    index, and the unique square restoring it is

        (1 - q^n ac)(1 - q^n bd) g_n  =  A_n C_{n+1},

    under which the sharp/flat form is diagonally similar to the exact
    monic pair of ``rep_rational``.  The diagonal check therefore
    rescales the stored products (whose quoted normalization uses square
    g_n) by (1 - q^n ac)(1 - q^n bd) before combining them.  Everything here is
    exact rational arithmetic even though the matrix entries themselves
    are irrational.
    """
    if size < 2:
        raise InvalidParams(f"size must be >= 2, got {size}")
    q = p.q
    qprime = 1 - q
    coeffs = [uchiyama_coeffs(p, k) for k in range(size)]
    ac = p.a * p.c
    bd = p.b * p.d

    report = VerificationReport(params=p.to_map(), n=size)

    def sharp_ratio(k):  # dsharp / A_k and esharp / A_k
        den = 1 - q**k * ac
        return Fraction(1) / den, -(q**k) * ac / den

    def flat_ratio(k):  # dflat / A_k and eflat / A_k
        den = 1 - q**k * bd
        return -(q**k) * bd / den, Fraction(1) / den

    def restored(k):
        # sharp/flat products with the radical square corrected from g_k
        # to (1 - q^k ac)(1 - q^k bd) g_k; the two quoted denominators
        # cancel, so these are just the bare two-cycle products.
        scale = (1 - q**k * ac) * (1 - q**k * bd)
        return (
            scale * coeffs[k].dsharp_eflat_product,
            scale * coeffs[k].esharp_dflat_product,
        )

    def diagonal_failures():
        for i in range(size):
            de_prod, ed_prod = restored(i)
            value = qprime * coeffs[i].d_nat * coeffs[i].e_nat + de_prod - q * ed_prod
            if i >= 1:
                de_back, ed_back = restored(i - 1)
                value += ed_back - q * de_back
            if value != qprime:
                yield {"i": i, "value": value}

    def off_diagonal_failures():
        for i in range(size - 1):
            dsh, esh = sharp_ratio(i)
            dfl, efl = flat_ratio(i)
            dsh1, esh1 = sharp_ratio(i + 1)
            dfl1, efl1 = flat_ratio(i + 1)
            upper = (
                coeffs[i].d_nat * esh + dsh * coeffs[i + 1].e_nat
                - q * (coeffs[i].e_nat * dsh + esh * coeffs[i + 1].d_nat)
            )
            lower = (
                dfl * coeffs[i].e_nat + coeffs[i + 1].d_nat * efl
                - q * (efl * coeffs[i].d_nat + coeffs[i + 1].e_nat * dfl)
            )
            two_up = dsh * esh1 - q * esh * dsh1
            two_down = dfl1 * efl - q * efl1 * dfl
            for name, value in (
                ("upper", upper),
                ("lower", lower),
                ("upper-two-step", two_up),
                ("lower-two-step", two_down),
            ):
                if value != 0:
                    yield {"i": i, "entry": name, "value": value}

    report.check("diagonal-exchange", "diagonal", diagonal_failures)
    report.check("offdiagonal-exchange", "off-diagonal", off_diagonal_failures)
    return report


def verify_boundary(
    dop: TridiagonalOperator, eop: TridiagonalOperator, p: AWParams
) -> VerificationReport:
    """Check the two boundary eliminations against the truncations.

    Column 0 of (d + bd e - (b+d) id) must vanish in rows 0..size-2 and
    row 0 of (e + ac d - (a+c) id) must vanish in columns 0..size-2.
    """
    if dop.size != eop.size:
        raise ShapeError("operator sizes differ")
    size = dop.size
    ac = p.a * p.c
    bd = p.b * p.d
    report = VerificationReport(params=p.to_map(), n=size)

    def right_failures():
        for i in range(size - 1):
            value = dop.entry(i, 0) + bd * eop.entry(i, 0) - ((p.b + p.d) if i == 0 else 0)
            if value != 0:
                yield {"row": i, "value": value}

    def left_failures():
        for j in range(size - 1):
            value = eop.entry(0, j) + ac * dop.entry(0, j) - ((p.a + p.c) if j == 0 else 0)
            if value != 0:
                yield {"col": j, "value": value}

    report.check("right-boundary-vector", "right-vector", right_failures)
    report.check("left-boundary-vector", "left-vector", left_failures)
    return report


def aw_sweep(p: AWParams, stop: int, start: int = 0) -> list[AWRecurrenceCoeffs]:
    """Normalized recurrence coefficients at levels start .. stop-1.

    A_n = (1 - q^(n-1) abcd) / ((1 - q^(2n-1) abcd)(1 - q^(2n) abcd))
    B_n = q^(n-1) / ((1 - q^(2n-2) abcd)(1 - q^(2n) abcd)) *
          ((1 + q^(2n-1) abcd)(q s + e3) - q^(n-1) (1+q)(abcd s + q e3))
    C_n = (1 - q^n)(1 - q^(n-1) ab)(1 - q^(n-1) ac)(1 - q^(n-1) ad)
          (1 - q^(n-1) bc)(1 - q^(n-1) bd)(1 - q^(n-1) cd)
          / ((1 - q^(2n-1) abcd)(1 - q^(2n-2) abcd))

    with s = a+b+c+d and e3 = abc + abd + acd + bcd, the third elementary
    symmetric function, so every coefficient is a polynomial in a, b, c, d
    over the q-denominators and is defined at zero parameters.  Level 0 is
    written in lowest terms, A_0 = 1/(1 - abcd), B_0 = (s - e3)/(1 - abcd),
    C_0 = 0, so abcd = q and abcd = q^2 are regular points.

    Written in the pair data S1 = a + c, P1 = ac, S2 = b + d, P2 = bd:
    s = S1 + S2, e3 = P1 S2 + P2 S1, abcd = P1 P2, and the six pair factors
    of C_n are (1 - P1 x)(1 - P2 x) times the quartic
    1 - e1 x + e2 x^2 - e3' x^3 + e4 x^4 of the four cross pairs, x = q^(n-1),
    e1 = S1 S2, e2 = P2 S1^2 + P1 S2^2 - 2 P1 P2, e3' = P1 P2 S1 S2 and
    e4 = (P1 P2)^2.  The constants are cleared to integers once, q = t/s is
    read through integer powers of t and s, and each level builds one
    Fraction per coefficient.  Nothing here reads the tridiagonal pair's
    coefficients, so matching R = d + e against this sweep stays a check.
    Raises SingularParams at the first level whose denominators vanish.
    """
    S1, P1, S2, P2 = p.a + p.c, p.a * p.c, p.b + p.d, p.b * p.d
    abcd = P1 * P2
    total, e3 = S1 + S2, P1 * S2 + P2 * S1
    (sum_, sym3), b_scale = _clear_denominators([total, e3])
    (pair1, pair2), pair_scale = _clear_denominators([P1, P2])
    (c1, c2, c3, c4), quartic_scale = _clear_denominators(
        [S1 * S2, P2 * S1 * S1 + P1 * S2 * S2 - 2 * abcd, abcd * S1 * S2, abcd * abcd]
    )
    m, w = abcd.numerator, abcd.denominator
    t, s = p.q.numerator, p.q.denominator
    tp, sp = _QPowers(p.q).upto(4 * stop)

    def pole(k):  # 1 - abcd q^k = pole(k) / (w s^k)
        return w * sp[k] - m * tp[k]

    out = []
    for n in range(start, stop):
        if n == 0:
            if abcd == 1:
                raise SingularParams("recurrence denominators vanish at level 0")
            out.append(
                AWRecurrenceCoeffs(
                    n=0,
                    A=Fraction(w, pole(0)),
                    B=Fraction((sum_ - sym3) * w, b_scale * pole(0)),
                    C=Fraction(0),
                )
            )
            continue
        low, mid, high = pole(2 * n - 2), pole(2 * n - 1), pole(2 * n)
        if 0 in (low, mid, high):
            raise SingularParams(f"recurrence denominators vanish at level {n}")
        k = n - 1
        A = Fraction(pole(k) * w * sp[3 * n], mid * high)
        # (1 + abcd q^(2n-1))(q s + e3) - q^(n-1)(1 + q)(abcd s + q e3),
        # times w s^(2n) b_scale
        inner = (w * sp[2 * n - 1] + m * tp[2 * n - 1]) * (t * sum_ + s * sym3)
        inner -= tp[k] * sp[k] * (s + t) * (s * m * sum_ + t * w * sym3)
        B = Fraction(tp[k] * inner * w * sp[k], b_scale * low * high)
        quartic = (
            quartic_scale * sp[4 * k]
            - c1 * tp[k] * sp[3 * k]
            + c2 * tp[2 * k] * sp[2 * k]
            - c3 * tp[3 * k] * sp[k]
            + c4 * tp[4 * k]
        )
        pairs = (pair_scale * sp[k] - pair1 * tp[k]) * (pair_scale * sp[k] - pair2 * tp[k])
        C = Fraction(
            (sp[n] - tp[n]) * pairs * quartic * w * w,
            pair_scale**2 * quartic_scale * sp[3 * k] * mid * low,
        )
        out.append(AWRecurrenceCoeffs(n=n, A=A, B=B, C=C))
    return out


def aw_coeffs(p: AWParams, n: int) -> AWRecurrenceCoeffs:
    """Normalized recurrence coefficients at level n: level n of
    :func:`aw_sweep`."""
    if n < 0:
        raise InvalidParams(f"aw_coeffs needs n >= 0, got {n}")
    return aw_sweep(p, n + 1, n)[0]


def jacobi_moments(diag, offdiag_products, kmax: int):
    """Moments m_k = (J^k)[0][0] of a monic Jacobi matrix.

    diag[n] is the diagonal, offdiag_products[n] the product of the two
    off-diagonal entries coupling levels n and n+1.  Truncation at size N+1
    is exact for k <= 2N because a closed walk of length k never leaves the
    first k/2 + 1 levels; shorter truncations are refused, and so is an
    offdiag_products shorter than size - 1 (``ShapeError``).

    The band is a ``TridiagonalOperator``, and the walk steps its
    cleared rows with ``core.three_term_pairs``: the components are
    unreduced (numerator, denominator) pairs, and the one Fraction per
    step is the moment, component 0.
    """
    size = len(diag)
    if kmax < 0:
        raise InvalidParams(f"kmax must be >= 0, got {kmax}")
    if size < kmax // 2 + 1:
        raise SizeLimit(
            f"truncation size {size} cannot produce exact moments to k = {kmax}; "
            f"need size >= {kmax // 2 + 1}"
        )
    # monic form: the coupling products above the diagonal, ones below
    jacobi = TridiagonalOperator(
        size=size,
        diag=tuple(diag),
        upper=tuple(offdiag_products[: size - 1]),
        lower=(1,) * (size - 1),
    )
    rows = jacobi._cleared_rows
    vec = [(1, 1)]
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        # after k steps only levels that can still return to 0 matter
        levels = min(k, kmax - k) + 1
        vec = three_term_pairs(rows[:levels], neighbours(vec, levels, (0, 1)))
        out.append(Fraction(*vec[0]))
    return out


def verify_aw_match(p: AWParams, levels: int) -> VerificationReport:
    """Match the operator sum R = d + e against the recurrence data.

    Checks, all exact: R[n][n] = B_n and R[n][n+1] R[n+1][n] = A_n C_{n+1}
    for n <= levels, then equality of the Hamburger moments of the two
    monic Jacobi systems (B_n/2, A_{n-1} C_n / 4) and
    (R[n][n] / 2, R[n-1][n] R[n][n-1] / 4) up to k = 2 levels.  R is read
    off ``rep_rational``, the truncation the ansatz transfer walk uses.

    The ``jacobi-moments`` check is implied by the two entrywise checks
    before it: its two bands are the values they have just compared, so it
    fails only where one of them fails.  It is no independent route until
    the moments are set against the Askey-Wilson integral (ROADMAP item 1).
    """
    if levels < 1:
        raise InvalidParams(f"levels must be >= 1, got {levels}")
    report = VerificationReport(params=p.to_map(), n=levels)

    coeffs = aw_sweep(p, levels + 2)
    diag, products = _sum_band(p, levels + 2)

    size = levels + 1
    report.check(
        "diagonal-equals-B",
        "diagonal-match",
        lambda: differences("n", diag[:size], (c.B for c in coeffs)),
    )
    report.check(
        "offdiagonal-product-equals-AC",
        "offdiagonal-match",
        lambda: differences("n", products[:size], (c.A * after.C for c, after in zip(coeffs, coeffs[1:]))),
    )

    def moments():
        rec_diag = [coeffs[n].B / 2 for n in range(size)]
        rec_off = [coeffs[n].A * coeffs[n + 1].C / 4 for n in range(size - 1)]
        op_diag = [diag[n] / 2 for n in range(size)]
        op_off = [products[n] / 4 for n in range(size - 1)]
        kmax = 2 * levels
        return differences("k", jacobi_moments(rec_diag, rec_off, kmax), jacobi_moments(op_diag, op_off, kmax))

    report.check("jacobi-moments", "moment-match", moments)
    return report


def aw_series(p: AWParams, stop: int, t, start: int = 0) -> list[Fraction]:
    """Members of the orthogonal family at levels start .. stop-1, at the
    point x = (t + 1/t)/2.

    Level n is the terminating series

        a^(-n) (ab, ac, ad; q)_n * sum_{j=0}^{n} (q^(-n), abcd q^(n-1); q)_j S_j,
        S_j = (a t, a/t; q)_j q^j / (ab, ac, ad, q; q)_j,

    the 4phi3 with numerator parameters q^(-n), q^(n-1) abcd, a t, a/t,
    denominator parameters ab, ac, ad and argument q; it is rational for
    rational t != 0.  The family is symmetric in (a, b, c, d), so the series
    is expanded about the first nonzero parameter, which takes the role of
    a; only a = b = c = d = 0 is refused.

    The ratios S_(j+1)/S_j and the prefactors are computed once for every
    level.  With q = u/v and abcd = m/w, the term ratio j -> j+1 of level n
    is, on integers,

        (u^(n-j) - v^(n-j)) (w v^(n-1+j) - m u^(n-1+j)) G_j / ((u v)^(n-1-j) H_j),

    where G_j / H_j = S_(j+1) / (S_j w u v^(2j)), so a level adds only its
    own factors (q^(-n), abcd q^(n-1); q).  It sums its terms by Horner's
    rule from the top on those integers and builds one Fraction.  Raises DenominatorVanishes at
    the first (b; q)_k or (q; q)_k factor, scanning ab, ac, ad, then q, at
    each k = 1 .. stop-1 in turn, as the series of level stop-1 meets it.
    """
    # the messages name aw_eval, which reads level n of this sweep
    if start < 0:
        raise InvalidParams(f"aw_eval needs n >= 0, got {start}")
    t = as_rational(t)
    a, b, c, d = sorted((p.a, p.b, p.c, p.d), key=lambda x: x == 0)
    if a == 0:
        raise ZeroParameter("aw_eval needs one of a, b, c, d nonzero")
    if t == 0:
        raise ZeroParameter("aw_eval needs t != 0")
    dens = (a * b, a * c, a * d)
    at, a_over_t = a * t, a / t
    up, vp = _QPowers(p.q).upto(2 * stop)
    m, w = p.abcd.numerator, p.abcd.denominator

    def factor(x, j):  # 1 - x q^j = factor(x, j) / (x.denominator v^j)
        return x.denominator * vp[j] - x.numerator * up[j]

    # G_j / H_j = S_(j+1) / (S_j w u v^(2j)); PN_n / PD_n = a^(-n) (ab, ac, ad; q)_n
    pair_scale = at.denominator * a_over_t.denominator * w
    dens_scale = dens[0].denominator * dens[1].denominator * dens[2].denominator
    G, H, PN, PD = [], [], [1], [1]
    for j in range(stop - 1):
        pochs = 1
        for x in dens:
            f = factor(x, j)
            if f == 0:
                raise DenominatorVanishes(f"(b; q)_k vanishes at b={x}, k={j + 1}")
            pochs *= f
        q_step = vp[j + 1] - up[j + 1]
        if q_step == 0:
            raise DenominatorVanishes(f"(q; q)_k vanishes at k={j + 1}")
        G.append(factor(at, j) * factor(a_over_t, j) * dens_scale)
        H.append(pair_scale * pochs * q_step)
        PN.append(PN[-1] * a.denominator * pochs)
        PD.append(PD[-1] * a.numerator * dens_scale * vp[j] ** 3)
    # 1 - q^(-k) = drop[k] / u^k and 1 - abcd q^k = pole[k] / (w v^k)
    drop = [uk - vk for uk, vk in zip(up, vp)]
    pole = [w * vk - m * uk for uk, vk in zip(up, vp)]
    uv = [uk * vk for uk, vk in zip(up, vp)]

    out = []
    for n in range(start, stop):
        num = den = 1
        for j in reversed(range(n)):
            step_den = uv[n - 1 - j] * H[j]
            num, den = step_den * den + drop[n - j] * pole[n - 1 + j] * G[j] * num, step_den * den
        out.append(Fraction(PN[n] * num, PD[n] * den))
    return out


def aw_eval(p: AWParams, n: int, t) -> Fraction:
    """Level-n member of the orthogonal family at the point x = (t + 1/t)/2:
    level n of :func:`aw_series`."""
    return aw_series(p, n + 1, t, n)[0]
