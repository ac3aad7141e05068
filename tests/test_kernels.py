"""Integer kernels of the three-term recurrences against plain-Fraction references.

The moment table, the row fill, the band walk, the inverse lower factor, the
monic recurrence, the closed-form determinant and the chain generator clear
denominators once and form one Fraction per entry.  Each reference below is
the Fraction formula the kernel replaced, kept verbatim, so the kernels must
reproduce it entry for entry -- values, singular orders and messages.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from biorth import (
    SingularParams,
    build_L_inverse,
    d_natural,
    det_bimoment,
    det_closed_form,
    g_coeff,
    qpoch,
    to_rates,
)
from biorth.asep import generator
from biorth.bimoment import BimomentTable, _block_by_rows, boundary_column
from biorth.core import qpoch_multi
from biorth.repmat import TridiagonalOperator, monic_recurrence

from conftest import make_params


def reference_matvec(op, vec, levels):
    """Dense band matrix times vec padded with zeros, first ``levels`` rows."""
    dense = [[F(0)] * op.size for _ in range(op.size)]
    for n in range(op.size):
        dense[n][n] = op.diag[n]
    for n in range(op.size - 1):
        dense[n][n + 1] = op.upper[n]
        dense[n + 1][n] = op.lower[n]
    full = list(vec) + [F(0)] * (op.size - len(vec))
    return [sum((dense[i][j] * full[j] for j in range(op.size)), F(0)) for i in range(levels)]


# Zero, plain ints, small rationals of both signs and 100-bit entries.
entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(F, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(F, st.integers(-(2**100), 2**100), st.integers(1, 2**100)),
)


@st.composite
def band_products(draw):
    size = draw(st.integers(1, 8))
    op = TridiagonalOperator(
        size=size,
        diag=tuple(draw(entries) for _ in range(size)),
        upper=tuple(draw(entries) for _ in range(size - 1)),
        lower=tuple(draw(entries) for _ in range(size - 1)),
    )
    vec = [F(draw(entries)) for _ in range(draw(st.integers(0, size)))]
    return op, vec, draw(st.integers(0, size))


@settings(max_examples=200)
@given(band_products())
def test_matvec_matches_dense_product(case):
    op, vec, levels = case
    out = op.matvec(vec, levels)
    assert out == reference_matvec(op, vec, levels)
    assert all(type(value) is F for value in out)


def test_matvec_edges():
    op = TridiagonalOperator(3, (F(1, 2), 3, F(-5, 7)), (F(2, 3), 1), (F(-1, 4), 2**100))
    for vec in ([], [F(1)], [F(1, 3), F(-2)], [F(1, 3), F(-2), F(7, 5)]):
        for levels in range(4):
            assert op.matvec(vec, levels) == reference_matvec(op, vec, levels), (vec, levels)
    # a second call reuses the cleared band and must not depend on the first
    assert op.matvec([F(1)], 3) == [F(1, 2), F(-1, 4), F(0)]


@settings(max_examples=100)
@given(
    st.lists(st.one_of(entries, st.just(F(1, 3))), min_size=0, max_size=7),
    st.lists(entries, min_size=7, max_size=7),
)
def test_monic_recurrence_matches_fraction_loop(diag, products):
    # the recurrence T_(n+1) = (x - diag_n) T_n - products_(n-1) T_(n-1) as it was written
    seq = [(F(1),)]
    for n, value in enumerate(diag):
        cur = seq[-1]
        nxt = [F(0), *cur]
        for k, v in enumerate(cur):
            nxt[k] -= value * v
        if n:
            lam = products[n - 1]
            for k, v in enumerate(seq[-2]):
                nxt[k] -= lam * v
        seq.append(tuple(nxt))
    assert monic_recurrence(diag, products) == tuple(seq)


def reference_boundary_column(p, depth):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    bd = b * d
    abcd = p.abcd
    out = [F(1)]
    for i in range(1, depth + 1):
        qi = q ** (i - 1)
        den = 1 - abcd * qi
        if den == 0:
            raise SingularParams(f"boundary column denominator vanishes at depth {i}")
        prev2 = out[i - 2] if i >= 2 else F(0)
        out.append((((b + d) - bd * (a + c) * qi) * out[i - 1] - bd * (1 - qi) * prev2) / den)
    return out


def reference_table(p, orders):
    """The column fill grown through ``orders`` in turn: {(i, j): value}."""
    a, c, q = p.a, p.c, p.q
    ac = a * c
    entries = {(0, 0): F(1)}
    col_depth = {0: 0}
    for n in orders:
        col0 = reference_boundary_column(p, 2 * n)
        for i, value in enumerate(col0):
            entries[(i, 0)] = value
        col_depth[0] = 2 * n
        row0 = reference_boundary_column(p.swap_ab_cd(), n)
        for j in range(1, n + 1):
            entries[(0, j)] = row0[j]
            depth = 2 * n - j
            start = col_depth.get(j, 0) + 1
            qi = q**start
            for i in range(start, depth + 1):
                entries[(i, j)] = (
                    (1 - qi) * entries[(i - 1, j - 1)]
                    + (a + c) * qi * entries[(i, j - 1)]
                    - ac * qi * entries[(i + 1, j - 1)]
                )
                qi *= q
            col_depth[j] = depth
    return entries


def reference_block_by_rows(p, n):
    b, d, q = p.b, p.d, p.q
    bd = b * d
    row = reference_boundary_column(p.swap_ab_cd(), 2 * n)
    col0 = reference_boundary_column(p, n)
    rows = [row[: n + 1]]
    prev = row
    for i in range(1, n + 1):
        depth = 2 * n - i
        cur = [col0[i]]
        qj = q
        for j in range(1, depth + 1):
            cur.append((1 - qj) * prev[j - 1] + (b + d) * qj * prev[j] - bd * qj * prev[j + 1])
            qj *= q
        rows.append(cur[: n + 1])
        prev = cur
    return rows


def reference_L_inverse(p, n):
    bd = p.b * p.d
    q = p.q
    dnat = [d_natural(p, j) for j in range(n)]
    g = [g_coeff(p, j) for j in range(max(n - 1, 0))]
    m = [[F(0)] * (n + 1) for _ in range(n + 1)]
    m[0][0] = F(1)
    for i in range(1, n + 1):
        for j in range(i + 1):
            acc = m[i - 1][j - 1] if j >= 1 else F(0)
            acc -= dnat[i - 1] * m[i - 1][j]
            if i >= 2:
                acc += bd * q ** (i - 2) * g[i - 2] * m[i - 2][j]
            m[i][j] = acc
    return tuple(tuple(r) for r in m)


def reference_det_closed_form(p, n):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    q2 = q * q
    out = F(1)
    for i in range(1, n + 1):
        num = qpoch_multi(
            [abcd / q, q, a * b, b * c, a * d, c * d], q, i
        )
        den = (
            qpoch(abcd / q, q2, i)
            * qpoch(abcd, q2, i) ** 2
            * qpoch(abcd * q, q2, i)
        )
        if den == 0:
            raise SingularParams(f"closed-form determinant denominator vanishes at i={i}")
        out *= num / den
    return out


def reference_generator(length, rates):
    q = rates.q
    size = 1 << length
    left_mask = 1 << (length - 1)
    entries = {}
    row_sums = [F(0)] * size

    def add(src, dst, rate):
        if rate:
            key = (src, dst)
            entries[key] = entries.get(key, F(0)) + rate
            row_sums[src] += rate

    for s in range(size):
        if s & left_mask:
            add(s, s & ~left_mask, rates.gamma)
        else:
            add(s, s | left_mask, rates.alpha)
        if s & 1:
            add(s, s & ~1, rates.beta)
        else:
            add(s, s | 1, rates.delta)
        for bond in range(length - 1):
            hi = 1 << (length - 1 - bond)
            lo = hi >> 1
            pair = s & (hi | lo)
            if pair == hi:
                add(s, (s & ~hi) | lo, F(1))
            elif pair == lo:
                add(s, (s | hi) & ~lo, q)
    for s, total in enumerate(row_sums):
        if total:
            entries[(s, s)] = -total
    return entries


def test_column_fill_matches_fraction_recurrence(grid):
    for p in grid:
        expected = reference_table(p, [26])
        table = BimomentTable(p)
        table.ensure(26)
        assert table.stored_items() == expected
        # grown in two steps: the second fill starts below the stored depth of each column
        grown = BimomentTable(p)
        grown.ensure(5)
        assert grown.stored_items() == reference_table(p, [5])
        grown.ensure(26)
        assert grown.stored_items() == reference_table(p, [5, 26]) == expected


def test_row_fill_matches_fraction_recurrence(grid):
    for p in grid:
        assert _block_by_rows(p, 17) == reference_block_by_rows(p, 17)


def test_inverse_lower_factor_matches_fraction_recurrence(grid):
    for p in grid:
        assert build_L_inverse(p, 19).entries == reference_L_inverse(p, 19)


def test_closed_form_determinant_matches_pochhammer_products(grid):
    for p in grid:
        for n in range(21):
            assert det_closed_form(p, n) == reference_det_closed_form(p, n), n


def test_generator_matches_fraction_row_sums(grid):
    for p in grid:
        rates = to_rates(p)
        for length in range(1, 7):
            expected = reference_generator(length, rates)
            # same keys, values and insertion order
            assert list(generator(length, rates).items()) == list(expected.items()), length


def _outcome(build):
    try:
        return "value", build()
    except Exception as exc:
        return type(exc), str(exc)


# abcd = q, abcd = q^2 and abcd q = 1
SINGULAR_POINTS = (
    ("1", "1", "-1/2", "-1/2", "1/4"),
    ("1", "1", "-1/4", "-1/4", "1/4"),
    ("2", "1", "1", "1", "1/2"),
)


@pytest.mark.parametrize("point", SINGULAR_POINTS)
def test_kernels_raise_where_the_references_raise(point):
    p = make_params(point)
    pole = p.abcd * p.q == 1
    raised = 0
    for order in range(14):
        for kernel, reference in (
            (boundary_column, reference_boundary_column),
            (lambda p, n: build_L_inverse(p, n).entries, reference_L_inverse),
            (det_closed_form, reference_det_closed_form),
        ):
            outcome = _outcome(lambda: kernel(p, order))
            expected = _outcome(lambda: reference(p, order))
            if pole or expected[0] == "value":
                assert outcome == expected, (reference.__name__, order)
            else:
                # the reference keeps the factor 1 - abcd/q that the kernel
                # cancels; the kernel agrees with the other two routes
                assert reference is reference_det_closed_form, order
                routes = det_bimoment(p, order)
                assert outcome == ("value", routes[0]) and len(set(routes)) == 1, order
            raised += outcome[0] != "value"
    if pole:
        assert raised  # the pole is met below order 14
