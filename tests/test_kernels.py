"""Integer kernels against plain-Fraction references.

The band walk, the inverse lower factor, the monic recurrence, the
closed-form determinant, the chain generator, the closed-form coefficient
sweeps (d, e, g and A/B/C) and the Askey-Wilson series sweep clear
denominators once and form one Fraction per entry (the determinant one in
all).  The moment table's column fill, the row fill and the Jacobi moment
walk carry unreduced integer pairs through the pair step; the row fill
and the walk form one Fraction per kept entry or moment, and the table one
per entry read, which is held to the reference under any interleaving of
reads and growth.  The step itself is held to its Fraction formula on
reduced and unreduced inputs.
The banded algebra
check forms a Fraction only for its first failure, and the product search
only for each mismatch.  The normal-ordering step and the moment sum read
integer coefficients over one scale, which the tests convert.  Each
reference below is the Fraction formula the kernel replaced, kept verbatim,
so the kernels must reproduce it entry for entry -- values, singular orders
and messages, and the key order of the normal-ordered dicts.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from biorth import (
    BiorthError,
    DenominatorVanishes,
    InvalidParams,
    ShapeError,
    SingularParams,
    SizeLimit,
    ZeroParameter,
    bimoment,
    bimoment_table,
    build_L_inverse,
    d_natural,
    det_bimoment,
    det_closed_form,
    e_natural,
    g_coeff,
    is_valid,
    jacobi_moments,
    phi_terminating,
    qpoch,
    to_rates,
    validate,
    verify_algebra,
)
from biorth._linalg import mat_mul, product_mismatches, three_term, three_term_pairs
from biorth.asep import generator
from biorth.bimoment import BimomentTable, _block_by_rows, boundary_column
from biorth.core import (
    _QPowers,
    _clear_denominators,
    as_rational,
    d_natural_sweep,
    e_natural_sweep,
    g_sweep,
    qpoch_multi,
)
from biorth.repmat import (
    AWRecurrenceCoeffs,
    TridiagonalOperator,
    _sum_band,
    aw_coeffs,
    aw_eval,
    aw_series,
    aw_sweep,
    monic_recurrence,
    rep_rational,
)
from biorth.reporting import differences
from biorth.suites import GRID
from biorth.wordfun import _moment_sum, _times_letter, normal_power

from conftest import make_params, rationals


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


def test_table_grown_one_order_at_a_time_equals_one_growth(grid):
    for p in grid:
        once = BimomentTable(p)
        once.ensure(26)
        stepped = BimomentTable(p)
        for n in range(1, 27):
            stepped.ensure(n)
            assert stepped.order == n
        assert stepped.stored_items() == once.stored_items()


_REFERENCE_TABLES = {}


def _reference_table_20(p):
    """``reference_table`` at order 20, once per point: an entry's value does
    not depend on how the table grew to hold it."""
    if p not in _REFERENCE_TABLES:
        _REFERENCE_TABLES[p] = reference_table(p, [20])
    return _REFERENCE_TABLES[p]


# one read or growth of a table, up to order 20: ("ensure" | "block", n) or
# ("entry", i, j) with max(j, (i + j + 1) // 2) <= 20
table_ops = st.one_of(
    st.tuples(st.sampled_from(("ensure", "block")), st.integers(0, 20)),
    st.integers(0, 20).flatmap(lambda j: st.tuples(st.just("entry"), st.integers(0, 40 - j), st.just(j))),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRID), st.lists(table_ops, min_size=1, max_size=8))
def test_interleaved_reads_and_growth_match_the_reference(point, ops):
    # a read reduces the entries it returns in place, and later growth reads
    # them back: every value returned is a Fraction equal to the reference
    p = make_params(point)
    expected = _reference_table_20(p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bimoment, "_TABLES", {})
        table = bimoment_table(p)
        for op, *args in ops:
            if op == "ensure":
                table.ensure(*args)
            elif op == "block":
                n = args[0]
                block = table.block(n)
                assert block == [[expected[i, j] for j in range(n + 1)] for i in range(n + 1)]
                assert all(type(value) is F for row in block for value in row)
            else:
                value = table.entry(*args)
                assert type(value) is F and value == expected[tuple(args)]
        n = table.order
        stored = table.stored_items()
        assert sorted(stored) == sorted((i, j) for j in range(n + 1) for i in range(2 * n - j + 1))
        assert stored == {key: expected[key] for key in stored}
        assert all(type(value) is F for value in stored.values())


def test_a_dropped_table_still_held_keeps_growing(grid, monkeypatch):
    # another point's lookup drops the table from the store, not from a
    # caller that holds it (check_transpose_symmetry reads its point's table
    # while it looks up two others)
    first, second = grid[:2]
    monkeypatch.setattr(bimoment, "_TABLES", {})
    held = bimoment_table(first)
    held.ensure(5)
    bimoment_table(second).ensure(5)
    assert list(bimoment._TABLES) == [second]
    expected = _reference_table_20(first)
    assert held.entry(30, 3) == expected[30, 3]  # grows to order 17
    assert held.block(20) == [[expected[i, j] for j in range(21)] for i in range(21)]
    assert held.stored_items() == expected


# abcd q = 1 and abcd q^6 = 1: the boundary denominator vanishes at depth 2 and 7
@pytest.mark.parametrize("point", [("2", "1", "1", "1", "1/2"), ("8", "4", "2", "1", "1/2")])
def test_table_growth_across_a_vanishing_boundary_denominator(point):
    p = make_params(point)
    # the first depth whose boundary denominator 1 - abcd q^(depth-1) vanishes
    depth = next(i for i in range(1, 60) if p.abcd * p.q ** (i - 1) == 1)
    with pytest.raises(SingularParams) as column_error:
        boundary_column(p, depth)
    served = (depth - 1) // 2  # the largest order whose column depth 2n precedes it
    table = BimomentTable(p)
    for n in range(1, served + 1):
        table.ensure(n)
    with pytest.raises(SingularParams) as table_error:
        table.ensure(served + 1)
    assert str(table_error.value) == str(column_error.value)
    assert str(column_error.value).endswith(f"at depth {depth}")
    assert table.order == served
    # smaller orders are still served, and equal the Fraction reference
    expected = reference_table(p, range(1, served + 1))
    assert table.stored_items() == expected
    assert table.block(served) == [
        [expected[(i, j)] for j in range(served + 1)] for i in range(served + 1)
    ]
    with pytest.raises(SingularParams) as again:
        table.ensure(served + 2)
    assert str(again.value) == str(column_error.value)


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


def reference_g_coeff(p, j):
    if j < 0:
        raise InvalidParams(f"g_coeff needs j >= 0, got {j}")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    qj = q**j
    num = (
        (1 - abcd * q ** (j - 1) if j else 1)
        * (1 - q ** (j + 1))
        * (1 - a * b * qj)
        * (1 - b * c * qj)
        * (1 - a * d * qj)
        * (1 - c * d * qj)
    )
    den = (
        (1 - abcd * q ** (2 * j - 1) if j else 1)
        * (1 - abcd * q ** (2 * j)) ** 2
        * (1 - abcd * q ** (2 * j + 1))
    )
    if den == 0:
        raise SingularParams(f"g_{j} denominator vanishes for {p.to_map()}")
    return num / den


def reference_d_natural(p, n):
    if n < 0:
        raise InvalidParams(f"d_natural needs n >= 0, got {n}")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    bd = b * d
    den = 1 - abcd if n == 0 else (1 - q ** (2 * n - 2) * abcd) * (1 - q ** (2 * n) * abcd)
    if den == 0:
        raise SingularParams(f"d_natural({n}) denominator vanishes for {p.to_map()}")
    if n == 0:
        return (b + d - bd * (a + c)) / den
    bracket = (
        bd * (a + c)
        + (b + d) * q
        - abcd * (b + d) * q ** (n - 1)
        - (bd * (a + c) + abcd * (b + d)) * q**n
        - bd * (a + c) * q ** (n + 1)
        + abcd * bd * (a + c) * q ** (2 * n - 1)
        + abcd * (b + d) * q ** (2 * n)
    )
    return q ** (n - 1) / den * bracket


def reference_e_natural(p, n):
    return reference_d_natural(p.swap_ab_cd(), n)


def reference_aw_coeffs(p, n):
    if n < 0:
        raise InvalidParams(f"aw_coeffs needs n >= 0, got {n}")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    s = a + b + c + d
    e3 = a * b * (c + d) + (a + b) * c * d
    if n == 0:
        if abcd == 1:
            raise SingularParams("recurrence denominators vanish at level 0")
        return AWRecurrenceCoeffs(n=0, A=1 / (1 - abcd), B=(s - e3) / (1 - abcd), C=F(0))

    den_a = (1 - q ** (2 * n - 1) * abcd) * (1 - q ** (2 * n) * abcd)
    den_b = (1 - q ** (2 * n - 2) * abcd) * (1 - q ** (2 * n) * abcd)
    den_c = (1 - q ** (2 * n - 1) * abcd) * (1 - q ** (2 * n - 2) * abcd)
    if 0 in (den_a, den_b, den_c):
        raise SingularParams(f"recurrence denominators vanish at level {n}")

    A = (1 - q ** (n - 1) * abcd) / den_a
    B = (
        q ** (n - 1)
        / den_b
        * (
            (1 + q ** (2 * n - 1) * abcd) * (q * s + e3)
            - q ** (n - 1) * (1 + q) * (abcd * s + q * e3)
        )
    )
    qn1 = q ** (n - 1)
    C = (
        (1 - q**n)
        * (1 - qn1 * a * b)
        * (1 - qn1 * a * c)
        * (1 - qn1 * a * d)
        * (1 - qn1 * b * c)
        * (1 - qn1 * b * d)
        * (1 - qn1 * c * d)
    ) / den_c
    return AWRecurrenceCoeffs(n=n, A=A, B=B, C=C)


def reference_validate(p, n):
    # the per-level closed forms are the references above
    if n < 0:
        raise InvalidParams(f"validate needs n >= 0, got {n}")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = p.abcd
    for k in range(2 * n + 2):
        if abcd * q**k == 1:
            raise SingularParams(f"abcd q^{k} = 1 is singular")
    for k in range(n + 1):
        if a * c * q**k == 1:
            raise SingularParams(f"ac q^{k} = 1 is singular")
        if b * d * q**k == 1:
            raise SingularParams(f"bd q^{k} = 1 is singular")
    for k in range(n + 1):
        reference_d_natural(p, k)
        reference_e_natural(p, k)
    for k in range(n):
        if reference_g_coeff(p, k) == 0:
            raise SingularParams(f"g_{k} = 0 degenerates the factorization diagonal")


def reference_times_letter(poly, const, d_coeff, e_coeff, q):
    qinv = 1 / q
    out = {}
    for (i, j), coeff in poly.items():
        moves = []
        if e_coeff:
            moves.append(((i, j + 1), e_coeff * coeff))
        if d_coeff:
            scaled = d_coeff * coeff
            moved = scaled * qinv**j
            moves.append(((i + 1, j), moved))
            if j:
                moves.append(((i, j - 1), scaled - moved))
        if const:
            moves.append(((i, j), const * coeff))
        for key, value in moves:
            out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if value}


def reference_normal_power(const, weight, length, q):
    poly = {(0, 0): F(1)}
    for _ in range(length):
        poly = reference_times_letter(poly, const, weight, weight, q)
    return poly


def reference_moment_sum(p, poly):
    table = bimoment_table(p)
    return sum((coeff * table.entry(i, j) for (i, j), coeff in poly.items()), F(0))


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


def _levels(reference):
    """The per-level reference over levels 0 .. order, as a sweep returns them."""
    return lambda p, order: [reference(p, k) for k in range(order + 1)]


# the sweeps and the per-level functions against the per-level references;
# values are compared by repr, so a kernel must also return Fractions
_CLOSED_FORMS = (
    (lambda p, order: g_sweep(p, order + 1), _levels(reference_g_coeff)),
    (lambda p, order: d_natural_sweep(p, order + 1), _levels(reference_d_natural)),
    (lambda p, order: e_natural_sweep(p, order + 1), _levels(reference_e_natural)),
    (lambda p, order: aw_sweep(p, order + 1), _levels(reference_aw_coeffs)),
    (g_coeff, reference_g_coeff),
    (d_natural, reference_d_natural),
    (e_natural, reference_e_natural),
    (aw_coeffs, reference_aw_coeffs),
)


@pytest.mark.parametrize("point", SINGULAR_POINTS + GRID)
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
        for index, (kernel, reference) in enumerate(_CLOSED_FORMS):
            outcome = _outcome(lambda: repr(kernel(p, order)))
            assert outcome == _outcome(lambda: repr(reference(p, order))), (index, order)
            raised += outcome[0] != "value"
    if pole:
        assert raised  # the pole is met below order 14


# q from the grid, and one negative q
grid_q = st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(2, 5), F(-1, 3)])


@settings(max_examples=200)
@given(
    st.one_of(
        st.sampled_from([make_params(point) for point in SINGULAR_POINTS + GRID]),
        st.builds(make_params, st.tuples(rationals(), rationals(), rationals(), rationals(), grid_q)),
    ),
    st.integers(0, 26),
)
def test_validate_matches_its_fraction_reference(p, n):
    expected = _outcome(lambda: reference_validate(p, n))
    assert _outcome(lambda: validate(p, n)) == expected
    assert is_valid(p, n) == (expected[0] == "value")


@settings(max_examples=100)
@given(
    st.builds(
        make_params,
        st.tuples(*[rationals()] * 4, st.sampled_from(["1/2", "-1/3", "3/2", "-5/2"])),
    ),
    st.integers(0, 12),
)
def test_closed_form_determinant_matches_the_reference_at_random_points(p, n):
    # q < 0 and q > 1 included; at abcd = q only the reference's uncancelled
    # factor 1 - abcd/q vanishes (covered above)
    assume(p.abcd != p.q)
    expected = _outcome(lambda: repr(reference_det_closed_form(p, n)))
    assert _outcome(lambda: repr(det_closed_form(p, n))) == expected


# zero, negative and 100-bit coefficients, always as Fractions
fraction_entries = entries.map(F)
normal_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), fraction_entries, max_size=8
)


# the extra factor a form's scale may carry: a scale need not be the lcm of
# the denominators, and with q < 0 it may be negative
scale_factors = st.integers(-6, 6).filter(bool)


def _items(poly):
    """repr of the items in order: values, their types and the key order."""
    return repr(list(poly.items()))


def _form(poly, extra=1):
    """poly as the kernels' (ints, scale), over its lcm times ``extra``."""
    ints, scale = _clear_denominators(list(poly.values()))
    return {key: value * extra for key, value in zip(poly, ints)}, scale * extra


def _as_fractions(form):
    ints, scale = form
    assert type(scale) is int and all(type(value) is int for value in ints.values())
    return {key: F(value, scale) for key, value in ints.items()}


@settings(max_examples=300)
@given(normal_polys, fraction_entries, fraction_entries, fraction_entries, grid_q, scale_factors)
def test_times_letter_matches_fraction_loop(poly, const, d_coeff, e_coeff, q, extra):
    form = _form(poly, extra)
    expected = reference_times_letter(poly, const, d_coeff, e_coeff, q)
    got = _as_fractions(_times_letter(form, const, d_coeff, e_coeff, _QPowers(q)))
    assert _items(got) == _items(expected)
    # the word route's letters: a bare d or e
    for d_coeff, e_coeff in ((1, 0), (0, 1)):
        expected = reference_times_letter(poly, 0, d_coeff, e_coeff, q)
        got = _as_fractions(_times_letter(form, 0, d_coeff, e_coeff, _QPowers(q)))
        assert _items(got) == _items(expected)


@settings(max_examples=60)
@given(fraction_entries, fraction_entries, st.integers(0, 8), grid_q)
def test_normal_power_matches_fraction_loop(const, weight, length, q):
    expected = reference_normal_power(const, weight, length, q)
    assert _items(normal_power(const, weight, length, q)) == _items(expected)


@settings(max_examples=60)
@given(st.sampled_from(GRID), normal_polys, scale_factors)
def test_moment_sum_matches_fraction_sum(point, poly, extra):
    p = make_params(point)
    assert repr(_moment_sum(p, _form(poly, extra))) == repr(reference_moment_sum(p, poly))


def reference_aw_eval(p, n, t):
    """aw_eval as it was written: the prefactor times the terminating 4phi3."""
    if n < 0:
        raise InvalidParams(f"aw_eval needs n >= 0, got {n}")
    t = as_rational(t)
    a, b, c, d = sorted((p.a, p.b, p.c, p.d), key=lambda x: x == 0)
    q = p.q
    if a == 0:
        raise ZeroParameter("aw_eval needs one of a, b, c, d nonzero")
    if t == 0:
        raise ZeroParameter("aw_eval needs t != 0")
    prefactor = a ** (-n) * qpoch_multi([a * b, a * c, a * d], q, n)
    series = phi_terminating(
        [q ** (-n), q ** (n - 1) * p.abcd, a * t, a / t],
        [a * b, a * c, a * d],
        q,
        q,
        n,
    )
    return prefactor * series


# the GRID points (the c = d = 0 point among them), abcd = q, q^2 and
# abcd q = 1, and a point whose series pivots past a zero a
AW_POINTS = GRID + SINGULAR_POINTS + (("0", "1/2", "-1/3", "-1/4", "1/2"),)
AW_LEVELS = 25


@pytest.mark.parametrize("point", AW_POINTS)
def test_aw_series_matches_the_reference_at_every_window(point):
    p = make_params(point)
    for t in (F(2), F(3, 2), F(5), F(-3), F(1, 7)):
        levels = [_outcome(lambda: repr(reference_aw_eval(p, n, t))) for n in range(AW_LEVELS)]
        for n, expected in enumerate(levels):
            assert _outcome(lambda: repr(aw_eval(p, n, t))) == expected, (t, n)
        for start in range(AW_LEVELS):
            for stop in range(start + 1, AW_LEVELS + 1):
                window = levels[start:stop]
                raised = [outcome for outcome in window if outcome[0] != "value"]
                expected = raised[0] if raised else ("value", f"[{', '.join(value for _, value in window)}]")
                assert _outcome(lambda: repr(aw_series(p, stop, t, start))) == expected, (t, start, stop)


@pytest.mark.parametrize(
    "point, n, t, expected",
    [
        (("2", "1/2", "-1/3", "-1/4", "1/2"), 1, 2, (DenominatorVanishes, "(b; q)_k vanishes at b=1, k=1")),
        (("1", "1/2", "-1/3", "-1/4", "-1"), 2, 2, (DenominatorVanishes, "(q; q)_k vanishes at k=2")),
        # (ab; q)_2 and (q; q)_2 both vanish: ab is scanned first
        (("1", "-1", "-1/3", "-1/4", "-1"), 2, 2, (DenominatorVanishes, "(b; q)_k vanishes at b=-1, k=2")),
        (("0", "0", "0", "0", "1/2"), 1, 2, (ZeroParameter, "aw_eval needs one of a, b, c, d nonzero")),
        (GRID[0], 1, 0, (ZeroParameter, "aw_eval needs t != 0")),
        (GRID[0], -1, 2, (InvalidParams, "aw_eval needs n >= 0, got -1")),
    ],
)
def test_aw_series_raises_as_the_reference_does(point, n, t, expected):
    p = make_params(point)
    assert _outcome(lambda: reference_aw_eval(p, n, t)) == expected
    assert _outcome(lambda: aw_eval(p, n, t)) == expected
    assert _outcome(lambda: aw_series(p, n + 1, t, n)) == expected


def reference_band_product(x: TridiagonalOperator, y: TridiagonalOperator):
    """Dense product of two equally sized tridiagonal operators."""
    n = x.size
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for k in (i - 1, i, i + 1):
            if 0 <= k < n:
                xik = x.entry(i, k)
                if xik:
                    for j in (k - 1, k, k + 1):
                        if 0 <= j < n:
                            ykj = y.entry(k, j)
                            if ykj:
                                out[i][j] += xik * ykj
    return out


def reference_algebra_failures(dop, eop, q):
    """The dense search of d e - q e d = (1 - q) id as it was written."""
    qprime = 1 - q
    size = dop.size
    de = reference_band_product(dop, eop)
    ed = reference_band_product(eop, dop)
    for i in range(size - 2):
        for j in range(size - 2):
            value = de[i][j] - q * ed[i][j] - (qprime if i == j else 0)
            if value != 0:
                yield {"i": i, "j": j, "value": value}


nonzero_entries = entries.map(lambda x: x or 1)


@st.composite
def algebra_pairs(draw):
    """A pair (d, e) and q: either the truncation at a GRID point under a
    diagonal similarity and a scaling d -> l d, e -> e / l, which keep the
    algebra, or (one draw in four) two random bands; then one entry changed
    by a drawn amount (zero included)."""
    # size and the changed entry from a seeded Random: drawn directly,
    # hypothesis favours size 3 and index 0
    rng = draw(st.randoms(use_true_random=False))
    size = rng.randrange(3, 11)
    if draw(st.integers(0, 3)):
        p = make_params(draw(st.sampled_from(GRID)))
        q, scale = p.q, draw(nonzero_entries)
        s = [draw(nonzero_entries) for _ in range(size)]
        ops = []
        for op, by in zip(rep_rational(p, size), (scale, 1 / F(scale))):
            ops.append(TridiagonalOperator(
                size,
                tuple(by * x for x in op.diag),
                tuple(by * x * s[k] / s[k + 1] for k, x in enumerate(op.upper)),
                tuple(by * x * s[k + 1] / s[k] for k, x in enumerate(op.lower)),
            ))
    else:
        q = draw(grid_q)
        ops = [
            TridiagonalOperator(
                size,
                tuple(draw(entries) for _ in range(size)),
                tuple(draw(entries) for _ in range(size - 1)),
                tuple(draw(entries) for _ in range(size - 1)),
            )
            for _ in range(2)
        ]
    which, field = rng.randrange(2), rng.choice(("diag", "upper", "lower"))
    band = getattr(ops[which], field)
    index = rng.randrange(len(band))
    changed = band[:index] + (band[index] + draw(entries),) + band[index + 1 :]
    ops[which] = replace(ops[which], **{field: changed})
    return ops[0], ops[1], q


@settings(max_examples=150)
@given(algebra_pairs())
def test_banded_algebra_check_matches_the_dense_search(case):
    dop, eop, q = case
    (check,) = verify_algebra(dop, eop, q).checks
    expected = next(reference_algebra_failures(dop, eop, q), None)
    assert check.passed == (expected is None)
    assert repr(check.first_failure) == repr(expected)


rational_entries = entries.map(F)


@st.composite
def pair_steps(draw):
    """Cleared steps and the rational triples they read, 0-6 of each."""
    count = draw(st.integers(0, 6))
    steps = [_clear_denominators([draw(rational_entries) for _ in range(3)]) for _ in range(count)]
    triples = [tuple(draw(rational_entries) for _ in range(3)) for _ in range(count)]
    return steps, triples


def reference_three_term(steps, triples):
    """The three-term step as a Fraction formula."""
    return [(u * x + v * y + w * z) / F(scale) for ((u, v, w), scale), (x, y, z) in zip(steps, triples)]


@settings(max_examples=200)
@given(pair_steps(), scale_factors)
def test_three_term_step_matches_the_fraction_formula(case, extra):
    steps, triples = case
    expected = reference_three_term(steps, triples)
    reduced = three_term(steps, triples)
    assert all(type(value) is F for value in reduced)
    assert reduced == expected
    # the same values unreduced: each denominator carries a further factor
    pairs = [
        tuple((x.numerator * abs(extra), x.denominator * abs(extra)) for x in triple) for triple in triples
    ]
    got = three_term_pairs(steps, pairs)
    assert all(type(num) is int and type(den) is int and den > 0 for num, den in got)
    assert [F(num, den) for num, den in got] == expected


def reference_jacobi_moments(diag, offdiag_products, kmax: int):
    """jacobi_moments as it was written: a Fraction power walk on matvec."""
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
    vec = [F(1)]
    out = [vec[0]]
    for k in range(1, kmax + 1):
        # after k steps only levels that can still return to 0 matter
        vec = jacobi.matvec(vec, min(k, kmax - k) + 1)
        out.append(vec[0])
    return out


def _aw_match_bands(p, levels):
    """The two Jacobi systems ``verify_aw_match`` compares at ``levels``."""
    coeffs = aw_sweep(p, levels + 2)
    diag, products = _sum_band(p, levels + 2)
    size = levels + 1
    return (
        ([c.B / 2 for c in coeffs[:size]], [coeffs[n].A * coeffs[n + 1].C / 4 for n in range(size - 1)]),
        ([x / 2 for x in diag[:size]], [x / 4 for x in products[: size - 1]]),
    )


def test_jacobi_moments_match_the_power_walk_on_the_aw_match_bands(grid):
    walked = 0
    for p in grid:
        if 0 in (p.a, p.b, p.c, p.d):
            continue  # aw-match refuses a zero parameter
        for diag, products in _aw_match_bands(p, 22):
            expected = reference_jacobi_moments(diag, products, 44)
            got = jacobi_moments(diag, products, 44)
            assert repr(got) == repr(expected)
            walked += 1
    assert walked >= 8


@settings(max_examples=200)
@given(
    st.lists(st.one_of(entries, entries.map(lambda x: -abs(x) - 1)), min_size=1, max_size=8),
    st.lists(st.one_of(st.just(0), entries), min_size=7, max_size=7),
    st.integers(0, 16),
)
def test_jacobi_moments_match_the_power_walk_on_random_bands(diag, products, kmax):
    # zero couplings, negative diagonals, plain ints and 100-bit entries
    size = len(diag)
    products = products[: size - 1]
    expected = _outcome(lambda: repr(reference_jacobi_moments(diag, products, kmax)))
    assert _outcome(lambda: repr(jacobi_moments(diag, products, kmax))) == expected


def test_jacobi_moments_refuse_a_short_coupling_band():
    diag = [F(1, 2)] * 4
    for products in ([], [F(1)], [F(1), F(2)]):
        with pytest.raises(ShapeError, match="band lengths inconsistent with size"):
            jacobi_moments(diag, products, 2)
    # more couplings than size - 1: the surplus is not read
    assert jacobi_moments(diag, [F(1)] * 5, 6) == jacobi_moments(diag, [F(1)] * 3, 6)


@st.composite
def perturbed_products(draw):
    """(expected, a, b): a b with 1-3 entries changed, for dense, lower and
    upper triangular factors and factors with zero rows."""
    rows, inner, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = [[draw(rational_entries) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(rational_entries) for _ in range(cols)] for _ in range(inner)]
    shape = draw(st.sampled_from(("dense", "lower", "upper", "zero rows")))
    if shape == "lower":
        a = [[x if k <= i else F(0) for k, x in enumerate(row)] for i, row in enumerate(a)]
        b = [[x if j <= k else F(0) for j, x in enumerate(row)] for k, row in enumerate(b)]
    elif shape == "upper":
        a = [[x if k >= i else F(0) for k, x in enumerate(row)] for i, row in enumerate(a)]
        b = [[x if j >= k else F(0) for j, x in enumerate(row)] for k, row in enumerate(b)]
    elif shape == "zero rows":
        for i in draw(st.sets(st.integers(0, rows - 1), min_size=1)):
            a[i] = [F(0)] * inner
        for k in draw(st.sets(st.integers(0, inner - 1))):
            b[k] = [F(0)] * cols
    expected = mat_mul(a, b)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        expected[i][j] += draw(rational_entries)  # zero leaves the entry as it was
    return expected, a, b


def reference_matrix_differences(left, right):
    """The dense entry search as it was written, on a computed product."""
    for i, (row_left, row_right) in enumerate(zip(left, right)):
        for found in differences("j", row_left, row_right):
            yield {"i": i, **found}


@settings(max_examples=200)
@given(perturbed_products())
def test_product_search_yields_every_counterexample_in_order(case):
    expected, a, b = case
    found = [
        {"i": i, "j": j, "left": expected[i][j], "right": value}
        for i, j, value in product_mismatches(expected, a, b)
    ]
    assert repr(found) == repr(list(reference_matrix_differences(expected, mat_mul(a, b))))
    assert all(type(value) is F for _, _, value in product_mismatches(expected, a, b))


def test_product_search_refuses_inconsistent_shapes():
    a, b = [[F(1), F(2)]], [[F(1)], [F(3)]]
    assert list(product_mismatches([[F(7)]], a, b)) == []
    for expected, a_, b_ in (
        ([[F(7)]], a, [[F(1)]]),  # a has more columns than b has rows
        ([[F(7)]], [[F(1)], [F(1), F(2)]], b),  # ragged a
        ([[F(7), F(0)]], a, b),  # expected has a column too many
        ([[F(7)], [F(7)]], a, b),  # and a row too many
        ([], a, b),
    ):
        # raised at the call, before any entry is searched
        with pytest.raises(BiorthError):
            product_mismatches(expected, a_, b_)
