"""Acceptance gate: one test per advertised guarantee, one summary line each.

Each test prints "ACCEPTANCE <k>: PASS/FAIL — <what was checked>" so the
suite output doubles as the acceptance record; run with -s (or read
captured output) to see the lines.
"""

import time
from fractions import Fraction as F

from biorth import (
    WordPoly,
    bimoment_block,
    bimoment_table,
    biorthogonality_check,
    build_D,
    check_defining_relations,
    compare,
    det_bimoment,
    eval_by_elimination,
    functional,
    g_coeff,
    polys_from_inverse,
    polys_from_recurrence,
    rep_rational,
    to_rates,
    verify_algebra,
    verify_aw_match,
    verify_boundary,
    verify_ldu,
)
from biorth.repmat import aw_coeffs, aw_eval

from conftest import check_transpose_symmetry


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_criterion_1_factorization(grid):
    failures = []
    worst = 0.0
    for p in grid:
        start = time.perf_counter()
        report = verify_ldu(p, 16)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if not report.passed or elapsed > 60:
            failures.append((p.to_map(), elapsed))
    _report(
        1,
        not failures,
        f"B = LDU entrywise on 17x17 blocks for {len(grid)} parameter sets "
        f"(slowest {worst:.2f}s, limit 60s/set)",
    )


def test_criterion_2_determinants(grid):
    bad = [
        (p.to_map(), n)
        for p in grid
        for n in range(13)
        if len(set(det_bimoment(p, n))) != 1
    ]
    _report(
        2,
        not bad,
        "diagonal product, closed form and fraction-free elimination agree "
        f"for n <= 12 on {len(grid)} sets",
    )


def test_criterion_3_biorthogonality(grid):
    ok = True
    for p in grid:
        report = biorthogonality_check(p, 11)
        lam = build_D(p, 10)
        products = [F(1)]
        for i in range(10):
            products.append(products[-1] * g_coeff(p, i))
        ok = ok and report.passed and list(lam.values) == products
        for variable in ("d", "e"):
            ok = ok and (
                polys_from_inverse(p, 13, variable).coeffs
                == polys_from_recurrence(p, 13, variable).coeffs
            )
    _report(
        3,
        ok,
        "L(P_n Q_m) = Lambda_n delta_nm for n,m <= 10 with Lambda_n = prod g_i; "
        "construction routes agree to n = 12",
    )


def test_criterion_4_representation(grid):
    ok = True
    for p in grid:
        dop, eop = rep_rational(p, 32)
        ok = ok and verify_algebra(dop, eop, p.q).passed
        ok = ok and verify_boundary(dop, eop, p).passed
    _report(
        4,
        ok,
        "d e - q e d = (1-q) id on the interior of N = 32 truncations; "
        "boundary relations annihilate row/column 0",
    )


def test_criterion_5_aw_match(grid):
    ok = True
    for p in grid:
        ok = ok and verify_aw_match(p, 20).passed  # also moments to k = 40
        for t in (F(2), F(3, 2), F(5)):
            values = [aw_eval(p, n, t) for n in range(10)]
            twox = t + 1 / t
            for n in range(1, 9):
                c = aw_coeffs(p, n)
                ok = ok and (
                    c.A * values[n + 1] + c.B * values[n] + c.C * values[n - 1]
                    == twox * values[n]
                )
    _report(
        5,
        ok,
        "R diagonal/off-diagonal match B_n and A_n C_{n+1} to n = 20, Jacobi "
        "moments to k = 40, series recurrence to n = 8 at t in {2, 3/2, 5} "
        f"({len(grid)} sets)",
    )


def test_criterion_6_stationary_oracle(grid):
    sets = [grid[0], grid[1], grid[4], grid[5]]
    start = time.perf_counter()
    ok = True
    for p in sets:
        to_rates(p)  # constructor enforces physical (positive/nonnegative) rates
        matching = None
        for length in range(1, 7):
            report = compare(length, p)
            names = set(report.matching_variants)
            ok = ok and bool(names)
            matching = names if matching is None else matching & names
        ok = ok and bool(matching)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    _report(
        6,
        ok,
        f"a matrix-product variant equals the master-equation solution exactly "
        f"for L = 1..6 on {len(sets)} physical parameter sets ({elapsed:.1f}s, limit 300s)",
    )


def test_criterion_7_functional_fuzz(grid):
    ok = True
    for p in grid:
        ok = ok and check_defining_relations(p, max_len=8, trials=200).passed
    for p in grid[:2]:
        for length in range(9):
            for k in range(1 << length):
                word = "".join("de"[(k >> i) & 1] for i in range(length))
                wp = WordPoly({word: 1})
                ok = ok and functional(wp, p) == eval_by_elimination(wp, p)
    _report(
        7,
        ok,
        f"{len(grid)} x 200 fuzzed defining-relation instances vanish exactly (word length "
        "<= 8); both evaluation paths agree on all 511 words of length <= 8",
    )


def test_criterion_8_bimoment_integrity(grid):
    ok = True
    for p in grid:
        cols = bimoment_block(p, 8, fill="columns")
        rows = bimoment_block(p, 8, fill="rows")
        ok = ok and cols.rows() == rows.rows()
        ok = ok and check_transpose_symmetry(p, 8)
    for p in (grid[0], grid[2], grid[6]):
        table = bimoment_table(p)
        for n in range(13):
            for m in range(13 - n):
                ok = ok and table.entry(n, m) == functional(
                    WordPoly({"d" * n + "e" * m: 1}), p
                )
    _report(
        8,
        ok,
        "column-fill = row-fill on 9x9 blocks, transpose symmetry under both "
        "parameter swaps, and B_nm = L(d^n e^m) for n + m <= 12",
    )
