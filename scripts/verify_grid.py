#!/usr/bin/env python3
"""Run the full exact-verification battery over a parameter grid.

Prints one line per (point, suite) with its status (ok, FAIL, or skip for a
suite whose formula is undefined at the point) and timing, then a summary
that counts failures and skips separately.  Sizes are adjustable so the
battery can be pushed harder than the defaults used by `biorth verify-all`.
"""

import argparse
import sys
import time
from fractions import Fraction

from biorth import (
    AWParams,
    bimoment_block,
    biorthogonality_check,
    check_defining_relations,
    det_bimoment,
    monomial_expansion_check,
    polys_from_inverse,
    polys_from_recurrence,
    rep_rational,
    verify_algebra,
    verify_aw_match,
    verify_boundary,
    verify_ldu,
    verify_uchiyama_algebra,
)
from biorth.bimoment import check_recurrences, check_transpose_symmetry
from biorth.cli import GRID
from biorth.core import ZeroParameter


def run_point(p: AWParams, n_ldu: int, n_det: int, n_poly: int, n_rep: int, trials: int):
    yield "bimoment", lambda: (
        bimoment_block(p, 8, fill="columns").entries == bimoment_block(p, 8, fill="rows").entries
        and check_transpose_symmetry(p, 8)
        and check_recurrences(p, 8)
    )
    yield "ldu", lambda: verify_ldu(p, n_ldu).passed
    yield "determinants", lambda: len(set(det_bimoment(p, n_det))) == 1
    yield "biortho", lambda: (
        biorthogonality_check(p, n_poly).passed
        and monomial_expansion_check(p, n_poly)
        and all(
            polys_from_inverse(p, n_poly, v) == polys_from_recurrence(p, n_poly, v)
            for v in "de"
        )
    )
    yield "functional", lambda: check_defining_relations(p, max_len=8, trials=trials).passed

    def rep_suite():
        dop, eop = rep_rational(p, n_rep)
        ok = verify_algebra(dop, eop, p.q).passed and verify_boundary(dop, eop, p).passed
        return ok and verify_uchiyama_algebra(p, n_rep).passed

    yield "representation", rep_suite
    # raises ZeroParameter at the c = d = 0 point, where the normalized
    # recurrence is undefined: reported as skipped, not as passed
    yield "aw-match", lambda: verify_aw_match(p, n_rep // 2).passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-ldu", type=int, default=16)
    ap.add_argument("--n-det", type=int, default=12)
    ap.add_argument("--n-poly", type=int, default=10)
    ap.add_argument("--n-rep", type=int, default=32)
    ap.add_argument("--trials", type=int, default=200)
    args = ap.parse_args()

    failures = skips = 0
    for point in GRID:
        p = AWParams(*(Fraction(x) for x in point))
        label = "(" + ", ".join(point) + ")"
        for name, task in run_point(p, args.n_ldu, args.n_det, args.n_poly, args.n_rep, args.trials):
            start = time.perf_counter()
            try:
                status = "ok" if task() else "FAIL"
            except ZeroParameter:
                status = "skip"
            elapsed = time.perf_counter() - start
            print(f"{label:34s} {name:15s} {status:4s} {elapsed:7.2f}s")
            failures += status == "FAIL"
            skips += status == "skip"
    verdict = f"{failures} failing suite(s)" if failures else "all suites that ran passed"
    print(f"\n{verdict}, {skips} skipped")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
