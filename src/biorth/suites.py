"""Verification suites and the built-in parameter grid.

Each suite checks one link of the paper's chain (L·D·U, the P/Q families,
the word functional, the tridiagonal representation, the Askey-Wilson
recurrence, the stationary state) and returns ``{name: VerificationReport}``.
The report subcommands call a suite at their flag values; ``verify_point``
runs every suite of ``SUITES`` at the sizes declared there.  Each builder
imports the layer it checks, so a subcommand loads only its own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    DEFAULT_FUZZ_SEED,
    AWParams,
    InvalidParams,
    _clear_denominators,
    format_rational,
    parse_rational,
    three_term,
)
from .reporting import VerificationReport

# Generic points, a three-parameter reduction (c = d = 0), and a point with
# abcd q^k near (but never equal to) 1, to exercise denominator handling.
GRID = (
    ("1", "1/2", "-1/3", "-1/4", "1/2"),
    ("1/2", "1/3", "-1/5", "-1/7", "1/3"),
    ("2", "2/5", "-1/2", "-1/5", "1/4"),
    ("3/2", "3/4", "-1/6", "-1/8", "2/5"),
    ("2/3", "2/3", "-1/3", "-1/3", "1/2"),
    ("1", "1/2", "0", "0", "1/2"),
    ("7/2", "3/5", "-5/7", "-7/10", "1/2"),
)

AW_T_VALUES = (Fraction(2), Fraction(3, 2), Fraction(5))


def grid_params() -> list[AWParams]:
    return [AWParams(*map(parse_rational, point)) for point in GRID]


def ldu_suite(p: AWParams, n: int) -> dict:
    """B = L D U, then the determinant triple, at order n."""
    from . import ldu

    report = ldu.verify_ldu(p, n)
    with report.timed("determinants"):
        triple = ldu.det_bimoment(p, n)
        routes = dict(zip(("from_diagonal", "from_closed_form", "from_elimination"), triple))
        agree = len(set(triple)) == 1
        report.add("determinant-triple-agreement", agree, None if agree else routes)
    return {"ldu": report}


def polys_suite(p: AWParams, n: int, bordered: bool = True) -> dict:
    """Diagonal pairing and equality of the two construction routes for the
    first n polynomials of each family; then, if ``bordered``, the bordered
    determinant at order min(n, 4).  L P = I and Q^T U = I are not repeated
    here: they are the ldu suite's inverse products."""
    from . import biortho

    report = biortho.biorthogonality_check(p, n)
    with report.timed("construction-routes"):
        for variable in ("d", "e"):
            same = biortho.polys_from_inverse(p, n, variable) == biortho.polys_from_recurrence(
                p, n, variable
            )
            report.add(f"route-equality-{variable}", same)
    if bordered:
        with report.timed("bordered-determinant"):
            order = min(n, 4)
            report.add(f"bordered-determinant-n{order}", biortho.bordered_determinant_check(p, order))
    return {"polys": report}


def _sweep_eval_paths(p: AWParams, max_len: int):
    """Each word where normal ordering and boundary elimination disagree,
    as {"word": word}, over every word of length <= max_len in order of
    length, then letters (d before e).  Each route is one batch
    over all those words, so each subword the elimination moves reach is
    evaluated once per point, not once per word, and the table is looked up
    and each moment cleared once."""
    from . import wordfun

    words = [
        "".join(letters)
        for length in range(max_len + 1)
        for letters in itertools.product("de", repeat=length)
    ]
    normal = wordfun.functional_values([{word: 1} for word in words], p)
    for word, by_normal, by_elimination in zip(words, normal, wordfun.elimination_values(words, p)):
        if by_normal != by_elimination:
            yield {"word": word}


def functional_suite(p: AWParams, max_len: int, trials: int, seed: int) -> dict:
    """Fuzzed defining relations, then every word up to length
    min(max_len, 8) through both evaluation paths."""
    from . import wordfun

    report = wordfun.check_defining_relations(p, max_len=max_len, trials=trials, seed=seed)
    sweep_len = min(max_len, 8)
    report.check(
        f"evaluation-path-agreement-len{sweep_len}",
        "evaluation-paths",
        lambda: _sweep_eval_paths(p, sweep_len),
    )
    return {"functional": report}


def rep_suite(p: AWParams, n: int) -> dict:
    """Algebra and boundary relations of the order-n truncation, then the
    match with the AW recurrence to level max(n // 2, 2), which is defined
    at zero parameters too."""
    from . import repmat

    dop, eop = repmat.rep_rational(p, n)
    return {
        "algebra": repmat.verify_algebra(dop, eop, p.q),
        "boundary": repmat.verify_boundary(dop, eop, p),
        "aw-match": repmat.verify_aw_match(p, max(n // 2, 2)),
    }


def aw_suite(p: AWParams, n: int, t_values=AW_T_VALUES) -> dict:
    """The terminating 4phi3 series against the three-term recurrence at
    levels 0..n, at each t in t_values: one series sweep per t."""
    from . import band, repmat

    if n < 0:
        raise InvalidParams(f"n must be >= 0, got {n}")
    report = VerificationReport(params=p.to_map(), n=n)
    coeffs = repmat.aw_sweep(p, n + 1)

    def failures(t):
        two_x = t + 1 / t
        values = repmat.aw_series(p, n + 2, t)
        # C_k v_(k-1) + (B_k - 2x) v_k + A_k v_(k+1), on the integer kernel
        steps = [_clear_denominators([c.C, c.B - two_x, c.A]) for c in coeffs]
        for k, residual in enumerate(three_term(steps, band.neighbours(values, n + 1))):
            if residual != 0:
                yield {"n": k, "residual": residual}

    for t in t_values:
        label = format_rational(t)
        report.check(f"series-matches-recurrence-t{label}", f"t={label}", lambda: failures(t))
    return {"aw": report}


def stationary_suite(p: AWParams, max_L: int) -> dict:
    """At each L up to max_L, each variant's weight sum equals its
    moment-table normalization and some variant equals the exact chain
    state; then one variant does so at every L."""
    from . import asep

    report = VerificationReport(params=p.to_map(), n=max_L)
    matching_by_length = []
    with report.timed("oracle-comparison"):
        for length in range(1, max_L + 1):
            comparison = asep.compare(length, p)
            mismatched = [name for name, ok in comparison.normalization_matches.items() if not ok]
            report.add(
                f"ansatz-normalization-L{length}",
                not mismatched,
                {"variants": mismatched} if mismatched else None,
            )
            matching = set(comparison.matching_variants)
            matching_by_length.append(matching)
            report.add(
                f"ansatz-matches-oracle-L{length}",
                bool(matching),
                None if matching else {"variants": [
                    {"name": v.name, "max_abs_discrepancy": v.max_abs_discrepancy} for v in comparison.variants
                ]},
            )
    consistent = set.intersection(*matching_by_length) if matching_by_length else set()
    report.add(
        "matching-variant-consistent-across-L",
        bool(consistent),
        None if consistent else {"per_length": [sorted(s) for s in matching_by_length]},
    )
    return {"stationary": report}


# Every suite once: its builder and the arguments after p that verify-all
# gives it.
SUITES = (
    (ldu_suite, (10,)),
    (polys_suite, (8, False)),
    (functional_suite, (6, 60, DEFAULT_FUZZ_SEED)),
    (rep_suite, (16,)),
    (aw_suite, (6, AW_T_VALUES[:2])),
    (stationary_suite, (4,)),
)


def verify_point(p: AWParams) -> dict:
    """Every suite of ``SUITES`` at one point, at its verify-all sizes.
    Nothing is skipped: a suite raises only where its formula is undefined
    (the AW series at a = b = c = d = 0), and no ``GRID`` point is such."""
    reports = {}
    for build, sizes in SUITES:
        reports.update(build(p, *sizes))
    return reports
