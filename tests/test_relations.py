"""The batched relations fuzz against the per-sample loop it replaced."""

import random
from collections import OrderedDict
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from biorth import AWParams, InvalidParams, WordPoly, bimoment, check_defining_relations, wordfun
from biorth.bimoment import bimoment_table
from biorth.core import _clear_denominators, _QPowers
from biorth.reporting import VerificationReport
from biorth.suites import GRID
from biorth.wordfun import DEFAULT_FUZZ_SEED, _normal_order_word, _random_word

from conftest import make_params, without_timings, word_terms


def reference_functional(wp: WordPoly, p: AWParams) -> Fraction:
    """The former ``functional`` (``_normal_form`` then ``_moment_sum``):
    one polynomial, one table lookup and one clearing of its moments."""
    q = p.q
    coeffs, coeff_scale = _clear_denominators(list(wp.terms.values()))
    forms = [_normal_order_word(word, [], _QPowers(q)) for word in wp.terms]
    scale = lcm(*(form[-1] for form in forms))
    out: dict[tuple[int, int], int] = {}
    for coeff, word, form in zip(coeffs, wp.terms, forms):
        factor = coeff * (scale // form[-1])
        for key, c in word_terms(word, form).items():
            value = factor * c
            out[key] = out[key] + value if key in out else value
    ints, scale = {key: value for key, value in out.items() if value}, coeff_scale * scale
    table = bimoment_table(p)
    moments, moment_scale = _clear_denominators([table.entry(i, j) for i, j in ints])
    return Fraction(sum(map(mul, ints.values(), moments)), scale * moment_scale)


def reference_check_defining_relations(
    p: AWParams,
    max_len: int = 8,
    trials: int = 200,
    seed: int = DEFAULT_FUZZ_SEED,
) -> VerificationReport:
    """The former ``check_defining_relations``, its loop kept verbatim as the
    reference: one WordPoly and one functional call per sample."""
    if max_len < 0 or trials <= 0:
        raise InvalidParams("max_len must be >= 0 and trials > 0")
    q = p.q
    ac, bd = p.a * p.c, p.b * p.d
    report = VerificationReport(params=p.to_map(), n=max_len)
    rng = random.Random(seed)

    relations = {
        "bulk-exchange": lambda u, v: (
            WordPoly({u + "de" + v: 1})
            + WordPoly({u + "ed" + v: -q})
            + WordPoly({u + v: -(1 - q)})
        ),
        "right-boundary": lambda u, v: (
            WordPoly({u + "d": 1}) + WordPoly({u + "e": bd}) + WordPoly({u: -(p.b + p.d)})
        ),
        "left-boundary": lambda u, v: (
            WordPoly({"e" + v: 1}) + WordPoly({"d" + v: ac}) + WordPoly({v: -(p.a + p.c)})
        ),
    }

    samples = [
        (_random_word(rng, max_len), _random_word(rng, max_len)) for _ in range(trials)
    ]
    for name, build in relations.items():
        failure = None
        with report.timed(name):
            for u, v in samples:
                value = reference_functional(build(u, v), p)
                if value != 0:
                    failure = {"u": u, "v": v, "value": value}
                    break
        report.add(name, failure is None, failure)
    return report


def outcome(fn, *args):
    """fn's report without timings, or the class and message of what it raised."""
    try:
        return without_timings(fn(*args))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("point", GRID, ids=lambda point: "/".join(point))
def test_reports_match_the_per_sample_loop(point):
    p = make_params(point)
    for seed in (DEFAULT_FUZZ_SEED, 7, 1999):
        for max_len in (0, 1, 5, 8):
            args = (p, max_len, 60, seed)
            assert outcome(check_defining_relations, *args) == outcome(
                reference_check_defining_relations, *args
            )
    for max_len, trials in ((-1, 10), (3, 0)):
        args = (p, max_len, trials)
        assert outcome(check_defining_relations, *args) == outcome(
            reference_check_defining_relations, *args
        )


def test_a_corrupted_moment_fails_both_routes_alike(canonical, monkeypatch):
    # A fresh table cache, so the corrupted table leaves with the test.
    monkeypatch.setattr(bimoment, "_TABLES", OrderedDict())
    args = (canonical, 3, 40)
    assert check_defining_relations(*args).passed
    table = bimoment_table(canonical)
    read = table.entry
    # B[1][0] one too large wherever it is read, whatever form the table stores it in
    monkeypatch.setattr(table, "entry", lambda i, j: read(i, j) + ((i, j) == (1, 0)))
    got = outcome(check_defining_relations, *args)
    assert got == outcome(reference_check_defining_relations, *args)
    failed = {check["name"]: check["first_failure"] for check in got["checks"] if not check["pass"]}
    # d e - q e d - (1 - q) normal orders to zero, so it reads no moment
    assert sorted(failed) == ["left-boundary", "right-boundary"]
    assert all(set(detail) == {"u", "v", "value"} for detail in failed.values())


def test_batched_samples_report_as_one_batch(canonical, monkeypatch):
    # 450 samples make three batches.  With B[0][7] one too large,
    # right-boundary first fails at sample 154 (first batch) and
    # left-boundary at sample 351 (second batch); the report is the one a
    # single batch of every sample gives.
    monkeypatch.setattr(bimoment, "_TABLES", OrderedDict())
    table = bimoment_table(canonical)
    read = table.entry
    monkeypatch.setattr(table, "entry", lambda i, j: read(i, j) + ((i, j) == (0, 7)))
    evaluate, batches = wordfun.functional_values, []

    def counted(polys, p):
        batches.append(len(polys))
        return evaluate(polys, p)

    monkeypatch.setattr(wordfun, "functional_values", counted)
    args = (canonical, 6, 450)
    batched = without_timings(check_defining_relations(*args))
    assert batches == [600, 600, 150]  # three relations per sample
    monkeypatch.setattr(wordfun, "_FUZZ_BATCH", 450)
    assert without_timings(check_defining_relations(*args)) == batched
    assert batches[3:] == [1350]
    failed = [check["name"] for check in batched["checks"] if not check["pass"]]
    assert failed == ["right-boundary", "left-boundary"]
