import itertools
import random
from collections import OrderedDict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from biorth import (
    ShapeError,
    UnsupportedQ,
    WordPoly,
    check_defining_relations,
    eval_by_elimination,
    functional,
    is_valid,
    normal_order,
    parse_word,
)
from biorth import bimoment, wordfun
from biorth.core import _QPowers
from biorth.repmat import rep_rational
from biorth.wordfun import is_normal, normal_power, power_functional

from conftest import make_params, without_timings

words = st.text(alphabet="de", max_size=4)
coeffs = st.fractions(min_value=F(-5), max_value=F(5)).filter(bool)
polys = st.dictionaries(words, coeffs, max_size=3).map(WordPoly)


def test_parse_word():
    assert parse_word("") == ""
    assert parse_word("ddee") == "ddee"
    with pytest.raises(ShapeError):
        parse_word("dxe")
    with pytest.raises(ShapeError):
        parse_word(3)


def test_wordpoly_basics():
    wp = WordPoly({"de": 1, "ed": 0})  # zero coefficients are dropped
    assert wp.terms == {"de": F(1)}
    assert wp + (-wp) == WordPoly.zero()
    assert not WordPoly.zero()
    assert WordPoly.one().max_len() == 0
    assert 2 * wp == wp * 2 == WordPoly({"de": 2})


@given(polys, polys, polys)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y * z) == (x * y) * z
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


def test_normal_order_single_swap():
    q = F(1, 2)
    got = normal_order(WordPoly({"ed": 1}), q)
    # ed = q^{-1} de - q^{-1}(1-q) 1
    assert got == WordPoly({"de": 2, "": -1})
    assert all(is_normal(w) for w in got.terms)


@given(polys)
def test_normal_order_idempotent(wp):
    q = F(1, 3)
    once = normal_order(wp, q)
    assert normal_order(once, q) == once
    assert all(is_normal(w) for w in once.terms)


def test_normal_order_rejects_q_zero():
    with pytest.raises(UnsupportedQ):
        normal_order(WordPoly({"ed": 1}), 0)
    with pytest.raises(UnsupportedQ):
        normal_power(0, 1, 2, 0)


def test_closed_form_power_equals_word_route(grid):
    # the site-letter sums of the two ansatz variants: d + e (shifted) and
    # (2 + d + e)/(1 - q) (unshifted)
    for p in grid:
        for const, weight in ((F(0), F(1)), (2 / p.qprime, 1 / p.qprime)):
            site_sum = WordPoly({"": const, "d": weight, "e": weight})
            power = WordPoly.one()
            for length in range(9):
                value = power_functional(p, length, const, weight)
                assert value == functional(power, p)
                # the boundary moves share no code with the right-multiplication step
                assert value == eval_by_elimination(power, p)
                assert normal_power(const, weight, length, p.q) == {
                    (w.count("d"), w.count("e")): c
                    for w, c in normal_order(power, p.q).terms.items()
                }
                power = power * site_sum


def transfer_value(word: str, p) -> F:
    """<e0| word |e0> on the tridiagonal truncation, letters applied right to
    left; a closed walk of length n never climbs above level n // 2."""
    dop, eop = rep_rational(p, len(word) // 2 + 1)
    vec = [F(1)]
    for k, letter in enumerate(reversed(word), 1):
        vec = (dop if letter == "d" else eop).matvec(vec, min(k, len(word) - k) + 1)
    return vec[0]


def test_long_words_match_transfer_route(canonical, grid):
    # 1,600 inversions: one recursion per "ed" rewrite passes the recursion limit
    word = "e" * 40 + "d" * 40
    assert functional(WordPoly({word: 1}), canonical) == transfer_value(word, canonical)
    rng = random.Random(1)
    for p in grid:
        for _ in range(16):
            word = "".join(rng.choice("de") for _ in range(rng.randint(0, 30)))
            assert functional(WordPoly({word: 1}), p) == transfer_value(word, p), word


def test_normal_order_memoises_prefixes(canonical, monkeypatch):
    # one entry per prefix of the word, not one per intermediate rewrite
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE", OrderedDict())
    normal_order(WordPoly({"e" * 8 + "d" * 8: 1}), canonical.q)
    assert len(wordfun._NORMAL_CACHE) <= 17


def test_thousand_letter_words_on_a_cold_memo(canonical, monkeypatch):
    # a cold memo is filled one letter at a time, without recursion, so no
    # word length meets the interpreter's limit; the values match a memo
    # warmed by hand
    q = canonical.q
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE", OrderedDict())

    def on_empty_memo(word, warm_cuts):
        wordfun._NORMAL_CACHE.clear()
        for cut in warm_cuts:
            normal_order(WordPoly({word[:cut]: 1}), q)
        return normal_order(WordPoly({word: 1}), q)

    for word in ("d" * 1000, "e" * 1000, "e" + "d" * 999):
        assert on_empty_memo(word, ()) == on_empty_memo(word, range(500, len(word), 500))
    expected = WordPoly({"d" * 999 + "e": q**-999, "d" * 998: 1 - q**-999})
    assert on_empty_memo("e" + "d" * 999, ()) == expected


def test_functional_oracle(canonical):
    assert functional(WordPoly.one(), canonical) == 1
    assert functional(WordPoly({"ed": 1}), canonical) == F(311, 1081)


def test_every_short_word_agrees_across_paths(grid):
    # exhaustive dual-route sweep: moment-table route vs boundary eliminations
    for p in grid[:3]:
        for length in range(5):
            for k in range(1 << length):
                word = "".join("de"[(k >> i) & 1] for i in range(length))
                wp = WordPoly({word: 1})
                assert functional(wp, p) == eval_by_elimination(wp, p)


@given(polys)
def test_paths_agree_on_combinations(wp):
    p = make_params(("1", "1/2", "-1/3", "-1/4", "1/2"))
    assert functional(wp, p) == eval_by_elimination(wp, p)


def test_defining_relations_fuzz(grid):
    for p in grid:
        report = check_defining_relations(p, max_len=5, trials=40)
        assert report.passed
        assert {c.name for c in report.checks} == {
            "bulk-exchange",
            "right-boundary",
            "left-boundary",
        }


def test_fuzz_report_is_deterministic(canonical):
    first = check_defining_relations(canonical, max_len=4, trials=25, seed=7)
    second = check_defining_relations(canonical, max_len=4, trials=25, seed=7)
    assert without_timings(first) == without_timings(second)


def test_the_table_store_holds_the_last_point_only(grid, monkeypatch):
    # a lookup of the last point returns its table, kept through its growth;
    # a lookup of another point replaces it, so a dropped point is built anew
    first, second, third = grid[:3]
    monkeypatch.setattr(bimoment, "_TABLES", {})
    kept = bimoment.bimoment_table(first)
    kept.ensure(4)
    for p in (first, second, third, first):
        table = bimoment.bimoment_table(p)
        table.ensure(6)
        assert bimoment.bimoment_table(p) is table
        assert bimoment._TABLES == {p: table}
    assert table is not kept


def test_caches_evict_least_recently_used(grid, monkeypatch):
    # each memo entry here is one term over scale 1: 65 bits, so room for two
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE", OrderedDict())
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE_BUDGET", 130)
    q = grid[0].q
    for word in ("d", "e", "d", "de"):
        wordfun._normal_order_word(word, q, _QPowers(q))
    assert list(wordfun._NORMAL_CACHE) == [("d", 1, 2), ("de", 1, 2)]
    assert wordfun._memo_bits == 130


def test_caches_keep_the_newest_entry_over_the_budget(grid, monkeypatch):
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE", OrderedDict())
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE_BUDGET", 1)
    q = grid[0].q
    word = "dede"
    expected = reference_normal_order(WordPoly({word: 1}), q)
    assert wordfun._fractions(wordfun._normal_order_word(word, q, _QPowers(q))) == expected
    assert list(wordfun._NORMAL_CACHE) == [(word, 1, 2)]
    assert wordfun._memo_bits == wordfun._form_bits(wordfun._NORMAL_CACHE[word, 1, 2])


# canonical a, b, c, d at q = t/s with t = 1, t > 1, q > 1 and q < 0 (t < 0)
ORACLE_QS = ["1/2", "1/3", "2/5", "3/4", "3/2", "5/3", "-1/3", "-2/5"]
ORACLE_POINTS = [make_params(("1", "1/2", "-1/3", "-1/4", q)) for q in ORACLE_QS]
long_polys = st.dictionaries(st.text(alphabet="de", max_size=7), coeffs, max_size=4).map(WordPoly)


def reference_normal_order(wp: WordPoly, q: F) -> dict[tuple[int, int], F]:
    """Plain-Fraction normal ordering: rewrite the leftmost "ed" by
    e d = q^(-1) d e - q^(-1) (1 - q) until every word is d^i e^j."""
    out: dict[tuple[int, int], F] = {}
    work = list(wp.terms.items())
    while work:
        word, coeff = work.pop()
        cut = word.find("ed")
        if cut < 0:
            key = (word.count("d"), word.count("e"))
            out[key] = out.get(key, F(0)) + coeff
        else:
            work.append((word[:cut] + "de" + word[cut + 2 :], coeff / q))
            work.append((word[:cut] + word[cut + 2 :], -coeff * (1 - q) / q))
    return {key: value for key, value in out.items() if value}


def test_oracle_points_are_valid():
    assert all(is_valid(p, 8) for p in ORACLE_POINTS)


@settings(max_examples=200)
@given(st.sampled_from(ORACLE_POINTS), long_polys)
def test_functional_matches_fraction_normal_ordering(p, wp):
    expected = reference_normal_order(wp, p.q)
    normal_words = {"d" * i + "e" * j: c for (i, j), c in expected.items()}
    assert normal_order(wp, p.q) == WordPoly(normal_words)
    table = bimoment.bimoment_table(p)
    value = sum((c * table.entry(i, j) for (i, j), c in expected.items()), F(0))
    assert functional(wp, p) == value


def test_memo_holds_integers_over_one_scale(monkeypatch):
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE", OrderedDict())
    words = ["".join(w) for w in itertools.product("de", repeat=6)]
    for p in ORACLE_POINTS:
        functional(WordPoly({word: 1 for word in words}), p)
    assert len(wordfun._NORMAL_CACHE) == len(ORACLE_POINTS) * (2**7 - 1)
    for (word, t, s), (ints, scale) in wordfun._NORMAL_CACHE.items():
        assert type(t) is int and type(s) is int  # no key holds a Fraction
        assert type(scale) is int and all(type(c) is int for c in ints.values())
        if t == 1:
            assert scale == 1, (word, t, s)


@st.composite
def poly_batches(draw):
    """A point and a batch of {word: coeff} mappings over a few shared words
    (int, Fraction and zero coefficients, empty mappings), then the bulk
    relation at random (u, v), whose merged normal form cancels to zero."""
    p = draw(st.sampled_from(ORACLE_POINTS))
    shared = draw(st.lists(st.text(alphabet="de", max_size=6), min_size=1, max_size=5, unique=True))
    coeff = st.integers(-3, 3) | st.fractions(min_value=-5, max_value=5, max_denominator=7)
    polys = draw(st.lists(st.dictionaries(st.sampled_from(shared), coeff, max_size=4), max_size=6))
    bulk = [
        {u + "de" + v: 1, u + "ed" + v: -p.q, u + v: p.q - 1}
        for u, v in draw(st.lists(st.tuples(words, words), max_size=2))
    ]
    return p, polys + bulk, len(bulk)


@settings(max_examples=100)
@given(poly_batches())
def test_functional_values_is_functional_per_polynomial(batch):
    p, polys, cancelling = batch
    values = wordfun.functional_values(polys, p)
    assert all(type(value) is F for value in values)
    assert values == [functional(WordPoly(terms), p) for terms in polys]
    assert values[len(values) - cancelling :] == [0] * cancelling
