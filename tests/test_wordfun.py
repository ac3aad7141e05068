import heapq
import itertools
import random
import sys
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

from conftest import fresh_memo, make_params, without_timings, word_terms

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


def test_normal_order_memoises_prefixes(canonical, memo):
    # one entry per prefix of the word, not one per intermediate rewrite
    normal_order(WordPoly({"e" * 8 + "d" * 8: 1}), canonical.q)
    assert len(memo) <= 17


def test_thousand_letter_words_on_a_cold_memo(canonical, memo):
    # a cold memo is filled one letter at a time, without recursion, so no
    # word length meets the interpreter's limit; the values match a memo
    # warmed by hand
    q = canonical.q

    def on_empty_memo(word, warm_cuts):
        memo.clear()
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


def test_a_full_memo_empties(grid, memo, monkeypatch):
    # at q = 1/2 the forms of "d" and "dd" are (1, 1), 2 bits each, and that
    # of "ded" is (2, -1, 1), 4 bits: its store passes a 5-bit budget
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE_BUDGET", 5)
    q = grid[0].q
    powers = _QPowers(q)
    for word in ("d", "dd"):
        wordfun._normal_order_word(word, q, powers)
    assert memo == {("d", 1, 2): (1, 1), ("dd", 1, 2): (1, 1)}
    assert wordfun._memo_bits == 4
    assert wordfun._normal_order_word("ded", q, powers) == (2, -1, 1)
    assert memo == {} and wordfun._memo_bits == 0
    wordfun._normal_order_word("dde", q, powers)
    assert list(memo) == [("d", 1, 2), ("dd", 1, 2)]
    assert wordfun._memo_bits == 4


def test_a_word_over_the_budget_returns_its_exact_form(grid, memo, monkeypatch):
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE_BUDGET", 1)
    q = grid[0].q
    for word in ("dede", "eddeed" * 4 + "e"):
        expected = reference_normal_order(WordPoly({word: 1}), q)
        assert placed_fractions(word, wordfun._normal_order_word(word, q, _QPowers(q))) == expected
        assert memo == {} and wordfun._memo_bits == 0


@pytest.mark.parametrize("q", ["1/2", "2/5"])
def test_the_memo_counts_its_integers_bits_within_the_budget(q, monkeypatch):
    # At q = 1/2 every scale is 1, which a count that sizes coefficients by
    # the scale reads as almost nothing.  The count is the bit lengths held;
    # a word may pass the budget by its own stores, and the memo empties
    # before the call returns.
    budget = 1 << 16
    monkeypatch.setattr(wordfun, "_NORMAL_CACHE_BUDGET", budget)
    inner = wordfun._normal_order_word
    emptied = []

    def checked(*args):
        held_before = bool(wordfun._NORMAL_CACHE)
        form = inner(*args)
        held = sum(c.bit_length() for f in wordfun._NORMAL_CACHE.values() for c in f)
        assert wordfun._memo_bits == held <= budget
        emptied.append(held_before and not wordfun._NORMAL_CACHE)
        return form

    monkeypatch.setattr(wordfun, "_normal_order_word", checked)
    with fresh_memo():
        report = check_defining_relations(make_params(("1", "1/2", "-1/3", "-1/4", q)), 24, 40)
    assert report.passed
    assert any(emptied)


def placed_fractions(word: str, form) -> dict[tuple[int, int], F]:
    """A word's memo form (coefficients, then the scale) as
    {(i, j): coeff of d^i e^j}."""
    return {key: F(c, form[-1]) for key, c in word_terms(word, form).items()}


# canonical a, b, c, d at q = t/s with t = 1, t > 1, q > 1 and q < 0 (t < 0)
ORACLE_QS = ["1/2", "1/3", "2/5", "3/4", "3/2", "5/3", "-1/3", "-2/5"]
ORACLE_POINTS = [make_params(("1", "1/2", "-1/3", "-1/4", q)) for q in ORACLE_QS]
long_polys = st.dictionaries(st.text(alphabet="de", max_size=7), coeffs, max_size=4).map(WordPoly)


def _inversions(word: str) -> int:
    """The pairs of an e before a d."""
    count = seen = 0
    for letter in word:
        if letter == "e":
            seen += 1
        else:
            count += seen
    return count


def reference_normal_order(wp: WordPoly, q: F) -> dict[tuple[int, int], F]:
    """Plain-Fraction normal ordering: rewrite the leftmost "ed" by
    e d = q^(-1) d e - q^(-1) (1 - q) until every word is d^i e^j.  Equal
    words are merged before they are rewritten: a rewrite lowers (length,
    inversions), so taking the largest pending word first rewrites each
    word once, and words of length 30 stay cheap."""
    out: dict[tuple[int, int], F] = {}
    pending: dict[str, F] = {}
    heap: list[tuple[int, int, str]] = []

    def add(word, coeff):
        if word in pending:
            pending[word] += coeff
        else:
            pending[word] = coeff
            heapq.heappush(heap, (-len(word), -_inversions(word), word))

    for word, coeff in wp.terms.items():
        add(word, coeff)
    while heap:
        word = heapq.heappop(heap)[2]
        coeff = pending.pop(word)
        cut = word.find("ed")
        if cut < 0:
            key = (word.count("d"), word.count("e"))
            out[key] = out.get(key, F(0)) + coeff
        else:
            add(word[:cut] + "de" + word[cut + 2 :], coeff / q)
            add(word[:cut] + word[cut + 2 :], -coeff * (1 - q) / q)
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


def test_memo_holds_integers_over_one_scale(memo):
    words = ["".join(w) for w in itertools.product("de", repeat=6)]
    for p in ORACLE_POINTS:
        functional(WordPoly({word: 1 for word in words}), p)
    # one entry per word of length <= 6 that ends in d
    assert len(memo) == len(ORACLE_POINTS) * (2**6 - 1)
    for (word, t, s), form in memo.items():
        assert type(t) is int and type(s) is int  # no key holds a Fraction
        assert all(type(c) is int for c in form)
        if t == 1:
            assert form[-1] == 1, (word, t, s)


# at q = -1, 1 - q^(-2) = 0 leaves zeros inside a diagonal
DIAGONAL_QS = [F(q) for q in ORACLE_QS + ["-1"]]


@settings(max_examples=200)
@given(st.sampled_from(DIAGONAL_QS), st.text(alphabet="de", max_size=30))
def test_a_word_form_lies_on_one_diagonal(q, word):
    with fresh_memo() as memo:
        powers = _QPowers(q)
        form = wordfun._normal_order_word(word, q, powers)
        assert placed_fractions(word, form) == reference_normal_order(WordPoly({word: 1}), q)
        d_count = word.count("d")
        assert len(form) - 1 <= min(d_count, len(word) - d_count) + 1
        # a trailing e changes no coefficient: w + "e" places w's own tuple
        for cut, letter in enumerate(word, 1):
            if letter == "e":
                assert wordfun._normal_order_word(word[:cut], q, powers) is (
                    wordfun._normal_order_word(word[: cut - 1], q, powers)
                )
        # and only the prefixes that end in d are stored
        t, s = q.numerator, q.denominator
        assert set(memo) == {(word[:cut], t, s) for cut, x in enumerate(word, 1) if x == "d"}


def test_zeros_inside_a_diagonal_are_not_placed(memo):
    # at q = -1, e e d d = d d e e + 0 * d e + 0 * 1
    q = F(-1)
    assert wordfun._normal_order_word("eedd", q, _QPowers(q)) == (1, 0, 0, 1)
    assert wordfun._normal_form({"eedd": 1}, q, {}, _QPowers(q)) == ({(2, 2): 1}, 1)
    assert normal_order(WordPoly({"eedd": 1}), q) == WordPoly({"ddee": 1})


def reachable_bytes(root) -> int:
    """sys.getsizeof summed over every object reachable from root through
    lists, tuples and dicts (keys and values), each object counted once.
    The count reads the objects themselves, so unlike an allocation trace
    it does not depend on what earlier tests left on the free lists."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, dict):
                stack += [*obj.keys(), *obj.values()]
            elif isinstance(obj, (list, tuple)):
                stack += obj
    return total


def test_memo_forms_take_under_half_the_bytes_of_keyed_dicts(canonical, memo):
    # the memo after every word of length <= 8 (the 255 that end in d are
    # stored, keys included), against those 511 words' forms as
    # {(i, j): coeff} dicts (the words not counted)
    q = canonical.q
    words = ["".join(w) for n in range(9) for w in itertools.product("de", repeat=n)]
    powers = _QPowers(q)
    forms = [wordfun._normal_order_word(word, q, powers) for word in words]
    as_dicts = [(word_terms(word, form), form[-1]) for word, form in zip(words, forms)]
    held, dict_bytes = reachable_bytes(memo), reachable_bytes(as_dicts)
    assert len(memo) == 2**8 - 1 and len(as_dicts) == len(words) == 2**9 - 1
    assert held <= dict_bytes / 2, (held, dict_bytes)


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
