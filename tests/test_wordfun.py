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

from conftest import make_params, without_timings, word_terms

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


def counted_passes(monkeypatch) -> list[int]:
    """Patch ``_times_d`` to record the e count of each pass it makes."""
    passes = []
    inner = wordfun._times_d

    def counted(coeffs, top, *rest):
        passes.append(top)
        return inner(coeffs, top, *rest)

    monkeypatch.setattr(wordfun, "_times_d", counted)
    return passes


def test_normal_order_memoises_prefixes(canonical, monkeypatch):
    # one pass per prefix that ends in d, not one per intermediate rewrite
    passes = counted_passes(monkeypatch)
    normal_order(WordPoly({"e" * 8 + "d" * 8: 1}), canonical.q)
    assert passes == [8] * 8


def test_thousand_letter_words_on_a_cold_memo(canonical):
    # a word alone is formed from the empty word one letter at a time,
    # without recursion, so no word length meets the interpreter's limit;
    # its form matches that of a batch which walks its prefixes first
    q = canonical.q
    powers = _QPowers(q)
    for word in ("d" * 1000, "e" * 1000, "e" + "d" * 999):
        prefixes = [word[:cut] for cut in range(500, len(word), 500)]
        alone = wordfun._normal_order_word(word, [], powers)
        assert wordfun._word_forms([word, *prefixes], powers)[word] == alone
    expected = WordPoly({"d" * 999 + "e": q**-999, "d" * 998: 1 - q**-999})
    assert normal_order(WordPoly({"e" + "d" * 999: 1}), q) == expected


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


SHORT_WORDS = ["".join(w) for n in range(9) for w in itertools.product("de", repeat=n)]


def test_every_short_word_costs_one_pass_per_d_prefix(grid, monkeypatch):
    # the 511 words of length <= 8, in any order, make one pass for each of
    # the 255 that end in d, and each word's form is its form alone
    passes = counted_passes(monkeypatch)
    words = list(SHORT_WORDS)
    random.Random(3).shuffle(words)
    for p in grid[:3]:
        powers = _QPowers(p.q)
        passes.clear()
        forms = wordfun._word_forms(words, powers)
        assert len(passes) == 2**8 - 1
        assert forms == {word: wordfun._normal_order_word(word, [], powers) for word in words}


@given(st.sampled_from(["1/2", "2/5", "-1/3", "3/2"]), st.lists(st.text(alphabet="de", max_size=12)))
def test_a_batch_forms_each_word_as_alone(q, words):
    powers = _QPowers(F(q))
    alone = {word: wordfun._normal_order_word(word, [], powers) for word in words}
    for batch in (words, words[::-1], sorted(words)):
        assert wordfun._word_forms(batch, powers) == alone


def test_the_fuzz_stores_nothing_process_wide(canonical):
    report = check_defining_relations(canonical, max_len=24, trials=40)
    assert report.passed
    assert wordfun._NORMAL_CACHE == {}


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


def test_memo_holds_integers_over_one_scale():
    # every word of length <= 6 at each point, on integers; at q = 1/s the
    # scale t^n is 1
    words = ["".join(w) for w in itertools.product("de", repeat=6)]
    for p in ORACLE_POINTS:
        forms = wordfun._word_forms(words, _QPowers(p.q))
        assert list(forms) == sorted(words)
        for form in forms.values():
            assert all(type(c) is int for c in form)
            if p.q.numerator == 1:
                assert form[-1] == 1


# at q = -1, 1 - q^(-2) = 0 leaves zeros inside a diagonal
DIAGONAL_QS = [F(q) for q in ORACLE_QS + ["-1"]]


@settings(max_examples=200)
@given(st.sampled_from(DIAGONAL_QS), st.text(alphabet="de", max_size=30))
def test_a_word_form_lies_on_one_diagonal(q, word):
    powers = _QPowers(q)
    path = []
    form = wordfun._normal_order_word(word, path, powers)
    assert placed_fractions(word, form) == reference_normal_order(WordPoly({word: 1}), q)
    d_count = word.count("d")
    assert len(form) - 1 <= min(d_count, len(word) - d_count) + 1
    # only the prefixes that end in d are formed, shortest first
    assert [end for end, _ in path] == [cut for cut, x in enumerate(word, 1) if x == "d"]
    # a trailing e changes no coefficient: w + "e" places w's own tuple
    forms = wordfun._word_forms([word[:cut] for cut in range(len(word) + 1)], powers)
    for cut, letter in enumerate(word, 1):
        if letter == "e":
            assert forms[word[:cut]] is forms[word[: cut - 1]]


def test_zeros_inside_a_diagonal_are_not_placed():
    # at q = -1, e e d d = d d e e + 0 * d e + 0 * 1
    q = F(-1)
    assert wordfun._normal_order_word("eedd", [], _QPowers(q)) == (1, 0, 0, 1)
    assert wordfun._normal_form({"eedd": 1}, {"eedd": (1, 0, 0, 1)}) == ({(2, 2): 1}, 1)
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


def test_memo_forms_take_under_half_the_bytes_of_keyed_dicts(canonical):
    # the forms of every word of length <= 8 (511 words sharing 256 tuples:
    # one per word that ends in d, and the empty word's), against those
    # forms as {(i, j): coeff} dicts (the words not counted)
    forms = wordfun._word_forms(SHORT_WORDS, _QPowers(canonical.q))
    as_dicts = [(word_terms(word, form), form[-1]) for word, form in forms.items()]
    held, dict_bytes = reachable_bytes(list(forms.values())), reachable_bytes(as_dicts)
    assert len({id(form) for form in forms.values()}) == 2**8 and len(as_dicts) == 2**9 - 1
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
