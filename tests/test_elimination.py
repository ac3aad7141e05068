"""The batched elimination route against the per-word worklist it replaced."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from biorth import AWParams, WordPoly, eval_by_elimination
from biorth.bimoment import bimoment_table
from biorth.suites import GRID
from biorth.wordfun import _split_normal, elimination_values

from conftest import make_params


def reference_eval_by_elimination(wp: WordPoly, p: AWParams) -> Fraction:
    """The former ``eval_by_elimination``, kept verbatim as the reference:
    one worklist per word polynomial, merging equal words as they appear."""
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    ac, bd = a * c, b * d
    qinv = 1 / q
    table = bimoment_table(p)

    total = Fraction(0)
    work: dict[str, Fraction] = dict(wp.terms)

    def push(word: str, coeff: Fraction):
        if not coeff:
            return
        acc = work.get(word, Fraction(0)) + coeff
        if acc:
            work[word] = acc
        else:
            work.pop(word, None)

    while work:
        word, coeff = work.popitem()
        if word.startswith("e"):
            rest = word[1:]
            push(rest, coeff * (a + c))
            push(sys.intern("d" + rest), -coeff * ac)
        elif word.endswith("d") and "ed" in word:
            rest = word[:-1]
            push(rest, coeff * (b + d))
            push(sys.intern(rest + "e"), -coeff * bd)
        elif "ed" not in word:
            i, j = _split_normal(word)
            total += coeff * table.entry(i, j)
        else:
            cut = word.find("ed")
            push(sys.intern(word[:cut] + "de" + word[cut + 2 :]), coeff * qinv)
            push(sys.intern(word[:cut] + word[cut + 2 :]), -coeff * qinv * (1 - q))
    return total


# The GRID points and the points where abcd = q and abcd = q^2.
POINTS = [make_params(point) for point in GRID] + [
    make_params(("2", "1/3", "-1/2", d, "1/4")) for d in ("-3/4", "-3/16")
]
# abcd q^3 = 1 and abcd q = 1: the boundary column's denominator vanishes at
# depth 4 and 2, so short words have values and longer ones raise.
SINGULAR = [make_params(("8", "1", "1", "1", "1/2")), make_params(("2", "1", "1", "1", "1/2"))]


def all_words(max_len: int) -> list[str]:
    return ["".join(w) for n in range(max_len + 1) for w in itertools.product("de", repeat=n)]


def outcome(fn, *args):
    """fn's value, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("p", POINTS, ids=lambda p: "/".join(p.to_map().values()))
def test_every_word_to_length_8_matches_the_worklist(p):
    words = all_words(8)
    values = elimination_values(words, p)
    assert all(type(v) is Fraction for v in values)
    assert values == [reference_eval_by_elimination(WordPoly({w: 1}), p) for w in words]
    everything = WordPoly(dict.fromkeys(words, 1))
    assert eval_by_elimination(everything, p) == reference_eval_by_elimination(everything, p)


@pytest.mark.parametrize("p", SINGULAR, ids=("depth4", "depth2"))
def test_raises_where_the_worklist_raises(p):
    for word in all_words(6):
        wp = WordPoly({word: 1})
        assert outcome(eval_by_elimination, wp, p) == outcome(reference_eval_by_elimination, wp, p)
        assert outcome(elimination_values, [word], p) == outcome(
            lambda: [reference_eval_by_elimination(wp, p)]
        )


terms = st.lists(
    st.tuples(st.text(alphabet="de", max_size=6), st.fractions(min_value=-5, max_value=5)),
    max_size=6,
)


@given(st.sampled_from(POINTS), terms, st.lists(st.booleans(), max_size=6))
def test_word_polynomials_match_the_worklist(p, pairs, cancel):
    # Repeated words merge; a cancelled term is added again with the
    # opposite sign, so some polynomials lose words or vanish altogether.
    wp = WordPoly.zero()
    for word, coeff in pairs:
        wp = wp + WordPoly({word: coeff})
    for (word, coeff), drop in zip(pairs, cancel):
        if drop:
            wp = wp - WordPoly({word: coeff})
    value = eval_by_elimination(wp, p)
    assert type(value) is Fraction
    assert value == reference_eval_by_elimination(wp, p)


def test_empty_polynomial_and_batch(canonical):
    assert eval_by_elimination(WordPoly.zero(), canonical) == 0
    assert type(eval_by_elimination(WordPoly.zero(), canonical)) is Fraction
    assert elimination_values([], canonical) == []
    # a batch may repeat a word
    assert elimination_values(["ed", "ed"], canonical) == [Fraction(311, 1081)] * 2


def test_long_word_needs_no_recursion(canonical):
    # 36 inversions behind 12 letters: a recursive memo would nest far
    # deeper than the 40 frames allowed here.
    word = "e" * 6 + "d" * 6
    expected = reference_eval_by_elimination(WordPoly({word: 1}), canonical)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        values = elimination_values([word], canonical)
    finally:
        sys.setrecursionlimit(limit)
    assert values == [expected]
