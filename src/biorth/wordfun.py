"""Words in the two boundary operators and the linear functional on them.

A word is a string over the alphabet {"d", "e"}; a word polynomial is a
finite rational combination of words.  The functional is evaluated by
normal ordering and summing bimoment entries.  Normal ordering is right
multiplication: a word is its prefix's normal form {(i, j): coeff of
d^i e^j} times its last letter, by one step (``_times_letter``) that also
builds the closed-form powers of ``normal_power``.  With q = t/s each
coefficient of a word's normal form is an integer polynomial in s/t, so
along the whole route a normal form is held as (ints, scale): integer
coefficients {(i, j): int} over one integer scale (1 when t = 1).  The
step moves terms on integers (a bare e only re-keys them), the memo stores
(ints, scale) under (word, t, s), a word polynomial's forms are merged over
the lcm of their scales, and each moment sum is one integer dot product
and one Fraction (see ``_linalg``).  Other Fractions are built only where
``normal_order`` and ``normal_power`` return.

``functional_values`` evaluates a batch of word polynomials at one point:
the table is looked up once, each distinct word's form is taken from the
memo once, and each moment the batch reads is cleared of denominators
once.  ``functional`` is the one-polynomial batch; the relations fuzz
makes one batch of all its samples, and the suites' sweep over all short
words one per point.

``elimination_values`` reaches the same values by rewriting words instead:
a leading e or a trailing d is removed via
      e w  ->  (a + c) w - a c (d w)
      w d  ->  (b + d) w - b d (w e),
and, when neither applies, the leftmost "ed" via
      e d  ->  q^(-1) (d e)  -  q^(-1) (1 - q) * (pair deleted).
It evaluates a batch of words with one memo of every word those moves
reach, so a sweep over all short words rewrites each subword once;
``eval_by_elimination`` is one batch, the words of a word polynomial.
Those moves belong to that route only, so the two routes are independent
above the shared boundary column seed.
"""

from __future__ import annotations

import random
import sys
from collections import OrderedDict
from fractions import Fraction
from math import lcm
from operator import mul

from .bimoment import bimoment_table
from .core import (
    AWParams,
    InvalidParams,
    ShapeError,
    UnsupportedQ,
    _QPowers,
    _clear_denominators,
    as_rational,
)
from .reporting import VerificationReport

_LETTERS = frozenset("de")


def parse_word(text: str) -> str:
    """Validate and intern a word over {"d", "e"} (empty word allowed)."""
    if not isinstance(text, str):
        raise ShapeError(f"a word must be a string, got {type(text).__name__}")
    if not _LETTERS.issuperset(text):
        bad = sorted(set(text) - _LETTERS)
        raise ShapeError(f"word {text!r} uses letters outside d/e: {bad}")
    return sys.intern(text)


class WordPoly:
    """Rational linear combination of words, with no stored zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[str, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = as_rational(coeff)
                if coeff:
                    clean[parse_word(word)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "WordPoly":
        return cls()

    @classmethod
    def one(cls) -> "WordPoly":
        return cls({"": Fraction(1)})

    @staticmethod
    def _of(terms: dict[str, Fraction]) -> "WordPoly":
        """A WordPoly holding ``terms`` as given, unchecked: the operators'
        results, whose words are parsed and coefficients nonzero."""
        result = WordPoly.__new__(WordPoly)
        result.terms = terms
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, WordPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, WordPoly):
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = out.get(word, 0) + coeff
            if acc:
                out[word] = acc
            else:
                out.pop(word, None)
        return WordPoly._of(out)

    def __neg__(self):
        return WordPoly._of({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, WordPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WordPoly):
            out: dict[str, Fraction] = {}
            for wa, ca in self.terms.items():
                for wb, cb in other.terms.items():
                    word = sys.intern(wa + wb)
                    acc = out.get(word, 0) + ca * cb
                    if acc:
                        out[word] = acc
                    else:
                        out.pop(word, None)
            return WordPoly._of(out)
        coeff = as_rational(other)
        if not coeff:
            return WordPoly.zero()
        return WordPoly._of({w: c * coeff for w, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, WordPoly):
            return NotImplemented
        return self.__mul__(other)

    def max_len(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "WordPoly(0)"
        parts = [f"{c}*{w or '1'}" for w, c in sorted(self.terms.items())]
        return "WordPoly(" + " + ".join(parts) + ")"


def is_normal(word: str) -> bool:
    """True iff every d precedes every e."""
    return "ed" not in word


def _split_normal(word: str) -> tuple[int, int]:
    cut = word.find("e")
    if cut < 0:
        return len(word), 0
    return cut, len(word) - cut


# A normal form: integer coefficients {(i, j): coeff of d^i e^j} over one
# integer scale.
Form = tuple[dict[tuple[int, int], int], int]


def _times_letter(form: Form, const, d_coeff, e_coeff, powers: _QPowers) -> Form:
    """The normal form (ints, scale) times the letter
    const + d_coeff d + e_coeff e, normal ordered again by

        d^i e^j . e = d^i e^(j+1)
        d^i e^j . d = q^(-j) d^(i+1) e^j + (1 - q^(-j)) d^i e^(j-1),

    the second from e^j d = q^(-j) d e^j + (1 - q^(-j)) e^(j-1), the bulk
    relation e d = q^(-1) d e - q^(-1) (1 - q) applied j times.

    An integer kernel (see ``_linalg``): a rational letter is cleared of
    denominators once (an integer one, the word route's bare d and e, needs
    no clearing, and a bare e only re-keys the terms), and when it has a d
    part, with q = t/s and J the largest j, q^(-j) = s^j t^(J-j) / t^J puts
    every moved term over the one scale t^J, read from ``powers`` (the
    powers of q's numerator and denominator).  No Fraction is built: the
    result is again (ints, scale).
    """
    ints, scale = form
    if type(const) is int and type(d_coeff) is int and type(e_coeff) is int:
        if not const and not d_coeff and e_coeff == 1:
            return {(i, j + 1): coeff for (i, j), coeff in ints.items() if coeff}, scale
        letter_scale = 1
    else:
        (const, d_coeff, e_coeff), letter_scale = _clear_denominators([const, d_coeff, e_coeff])
    if d_coeff:
        top = max((j for _, j in ints), default=0)
        tp, sp = powers.upto(top)
        t_top = tp[top]
        moved_by = [d_coeff * sp[j] * tp[top - j] for j in range(top + 1)]  # d q^(-j) t^J
    else:
        t_top = 1
    e_top, d_top, const_top = e_coeff * t_top, d_coeff * t_top, const * t_top
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i, j), coeff in ints.items():
        if e_top:
            key = (i, j + 1)
            out[key] = get(key, 0) + e_top * coeff
        if d_top:
            moved = moved_by[j] * coeff
            key = (i + 1, j)
            out[key] = get(key, 0) + moved
            if j:
                key = (i, j - 1)
                out[key] = get(key, 0) + d_top * coeff - moved
        if const_top:
            out[i, j] = get((i, j), 0) + const_top * coeff
    return {key: value for key, value in out.items() if value}, scale * letter_scale * t_top


def _fractions(form: Form) -> dict[tuple[int, int], Fraction]:
    ints, scale = form
    return {key: Fraction(value, scale) for key, value in ints.items()}


def _form_bits(form: Form) -> int:
    """O(1) size estimate of a memo entry: terms x (64 + scale bits)."""
    ints, scale = form
    return len(ints) * (64 + scale.bit_length())


# Memo entries, one per prefix of a word, leave least recently used first
# while their estimated bits pass the budget; the newest entry stays.  A
# cli-small benchmark round adds 3,864 and a chain round 7,531, so nothing
# leaves there; functional --max-len 96 at the costliest GRID point computes
# 62,854 forms, ends holding 8,822 and peaks at 0.13 GB RSS (all 61,120 held:
# 0.44 GB).
_NORMAL_CACHE_BUDGET = 1 << 28
# Keyed by (word, t, s) for q = t/s, so no lookup hashes a Fraction.
_NORMAL_CACHE: OrderedDict[tuple[str, int, int], Form] = OrderedDict()
# The estimated bits _NORMAL_CACHE holds; a store into an empty memo resets
# it, so a clear from outside leaves no stale count.
_memo_bits = 0


def _normal_order_word(word: str, q: Fraction, powers: _QPowers) -> Form:
    """Normal form (ints, scale) of ``word``: the form of its longest
    memoised prefix times the remaining letters, one at a time, each longer
    prefix memoised on the way.  A miss reads q's powers from ``powers``."""
    global _memo_bits
    t, s = q.numerator, q.denominator
    cache = _NORMAL_CACHE
    cut = len(word)
    while cut >= 0:
        key = (word[:cut], t, s)
        form = cache.get(key)
        if form is not None:
            cache.move_to_end(key)
            break
        cut -= 1
    else:
        form = {(0, 0): 1}, 1  # the empty word's
        if not cache:
            _memo_bits = 0  # cleared since the last store
    for cut in range(cut + 1, len(word) + 1):
        if cut:
            d_coeff = 1 if word[cut - 1] == "d" else 0
            form = _times_letter(form, 0, d_coeff, 1 - d_coeff, powers)
        cache[word[:cut], t, s] = form
        _memo_bits += _form_bits(form)
    while _memo_bits > _NORMAL_CACHE_BUDGET and len(cache) > 1:
        _memo_bits -= _form_bits(cache.popitem(last=False)[1])
    return form


def _normal_form(terms, q: Fraction, forms: dict[str, Form], powers: _QPowers) -> Form:
    """(ints, scale) of the word polynomial ``terms`` ({word: coeff}): its
    coefficients cleared once, and each word's form, from ``forms`` or on a
    miss from the memo (filled with q's ``powers``), brought to the lcm of
    the word scales."""
    coeffs, coeff_scale = _clear_denominators(terms.values())
    word_forms = []
    for word in terms:
        form = forms.get(word)
        if form is None:
            form = forms[word] = _normal_order_word(parse_word(word), q, powers)
        word_forms.append(form)
    scale = lcm(*(word_scale for _, word_scale in word_forms))
    out: dict[tuple[int, int], int] = {}
    for coeff, (ints, word_scale) in zip(coeffs, word_forms):
        factor = coeff * (scale // word_scale)
        for key, c in ints.items():
            value = factor * c
            out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if value}, coeff_scale * scale


def normal_order(wp: WordPoly, q) -> WordPoly:
    """Rewrite wp into an equal combination of normal words d^i e^j."""
    q = as_rational(q)
    if q == 0:
        raise UnsupportedQ("normal ordering divides by q; q = 0 is unsupported")
    coeffs = _fractions(_normal_form(wp.terms, q, {}, _QPowers(q)))
    return WordPoly({"d" * i + "e" * j: coeff for (i, j), coeff in coeffs.items()})


def _moment_sums(table, forms: list[Form]) -> list[Fraction]:
    """Functional of each normal form (ints, scale), off the moment table.
    The moments the forms read are cleared of denominators once, over one
    scale, so each form is one integer dot product and one Fraction.  The
    table's denominators nearly divide one another, so that scale stays
    small: over orders i + j <= 40 at the costliest GRID point their lcm
    has 1,923 bits, the largest 1,838."""
    keys = list(dict.fromkeys(key for ints, _ in forms for key in ints))
    moments, moment_scale = _clear_denominators([table.entry(i, j) for i, j in keys])
    cleared = dict(zip(keys, moments)).__getitem__
    return [
        Fraction(sum(map(mul, ints.values(), map(cleared, ints))), scale * moment_scale)
        for ints, scale in forms
    ]


def _moment_sum(p: AWParams, form: Form) -> Fraction:
    """Functional of one normal form (ints, scale), off the moment table."""
    return _moment_sums(bimoment_table(p), [form])[0]


def functional_values(polys, p: AWParams) -> list[Fraction]:
    """Value of the boundary functional on each word polynomial of
    ``polys``, given as {word: coeff} mappings (int or Fraction
    coefficients; a zero one adds nothing): normal order, then sum moments.

    One batch at one point: the moment table is looked up and q read once,
    each distinct word is normal ordered once (through the memo, whose
    misses read one list of q's powers), each polynomial is merged on
    integers, and each moment the batch reads is cleared once.  The stores
    of word forms, powers and moments live only as long as the call.
    """
    q = p.q
    forms: dict[str, Form] = {}
    powers = _QPowers(q)
    return _moment_sums(
        bimoment_table(p), [_normal_form(poly, q, forms, powers) for poly in polys]
    )


def functional(wp: WordPoly, p: AWParams) -> Fraction:
    """Value of the boundary functional: :func:`functional_values` of wp."""
    return functional_values([wp.terms], p)[0]


def _power_form(const, weight, length: int, q) -> Form:
    q, const, weight = as_rational(q), as_rational(const), as_rational(weight)
    if q == 0:
        raise UnsupportedQ("normal ordering divides by q; q = 0 is unsupported")
    if length < 0:
        raise InvalidParams(f"power must be >= 0, got {length}")
    form = {(0, 0): 1}, 1
    powers = _QPowers(q)
    for _ in range(length):
        form = _times_letter(form, const, weight, weight, powers)
    return form


def normal_power(const, weight, length: int, q) -> dict[tuple[int, int], Fraction]:
    """Normal-ordered coefficients {(i, j): coeff of d^i e^j} of
    (const + weight (d + e))^length, one right multiplication per factor:
    O(length^3) coefficient updates, no word expanded, nothing memoized."""
    return _fractions(_power_form(const, weight, length, q))


def power_functional(p: AWParams, length: int, const, weight) -> Fraction:
    """Functional of (const + weight (d + e))^length, by :func:`normal_power`'s
    loop and the moment table."""
    return _moment_sum(p, _power_form(const, weight, length, p.q))


def elimination_values(words, p: AWParams) -> list[Fraction]:
    """Functional of each word in ``words``, through boundary eliminations
    only, with one memo for the whole batch.

    A word is rewritten by the first move that applies:

        e w  ->  (a + c) w - a c (d w)                       (leading e)
        w d  ->  (b + d) w - b d (w e)                       (trailing d)
        u e d v  ->  q^(-1) (u d e v) - q^(-1) (1 - q) (u v)  (leftmost "ed")

    and a normal word d^i e^j is read off the moment table.  Every word a
    move reaches is smaller in (length, inversions, starts with e), compared
    lexicographically: the leading-e move may keep both length and
    inversions ("ee" -> "de"), but its d w does not start with e, and the
    other two moves shorten the word or remove at least one inversion.  So
    the words reachable from a batch are finite, and each is evaluated once,
    from an explicit stack (no recursion, whatever the word's length), into
    a memo that lives only as long as the call.  A move whose coefficient is
    zero is not taken.
    """
    words = [parse_word(word) for word in words]
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    qinv = 1 / q
    lead_e = (a + c, -(a * c))
    trail_d = (b + d, -(b * d))
    swap = (qinv, -qinv * (1 - q))
    table = bimoment_table(p)

    memo: dict[str, Fraction] = {}
    stack = list(words)
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if top.startswith("e"):
            rest = top[1:]
            moves = zip(lead_e, (rest, "d" + rest))
        else:
            cut = top.find("ed")
            if cut < 0:
                memo[top] = table.entry(*_split_normal(top))
                continue
            if top.endswith("d"):
                rest = top[:-1]
                moves = zip(trail_d, (rest, rest + "e"))
            else:
                head, tail = top[:cut], top[cut + 2 :]
                moves = zip(swap, (head + "de" + tail, head + tail))
        moves = [(coeff, child) for coeff, child in moves if coeff]
        missing = [child for _, child in moves if child not in memo]
        if missing:
            stack.extend(missing)
            continue
        value = Fraction(0)
        for coeff, child in moves:
            value += coeff * memo[child]
        memo[top] = value
    return [memo[word] for word in words]


def eval_by_elimination(wp: WordPoly, p: AWParams) -> Fraction:
    """Evaluate the functional through boundary eliminations only: the sum
    of coefficient times :func:`elimination_values` over the words of wp."""
    values = elimination_values(wp.terms, p)
    return sum(map(mul, wp.terms.values(), values), Fraction(0))


DEFAULT_FUZZ_SEED = 20240817


def _random_word(rng: random.Random, max_len: int) -> str:
    length = rng.randint(0, max_len)
    return "".join(rng.choice("de") for _ in range(length))


def check_defining_relations(
    p: AWParams,
    max_len: int = 8,
    trials: int = 200,
    seed: int = DEFAULT_FUZZ_SEED,
) -> VerificationReport:
    """Fuzz the three defining identities of the functional.

    For random words u, v of length <= max_len the functional must kill

        u (d e - q e d - (1-q)) v
        u (d + bd e - (b + d))
        (e + ac d - (a + c)) v

    exactly.  Each relation gets its own check entry with the first failing
    (u, v) as counterexample.
    """
    if max_len < 0 or trials <= 0:
        raise InvalidParams("max_len must be >= 0 and trials > 0")
    q = p.q
    report = VerificationReport(params=p.to_map(), n=max_len)
    rng = random.Random(seed)

    # Each relation: its three words for (u, v), and their coefficients.
    relations = {
        "bulk-exchange": (lambda u, v: (u + "de" + v, u + "ed" + v, u + v), (1, -q, -(1 - q))),
        "right-boundary": (lambda u, v: (u + "d", u + "e", u), (1, p.b * p.d, -(p.b + p.d))),
        "left-boundary": (lambda u, v: ("e" + v, "d" + v, v), (1, p.a * p.c, -(p.a + p.c))),
    }

    samples = [
        (_random_word(rng, max_len), _random_word(rng, max_len)) for _ in range(trials)
    ]

    # One batch in sample order, so the right-boundary relation reads the
    # prefixes of u that the bulk one has just stored in the memo.  The
    # three words are distinct; zero coefficients are dropped.
    with report.timed("relations"):
        polys = [
            {word: coeff for word, coeff in zip(words(u, v), coeffs) if coeff}
            for u, v in samples for words, coeffs in relations.values()
        ]
        values = functional_values(polys, p)
    for k, name in enumerate(relations):  # relation k: every third value from k
        found = ({"u": u, "v": v, "value": x} for (u, v), x in zip(samples, values[k::3]) if x)
        report.check(name, name, lambda: found)
    return report
