"""Words in the two boundary operators and the linear functional on them.

A word is a string over the alphabet {"d", "e"}; a word polynomial is a
finite rational combination of words.  The functional is evaluated by
normal ordering and summing bimoment entries.  The relation
d e - q e d = 1 - q keeps #d - #e, so the normal form of a word with I d's
and J e's lies on one diagonal, the terms d^(I-k) e^(J-k).  With q = t/s
its coefficients are integer polynomials in s/t over the one scale t^n (n
the pairs of an e before a d), so a word's form is one tuple of integers:
entry k the coefficient of d^(I-k) e^(J-k), then the scale.  Normal
ordering is right multiplication: a word is its prefix's form times its
last letter.  A trailing e changes no coefficient, so only the prefixes
that end in d are formed; a trailing d is one pass over the tuple
(``_times_d``, the one place the d-rule is written).  A batch of words is
normal ordered in sorted order, where the words that share a prefix are
adjacent: the walk keeps the current word's prefixes that end in d, so it
forms each such prefix of the batch once and keeps no more of them than
the longest word has d's (``_word_forms``).  No form outlives its batch.
A word polynomial's forms are placed at their (i, j) over the lcm of their
scales, and each moment sum is one integer dot product and one Fraction
(see ``_linalg``).  ``normal_power`` multiplies forms spread over several
diagonals by a rational letter, each term's d part by what the same
``_times_d`` moves one entry to, read once per j.  Other Fractions are
built only where ``normal_order`` and ``normal_power`` return.

``functional_values`` evaluates a batch of word polynomials at one point:
the table is looked up once, each distinct word is normal ordered once,
in that sorted walk, and each moment the batch reads is cleared of
denominators once.  ``functional`` is the one-polynomial batch; the
relations fuzz makes one batch of all its samples, and the suites' sweep
over all short words one per point.

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


# A word's normal form.  The relation d e - q e d = 1 - q keeps #d - #e, so
# a word with I d's and J e's normal orders to terms d^(I-k) e^(J-k) on one
# diagonal.  Its form is one tuple: entry k is the integer coefficient of
# d^(I-k) e^(J-k) over the integer scale, which is the last entry (t^n for
# q = t/s and n pairs of an e before a d), and I and J are read off the word.
WordForm = tuple[int, ...]
# A normal form spread over several diagonals, as a word polynomial's or a
# power's: integer coefficients {(i, j): coeff of d^i e^j} over one integer
# scale.  The moment sums read this one.
Form = tuple[dict[tuple[int, int], int], int]


def _times_d(coeffs, top: int, depth: int, tp: list[int], sp: list[int]) -> list[int]:
    """One diagonal times d: ``coeffs``, entry k the coefficient of
    d^(I-k) e^(top-k), become those of d^(I+1-k) e^(top-k), by

        d^i e^j . d = q^(-j) d^(i+1) e^j + (1 - q^(-j)) d^i e^(j-1),

    the second from e^j d = q^(-j) d e^j + (1 - q^(-j)) e^(j-1), the bulk
    relation e d = q^(-1) d e - q^(-1) (1 - q) applied j times.  On
    integers: with q = t/s and depth >= top, q^(-j) t^depth = s^j t^(depth-j)
    is read from ``tp`` and ``sp``, the powers of t and s up to depth, so the
    result is over t^depth times the old scale.
    """
    t_depth = tp[depth]
    out = []
    lower = 0  # what the entry before moved down to this one
    j = top
    for coeff in coeffs:
        moved = sp[j] * tp[depth - j] * coeff
        out.append(moved + lower)
        lower = t_depth * coeff - moved
        j -= 1
    if j >= 0:  # the last entry had j >= 1; at j = 0 nothing moves down
        out.append(lower)
    return out


def _times_letter(form: Form, const, d_coeff, e_coeff, powers: _QPowers) -> Form:
    """The normal form (ints, scale) times the letter
    const + d_coeff d + e_coeff e, normal ordered again: d^i e^j . e =
    d^i e^(j+1), and d^i e^j . d as ``_times_d`` moves a diagonal of one
    entry, read once per j.

    An integer kernel (see ``_linalg``): a rational letter is cleared of
    denominators once, and when it has a d part every term is put over the
    one scale t^J, J the largest j.  No Fraction is built.
    """
    ints, scale = form
    (const, d_coeff, e_coeff), letter_scale = _clear_denominators([const, d_coeff, e_coeff])
    depth = max((j for _, j in ints), default=0) if d_coeff else 0
    tp, sp = powers.upto(depth)
    t_depth = tp[depth]
    e_top, const_top = e_coeff * t_depth, const * t_depth
    # d^i e^j . d_coeff d per unit coefficient, one per j: the coefficient
    # of d^(i+1) e^j, then of d^i e^(j-1) when j > 0
    units = [_times_d((d_coeff,), j, depth, tp, sp) for j in range(depth + 1)] if d_coeff else ()
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i, j), coeff in ints.items():
        if e_top:
            key = (i, j + 1)
            out[key] = get(key, 0) + e_top * coeff
        if d_coeff:
            unit = units[j]
            key = (i + 1, j)
            out[key] = get(key, 0) + unit[0] * coeff
            if len(unit) > 1:
                key = (i, j - 1)
                out[key] = get(key, 0) + unit[1] * coeff
        if const_top:
            key = (i, j)
            out[key] = get(key, 0) + const_top * coeff
    return {key: value for key, value in out.items() if value}, scale * letter_scale * t_depth


def _fractions(form: Form) -> dict[tuple[int, int], Fraction]:
    ints, scale = form
    return {key: Fraction(value, scale) for key, value in ints.items()}


_NORMAL_CACHE: dict = {}  # never stored into; kept for perfbench/workloads, which reads it


def _normal_order_word(word: str, path: list[tuple[int, WordForm]], powers: _QPowers) -> WordForm:
    """Normal form (coefficients, then the scale) of ``word``: the form of
    the longest prefix on ``path`` times the remaining letters, one at a
    time, each longer prefix that ends in d pushed onto ``path`` as (end,
    form).  ``path`` holds prefixes of ``word`` that end in d, shortest
    first, and every such prefix up to its last entry.  An e changes no
    coefficient, so a word's form is that of the word up to its last d, and
    the word with no d has the empty word's (1, 1); a d is one pass of
    ``_times_d``, reading q's powers from ``powers``."""
    start, form = path[-1] if path else (0, (1, 1))  # the empty word's: 1 over scale 1
    end = word.rfind("d") + 1
    top = word.count("e", 0, start)
    tp, sp = powers.upto(word.count("e", 0, end))
    for cut in range(start, end):
        if word[cut] == "e":
            top += 1
        else:
            form = (*_times_d(form[:-1], top, top, tp, sp), form[-1] * tp[top])
            path.append((cut + 1, form))
    return form


def _word_forms(words, powers: _QPowers) -> dict[str, WordForm]:
    """{word: form} of the distinct ``words``, normal ordered in sorted order.
    The words that share a prefix are then adjacent, so the walk keeps only
    the prefixes of the last word that end in d, cut back to what it shares
    with the next one, and normal orders each such prefix of the batch
    once."""
    forms: dict[str, WordForm] = {}
    path: list[tuple[int, WordForm]] = []
    last = ""
    for word in sorted(map(parse_word, set(words))):
        while path and not word.startswith(last[: path[-1][0]]):
            path.pop()
        forms[word] = _normal_order_word(word, path, powers)
        last = word
    return forms


def _normal_form(terms, forms: dict[str, WordForm]) -> Form:
    """(ints, scale) of the word polynomial ``terms`` ({word: coeff}): its
    coefficients cleared once, and each word's form, from ``forms``, brought
    to the lcm of the word scales and placed at its terms' (i, j)."""
    coeffs, coeff_scale = _clear_denominators(terms.values())
    word_forms = [forms[word] for word in terms]
    scale = lcm(*(form[-1] for form in word_forms))
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for coeff, word, form in zip(coeffs, terms, word_forms):
        factor = coeff * (scale // form[-1])
        i = word.count("d")
        j = len(word) - i
        for c in form[:-1]:  # entry k at (I - k, J - k)
            if c:
                key = (i, j)
                out[key] = get(key, 0) + factor * c
            i -= 1
            j -= 1
    return {key: value for key, value in out.items() if value}, coeff_scale * scale


def normal_order(wp: WordPoly, q) -> WordPoly:
    """Rewrite wp into an equal combination of normal words d^i e^j."""
    q = as_rational(q)
    if q == 0:
        raise UnsupportedQ("normal ordering divides by q; q = 0 is unsupported")
    coeffs = _fractions(_normal_form(wp.terms, _word_forms(wp.terms, _QPowers(q))))
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
    the batch's distinct words are normal ordered in one sorted walk
    (``_word_forms``, each prefix that ends in d once, on one list of q's
    powers), each polynomial is merged on integers, and each moment the
    batch reads is cleared once.  Nothing outlives the call.
    """
    polys = list(polys)
    table = bimoment_table(p)
    forms = _word_forms((word for poly in polys for word in poly), _QPowers(p.q))
    return _moment_sums(table, [_normal_form(poly, forms) for poly in polys])


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

    # One batch of all samples, so words that share a prefix share its
    # normal ordering.  The three words are distinct; zero coefficients
    # are dropped.
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
