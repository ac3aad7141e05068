"""Open exclusion chain: exact stationary state, the ansatz, oracle.

A configuration of L sites is an integer 0 <= s < 2^L whose most
significant bit is site 1.  The continuous-time generator moves a particle
right across a bond at rate 1 and left at rate q, injects/extracts at the
left boundary at rates alpha/gamma and at the right boundary at rates
delta/beta.

The stationary distribution is certified, not solved for:

* ``stationary_ansatz`` gives configuration tau the weight
  <e0| X_tau1 ... X_tauL |e0> in the tridiagonal representation of d and
  e (``repmat.rep_rational``).  Variant "shifted" uses the letters d, e
  literally; variant "unshifted" substitutes D = (1 + d)/(1-q),
  E = (1 + e)/(1-q).  Configurations sharing a suffix share the vector
  X_tauk ... X_tauL |e0>, so all 2^L weights cost 2^(L+1) - 2 tridiagonal
  steps.  The walk is on integers: both operators' bands are cleared once,
  over one scale S, so state tau's weight is an integer W_tau over S^L,
  the total is sum(W) / S^L and each probability is W_tau / sum(W), one
  gcd per state (see ``_linalg`` for why that scale is walk-wide here and
  per entry in the deep walks).  ``ansatz_weight`` evaluates one
  configuration by the word route instead (expand the letter product,
  normal order, read the moment table); it is the tests' reference for
  the representation route;
* ``certify_stationary`` proves a candidate stationary: the generator is
  strongly connected (so its left kernel is one-dimensional) and the
  candidate's residual pi M is exactly zero.  Only the generator enters,
  and the cost is linear in its nonzero entries.

``compare`` hands the requested variants and the unshifted one to the
certificate; the distribution it proves is the oracle, and the comparison
records which requested variant(s) reproduce it -- it reports, it never
corrects.  When no candidate certifies there is no oracle.
``stationary_exact`` solves pi M = 0 by dense elimination on the
2^L x 2^L generator, at a cost of about 8^L operations; the library does
not call it, it is the independent reference the tests hold the
certificate to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from . import _linalg
from .core import (
    AWParams,
    BiorthError,
    HoppingRates,
    InvalidParams,
    NotIrreducible,
    SizeLimit,
    _clear_denominators,
    format_rational,
    to_rates,
)
from .repmat import neighbours, rep_rational
from .reporting import canonical_json, csv_text, jsonable
from .wordfun import WordPoly, functional, power_functional

# Dense elimination grows about 20x per site: at the costliest GRID point,
# (3/2, 3/4, -1/6, -1/8, 2/5), on a 2-core host with Python 3.11, L = 7 takes
# 1.5 s and L = 8 takes 39 s.
_EXACT_LIMIT = 8
# The generator is linear in its 2^L states: at L = 12 it has 34,816 entries
# (5 MB) and takes 0.04 s over GRID, the certificate without candidates
# 0.09 s, on the same host; both double per site.  Also the guard of
# ``stationary_ansatz`` and ``compare``: compare(12) takes at most 0.43 s over
# GRID and the four abcd = q or q^2 points of the tests (L = 11: 0.18 s).
_GENERATOR_LIMIT = 12
VARIANTS = ("shifted", "unshifted")


def _guard_length(name: str, length: int, limit: int) -> None:
    """Refuse a chain length below 1 or above ``name``'s ``limit``."""
    if length < 1:
        raise InvalidParams(f"L must be >= 1, got {length}")
    if length > limit:
        raise SizeLimit(f"{name} is guarded to L <= {limit}")


def config_string(state: int, length: int) -> str:
    """Bit string of a configuration, site 1 leftmost."""
    if not 0 <= state < (1 << length):
        raise InvalidParams(f"state {state} out of range for L={length}")
    return format(state, f"0{length}b")


def config_bits(state: int, length: int) -> tuple[int, ...]:
    return tuple(int(ch) for ch in config_string(state, length))


@dataclass(frozen=True)
class StationaryDistribution:
    """Exact distribution over configurations of a fixed length.

    ``normalization`` is the constant the raw weight vector was divided by,
    so probabilities always sum to exactly 1.
    """

    length: int
    probabilities: tuple[Fraction, ...]
    normalization: Fraction

    def __post_init__(self):
        if len(self.probabilities) != 1 << self.length:
            raise InvalidParams("probability vector length is not 2^L")
        # the sum on integers over the lcm of the denominators
        numerators, scale = _clear_denominators(self.probabilities)
        if sum(numerators) != scale:
            raise InvalidParams("probabilities must sum to exactly 1")

    def probability(self, state: int) -> Fraction:
        return self.probabilities[state]

    def to_map(self) -> dict[str, str]:
        return {
            config_string(s, self.length): format_rational(v)
            for s, v in enumerate(self.probabilities)
        }

    def to_csv(self) -> str:
        rows = [
            (config_string(state, self.length), format_rational(value), format(float(value), ".12g"))
            for state, value in enumerate(self.probabilities)
        ]
        return csv_text([("configuration", "probability", "decimal"), *rows])


def generator(length: int, rates: HoppingRates) -> dict[tuple[int, int], Fraction]:
    """Sparse rate matrix {(from, to): rate}, diagonal = -(row sum)."""
    _guard_length("generator", length, _GENERATOR_LIMIT)
    size = 1 << length
    left_mask = 1 << (length - 1)
    entries: dict[tuple[int, int], Fraction] = {}
    # Each rate paired with its integer over one common scale: a row sum is
    # added up on the integers and reduced once.
    values = (rates.alpha, rates.beta, rates.gamma, rates.delta, Fraction(1), rates.q)
    integers, scale = _clear_denominators(values)
    alpha, beta, gamma, delta, right, left = zip(values, integers)
    row_sums = [0] * size

    def add(src: int, dst: int, rate: tuple[Fraction, int]):
        value, integer = rate
        if value:
            key = (src, dst)
            # at L = 1 the one site is at both boundaries, so both moves share a key
            entries[key] = entries[key] + value if key in entries else value
            row_sums[src] += integer

    for s in range(size):
        if s & left_mask:
            add(s, s & ~left_mask, gamma)
        else:
            add(s, s | left_mask, alpha)
        if s & 1:
            add(s, s & ~1, beta)
        else:
            add(s, s | 1, delta)
        for bond in range(length - 1):
            hi = 1 << (length - 1 - bond)
            lo = hi >> 1
            pair = s & (hi | lo)
            if pair == hi:
                add(s, (s & ~hi) | lo, right)
            elif pair == lo:
                add(s, (s | hi) & ~lo, left)
    for s, total in enumerate(row_sums):
        if total:
            entries[(s, s)] = Fraction(-total, scale)
    return entries


def _dense_generator(length: int, rates: HoppingRates):
    size = 1 << length
    dense = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), rate in generator(length, rates).items():
        dense[i][j] += rate
    return dense


def stationary_exact(length: int, rates: HoppingRates) -> StationaryDistribution:
    """Oracle stationary state: exact nullspace of the transposed generator."""
    _guard_length("stationary_exact", length, _EXACT_LIMIT)
    dense = _dense_generator(length, rates)
    basis = _linalg.nullspace(_linalg.mat_transpose(dense))
    if len(basis) != 1:
        raise NotIrreducible(
            f"stationary space has dimension {len(basis)}, expected 1"
        )
    raw = basis[0]
    total = sum(raw)
    if total == 0:
        raise NotIrreducible("stationary vector sums to zero")
    probs = tuple(v / total for v in raw)
    if any(v < 0 for v in probs):
        raise NotIrreducible("stationary vector is not sign-definite")
    return StationaryDistribution(length=length, probabilities=probs, normalization=total)


def _reaches_all(edges: dict[int, list[int]], size: int) -> bool:
    """True iff every state 0..size-1 is reachable from state 0."""
    seen = [False] * size
    seen[0] = True
    stack = [0]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(nxt)
    return all(seen)


def certify_stationary(length: int, rates: HoppingRates, candidates):
    """The first candidate distribution proven stationary, or None.

    The generator is first checked strongly connected, by one search from
    state 0 along its off-diagonal entries and one against them.  Then its
    left kernel is one-dimensional and spanned by a positive vector, so a
    candidate with exactly zero residual pi M and only positive entries is
    the stationary state.  Raises ``NotIrreducible`` if the generator is
    not strongly connected.

    The residual is taken on integers: the rates and each candidate are
    scaled by the lcm of their denominators, which moves no sign and no
    zero.
    """
    matrix = generator(length, rates)
    size = 1 << length
    forward: dict[int, list[int]] = {}
    backward: dict[int, list[int]] = {}
    for src, dst in matrix:
        if src != dst:
            forward.setdefault(src, []).append(dst)
            backward.setdefault(dst, []).append(src)
    if not (_reaches_all(forward, size) and _reaches_all(backward, size)):
        raise NotIrreducible(f"the generator at L={length} is not strongly connected")
    int_rates, _ = _clear_denominators(list(matrix.values()))
    entries = [(src, dst, rate) for (src, dst), rate in zip(matrix, int_rates)]
    for dist in candidates:
        if dist.length != length:
            raise InvalidParams(f"candidate of length {dist.length} for L={length}")
        weights, _ = _clear_denominators(dist.probabilities)
        if not all(w > 0 for w in weights):
            continue
        residual = [0] * size
        for src, dst, rate in entries:
            residual[dst] += weights[src] * rate
        if not any(residual):
            return dist
    return None


def _site_letter(p: AWParams, variant: str) -> tuple[Fraction, Fraction]:
    """(shift, scale) of a variant: the site letter is shift + scale x, with
    x = d on an occupied site and x = e on an empty one."""
    if variant not in VARIANTS:
        raise InvalidParams(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "shifted":
        return Fraction(0), Fraction(1)
    return 1 / p.qprime, 1 / p.qprime


def ansatz_weight(tau, p: AWParams, variant: str = "unshifted") -> Fraction:
    """Unnormalized weight of one configuration under the chosen variant.

    tau is an occupation sequence (site 1 first).  The weight is the
    functional applied to the product over sites of the per-site letter
    (d for occupied, e for empty), either literally ("shifted") or after
    the substitution D = (1+d)/(1-q), E = (1+e)/(1-q) ("unshifted").
    """
    shift, scale = _site_letter(p, variant)
    bits = [int(b) for b in tau]
    if any(b not in (0, 1) for b in bits):
        raise InvalidParams(f"occupation values must be 0/1, got {tau!r}")
    word = WordPoly.one()
    for bit in bits:
        word = word * WordPoly({"": shift, "d" if bit else "e": scale})
    return functional(word, p)


def _representation(p: AWParams, length: int):
    """Exact (d, e) truncations for words of length <= L.

    A closed walk of length L from level 0 never climbs above level L//2,
    so the truncation of size L//2 + 1 gives <e0| word |e0> exactly.
    """
    return rep_rational(p, length // 2 + 1)


def _site_operators(p: AWParams, rep, variant: str):
    """Empty-site and occupied-site operators of one variant, built from
    the exact (d, e) pair ``rep``."""
    dop, eop = rep
    shift, scale = _site_letter(p, variant)
    return tuple(
        replace(
            op,
            diag=tuple(shift + x * scale for x in op.diag),
            upper=tuple(x * scale for x in op.upper),
            lower=tuple(x * scale for x in op.lower),
        )
        for op in (eop, dop)
    )


def _band_rows(op, scale: int) -> list[tuple[int, int, int]]:
    """op's band rows times ``scale`` (a multiple of every band
    denominator)."""
    return [tuple(x.numerator * (scale // x.denominator) for x in row) for row in op.band_rows()]


def _band_step(rows, vec: list[int], levels: int) -> list[int]:
    """The first ``levels`` components of the integer band ``rows`` applied
    to vec; vec's missing components are zero."""
    return [
        low * x + mid * y + up * z
        for (low, mid, up), (x, y, z) in zip(rows[:levels], neighbours(vec, levels))
    ]


def _transfer_weights(length: int, empty, occupied) -> tuple[list[int], int]:
    """<e0| X_tau1 ... X_tauL |e0> for every state, shared by suffix, as
    (integers, scale): the weight of state tau is integers[tau] / scale.

    Both operators' bands are cleared of denominators once, over one scale
    S (the lcm of all their denominators), so every vector of the walk is
    plain integers, S^k times its value after k steps, and the scale of
    the weights is S^L.

    After k steps, vectors[s] = X_tau(L-k+1) ... X_tauL |e0> where s holds
    sites L-k+1..L in its k low bits, so each step prepends site L-k as
    bit k of the state.  Only levels <= min(k, L - k) are kept: higher
    ones are still zero (a step climbs at most one level) or can no longer
    return to level 0 in the L - k steps left.
    """
    ops = (empty, occupied)
    scale = lcm(*(x.denominator for op in ops for x in (*op.lower, *op.diag, *op.upper)))
    bands = [_band_rows(op, scale) for op in ops]
    vectors = [[1]]
    for k in range(1, length + 1):
        levels = min(k, length - k) + 1
        vectors = [_band_step(rows, v, levels) for rows in bands for v in vectors]
    return [v[0] for v in vectors], scale**length


def _ansatz(length: int, p: AWParams, variant: str, rep) -> StationaryDistribution:
    """``stationary_ansatz`` on the representation ``rep`` of
    ``_representation(p, length)``."""
    shift, scale = _site_letter(p, variant)
    weights, weight_scale = _transfer_weights(length, *_site_operators(p, rep, variant))
    weight_sum = sum(weights)
    total = Fraction(weight_sum, weight_scale)
    if power_functional(p, length, 2 * shift, scale) != total:
        raise BiorthError("normalization mismatch between weight sum and letter-sum power")
    if total == 0:
        raise BiorthError("ansatz normalization vanishes")
    # weight / total, with the scale cancelled: one gcd per state
    probs = tuple(Fraction(w, weight_sum) for w in weights)
    return StationaryDistribution(length=length, probabilities=probs, normalization=total)


def stationary_ansatz(
    length: int, p: AWParams, variant: str = "unshifted"
) -> StationaryDistribution:
    """Normalized ansatz distribution for all 2^L configurations.

    The weights come from the tridiagonal representation, shared across
    configurations by suffix.

    The normalization is then recomputed from the moment table, as the
    functional of the L-th power of the summed site letters (normal ordered
    in closed form by ``wordfun.power_functional``), and checked against
    the sum of the weights.  The representation and the moment table share
    nothing above the parameters, so a mismatch means one route is broken.
    """
    _guard_length("stationary_ansatz", length, _GENERATOR_LIMIT)
    return _ansatz(length, p, variant, _representation(p, length))


@dataclass(frozen=True)
class VariantComparison:
    name: str
    matches_oracle: bool
    max_abs_discrepancy: Fraction | None


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side of ansatz variants against the certified chain state
    (None where no candidate certifies)."""

    params: AWParams
    rates: HoppingRates
    length: int
    variants: tuple[VariantComparison, ...]
    oracle: StationaryDistribution | None

    @property
    def matching_variants(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variants if v.matches_oracle)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_map(),
            "rates": self.rates.to_map(),
            "L": self.length,
            "variants": [
                {
                    "name": v.name,
                    "matches_oracle": v.matches_oracle,
                    "max_abs_discrepancy": jsonable(v.max_abs_discrepancy),
                }
                for v in self.variants
            ],
            "oracle": None if self.oracle is None else {"probabilities": self.oracle.to_map()},
        }

    def to_json(self) -> str:
        return canonical_json(jsonable(self.to_json_dict()))


def compare(length: int, p: AWParams, variants=VARIANTS) -> ComparisonReport:
    """Compare the requested ansatz variants with the oracle at length L.

    Exact equality configuration by configuration; on mismatch the largest
    absolute discrepancy is recorded.  The exact representation is built
    once and shared by the variants.  The oracle is the first of the
    requested variants, then the unshifted one (computed only as a
    candidate if not requested), that ``certify_stationary`` proves
    stationary, at a cost linear in the 2^L states.  If none certifies,
    the ansatz itself is wrong: the oracle is None, and so is every
    discrepancy.  Guarded with the generator it certifies against.
    """
    _guard_length("compare", length, _GENERATOR_LIMIT)
    rates = to_rates(p)
    rep = _representation(p, length)
    candidates = dict.fromkeys((*variants, "unshifted"))
    dists = {variant: _ansatz(length, p, variant, rep) for variant in candidates}
    oracle = certify_stationary(length, rates, dists.values())
    rows = []
    for variant in variants:
        probs = dists[variant].probabilities
        if oracle is None:
            gap = None
        elif probs == oracle.probabilities:
            gap = Fraction(0)
        else:
            gap = max(abs(x - y) for x, y in zip(probs, oracle.probabilities))
        rows.append(VariantComparison(variant, matches_oracle=(gap == 0), max_abs_discrepancy=gap))
    return ComparisonReport(
        params=p, rates=rates, length=length, variants=tuple(rows), oracle=oracle
    )
