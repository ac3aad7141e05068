"""Open exclusion chain: exact stationary state, two ansatz routes, oracle.

A configuration of L sites is an integer 0 <= s < 2^L whose most
significant bit is site 1.  The continuous-time generator moves a particle
right across a bond at rate 1 and left at rate q, injects/extracts at the
left boundary at rates alpha/gamma and at the right boundary at rates
delta/beta.

The stationary distribution is computed two ways:

* ``stationary_exact`` solves pi M = 0 exactly (the oracle; no model
  structure beyond the generator enters);
* ``stationary_ansatz`` gives configuration tau the weight
  <e0| X_tau1 ... X_tauL |e0> in the tridiagonal representation of d and
  e (``repmat.rep_rational``).  Variant "shifted" uses the letters d, e
  literally; variant "unshifted" substitutes D = (1 + d)/(1-q),
  E = (1 + e)/(1-q).  Configurations sharing a suffix share the vector
  X_tauk ... X_tauL |e0>, so all 2^L weights cost 2^(L+1) - 2 tridiagonal
  steps.  ``ansatz_weight`` evaluates one configuration by the word route
  instead (expand the letter product, normal order, read the moment
  table); it is the reference for the representation route and its
  fallback where the representation is singular.  ``compare`` records
  which variant(s) reproduce the oracle -- the comparison reports, it
  never corrects.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from fractions import Fraction

from . import _linalg
from .core import (
    AWParams,
    BiorthError,
    HoppingRates,
    InvalidParams,
    NotIrreducible,
    SingularParams,
    SizeLimit,
    format_rational,
    to_rates,
)
from .repmat import rep_rational
from .reporting import canonical_json, jsonable
from .wordfun import WordPoly, functional

_ANSATZ_LIMIT = 10
_GENERATOR_LIMIT = 12
_COMPARE_LIMIT = 6
VARIANTS = ("shifted", "unshifted")


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
        if sum(self.probabilities) != 1:
            raise InvalidParams("probabilities must sum to exactly 1")

    def probability(self, state: int) -> Fraction:
        return self.probabilities[state]

    def to_map(self) -> dict[str, str]:
        return {
            config_string(s, self.length): format_rational(v)
            for s, v in enumerate(self.probabilities)
        }

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["configuration", "probability", "decimal"])
        for state, value in enumerate(self.probabilities):
            writer.writerow(
                [config_string(state, self.length), format_rational(value), format(float(value), ".12g")]
            )
        return buffer.getvalue()


def generator(length: int, rates: HoppingRates) -> dict[tuple[int, int], Fraction]:
    """Sparse rate matrix {(from, to): rate}, diagonal = -(row sum)."""
    if length < 1:
        raise InvalidParams(f"L must be >= 1, got {length}")
    if length > _GENERATOR_LIMIT:
        raise SizeLimit(f"generator is guarded to L <= {_GENERATOR_LIMIT}")
    q = rates.q
    size = 1 << length
    left_mask = 1 << (length - 1)
    entries: dict[tuple[int, int], Fraction] = {}
    row_sums = [Fraction(0)] * size

    def add(src: int, dst: int, rate: Fraction):
        if rate:
            key = (src, dst)
            entries[key] = entries.get(key, Fraction(0)) + rate
            row_sums[src] += rate

    for s in range(size):
        if s & left_mask:
            add(s, s & ~left_mask, rates.gamma)
        else:
            add(s, s | left_mask, rates.alpha)
        if s & 1:
            add(s, s & ~1, rates.beta)
        else:
            add(s, s | 1, rates.delta)
        for bond in range(length - 1):
            hi = 1 << (length - 1 - bond)
            lo = hi >> 1
            pair = s & (hi | lo)
            if pair == hi:
                add(s, (s & ~hi) | lo, Fraction(1))
            elif pair == lo:
                add(s, (s | hi) & ~lo, q)
    for s, total in enumerate(row_sums):
        if total:
            entries[(s, s)] = -total
    return entries


def _dense_generator(length: int, rates: HoppingRates):
    size = 1 << length
    dense = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), rate in generator(length, rates).items():
        dense[i][j] += rate
    return dense


def stationary_exact(length: int, rates: HoppingRates) -> StationaryDistribution:
    """Oracle stationary state: exact nullspace of the transposed generator."""
    if length < 1:
        raise InvalidParams(f"L must be >= 1, got {length}")
    if length > _ANSATZ_LIMIT:
        raise SizeLimit(f"stationary_exact is guarded to L <= {_ANSATZ_LIMIT}")
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


def _site_letter_poly(occupied: bool, variant: str, qprime: Fraction) -> WordPoly:
    letter = "d" if occupied else "e"
    if variant == "shifted":
        return WordPoly({letter: 1})
    return WordPoly({"": Fraction(1) / qprime, letter: Fraction(1) / qprime})


def ansatz_weight(tau, p: AWParams, variant: str = "unshifted") -> Fraction:
    """Unnormalized weight of one configuration under the chosen variant.

    tau is an occupation sequence (site 1 first).  The weight is the
    functional applied to the product over sites of the per-site letter
    (d for occupied, e for empty), either literally ("shifted") or after
    the substitution D = (1+d)/(1-q), E = (1+e)/(1-q) ("unshifted").
    """
    if variant not in VARIANTS:
        raise InvalidParams(f"variant must be one of {VARIANTS}, got {variant!r}")
    bits = [int(b) for b in tau]
    if any(b not in (0, 1) for b in bits):
        raise InvalidParams(f"occupation values must be 0/1, got {tau!r}")
    word = WordPoly.one()
    for bit in bits:
        word = word * _site_letter_poly(bool(bit), variant, p.qprime)
    return functional(word, p)


def _representation(p: AWParams, length: int):
    """Exact (d, e) truncations for words of length <= L, or None where
    ``rep_rational`` meets a vanishing denominator.

    A closed walk of length L from level 0 never climbs above level L//2,
    so the truncation of size L//2 + 1 gives <e0| word |e0> exactly.
    """
    try:
        return rep_rational(p, length // 2 + 1)
    except SingularParams:
        return None


def _site_operators(p: AWParams, rep, variant: str):
    """Empty-site and occupied-site operators of one variant, built from
    the exact (d, e) pair ``rep``."""
    dop, eop = rep
    if variant == "shifted":
        return eop, dop
    scale = 1 / p.qprime
    return tuple(
        replace(
            op,
            diag=tuple((1 + x) * scale for x in op.diag),
            upper=tuple(x * scale for x in op.upper),
            lower=tuple(x * scale for x in op.lower),
        )
        for op in (eop, dop)
    )


def _transfer_weights(length: int, empty, occupied) -> list[Fraction]:
    """<e0| X_tau1 ... X_tauL |e0> for every state, shared by suffix.

    After k steps, vectors[s] = X_tau(L-k+1) ... X_tauL |e0> where s holds
    sites L-k+1..L in its k low bits, so each step prepends site L-k as
    bit k of the state.  Only levels <= min(k, L - k) are kept: higher
    ones are still zero (a step climbs at most one level) or can no longer
    return to level 0 in the L - k steps left.
    """
    vectors = [[Fraction(1)]]
    for k in range(1, length + 1):
        levels = min(k, length - k) + 1
        vectors = [op.matvec(v, levels) for op in (empty, occupied) for v in vectors]
    return [v[0] for v in vectors]


def _ansatz(length: int, p: AWParams, variant: str, rep) -> StationaryDistribution:
    """``stationary_ansatz`` on the representation ``rep`` of
    ``_representation(p, length)``; the word route where it is None."""
    if variant not in VARIANTS:
        raise InvalidParams(f"variant must be one of {VARIANTS}, got {variant!r}")
    if rep is None:
        weights = [
            ansatz_weight(config_bits(s, length), p, variant) for s in range(1 << length)
        ]
    else:
        weights = _transfer_weights(length, *_site_operators(p, rep, variant))
    total = sum(weights)

    site_sum = _site_letter_poly(True, variant, p.qprime) + _site_letter_poly(
        False, variant, p.qprime
    )
    power = WordPoly.one()
    for _ in range(length):
        power = power * site_sum
    if functional(power, p) != total:
        raise BiorthError("normalization mismatch between weight sum and letter-sum power")
    if total == 0:
        raise BiorthError("ansatz normalization vanishes")
    probs = tuple(w / total for w in weights)
    return StationaryDistribution(length=length, probabilities=probs, normalization=total)


def stationary_ansatz(
    length: int, p: AWParams, variant: str = "unshifted"
) -> StationaryDistribution:
    """Normalized ansatz distribution for all 2^L configurations.

    The weights come from the tridiagonal representation, shared across
    configurations by suffix.  Where ``rep_rational`` meets a vanishing
    denominator (abcd = q or q^2, say) that the moment table does not, each
    weight is computed by the word route of ``ansatz_weight`` instead.

    The normalization is then recomputed by the word route, as the
    functional of the expanded L-th power of the summed site letters, and
    checked against the sum of the weights.  The representation and the
    moment table share nothing above the parameters, so a mismatch means
    one route is broken; under the fallback the check still guards the
    expansion of the letter products.
    """
    if length < 1:
        raise InvalidParams(f"L must be >= 1, got {length}")
    if length > _ANSATZ_LIMIT:
        raise SizeLimit(f"stationary_ansatz is guarded to L <= {_ANSATZ_LIMIT}")
    return _ansatz(length, p, variant, _representation(p, length))


@dataclass(frozen=True)
class VariantComparison:
    name: str
    matches_oracle: bool
    max_abs_discrepancy: Fraction


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side of ansatz variants against the Markov-chain oracle."""

    params: AWParams
    rates: HoppingRates
    length: int
    variants: tuple[VariantComparison, ...]
    oracle: StationaryDistribution

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
                    "max_abs_discrepancy": format_rational(v.max_abs_discrepancy),
                }
                for v in self.variants
            ],
            "oracle": {"probabilities": self.oracle.to_map()},
        }

    def to_json(self) -> str:
        return canonical_json(jsonable(self.to_json_dict()))


def compare(length: int, p: AWParams, variants=VARIANTS) -> ComparisonReport:
    """Compare the requested ansatz variants with the oracle at length L.

    Exact equality configuration by configuration; on mismatch the largest
    absolute discrepancy is recorded.  The exact representation is built
    once and shared by the variants.  Guarded to L <= 6 because the oracle
    cost grows as 8^L.
    """
    if length > _COMPARE_LIMIT:
        raise SizeLimit(f"compare is guarded to L <= {_COMPARE_LIMIT}")
    rates = to_rates(p)
    oracle = stationary_exact(length, rates)
    rep = _representation(p, length)
    rows = []
    for variant in variants:
        dist = _ansatz(length, p, variant, rep)
        gap = max(
            abs(x - y) for x, y in zip(dist.probabilities, oracle.probabilities)
        )
        rows.append(
            VariantComparison(
                name=variant, matches_oracle=(gap == 0), max_abs_discrepancy=gap
            )
        )
    return ComparisonReport(
        params=p, rates=rates, length=length, variants=tuple(rows), oracle=oracle
    )
