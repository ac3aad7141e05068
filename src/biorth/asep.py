"""Open exclusion chain: exact stationary state, the ansatz, oracle.

A configuration of L sites is an integer 0 <= s < 2^L whose most
significant bit is site 1.  The continuous-time generator moves a particle
right across a bond at rate 1 and left at rate q, injects/extracts at the
left boundary at rates alpha/gamma and at the right boundary at rates
delta/beta.  The generator visits only the moves a state has: a bond can
hop exactly where its two sites differ, one set bit of s ^ (s << 1).

The stationary distribution is certified, not solved for:

* ``stationary_ansatz`` gives configuration tau the weight
  <e0| X_tau1 ... X_tauL |e0> in the tridiagonal representation of d and
  e (``band.rep_rational``).  Every site letter is factor (offset + x),
  x = d or e: variant "shifted" uses d, e literally (offset 0, factor 1);
  variant "unshifted" substitutes D = (1 + d)/(1-q), E = (1 + e)/(1-q)
  (offset 1, factor 1/(1-q)).  The walk runs on the letters offset + x,
  and the factor enters the total once, as factor^L; it cancels from the
  probabilities.  Configurations sharing a suffix share the vector
  Y_tauk ... Y_tauL |e0>, so all 2^L weights cost 2^(L+1) - 2 tridiagonal
  steps, each kept to the levels that can still return to level 0: the
  last step is one integer per state.  The walk holds its vectors level
  by level, so a step is one pass per level over all suffixes.  It is on
  integers: both operators' bands are cleared once, over one scale S, and
  offset S is added to their diagonals, so state tau's weight is an
  integer W_tau over S^L, the total is factor^L sum(W) / S^L and each
  probability is W_tau / sum(W), one gcd per state (see ``core`` for
  why that scale is walk-wide here and per entry in the deep walks).  The
  total is checked against the moment table's normalization.
  ``ansatz_weight`` evaluates one configuration by the word route instead
  (expand the letter product, normal order, read the moment table); it is
  the tests' reference for the representation route;
* ``certify_stationary`` proves a candidate stationary: the generator is
  strongly connected (so its left kernel is one-dimensional) and the
  candidate's residual pi M is exactly zero.  Only the generator enters,
  and the cost is linear in its nonzero entries.

``compare`` hands the requested variants and the unshifted one to the
certificate; the distribution it proves is the oracle, and the comparison
records which requested variant(s) reproduce it, and whether each
candidate's normalization matches -- it reports, it never corrects.  When no
candidate certifies there is no oracle.
``stationary_exact`` solves pi M = 0 by dense elimination on the
2^L x 2^L generator, at a cost of about 8^L operations; the library does
not call it, it is the independent reference the tests hold the
certificate to.  It and ``ansatz_weight`` import their layers (``_linalg``,
``wordfun``) when called: no command runs either, so ``stationary``
compiles neither layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .band import rep_rational
from .core import (
    AWParams,
    BiorthError,
    FrozenRecord,
    HoppingRates,
    InvalidParams,
    NotIrreducible,
    SizeLimit,
    _clear_denominators,
    format_rational,
    to_rates,
)
from .powers import power_functional
from .reporting import csv_text, jsonable

# Dense elimination grows about 20x per site: at the costliest GRID point,
# (3/2, 3/4, -1/6, -1/8, 2/5), on a 2-core host with Python 3.11, L = 7 takes
# 1.5 s and L = 8 takes 39 s.
_EXACT_LIMIT = 8
# The generator is linear in its 2^L states: at L = 12 it has 34,816 entries
# (4.2 MB) and takes 0.02 s at each GRID point, the certificate without
# candidates 0.06 s, on the same host; both double per site.  Also the guard
# of ``stationary_ansatz`` and ``compare``: compare(12) takes at most
# 0.23-0.35 s over GRID and the four abcd = q or q^2 points of the tests
# (L = 11: 0.08-0.13 s).
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


class StationaryDistribution(FrozenRecord):
    """Exact distribution over configurations of a fixed length.

    ``normalization`` is the constant the raw weight vector was divided by,
    so probabilities always sum to exactly 1.  ``cleared`` is (integers,
    scale): the probabilities times the lcm of their denominators, computed
    once, for the sum check here and the checks that read it later.
    """

    _fields = ("length", "probabilities", "normalization")
    __slots__ = (*_fields, "cleared")

    def __init__(self, length: int, probabilities: tuple[Fraction, ...], normalization: Fraction):
        if len(probabilities) != 1 << length:
            raise InvalidParams("probability vector length is not 2^L")
        # the sum on integers over the lcm of the denominators
        numerators, scale = cleared = _clear_denominators(probabilities)
        if sum(numerators) != scale:
            raise InvalidParams("probabilities must sum to exactly 1")
        self._set(length, probabilities, normalization)
        object.__setattr__(self, "cleared", cleared)

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


def _integer_generator(length: int, rates: HoppingRates) -> tuple[dict[tuple[int, int], int], int]:
    """The rate matrix as integers over one scale: ({(from, to): integer},
    scale), the rates cleared of denominators once, so a row sum is added
    up on the integers.

    Each state's entries are its boundary moves, left then right, then its
    bond hops in bond order (from site 1); every diagonal entry follows
    them all, and a zero rate makes no entry.  The bond between bits k and
    k - 1 (bit 0 is site L) can hop exactly when the two bits differ, so a
    state visits only the set bits k of ``(s ^ (s << 1)) & hops``, highest
    first: to the right at rate 1 when bit k is set, to the left at rate q
    otherwise, and either way to ``s ^ (3 << (k - 1))``.
    """
    _guard_length("generator", length, _GENERATOR_LIMIT)
    size = 1 << length
    top = size >> 1
    hops = size - 2  # bits 1 .. L-1: the left site of each bond
    integers, scale = _clear_denominators(
        (rates.alpha, rates.beta, rates.gamma, rates.delta, Fraction(1), rates.q)
    )
    alpha, beta, gamma, delta, right, left = integers
    entries: dict[tuple[int, int], int] = {}
    row_sums = []
    for s in range(size):
        total = rate = gamma if s & top else alpha
        if rate:
            entries[s, s ^ top] = rate
        rate = beta if s & 1 else delta
        if rate:
            key = (s, s ^ 1)
            # at L = 1 the one site is at both boundaries, so both moves share a key
            entries[key] = entries.get(key, 0) + rate
            total += rate
        moves = (s ^ (s << 1)) & hops
        forward = moves & s
        if not left:
            moves = forward
        total += forward.bit_count() * right + (moves ^ forward).bit_count() * left
        while moves:
            k = moves.bit_length() - 1
            moves ^= 1 << k
            entries[s, s ^ (3 << (k - 1))] = right if s >> k & 1 else left
        row_sums.append(total)
    for s, total in enumerate(row_sums):
        if total:
            entries[s, s] = -total
    return entries, scale


def generator(length: int, rates: HoppingRates) -> dict[tuple[int, int], Fraction]:
    """Sparse rate matrix {(from, to): rate}, diagonal = -(row sum): the
    entries of ``_integer_generator`` in its order, over its scale.  The
    entries take a few distinct values, so each Fraction is built once."""
    integers, scale = _integer_generator(length, rates)
    values = {integer: Fraction(integer, scale) for integer in set(integers.values())}
    return {key: values[integer] for key, integer in integers.items()}


def _dense_generator(length: int, rates: HoppingRates):
    size = 1 << length
    dense = [[Fraction(0)] * size for _ in range(size)]
    for (i, j), rate in generator(length, rates).items():
        dense[i][j] += rate
    return dense


def stationary_exact(length: int, rates: HoppingRates) -> StationaryDistribution:
    """Oracle stationary state: exact nullspace of the transposed generator."""
    from . import _linalg

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

    The residual is taken on integers: the generator's own
    (``_integer_generator``), and each candidate scaled by the lcm of its
    denominators, which moves no sign and no zero.
    """
    matrix, _ = _integer_generator(length, rates)
    size = 1 << length
    forward: dict[int, list[int]] = {}
    backward: dict[int, list[int]] = {}
    for src, dst in matrix:
        if src != dst:
            forward.setdefault(src, []).append(dst)
            backward.setdefault(dst, []).append(src)
    if not (_reaches_all(forward, size) and _reaches_all(backward, size)):
        raise NotIrreducible(f"the generator at L={length} is not strongly connected")
    for dist in candidates:
        if dist.length != length:
            raise InvalidParams(f"candidate of length {dist.length} for L={length}")
        weights, _ = dist.cleared
        if not all(w > 0 for w in weights):
            continue
        residual = [0] * size
        for (src, dst), rate in matrix.items():
            residual[dst] += weights[src] * rate
        if not any(residual):
            return dist
    return None


def _site_letter(p: AWParams, variant: str) -> tuple[int, Fraction]:
    """(offset, factor) of a variant: the site letter is factor (offset + x),
    with x = d on an occupied site and x = e on an empty one."""
    if variant not in VARIANTS:
        raise InvalidParams(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "shifted":
        return 0, Fraction(1)
    return 1, 1 / p.qprime


def ansatz_weight(tau, p: AWParams, variant: str = "unshifted") -> Fraction:
    """Unnormalized weight of one configuration under the chosen variant.

    tau is an occupation sequence (site 1 first).  The weight is the
    functional applied to the product over sites of the per-site letter
    (d for occupied, e for empty), either literally ("shifted") or after
    the substitution D = (1+d)/(1-q), E = (1+e)/(1-q) ("unshifted").
    """
    from .wordfun import WordPoly, functional

    offset, factor = _site_letter(p, variant)
    bits = [int(b) for b in tau]
    if any(b not in (0, 1) for b in bits):
        raise InvalidParams(f"occupation values must be 0/1, got {tau!r}")
    word = WordPoly.one()
    for bit in bits:
        word = word * WordPoly({"": offset, "d" if bit else "e": 1})
    return factor ** len(bits) * functional(word, p)


def _transfer_weights(length: int, rep, offset: int) -> tuple[list[int], int]:
    """<e0| Y_tau1 ... Y_tauL |e0> for every state, shared by suffix, as
    (integers, scale): the weight of state tau is integers[tau] / scale.
    Y is offset + d on an occupied site and offset + e on an empty one,
    with (d, e) the exact pair ``rep``.

    Both operators' bands are cleared of denominators once, over one scale
    S (the lcm of all their denominators), and offset S is added to both
    diagonals, so every vector of the walk is plain integers, S^k times
    its value after k steps, and the scale of the weights is S^L.

    The vectors are held level by level: after k steps, columns[i][s] is
    component i of Y_tau(L-k+1) ... Y_tauL |e0>, where s holds sites
    L-k+1..L in its k low bits, so each step prepends site L-k as bit k of
    the state and computes a level for all states in one pass.  Only levels
    <= min(k, L - k) are kept: higher ones are still zero (a step climbs at
    most one level) or can no longer return to level 0 in the L - k steps
    left.  The last step keeps level 0 alone, one integer per state.
    """
    dop, eop = rep
    ops = (eop, dop)  # a site's bit indexes its letter: 0 empty, 1 occupied
    scale = lcm(*(x.denominator for op in ops for x in (*op.lower, *op.diag, *op.upper)))

    def cleared(x) -> int:
        return x.numerator * (scale // x.denominator)

    bands = [
        [(cleared(low), cleared(mid) + offset * scale, cleared(up)) for low, mid, up in op.band_rows()]
        for op in ops
    ]
    columns = [[1]]
    for k in range(1, length + 1):
        zeros = [0] * len(columns[0])
        # level i reads levels i - 1, i and i + 1, zero past both ends
        padded = [zeros, *columns, zeros, zeros]
        stepped = []
        for i in range(min(k, length - k) + 1):
            below, level, above = padded[i : i + 3]
            column = []
            for rows in bands:
                low, mid, up = rows[i]
                column += [low * x + mid * y + up * z for x, y, z in zip(below, level, above)]
            stepped.append(column)
        columns = stepped
    return columns[0], scale**length


def _ansatz(
    length: int, p: AWParams, variant: str, rep
) -> tuple[StationaryDistribution | None, bool]:
    """The ansatz distribution on the exact (d, e) pair ``rep`` of size
    at least L//2 + 1, and whether its normalization equals the moment
    table's (see ``stationary_ansatz``).  The walk runs on the letters
    offset + x; their common factor cancels from the probabilities and
    enters the total once, as factor^L.  A weight sum of zero leaves
    nothing to normalize by: the distribution is then None, and the
    normalizations match only if the moment table's vanishes too."""
    offset, factor = _site_letter(p, variant)
    weights, scale = _transfer_weights(length, rep, offset)
    weight_sum = sum(weights)
    total = factor**length * Fraction(weight_sum, scale)
    matches = power_functional(p, length, 2 * offset * factor, factor) == total
    if total == 0:
        return None, matches
    # weight / total, with the scale and the factor cancelled: one gcd per state
    probs = tuple(Fraction(w, weight_sum) for w in weights)
    return StationaryDistribution(length=length, probabilities=probs, normalization=total), matches


def stationary_ansatz(
    length: int, p: AWParams, variant: str = "unshifted"
) -> StationaryDistribution:
    """Normalized ansatz distribution for all 2^L configurations.

    The weights come from the tridiagonal representation, shared across
    configurations by suffix.

    The normalization is then recomputed from the moment table, as the
    functional of the L-th power of the summed site letters (normal ordered
    in closed form by ``powers.power_functional``), and checked against
    the sum of the weights.  The representation and the moment table share
    nothing above the parameters, so a mismatch means one route is broken,
    and it raises; so does a normalization that vanishes on both routes.
    """
    _guard_length("stationary_ansatz", length, _GENERATOR_LIMIT)
    # a closed walk of length L from level 0 never climbs above level L//2
    dist, matches = _ansatz(length, p, variant, rep_rational(p, length // 2 + 1))
    if not matches:
        raise BiorthError("normalization mismatch between weight sum and letter-sum power")
    if dist is None:
        raise BiorthError("ansatz normalization vanishes")
    return dist


class VariantComparison(FrozenRecord):
    __slots__ = _fields = ("name", "matches_oracle", "max_abs_discrepancy")

    def __init__(self, name: str, matches_oracle: bool, max_abs_discrepancy: Fraction | None):
        self._set(name, matches_oracle, max_abs_discrepancy)


class ComparisonReport(FrozenRecord):
    """Side-by-side of ansatz variants against the certified chain state
    (None where no candidate certifies), and, for every variant built
    (the requested ones and the unshifted oracle candidate), whether its
    weight sum equals its moment-table normalization."""

    __slots__ = _fields = ("params", "rates", "length", "variants", "oracle", "normalization_matches")

    def __init__(
        self,
        params: AWParams,
        rates: HoppingRates,
        length: int,
        variants: tuple[VariantComparison, ...],
        oracle: StationaryDistribution | None,
        normalization_matches: dict[str, bool],
    ):
        self._set(params, rates, length, variants, oracle, normalization_matches)

    @property
    def matching_variants(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variants if v.matches_oracle)

    @property
    def passed(self) -> bool:
        """Some requested variant reproduces the oracle, and every variant
        built has its moment-table normalization."""
        return bool(self.matching_variants) and all(self.normalization_matches.values())

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
            "normalization_matches": self.normalization_matches,
        }


def _max_abs_difference(first: StationaryDistribution, second: StationaryDistribution) -> Fraction:
    """max |x - y| over two distributions' probabilities, on the integers
    they are cleared to: the maximum is one Fraction."""
    xs, x_scale = first.cleared
    ys, y_scale = second.cleared
    scale = lcm(x_scale, y_scale)
    x_factor, y_factor = scale // x_scale, scale // y_scale
    return Fraction(max(abs(x * x_factor - y * y_factor) for x, y in zip(xs, ys)), scale)


def compare(length: int, p: AWParams, variants=VARIANTS) -> ComparisonReport:
    """Compare the requested ansatz variants with the oracle at length L.

    Exact equality configuration by configuration; on mismatch the largest
    absolute discrepancy is recorded.  Every variant built also records
    whether its weight sum equals the moment table's normalization; unlike
    ``stationary_ansatz``, a mismatch is reported, not raised, and a
    variant whose weights sum to zero has no distribution.  The exact
    representation is built once and shared by the variants.  The oracle
    is the first of the requested variants, then the unshifted one
    (computed only as a candidate if not requested), that
    ``certify_stationary`` proves stationary, at a cost linear in the 2^L
    states.  If none certifies, the ansatz itself is wrong: the oracle is
    None, and so is every discrepancy.  Guarded with the generator it
    certifies against.
    """
    _guard_length("compare", length, _GENERATOR_LIMIT)
    rates = to_rates(p)
    # a closed walk of length L from level 0 never climbs above level L//2
    rep = rep_rational(p, length // 2 + 1)
    candidates = dict.fromkeys((*variants, "unshifted"))
    ansatz = {variant: _ansatz(length, p, variant, rep) for variant in candidates}
    dists = [dist for dist, _ in ansatz.values() if dist is not None]
    oracle = certify_stationary(length, rates, dists)
    rows = []
    for variant in variants:
        dist, _ = ansatz[variant]
        if oracle is None or dist is None:
            gap = None
        elif dist.probabilities == oracle.probabilities:
            gap = Fraction(0)
        else:
            gap = _max_abs_difference(dist, oracle)
        rows.append(VariantComparison(variant, gap == 0, gap))
    return ComparisonReport(
        params=p, rates=rates, length=length, variants=tuple(rows), oracle=oracle,
        normalization_matches={variant: ok for variant, (_, ok) in ansatz.items()},
    )
