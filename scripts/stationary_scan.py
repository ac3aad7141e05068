#!/usr/bin/env python3
"""Compare the matrix-product ansatz against the exact chain solution.

For each system size L the script evaluates both ansatz readings (shifted
letters literally vs. the substitution D = (1+d)/(1-q)), takes as the exact
chain solution the one whose master-equation residual vanishes on the
irreducible generator, and prints which one reproduces that oracle together
with the worst discrepancy of the other; where neither does, there is no
oracle and it prints ``none``.  Optionally dumps the exact site-density
profile of the stationary state.  Parameters are exact rationals, as for
the ``biorth`` command line; an unusable configuration, or a ``--max-L``
outside 1 .. ``compare``'s guard, prints one ``error:`` line and exits 2
before any size is computed.
"""

import argparse
import sys
from fractions import Fraction

from biorth import AWParams, BiorthError, compare, parse_rational, to_rates
from biorth.asep import _GENERATOR_LIMIT, config_string


def density_profile(dist):
    """Exact mean occupation per site."""
    length = dist.length
    profile = [Fraction(0)] * length
    for state, prob in enumerate(dist.probabilities):
        for site, bit in enumerate(config_string(state, length)):
            if bit == "1":
                profile[site] += prob
    return profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", default="1")
    ap.add_argument("--b", default="1/2")
    ap.add_argument("--c", default="-1/3")
    ap.add_argument("--d", default="-1/4")
    ap.add_argument("--q", default="1/2")
    ap.add_argument("--max-L", type=int, default=5, dest="max_length")
    ap.add_argument("--profile", action="store_true", help="print exact density profiles")
    args = ap.parse_args()
    if not 1 <= args.max_length <= _GENERATOR_LIMIT:
        print(
            f"error: --max-L must be between 1 and {_GENERATOR_LIMIT}, got {args.max_length}",
            file=sys.stderr,
        )
        return 2
    try:
        return scan(args)
    except BiorthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def scan(args) -> int:
    p = AWParams(*(parse_rational(x) for x in (args.a, args.b, args.c, args.d, args.q)))
    rates = to_rates(p)
    print(f"rates: alpha={rates.alpha} beta={rates.beta} gamma={rates.gamma} delta={rates.delta} q={rates.q}\n")

    matched_everywhere = True
    for length in range(1, args.max_length + 1):
        report = compare(length, p)
        matching = ", ".join(report.matching_variants) or "none"
        if report.oracle is None:
            print(f"L={length}: matching variant(s): {matching:12s} no candidate certifies")
            matched_everywhere = False
            continue
        # a variant whose weights sum to zero has no distribution, so no discrepancy
        worst = max(v.max_abs_discrepancy for v in report.variants if v.max_abs_discrepancy is not None)
        print(f"L={length}: matching variant(s): {matching:12s} worst discrepancy {worst} (~{float(worst):.3g})")
        matched_everywhere &= bool(report.matching_variants)
        if args.profile:
            profile = density_profile(report.oracle)
            rendered = "  ".join(f"{float(x):.6f}" for x in profile)
            print(f"      density profile: {rendered}")
    return 0 if matched_everywhere else 1


if __name__ == "__main__":
    sys.exit(main())
