"""Outside-in operand-size probe and check reading.

Cost in exact arithmetic follows operand size, so the benchmark measures the
largest numerator or denominator it gets back.  Both helpers read only what
the library returns: values, result objects, reports, or the parsed JSON a
CLI command printed.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")

# Attributes of the library's result objects that hold exact values: blocks,
# factors, polynomial coefficients, probability vectors and report payloads.
_VALUE_ATTRS = (
    "entries",
    "values",
    "coeffs",
    "probabilities",
    "normalization",
    "checks",
    "first_failure",
    "variants",
    "max_abs_discrepancy",
    "oracle",
)


def max_bits(value) -> int:
    """Largest numerator or denominator bit length inside ``value``.

    Walks Fractions, ints, rational strings such as ``"-3/4"`` (as printed by
    the CLI), containers (dict values only) and the exact-value attributes of
    result objects.  Booleans and other strings count as 0.
    """
    if isinstance(value, bool) or value is None:
        return 0
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, str):
        return max_bits(Fraction(value)) if _RATIONAL.match(value) else 0
    if isinstance(value, dict):
        return max((max_bits(v) for v in value.values()), default=0)
    if isinstance(value, (list, tuple)):
        return max((max_bits(v) for v in value), default=0)
    return max(
        (max_bits(getattr(value, attr)) for attr in _VALUE_ATTRS if hasattr(value, attr)),
        default=0,
    )


def check_counts(checks) -> tuple[int, int]:
    """(failed, skipped) over a report's checks.

    ``checks`` holds either ``CheckResult`` objects or their JSON dicts.  A
    skipped check carries ``pass: true`` in the library's output; it is
    counted as skipped and never as passed.
    """
    failed = skipped = 0
    for check in checks:
        if isinstance(check, dict):
            passed, was_skipped = check["pass"], bool(check.get("skipped"))
        else:
            passed, was_skipped = check.passed, check.skipped_reason is not None
        if was_skipped:
            skipped += 1
        elif not passed:
            failed += 1
    return failed, skipped
