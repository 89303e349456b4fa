"""Deterministic JSON rendering for machine-readable reports.

Reports go through the standard library encoder with fixed settings: map
keys are sorted, there is no whitespace, floats print as the shortest text
that reads back to the same double (Python's repr), exact rationals become
"p/q" strings, and NaN or infinity raises ValueError.  Any other type raises
TypeError.  Identical data therefore yields identical bytes, which the test
suite relies on.
"""

from __future__ import annotations

import json
from fractions import Fraction


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _default(obj) -> str:
    if isinstance(obj, Fraction):
        return format_rational(obj)
    raise TypeError("no JSON rendering for %r" % (type(obj),))


def dumps(obj) -> str:
    """Serialize to a compact, deterministic JSON string."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False, default=_default)
