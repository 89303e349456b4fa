"""Growth-rate comparison between a claimed quadratic cycle bound and a
constructed family of vector fields.

The claimed bound says a degree-n polynomial field admits at most
2(n-1)(4(n-1)-2) limit cycles.  The constructed family realises, at degree
2^k - 1, a cycle count of 4^(k-1)*(k - 13/6) + 2^k - 1/3, which is an
integer for every k >= 2 and grows like 4^k * k.  Since the claimed bound
at degree 2^k - 1 grows only like 8 * 4^k, the construction must
eventually exceed it.  This module computes both sequences in exact
rational arithmetic and finds the first k where the contradiction
appears.  With t = 2^k the excess is the exact identity

    constructed(k) - claimed(2^k - 1) = t^2 (k - 205/6) / 4 + 37 t - 121/3.

Its first term is positive once k > 205/6, and 37 t > 121/3 for every
k >= 2, so the excess first found at k = 35 holds at every larger k: the
threshold is certified in closed form, with no walk beyond it.  The module
also finds where the logarithmic lower envelope (n+2)^2 * log2(n+2) / 2
overtakes an arbitrary quadratic for good, and certifies that point: the
envelope minus the quadratic is concave and then convex, so a few mpmath.iv
interval enclosures of it and its first two derivatives prove the sign at
every integer, with no walk over n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

__all__ = [
    "GrowthRow",
    "claimed_quadratic_bound",
    "constructed_cycle_count",
    "contradiction_threshold",
    "log_bound_crossover",
    "comparison_rows",
    "render_comparison",
]

_DEFAULT_BITS = 80
_MAX_BITS = 1280


def claimed_quadratic_bound(n: int) -> int:
    """The claimed maximum number of limit cycles at degree n.

    Defined as 2(n-1)(4(n-1)-2) for integer n >= 2.  Expanded this is
    8n^2 - 20n + 12, a quadratic in the degree.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("degree must be an int, got %r" % (n,))
    if n < 2:
        raise ValueError("the claimed bound is defined for degree n >= 2, got %d" % n)
    m = n - 1
    return 2 * m * (4 * m - 2)


def constructed_cycle_count(k: int) -> int:
    """Number of limit cycles realised by the constructed field at
    degree 2^k - 1.

    The closed form is 4^(k-1) * (k - 13/6) + 2^k - 1/3.  Although two
    of the terms are fractional, their sum is an integer for every
    k >= 2: 13 * 4^(k-1) + 2 is divisible by 6 exactly when 4^(k-1) is
    congruent to 4 mod 6, which holds for all k >= 2.  The integrality
    is asserted, not assumed.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("index must be an int, got %r" % (k,))
    if k < 2:
        raise ValueError("the constructed count is defined for k >= 2, got %d" % k)
    value = Fraction(4) ** (k - 1) * (Fraction(k) - Fraction(13, 6)) + 2 ** k - Fraction(1, 3)
    if value.denominator != 1:
        # Internal consistency guard.  The congruence argument above makes
        # this unreachable; if it ever fires the closed form was mistyped.
        raise ArithmeticError(
            "constructed cycle count came out non-integral at k=%d: %s" % (k, value)
        )
    return value.numerator


def contradiction_threshold() -> int:
    """Smallest k >= 2 at which the constructed count exceeds the claimed
    bound evaluated at degree 2^k - 1, and at every k after it.

    The walk from k = 2 compares the two counts exactly.  Persistence is the
    closed-form excess in the module docstring, t^2 (k - 205/6) / 4 +
    37 t - 121/3 with t = 2^k, which is positive at every k > 205/6; so an
    answer of at least 35 certifies the excess at every larger k.  An answer
    below 205/6 falls outside that certificate and raises ArithmeticError.
    """
    k = 2
    while constructed_cycle_count(k) <= claimed_quadratic_bound(2 ** k - 1):
        k += 1
    if 6 * k < 205:
        raise ArithmeticError(
            "first excess at k=%d lies below 205/6, where the closed-form "
            "excess does not certify that it persists" % k)
    return k


class _Undecided(Exception):
    """An enclosure straddled 0, or an integer outgrew the working precision."""


def _h(ctx, a: Fraction, b: Fraction, c: Fraction, n: int, order: int):
    """The order-th derivative (0, 1 or 2) of h at the integer n >= 0.

    h(x) = (x+2)^2 log2(x+2)/2 - (a x^2 + b x + c).  ctx is mpmath.mp for an
    estimate or mpmath.iv for a rigorous enclosure; the quadratic's part is
    exact in rationals and rounded once.
    """
    u = ctx.mpf(n + 2)
    log2u = ctx.log(u) / ctx.ln2
    if order == 0:
        envelope, poly = u * u * log2u / 2, a * n * n + b * n + c
    elif order == 1:
        envelope, poly = u * (log2u + 1 / (2 * ctx.ln2)), 2 * a * n + b
    else:
        envelope, poly = log2u + 3 / (2 * ctx.ln2), 2 * a
    return envelope - ctx.mpf(poly.numerator) / poly.denominator


def _positive(a: Fraction, b: Fraction, c: Fraction, n: int, order: int) -> bool:
    """Certified sign test h^(order)(n) > 0.

    When n+2 is a power of two, h(n) is rational and may be exactly 0, which
    no enclosure can decide, so it is evaluated exactly.  Every other value
    tested here is nonzero (log2 of a non-power of two is irrational, and e
    is transcendental), so raising the precision eventually decides it.
    """
    if order == 0 and (n + 2) & (n + 1) == 0:
        envelope = Fraction((n + 2) ** 2 * ((n + 2).bit_length() - 1), 2)
        return envelope > a * n * n + b * n + c
    value = _h(mpmath.iv, a, b, c, n, order)
    if value.a > 0:
        return True
    if value.b <= 0:
        return False
    raise _Undecided


def _first_positive(test, lo: int, guess: int) -> int:
    """Smallest integer n >= lo with test(n), searching outward from guess.

    test must be false then true on the integers >= lo, and true from some
    point on.  The search gallops away from guess and then bisects, so a
    good guess costs a handful of tests and a poor one O(log distance).
    """
    good = max(lo, guess)
    step = 1
    if test(good):
        bad = good - 1
        while bad >= lo and test(bad):
            good, step = bad, 2 * step
            bad = max(lo - 1, good - step)
    else:
        bad, good = good, good + 1
        while not test(good):
            bad, step = good, 2 * step
            good = bad + step
    while good - bad > 1:
        mid = (good + bad) // 2
        if test(mid):
            good = mid
        else:
            bad = mid
    return good


def _newton(a: Fraction, b: Fraction, c: Fraction, n: int, order: int, bits: int) -> int:
    """Integer Newton iterate toward a zero of h^(order), starting at n.

    Steps are truncated toward zero, so an iterate never passes the zero when
    the iteration approaches it monotonically: from the right on a convex
    increasing stretch, from the left on a concave increasing one.
    """
    for _ in range(64):
        if n.bit_length() > bits:
            raise _Undecided
        slope = _h(mpmath.mp, a, b, c, n, order + 1)
        if slope <= 0:
            break
        step = int(_h(mpmath.mp, a, b, c, n, order) / slope)
        if step == 0:
            break
        n = max(0, n - step)
    return n


def _right_of_zero(a: Fraction, b: Fraction, c: Fraction, n: int, order: int, bits: int) -> int:
    """An integer >= n where h^(order) is estimated positive, by doubling."""
    while _h(mpmath.mp, a, b, c, n, order) <= 0:
        n = 2 * n + 2
        if n.bit_length() > bits:
            raise _Undecided
    return n


def _certified_crossing(a: Fraction, b: Fraction, c: Fraction, bits: int) -> int:
    """The crossover, every sign certified at the given precision.

    h'' increases, so with p the first integer where h'' > 0, h is concave
    on [0, p-1] and convex on [p, oo).  h' increases on the convex part; with
    q the first integer >= p where h' > 0, h decreases on [p, q-1] and
    increases on [q, oo).  Then:

    * if h(q) <= 0 the answer N is the first integer >= q with h(N) > 0;
    * else if q > p and h(q-1) <= 0 it is q;
    * else h > 0 at every integer >= p, and on the concave part the
      integers where h > 0 form a run ending at p-1 (a concave function is
      positive between two points where it is positive), whose first
      element is the answer.

    Each search is seeded by a Newton estimate in mpmath and settled with
    certified tests, raising _Undecided when an enclosure straddles 0.  The
    caller sets both mpmath contexts to the given precision.
    """
    def test(order):
        return lambda n: _positive(a, b, c, n, order)

    # h''(x) = 0 at x = 2^(2a) e^(-3/2) - 2
    two_a = 2 * mpmath.mpf(a.numerator) / a.denominator
    inflection = mpmath.power(2, two_a) * mpmath.exp(-1.5) - 2
    if mpmath.mag(inflection) > bits:
        raise _Undecided
    p = _first_positive(test(2), 0, int(mpmath.floor(inflection)) + 1)

    q = p
    if not _positive(a, b, c, p, 1):
        start = _right_of_zero(a, b, c, p, 1, bits)
        q = _first_positive(test(1), p, _newton(a, b, c, start, 1, bits))
    if not _positive(a, b, c, q, 0):
        start = _right_of_zero(a, b, c, q, 0, bits)
        return _first_positive(test(0), q, _newton(a, b, c, start, 0, bits))
    if q > p and not _positive(a, b, c, q - 1, 0):
        return q

    if p == 0 or not _positive(a, b, c, p - 1, 0):
        return p
    if _positive(a, b, c, 0, 0):
        return 0
    return _first_positive(test(0), 0, _newton(a, b, c, 0, 0, bits))


def log_bound_crossover(a, b, c) -> int:
    """Smallest n such that (m+2)^2 * log2(m+2) / 2 > a*m^2 + b*m + c for
    every m >= n.

    The quadratic must open upward or be linear (a >= 0); coefficients
    may be any rationals.  Returns 0 when the logarithmic envelope
    dominates from the start.  The answer is certified: the difference
    h(x) = envelope - quadratic is concave and then convex, and the signs
    of h, h' and h'' that pin the last integer with h <= 0 are proved with
    mpmath.iv interval enclosures (h is evaluated exactly where n+2 is a
    power of two, the only places it can vanish).  An enclosure that
    straddles 0 doubles the precision, which starts at 80 bits; past 1280
    bits ArithmeticError is raised.  Since the precision escalates until
    every sign is decided, the starting value never changes the answer.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a < 0:
        raise ValueError("quadratic coefficient must be nonnegative, got %s" % a)
    current = _DEFAULT_BITS
    saved = mpmath.iv.prec
    try:
        while True:
            mpmath.iv.prec = current
            try:
                with mpmath.workprec(current):
                    return _certified_crossing(a, b, c, current)
            except _Undecided:
                if current >= _MAX_BITS:
                    break
                current = min(2 * current, _MAX_BITS)
    finally:
        mpmath.iv.prec = saved
    raise ArithmeticError(
        "crossover for %s*n^2 + %s*n + %s could not be certified below %d bits"
        % (a, b, c, _MAX_BITS)
    )


@dataclass(frozen=True)
class GrowthRow:
    """One row of the growth comparison table."""

    k: int
    degree: int
    constructed: int
    claimed: int
    contradiction: bool


def comparison_rows(k_hi: int) -> tuple[GrowthRow, ...]:
    """Exact comparison table rows for k in [2, k_hi]."""
    if k_hi < 2:
        raise ValueError("empty table range [2, %d]" % k_hi)
    rows = []
    for k in range(2, k_hi + 1):
        degree = 2 ** k - 1
        constructed = constructed_cycle_count(k)
        claimed = claimed_quadratic_bound(degree)
        rows.append(GrowthRow(k, degree, constructed, claimed, constructed > claimed))
    return tuple(rows)


def render_comparison(rows: tuple[GrowthRow, ...]) -> str:
    """Plain-text table with one line per k."""
    header = ("k", "degree", "constructed", "claimed", "exceeds")
    cells = [header]
    for row in rows:
        cells.append(
            (
                str(row.k),
                str(row.degree),
                str(row.constructed),
                str(row.claimed),
                "yes" if row.contradiction else "no",
            )
        )
    widths = [max(len(line[col]) for line in cells) for col in range(5)]
    lines = []
    for line in cells:
        lines.append("  ".join(text.rjust(width) for text, width in zip(line, widths)))
    return "\n".join(lines)
