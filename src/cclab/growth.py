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
envelope minus the quadratic is concave and then convex, so a few rational
enclosures of it and its first two derivatives prove the sign at every
integer, with no walk over n.  They rest on an integer log2 enclosure (two
fixed-point squaring chains, one rounded down and one up) and the series
ln 2 = sum 1/(k 2^k), in Python ints and Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


def _grid(bits: int) -> int:
    """Fraction bits of the fixed-point grid used at a working precision:
    bits, plus guard bits that absorb one rounding per bit."""
    return bits + bits.bit_length() + 2


def _log2_bounds(u: int, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= log2(u) <= hi for an integer u >= 1, with hi - lo <= 3 / 2^bits.

    Write u = 2^e m with m in [1, 2).  Squaring m, and halving whenever the
    square reaches 2, emits the binary digits of log2 m: after k squarings
    log2 m = D / 2^k + log2(x) / 2^k, where D collects the halvings and x is
    the remainder.  Two fixed-point chains run this bits times, one rounding
    every square down and one up.  Rounding down only shrinks what the later
    digits add, and that remainder stays >= 1, so the first chain's
    D / 2^bits is a lower bound.  Rounding up only grows it, and that
    remainder stays <= 2 (a square of exactly 4 counts as two halvings), so
    the second chain's (D + 1) / 2^bits is an upper bound.  Step i rounds at
    2^-(w-i), an error weighted 2^-i in log2 m, so each step costs about
    2^-w, and the guard bits of w keep the sum below 2^-bits.
    """
    e = u.bit_length() - 1
    w = _grid(bits)
    if e <= w:
        lo = hi = u << (w - e)
    else:
        lo = u >> (e - w)
        hi = -(-u >> (e - w))
    d_lo = d_hi = 0
    # a chain holds x * 2^p in p + 1 bits; its square has 2p + 1 bits, or
    # one more when it reaches 2, and that extra bit is the digit
    for p in range(w, w - bits, -1):
        square = lo * lo
        size = square.bit_length()
        lo = square >> (size - p)
        d_lo = 2 * d_lo + size - 2 * p - 1
        square = hi * hi
        size = square.bit_length()
        hi = -(-square >> (size - p))
        d_hi = 2 * d_hi + size - 2 * p - 1
    return (Fraction((e << bits) + d_lo, 1 << bits),
            Fraction((e << bits) + d_hi + 1, 1 << bits))


@lru_cache(maxsize=None)
def _half_inv_ln2_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """lo <= 1 / (2 ln 2) <= hi, both on the grid 2^-_grid(bits).

    ln 2 is the sum over k >= 1 of 1 / (k 2^k), and the tail after the first
    w terms is below 1 / ((w + 1) 2^w).  Each of the w terms is rounded down
    to the grid 2^-w, so ln 2 lies in [S, S + w + 1] / 2^w for their sum S.
    """
    w = _grid(bits)
    total = sum((1 << (w - k)) // k for k in range(1, w + 1))
    return (Fraction((1 << 2 * w) // (2 * (total + w + 1)), 1 << w),
            Fraction(-(-(1 << 2 * w) // (2 * total)), 1 << w))


def _on_grid(value: Fraction, w: int) -> int:
    """The numerator of a dyadic value over 2^w (its denominator divides 2^w)."""
    return value.numerator * ((1 << w) // value.denominator)


def _precisions(bits: int) -> list[int]:
    """Precisions a Newton search climbs through, coarse to fine, ending at
    bits and starting at or below _DEFAULT_BITS.  Each is a quarter of the
    next one's grid, so a few bits over a quarter of the next: the search
    leaves a precision good to about that many bits, which puts its steps
    at the next one within reach of _Envelope's series around one chain."""
    levels = [bits]
    while levels[-1] > _DEFAULT_BITS:
        levels.append(_grid(levels[-1]) // 4)
    return levels[::-1]


class _Envelope:
    """Enclosures of h(x) = (x+2)^2 log2(x+2)/2 - (a x^2 + b x + c) and of
    its derivatives at the integers, at any working precision.

    Enclosures are held as numerators over 2^w, w = _grid(bits).  Each
    log2(u) comes from _log2_bounds, unless a chain at the same precision
    ran at some v with |u - v| <= v / 2^(bits/4 + 1).  Then
    log2 u = log2 v + ln(1 + t) / ln 2 with t = (u - v) / v, and for
    |t| <= 1/2 the series ln(1 + t) = t - t^2/2 + t^3/3 - ... leaves at
    most t^4/2 after its third term.  That enclosure is used only when it
    is no wider than 3 / 2^bits, the chains' own bound.  A Newton search's
    steps at the working precision and the certified tests around its
    answer all lie that close to the point of its first chain there.
    """

    def __init__(self, a: Fraction, b: Fraction, c: Fraction) -> None:
        self.a, self.b, self.c = a, b, c
        self._logs: dict[tuple[int, int], tuple[int, int]] = {}
        self._chained: dict[int, list[int]] = {}

    def _log2(self, u: int, bits: int) -> tuple[int, int]:
        """Numerators over 2^_grid(bits) enclosing log2(u)."""
        found = self._logs.get((u, bits))
        if found is not None:
            return found
        w = _grid(bits)
        k_lo, k_hi = (_on_grid(k, w) for k in _half_inv_ln2_bounds(bits))
        for v in self._chained.setdefault(bits, []):
            if abs(u - v) << (bits // 4 + 1) > v:
                continue
            # t lies in [s, s + 1] / 2^w; cubic is 6 * 2^(3w) times
            # x - x^2/2 + x^3/3 at x = s / 2^w
            s = ((u - v) << w) // v
            cubic = ((6 * s << w) - 3 * s * s << w) + 2 * s ** 3
            # the series leaves at most x^4 / 2 after the cubic, and
            # ln(1 + x) grows by at most 2 / 2^w across [s, s + 1] / 2^w
            rest = -(-(abs(s) + 1) ** 4 >> 3 * w + 1)
            ln_lo = (cubic >> 2 * w) // 6 - rest
            ln_hi = -((-cubic >> 2 * w) // 6) + rest + 2
            # 1 / ln 2 lies in [2 k_lo, 2 k_hi]
            v_lo, v_hi = self._logs[(v, bits)]
            lo = v_lo + (2 * ln_lo * (k_hi if ln_lo < 0 else k_lo) >> w)
            hi = v_hi - (-2 * ln_hi * (k_lo if ln_hi < 0 else k_hi) >> w)
            if hi - lo <= 3 << (w - bits):
                self._logs[(u, bits)] = lo, hi
                return lo, hi
        found = tuple(_on_grid(bound, w) for bound in _log2_bounds(u, bits))
        self._logs[(u, bits)] = found
        self._chained[bits].append(u)
        return found

    def _numerators(self, n: int, order: int, bits: int) -> tuple[int, int, int]:
        """lo, hi and den > 0 with h^(order)(n) in [lo, hi] / den."""
        u = n + 2
        w = _grid(bits)
        k_lo, k_hi = (_on_grid(k, w) for k in _half_inv_ln2_bounds(bits))
        if order == 3:
            # h'''(x) = 1 / ((x+2) ln 2)
            return 2 * k_lo, 2 * k_hi, u << w
        l_lo, l_hi = self._log2(u, bits)
        a, b, c = self.a, self.b, self.c
        if order == 0:
            lo, hi, shift = u * u * l_lo, u * u * l_hi, w + 1
            poly = a * n * n + b * n + c
        elif order == 1:
            lo, hi, shift = u * (l_lo + k_lo), u * (l_hi + k_hi), w
            poly = 2 * a * n + b
        else:
            lo, hi, shift = l_lo + 3 * k_lo, l_hi + 3 * k_hi, w
            poly = 2 * a
        p, q = poly.numerator << shift, poly.denominator
        return lo * q - p, hi * q - p, q << shift

    def enclose(self, n: int, order: int, bits: int) -> tuple[Fraction, Fraction]:
        """lo <= h^(order)(n) <= hi at the integer n >= 0, order 0 to 3."""
        lo, hi, den = self._numerators(n, order, bits)
        return Fraction(lo, den), Fraction(hi, den)

    def estimate(self, n: int, order: int, bits: int) -> Fraction:
        """The midpoint of the enclosure of h^(order)(n)."""
        lo, hi, den = self._numerators(n, order, bits)
        return Fraction(lo + hi, 2 * den)


def _positive(env: _Envelope, n: int, order: int, bits: int) -> bool:
    """Certified sign test h^(order)(n) > 0.

    When n+2 is a power of two, h(n) is rational and may be exactly 0, which
    no enclosure can decide, so it is evaluated exactly.  Every other value
    tested here is nonzero (log2 of a non-power of two is irrational, and e
    is transcendental), so raising the precision eventually decides it.
    """
    if order == 0 and (n + 2) & (n + 1) == 0:
        envelope = Fraction((n + 2) ** 2 * ((n + 2).bit_length() - 1), 2)
        return envelope > env.a * n * n + env.b * n + env.c
    lo, hi = env.enclose(n, order, bits)
    if lo > 0:
        return True
    if hi <= 0:
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


def _newton(env: _Envelope, n: int, order: int, bits: int) -> int:
    """Integer Newton iterate toward a zero of h^(order), starting at n.

    Steps are truncated toward zero, so an iterate never passes the zero when
    the iteration approaches it monotonically: from the right on a convex
    increasing stretch, from the left on a concave increasing one.  Each step
    divides enclosure midpoints.  It starts at the coarsest of
    _precisions(bits) and moves up one once a step falls below
    n / 2^(precision/2), after which that precision cannot improve n, so
    only the last steps pay for the working precision.
    """
    levels = _precisions(bits)
    level = 0
    for _ in range(64):
        if n.bit_length() > bits:
            raise _Undecided
        precision = levels[level]
        slope = env.estimate(n, order + 1, precision)
        if slope <= 0:
            break
        step = int(env.estimate(n, order, precision) / slope)
        if step == 0 and precision == bits:
            break
        n = max(0, n - step)
        if precision < bits and abs(step) << (precision // 2) <= n:
            level += 1
    return n


def _right_of_zero(env: _Envelope, n: int, order: int, bits: int) -> int:
    """An integer >= n where h^(order) is estimated positive, by doubling."""
    precision = _precisions(bits)[0]
    while env.estimate(n, order, precision) <= 0:
        n = 2 * n + 2
        if n.bit_length() > bits:
            raise _Undecided
    return n


def _certified_crossing(env: _Envelope, bits: int) -> int:
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

    Each search is seeded by a Newton estimate and settled with certified
    tests, raising _Undecided when an enclosure straddles 0.
    """
    def test(order):
        return lambda n: _positive(env, n, order, bits)

    # h''(x) = 0 where log2(x+2) = 2a - 3 / (2 ln 2); Newton on h'' starts
    # at the power of two below that point
    k_lo, k_hi = _half_inv_ln2_bounds(bits)
    exponent = 2 * env.a - 3 * (k_lo + k_hi) / 2
    if exponent >= bits:
        raise _Undecided
    guess = 0
    if exponent >= 1:
        guess = _newton(env, (1 << int(exponent)) - 2, 2, bits) + 1
    p = _first_positive(test(2), 0, guess)

    q = p
    if not _positive(env, p, 1, bits):
        start = _right_of_zero(env, p, 1, bits)
        q = _first_positive(test(1), p, _newton(env, start, 1, bits))
    if not _positive(env, q, 0, bits):
        start = _right_of_zero(env, q, 0, bits)
        return _first_positive(test(0), q, _newton(env, start, 0, bits))
    if q > p and not _positive(env, q - 1, 0, bits):
        return q

    if p == 0 or not _positive(env, p - 1, 0, bits):
        return p
    if _positive(env, 0, 0, bits):
        return 0
    return _first_positive(test(0), 0, _newton(env, 0, 0, bits))


def log_bound_crossover(a, b, c) -> int:
    """Smallest n such that (m+2)^2 * log2(m+2) / 2 > a*m^2 + b*m + c for
    every m >= n.

    The quadratic must open upward or be linear (a >= 0); coefficients
    may be any rationals.  Returns 0 when the logarithmic envelope
    dominates from the start.  The answer is certified: the difference
    h(x) = envelope - quadratic is concave and then convex, and the signs
    of h, h' and h'' that pin the last integer with h <= 0 are proved with
    rational enclosures built on an integer log2 enclosure, two fixed-point
    squaring chains rounded down and up (h is evaluated exactly where n+2
    is a power of two, the only places it can vanish).  An enclosure that
    straddles 0 doubles the precision, which starts at 80 bits; past 1280
    bits ArithmeticError is raised.  Since the precision escalates until
    every sign is decided, the starting value never changes the answer.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a < 0:
        raise ValueError("quadratic coefficient must be nonnegative, got %s" % a)
    env = _Envelope(a, b, c)
    current = _DEFAULT_BITS
    while True:
        try:
            return _certified_crossing(env, current)
        except _Undecided:
            if current >= _MAX_BITS:
                break
            current = min(2 * current, _MAX_BITS)
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
