"""Certified real-root counting and isolation for univariate polynomials.

Counting uses Sturm chains computed fraction-free on a polynomial's
primitive integer part ``UniPoly.ints`` (the rational content has no sign
variation to add), and the remainder sequence applies pseudo-division with
positive scaling plus content stripping, which keeps coefficient growth
polynomial instead of exponential.

Isolation and refinement run in integers on one root context per
polynomial (:class:`RootContext`): its square-free part, with any root at a
rational region endpoint divided out, over the region [lo, hi] (the Cauchy
bound stands in for an infinite end).  One remainder sequence serves both
the square-free part and the Sturm chain: the chain of p ends in
gcd(p, p'), and when that is constant the chain is the square-free part's.
The region is mapped to t in [0, 1] once, by an integer Taylor shift of
each Sturm polynomial, so that every point the search visits is a dyadic
t = j/2^k and every sign is one integer Horner pass.  The search returns exactly the intervals of plain bisection
on [lo, hi]: halve an interval holding several roots, keep one holding one
root, and halve that until it is narrower than ``DEFAULT_WIDTH``, with a
midpoint that is itself a root returned exactly.  Four things make it
cheaper than evaluating that tree point by point:

* the sign variations of the chain are computed once per grid point;
* a half beyond the Fujiwara bound, rounded up to a power of two, holds no
  root, which needs no Sturm count;
* when a midpoint is a root, the width 2*delta of the interval around it is
  found by galloping and then bisecting on the halving exponent.  "No root
  at mid +- delta and one root in (mid - delta, mid + delta]" holds exactly
  when delta is below the distance to the nearest other root, so the test
  is monotone and the search finds the first delta of the halving loop;
* refinement is quadratic interval refinement (Abbott 2006) on the
  isolating interval's own bisection grid at the final level: a secant
  guess is checked by exact signs at the grid points around it, and a
  failed guess falls back to one halving.  The root lies in one cell of
  that grid, or on one of its points, so the result is the same cell, or
  the same exact root, that halving returns.

Isolation also decides, once, whether each root is rational.  With c the
leading coefficient of the primitive square-free part, a rational root u/v
in lowest terms has v | c (rational root theorem), so once c times the
interval's width is below 1 the interval holds at most one candidate m/c,
and one exact evaluation settles it.  A rational root is returned exactly,
and an interval that is not exact holds an irrational root, so no later
stage looks for rationals.

Everything is exact; widths like 1e-9 are exact rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd, lcm

from .polynomials import UniPoly, _horner, _trim

DEFAULT_WIDTH = Fraction(1, 10**9)

# --- integer coefficient lists (lowest degree first, no trailing zeros) -----


def _primitive(coeffs: list[int]) -> list[int]:
    """The coefficients over their gcd, sign kept."""
    coeffs = _trim(list(coeffs))
    c = gcd(*coeffs)
    return [a // c for a in coeffs] if c > 1 else coeffs


def _int_eval_sign(coeffs, point: Fraction) -> int:
    """Exact sign of the polynomial at a rational point, via integer Horner."""
    # the value is off by the factor den^deg > 0
    total = _horner(coeffs, point.numerator, point.denominator)
    return (total > 0) - (total < 0)


def _sign_at_infinity(coeffs: list[int], positive: bool) -> int:
    if not coeffs:
        return 0
    lead = coeffs[-1]
    s = (lead > 0) - (lead < 0)
    if positive:
        return s
    return s if (len(coeffs) - 1) % 2 == 0 else -s


def _pseudo_rem_scaled(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b, scaled so the result differs from the true
    rational remainder by a positive factor only.

    Each elimination step multiplies the running remainder by |lead(b)| and
    subtracts a shifted multiple of b; the scale stays positive throughout,
    which is what the Sturm sign-variation argument needs.
    """
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    alb = abs(lb)
    sgn = 1 if lb > 0 else -1
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1
        coeff = rem[k]
        if coeff == 0:
            rem.pop()
            continue
        rem = [c * alb for c in rem]
        shift = k - db
        csub = coeff * sgn
        for i in range(db + 1):
            rem[shift + i] -= csub * b[i]
        rem.pop()  # leading entry cancelled exactly
        _trim(rem)
    return _trim(rem)


def sturm_chain(p: UniPoly) -> list[list[int]]:
    """The Sturm chain of p's primitive part ``p.ints``, as primitive
    integer polynomials."""
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [list(p.ints)]
    p1 = list(p.derivative().ints)
    if p1:
        chain.append(p1)
        while True:
            rem = _pseudo_rem_scaled(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(_primitive([-c for c in rem]))
    return chain


def _variations(signs: list[int]) -> int:
    cleaned = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(cleaned, cleaned[1:]) if a * b < 0)


def count_real_roots(p: UniPoly) -> int:
    """Number of distinct real roots of p."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    if p.degree == 0:
        return 0
    chain = sturm_chain(p)
    return (_variations([_sign_at_infinity(q, False) for q in chain])
            - _variations([_sign_at_infinity(q, True) for q in chain]))


# --- gcd, square-free part, Yun multiplicity decomposition ------------------


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Primitive gcd with positive leading coefficient (1 for coprime inputs)."""
    if a.var != b.var:
        raise ValueError(f"variable names differ: {a.var!r} vs {b.var!r}")
    fa, fb = a.ints, b.ints
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem_scaled(fa, fb))
    # fa is primitive, so its sign is all the content there is to remove
    return UniPoly._make(Fraction(-1 if fa and fa[-1] < 0 else 1), fa, a.var)


def square_free_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.is_zero() or p.degree == 0:
        return p
    g = unipoly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return p.divexact(g)


def yun_factors(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Square-free decomposition: pairs (factor, multiplicity), factors coprime.

    The product of factor**multiplicity equals p up to a constant.
    """
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    if p.degree <= 0:
        return []
    out: list[tuple[UniPoly, int]] = []
    g = unipoly_gcd(p, p.derivative())
    if g.degree <= 0:
        return [(p, 1)]
    w = p.divexact(g)
    y = p.derivative().divexact(g)
    i = 1
    while w.degree > 0:
        z = y - w.derivative()
        fi = unipoly_gcd(w, z)
        if fi.degree > 0:
            out.append((fi, i))
        w = w.divexact(fi) if fi.degree > 0 else w
        y = z.divexact(fi) if fi.degree > 0 else z
        i += 1
    return out


def root_multiplicity(p: UniPoly, interval: RootInterval) -> int:
    """Multiplicity in p of the single root isolated by ``interval``."""
    for factor, mult in yun_factors(p):
        if interval.exact is not None:
            if factor.eval_at(interval.exact) == 0:
                return mult
        else:
            slo = _int_eval_sign(factor.ints, interval.lo)
            shi = _int_eval_sign(factor.ints, interval.hi)
            if slo == 0 or shi == 0 or slo != shi:
                return mult
    raise ValueError("interval does not isolate a root of p")


# --- isolation ---------------------------------------------------------------


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root: lo <= root <= hi, exact when known rational."""

    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None

    @property
    def midpoint(self) -> Fraction:
        return self.exact if self.exact is not None else (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def root_bound(p: UniPoly) -> Fraction:
    """A bound M with every real root strictly inside (-M, M) (Cauchy)."""
    if p.is_zero() or p.degree <= 0:
        return Fraction(1)
    return 1 + Fraction(max(map(abs, p.ints[:-1])), p.ints[-1])


def _fujiwara_bound(coeffs: list[int]) -> Fraction:
    """A power of two B with every root strictly inside (-B, B).

    Fujiwara: with mu = max_i |a_(d-i) / a_d|^(1/i), p(z) != 0 once
    |z| >= 2 mu.  Bounding each ratio through bit lengths gives
    mu <= 2^e, so B = 2^(e + 1).
    """
    d = len(coeffs) - 1
    lead_bits = abs(coeffs[-1]).bit_length()
    exponent = None
    for i in range(1, d + 1):
        c = coeffs[d - i]
        if c:
            # |c / lead| < 2^(bits(c) - lead_bits + 1); the ceiling of that
            # exponent over i
            e_i = -((lead_bits - 1 - abs(c).bit_length()) // i)
            exponent = e_i if exponent is None else max(exponent, e_i)
    # no lower coefficient: the polynomial is a multiple of t, root 0
    return Fraction(2) ** (exponent + 1) if exponent is not None else Fraction(1)


def _taylor_map(coeffs: list[int], num: int, scale: int, den: int) -> list[int]:
    """den^d * q((num + scale * t) / den) as integer coefficients in t.

    q has degree d; den > 0 and scale > 0, so the result has q's sign at
    the image of every t.  Homogeneous Horner, O(d^2) integer products.
    """
    out = [coeffs[-1]]
    power = 1
    for c in reversed(coeffs[:-1]):
        power *= den
        nxt = [num * a for a in out]
        nxt.append(0)
        for i, a in enumerate(out):
            nxt[i + 1] += scale * a
        nxt[0] += c * power
        out = nxt
    return out


def _value_at(coeffs: list[int], num: int, level: int) -> int:
    """2^(level * d) * q(num / 2^level): q's sign, and its value at a common
    scale for every point of one level."""
    it = reversed(coeffs)
    total = next(it)
    shift = 0
    for c in it:
        shift += level
        total = total * num + (c << shift)
    return total


def _first_true(holds) -> int:
    """The least i >= 0 with holds(i), for a test that fails below some i
    and holds from there on: gallop up, then bisect."""
    if holds(0):
        return 0
    miss, hit = 0, 1
    while not holds(hit):
        miss, hit = hit, 2 * hit
    while hit - miss > 1:
        probe = (miss + hit) // 2
        if holds(probe):
            hit = probe
        else:
            miss = probe
    return hit


class RootContext:
    """A polynomial's square-free part over a region, mapped to t in [0, 1].

    ``sqf`` is the square-free part with any root at a rational region
    endpoint divided out, so its roots in the region are the polynomial's
    and none sits on an endpoint.  A point x = (num + scale * t) / den of
    the region is addressed by its t; ``mapped`` is sqf as a polynomial in
    t (None when sqf is constant or the region is empty).  ``chain`` is
    sqf's Sturm chain when the polynomial is sqf itself, else None
    (isolation builds it).  One context serves one polynomial's isolation
    and every later refinement of its intervals; :func:`isolate_real_roots`
    puts it on the report.
    """

    __slots__ = ("sqf", "chain", "num", "scale", "den", "mapped")

    def __init__(self, p: UniPoly,
                 region: tuple[Fraction | None, Fraction | None] = (None, None)):
        if p.is_zero():
            raise ValueError("cannot isolate roots of the zero polynomial")
        # the chain ends in gcd(p, p') up to a constant: when that is a
        # constant, p is square-free and the chain is already sqf's
        chain = sturm_chain(p)
        sqf = p if len(chain[-1]) == 1 else p.divexact(UniPoly(chain[-1], p.var))
        # a rational endpoint that happens to be a root is excluded from the
        # open region; divide the corresponding linear factor out so Sturm
        # counts stay valid without nudging (which could skip a nearby root)
        for endpoint in region:
            if endpoint is not None and sqf.eval_at(endpoint) == 0:
                sqf = sqf.divexact(UniPoly([-endpoint, 1], sqf.var))
        self.sqf = sqf
        self.chain = chain if sqf is p else None
        self.mapped = None
        if sqf.degree <= 0:
            return
        lo, hi = region
        if lo is None or hi is None:
            bound = root_bound(sqf)
            lo = -bound if lo is None else Fraction(lo)
            hi = bound if hi is None else Fraction(hi)
        if lo >= hi:
            return
        self.den = lcm(lo.denominator, hi.denominator)
        self.num = lo.numerator * (self.den // lo.denominator)
        self.scale = hi.numerator * (self.den // hi.denominator) - self.num
        self.mapped = self._map(sqf.ints)

    def _map(self, coeffs) -> list[int]:
        return _taylor_map(coeffs, self.num, self.scale, self.den)

    def _point(self, j: int, level: int) -> Fraction:
        """The x of t = j / 2^level."""
        return Fraction((self.num << level) + self.scale * j, self.den << level)

    def _grid(self, x: Fraction) -> tuple[int, int]:
        """(j, level) with t = j / 2^level the image of x."""
        t = Fraction(x * self.den - self.num, self.scale)
        level = t.denominator.bit_length() - 1
        if t.denominator != 1 << level:
            raise ValueError("the interval does not come from this root context")
        return t.numerator, level

    def isolate(self) -> tuple[RootInterval, ...]:
        """Every root in the region: a rational one exactly, any other
        isolated and refined to DEFAULT_WIDTH."""
        if self.mapped is None:
            return ()
        chain = self.chain if self.chain is not None else sturm_chain(self.sqf)
        # a midpoint at or beyond this bound splits off a half with no root
        bound = _fujiwara_bound(chain[0])
        low = Fraction(-bound * self.den - self.num, self.scale)
        high = Fraction(bound * self.den - self.num, self.scale)
        chain = [self.mapped] + [self._map(q) for q in chain[1:]]
        memo: dict[tuple[int, int], int | None] = {}

        def variations(j: int, level: int) -> int | None:
            """The chain's sign variations at t = j / 2^level, None at a root."""
            zeros = min((j & -j).bit_length() - 1, level) if j else level
            j, level = j >> zeros, level - zeros
            if (j, level) not in memo:
                values = [_value_at(q, j, level) for q in chain]
                memo[j, level] = (None if values[0] == 0 else
                                  _variations([(v > 0) - (v < 0) for v in values]))
            return memo[j, level]

        found: list[RootInterval] = []
        # (a, b, k, count): count roots with t in (a / 2^k, b / 2^k]
        stack = [(0, 1, 0, variations(0, 0) - variations(1, 0))]
        while stack:
            a, b, k, count = stack.pop()
            if count == 1:
                found.append(self._exact_if_rational(
                    self._refine_cell(a, b, k, DEFAULT_WIDTH)))
            if count < 2:
                continue
            m, deep = a + b, k + 1
            left_end = right_end = m
            if m * low.denominator <= low.numerator << deep:
                left = 0
            elif m * high.denominator >= high.numerator << deep:
                left = count
            elif (v_mid := variations(m, deep)) is not None:
                left = variations(a, k) - v_mid
            else:
                x = self._point(m, deep)
                found.append(RootInterval(x, x, exact=x))
                count -= 1

                # step delta = (b - a) / 2^(k + 2 + i) off the root at mid
                def ends(i: int) -> tuple[int, int, int]:
                    return ((m << (i + 1)) - (b - a), (m << (i + 1)) + (b - a),
                            k + 2 + i)

                def isolates(i: int) -> bool:
                    lo_end, hi_end, level = ends(i)
                    v_lo, v_hi = variations(lo_end, level), variations(hi_end, level)
                    return None not in (v_lo, v_hi) and v_lo - v_hi == 1

                left_end, right_end, deep = ends(_first_true(isolates))
                left = variations(a, k) - variations(left_end, deep)
            shift = deep - k
            stack.append((a << shift, left_end, deep, left))
            stack.append((right_end, b << shift, deep, count - left))
        found.sort(key=lambda iv: (iv.lo, iv.hi))
        return tuple(found)

    def refine(self, iv: RootInterval, width: Fraction) -> RootInterval:
        """Shrink an interval of this context that isolates one root."""
        if iv.exact is not None:
            return iv
        if self.mapped is None:
            raise ValueError("the interval does not come from this root context")
        a, k_lo = self._grid(iv.lo)
        b, k_hi = self._grid(iv.hi)
        k = max(k_lo, k_hi)
        return self._refine_cell(a << (k - k_lo), b << (k - k_hi), k, width)

    def _exact_if_rational(self, iv: RootInterval) -> RootInterval:
        """``iv``, or its root exactly when that root is rational.

        With c > 0 the leading entry of ``sqf.ints``, a rational root u/v in
        lowest terms has v | c (rational root theorem), so c * root is an
        integer.  Once c * width < 1 the interval holds at most one point
        m / c, and one exact evaluation there settles it.
        """
        if iv.exact is not None:
            return iv
        c = self.sqf.ints[-1]
        tight = iv if c * iv.width < 1 else self.refine(iv, Fraction(1, 2 * c))
        if tight.exact is not None:
            return tight
        x = Fraction(ceil(c * tight.lo), c)
        if x <= tight.hi and _int_eval_sign(self.sqf.ints, x) == 0:
            return RootInterval(x, x, exact=x)
        return iv

    def _refine_cell(self, a: int, b: int, k: int,
                     width: Fraction) -> RootInterval:
        """The interval t in [a / 2^k, b / 2^k], holding one simple root and
        none at either end, halved until it is no wider than ``width``.

        Grid point i of level n is (a 2^n + (b - a) i) / 2^(k + n).  The
        search keeps one cell [i, i + 1] of level ``depth`` with end values
        va and vb of opposite signs.  A step of q levels guesses the
        sub-cell from the secant through the two end values and checks it
        by the signs at its ends; q doubles after a hit, while a miss
        halves q (to no less than 2) and halves the cell once instead.
        """
        mapped, gap, degree = self.mapped, b - a, len(self.mapped) - 1

        def value(i: int, depth: int) -> int:
            return _value_at(mapped, (a << depth) + gap * i, k + depth)

        def root(i: int, depth: int) -> RootInterval:
            x = self._point((a << depth) + gap * i, k + depth)
            return RootInterval(x, x, exact=x)

        ratio = Fraction(self.scale * gap, self.den << k) / width
        if ratio <= 1:
            return RootInterval(self._point(a, k), self._point(b, k))
        n = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
        cell, depth, q = 0, 0, 2
        va, vb = value(0, 0), value(1, 0)
        positive = va > 0
        while depth < n:
            q = min(q, n - depth)
            if q >= 2:
                steps, base, deeper = 1 << q, cell << q, depth + q
                known = {0: va << (q * degree), steps: vb << (q * degree)}

                def at(i: int) -> int:
                    if i not in known:
                        known[i] = value(base + i, deeper)
                    return known[i]

                diff = va - vb
                guess = min(max((2 * steps * va + diff) // (2 * diff), 1),
                            steps - 1)
                c = guess if (at(guess) > 0) == positive else guess - 1
                for i in (guess, c, c + 1):
                    if at(i) == 0:
                        return root(base + i, deeper)
                if (at(c) > 0) == positive != (at(c + 1) > 0):
                    cell, va, vb, depth, q = base + c, at(c), at(c + 1), deeper, 2 * q
                    continue
                q = max(2, q // 2)
            v = value(2 * cell + 1, depth + 1)
            if v == 0:
                return root(2 * cell + 1, depth + 1)
            if (v > 0) == positive:
                cell, va, vb = 2 * cell + 1, v, vb << degree
            else:
                cell, va, vb = 2 * cell, va << degree, v
            depth += 1
        lo = (a << n) + gap * cell
        return RootInterval(self._point(lo, k + n), self._point(lo + gap, k + n))


@dataclass(frozen=True)
class RealRootReport:
    """Distinct real roots of a polynomial over a region, isolated.

    A rational root is exact and every other interval holds an irrational
    root.  ``context`` refines the intervals further without recomputing
    the square-free part (pass it to :func:`refine_root` in place of the
    polynomial).
    """

    poly: UniPoly
    region: tuple[Fraction | None, Fraction | None]
    intervals: tuple[RootInterval, ...]
    context: RootContext = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.intervals)


def isolate_real_roots(
    p: UniPoly,
    region: tuple[Fraction | None, Fraction | None] = (None, None),
) -> RealRootReport:
    """Isolate the distinct real roots of p inside an open region.

    Works on the square-free part, so multiple roots appear once; use
    :func:`root_multiplicity` to recover multiplicities.  Each rational
    root is returned exactly; every other interval has width below
    ``DEFAULT_WIDTH``.
    """
    context = RootContext(p, region)
    return RealRootReport(p, region, context.isolate(), context)


def positive_real_roots(p: UniPoly) -> RealRootReport:
    """Distinct real roots in the open interval (0, +oo)."""
    return isolate_real_roots(p, (Fraction(0), None))


def refine_root(p: UniPoly | RootContext, iv: RootInterval,
                width: Fraction) -> RootInterval:
    """Shrink an interval holding one root of p in its interior.

    ``p`` may be the polynomial, or the root context of the report the
    interval came from.  The result is what halving the interval until it
    is no wider than ``width`` gives.
    """
    if iv.exact is not None:
        return iv
    context = p if isinstance(p, RootContext) else RootContext(p, (iv.lo, iv.hi))
    return context.refine(iv, width)
