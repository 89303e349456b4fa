"""Certified real-root counting and isolation for univariate polynomials.

Counting uses Sturm chains computed fraction-free: polynomials are first
cleared to primitive integer coefficient lists, and the remainder sequence
applies pseudo-division with positive scaling plus content stripping, which
keeps coefficient growth polynomial instead of exponential.  Isolation then
bisects with exact rational endpoints until each interval holds exactly one
root of the square-free part.  Everything is exact; widths like 1e-9 are
exact rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .polynomials import UniPoly

DEFAULT_WIDTH = Fraction(1, 10**9)

# --- integer coefficient lists (lowest degree first, no trailing zeros) -----


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _content(coeffs: list[int]) -> int:
    c = 0
    for a in coeffs:
        c = gcd(c, abs(a))
        if c == 1:
            return 1
    return c if c else 1


def _primitive(coeffs: list[int]) -> list[int]:
    coeffs = _trim(list(coeffs))
    c = _content(coeffs)
    return [a // c for a in coeffs] if c > 1 else coeffs


def _to_int_poly(p: UniPoly) -> list[int]:
    """Primitive integer coefficients with the same sign pattern as p."""
    if p.is_zero():
        return []
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p.coeffs]
    return _primitive(ints)


def _from_int_poly(coeffs: list[int], var: str) -> UniPoly:
    return UniPoly([Fraction(c) for c in coeffs], var)


def _int_derivative(coeffs: list[int]) -> list[int]:
    return _trim([k * c for k, c in enumerate(coeffs)][1:])


def _int_eval_sign(coeffs: list[int], point: Fraction) -> int:
    """Exact sign of the polynomial at a rational point, via integer Horner."""
    num, den = point.numerator, point.denominator
    if not coeffs:
        return 0
    total = 0
    power = 1  # den^(deg - k) built incrementally, evaluated highest first
    for c in reversed(coeffs):
        total = total * num + c * power
        power *= den
    # the powers of den above are off by the shared factor den^deg > 0
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
    """The Sturm chain of p as primitive integer polynomials."""
    p0 = _to_int_poly(p)
    if not p0:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p0]
    p1 = _primitive(_int_derivative(p0))
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


def _chain_variations_at(chain: list[list[int]], point: Fraction | None,
                         positive_inf: bool = True) -> int:
    if point is None:
        signs = [_sign_at_infinity(q, positive_inf) for q in chain]
    else:
        signs = [_int_eval_sign(q, point) for q in chain]
    return _variations(signs)


def count_real_roots(
    p: UniPoly,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
) -> int:
    """Number of distinct real roots in (lo, hi]; None means -oo / +oo.

    Endpoints must not be roots of p when finite (checked, ValueError).
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    if p.degree == 0:
        return 0
    chain = sturm_chain(p)
    if lo is not None and _int_eval_sign(chain[0], lo) == 0:
        raise ValueError("lower endpoint is a root; nudge it first")
    if hi is not None and _int_eval_sign(chain[0], hi) == 0:
        raise ValueError("upper endpoint is a root; nudge it first")
    va = (_chain_variations_at(chain, None, positive_inf=False)
          if lo is None else _chain_variations_at(chain, lo))
    vb = (_chain_variations_at(chain, None, positive_inf=True)
          if hi is None else _chain_variations_at(chain, hi))
    return va - vb


# --- gcd, square-free part, Yun multiplicity decomposition ------------------


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Primitive gcd with positive leading coefficient (1 for coprime inputs)."""
    if a.var != b.var:
        raise ValueError(f"variable names differ: {a.var!r} vs {b.var!r}")
    fa, fb = _to_int_poly(a), _to_int_poly(b)
    while fb:
        fa, fb = fb, _primitive(_pseudo_rem_scaled(fa, fb))
    if not fa:
        return UniPoly.zero(a.var)
    if fa[-1] < 0:
        fa = [-c for c in fa]
    return _from_int_poly(fa, a.var)


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
            fi = _to_int_poly(factor)
            slo = _int_eval_sign(fi, interval.lo)
            shi = _int_eval_sign(fi, interval.hi)
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


@dataclass(frozen=True)
class RealRootReport:
    """Distinct real roots of a polynomial over a region, isolated."""

    poly: UniPoly
    region: tuple[Fraction | None, Fraction | None]
    intervals: tuple[RootInterval, ...]

    @property
    def count(self) -> int:
        return len(self.intervals)


def root_bound(p: UniPoly) -> Fraction:
    """A bound M with every real root strictly inside (-M, M) (Cauchy)."""
    if p.is_zero() or p.degree <= 0:
        return Fraction(1)
    lead = abs(p.leading())
    worst = max(abs(c) for c in p.coeffs[:-1]) if p.degree >= 1 else Fraction(0)
    return Fraction(1) + worst / lead


def _bisect_region(
    chain: list[list[int]],
    sqf: list[int],
    lo: Fraction,
    hi: Fraction,
    count: int,
    found: list[RootInterval],
):
    if count == 0:
        return
    if count == 1:
        found.append(RootInterval(lo, hi))
        return
    mid = (lo + hi) / 2
    if _int_eval_sign(sqf, mid) == 0:
        found.append(RootInterval(mid, mid, exact=mid))
        # pick delta with mid the only root in (mid-delta, mid+delta] and the
        # shifted endpoints themselves not roots
        delta = (hi - lo) / 4
        while True:
            if (_int_eval_sign(sqf, mid - delta) != 0
                    and _int_eval_sign(sqf, mid + delta) != 0):
                inner = (_chain_variations_at(chain, mid - delta)
                         - _chain_variations_at(chain, mid + delta))
                if inner == 1:
                    break
            delta /= 2
        left_count = (_chain_variations_at(chain, lo)
                      - _chain_variations_at(chain, mid - delta))
        right_count = (_chain_variations_at(chain, mid + delta)
                       - _chain_variations_at(chain, hi))
        _bisect_region(chain, sqf, lo, mid - delta, left_count, found)
        _bisect_region(chain, sqf, mid + delta, hi, right_count, found)
        return
    left_count = _chain_variations_at(chain, lo) - _chain_variations_at(chain, mid)
    _bisect_region(chain, sqf, lo, mid, left_count, found)
    _bisect_region(chain, sqf, mid, hi, count - left_count, found)


def _refine(sqf: list[int], iv: RootInterval, width: Fraction) -> RootInterval:
    if iv.exact is not None:
        return iv
    lo, hi = iv.lo, iv.hi
    slo = _int_eval_sign(sqf, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = _int_eval_sign(sqf, mid)
        if smid == 0:
            return RootInterval(mid, mid, exact=mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return RootInterval(lo, hi)


def isolate_real_roots(
    p: UniPoly,
    region: tuple[Fraction | None, Fraction | None] = (None, None),
) -> RealRootReport:
    """Isolate the distinct real roots of p inside an open region.

    Works on the square-free part, so multiple roots appear once; use
    :func:`root_multiplicity` to recover multiplicities.  Each returned
    interval has width below ``DEFAULT_WIDTH`` unless the root was pinned
    exactly.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    sqf_poly = square_free_part(p)
    if sqf_poly.degree <= 0:
        return RealRootReport(p, region, ())
    # a rational endpoint that happens to be a root is excluded from the open
    # region; divide the corresponding linear factor out so Sturm counts stay
    # valid without nudging (which could skip a nearby root)
    for endpoint in (region[0], region[1]):
        if endpoint is not None and sqf_poly.eval_at(endpoint) == 0:
            sqf_poly = sqf_poly.divexact(UniPoly([-endpoint, 1], sqf_poly.var))
    if sqf_poly.degree <= 0:
        return RealRootReport(p, region, ())
    sqf = _to_int_poly(sqf_poly)
    chain = sturm_chain(sqf_poly)
    bound = root_bound(sqf_poly)
    lo = region[0] if region[0] is not None else -bound
    hi = region[1] if region[1] is not None else bound
    if lo >= hi:
        return RealRootReport(p, region, ())
    total = _chain_variations_at(chain, lo) - _chain_variations_at(chain, hi)
    found: list[RootInterval] = []
    _bisect_region(chain, sqf, lo, hi, total, found)
    refined = [_refine(sqf, iv, DEFAULT_WIDTH) for iv in found]
    refined.sort(key=lambda iv: (iv.lo, iv.hi))
    return RealRootReport(p, region, tuple(refined))


def positive_real_roots(p: UniPoly) -> RealRootReport:
    """Distinct real roots in the open interval (0, +oo)."""
    return isolate_real_roots(p, (Fraction(0), None))


def refine_root(p: UniPoly, iv: RootInterval, width: Fraction) -> RootInterval:
    """Shrink an isolating interval of (the square-free part of) p."""
    return _refine(_to_int_poly(square_free_part(p)), iv, width)


# --- simplest rational in an interval ---------------------------------------


def simplest_rational_between(a: Fraction, b: Fraction) -> Fraction:
    """The rational with the smallest denominator (then numerator) in [a, b]."""
    if a > b:
        raise ValueError("empty interval")
    if a <= 0 <= b:
        return Fraction(0)
    if b < 0:
        return -simplest_rational_between(-b, -a)
    # now 0 < a <= b
    n, rem = divmod(a.numerator, a.denominator)
    if rem == 0:
        return Fraction(n)
    if n + 1 <= b:
        return Fraction(n + 1)
    inner = simplest_rational_between(1 / (b - n), 1 / (a - n))
    return n + 1 / inner


_PROBE_WIDTH = Fraction(1, 10**24)


def rational_root_in(p: UniPoly, iv: RootInterval) -> Fraction | None:
    """Detect whether the root isolated by ``iv`` is a (small) rational.

    Refines the interval to width 1e-24, then tests the simplest rational
    inside it by exact evaluation.  Returns the rational root, or None when
    the root is irrational or has a denominator too large to surface at
    this width.
    """
    if iv.exact is not None:
        return iv.exact
    sqf = square_free_part(p)
    tight = _refine(_to_int_poly(sqf), iv, _PROBE_WIDTH)
    if tight.exact is not None:
        return tight.exact
    candidate = simplest_rational_between(tight.lo, tight.hi)
    if sqf.eval_at(candidate) == 0:
        return candidate
    return None
