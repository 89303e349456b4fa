"""Sturm counting, isolation, and multiplicity against known factorizations."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from cclab.polynomials import UniPoly
from cclab.realroots import (
    DEFAULT_WIDTH,
    RootInterval,
    _int_eval_sign,
    _variations,
    count_real_roots,
    isolate_real_roots,
    positive_real_roots,
    refine_root,
    root_bound,
    root_multiplicity,
    square_free_part,
    sturm_chain,
    unipoly_gcd,
    yun_factors,
)

T = UniPoly.variable()


def linear(root: Fraction) -> UniPoly:
    return UniPoly([-root, 1])


# strategies: factored shapes with known real-root structure

distinct_roots = st.lists(
    st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                 max_denominator=6),
    min_size=0, max_size=4, unique=True)

# t^2 + b t + c with negative discriminant: no real roots
rootless_quadratics = st.tuples(
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                 max_denominator=4),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(6),
                 max_denominator=4),
).filter(lambda bc: bc[0] ** 2 - 4 * bc[1] < 0)


def build(roots, quadratics) -> UniPoly:
    p = UniPoly([1])
    for r in roots:
        p = p * linear(r)
    for b, c in quadratics:
        p = p * UniPoly([c, b, 1])
    return p


# --- counting ----------------------------------------------------------------


@given(distinct_roots, st.lists(rootless_quadratics, max_size=2))
def test_count_matches_known_factorization(roots, quads):
    p = build(roots, quads)
    if p.degree == 0:
        assert count_real_roots(p) == 0
        return
    assert count_real_roots(p) == len(roots)


@given(distinct_roots)
def test_multiple_roots_counted_once(roots):
    p = build(roots, [])
    squared = p * p
    if squared.degree == 0:
        return
    assert count_real_roots(squared) == len(roots)


def test_count_rejects_root_endpoint():
    with pytest.raises(ValueError):
        count_real_roots(UniPoly.zero())


def test_dense_sampling_is_a_lower_bound():
    """Sign changes across 100001 rational sample points never exceed the
    Sturm count, and resolve every well-separated simple root."""
    cases = [
        # (t^2 - 2)(t^2 - 3)(t + 1/2): five simple real roots
        ((UniPoly([-2, 0, 1]) * UniPoly([-3, 0, 1]) * UniPoly([Fraction(1, 2), 1])), 5),
        # t^4 + 1: no real roots
        (UniPoly([1, 0, 0, 0, 1]), 0),
    ]
    denom = 500  # sample points k/denom for k in [-50000, 50000]
    for p, expected in cases:
        assert count_real_roots(p) == expected
        # clear denominators: sign of p(k/denom) equals sign of the integer
        # polynomial sum_i (c_i * denom^(n-i)) * k^i
        n = p.degree
        common = 1
        for c in p.coeffs:
            common = common * c.denominator // _gcd(common, c.denominator)
        ints = [int(c * common) * denom ** (n - i)
                for i, c in enumerate(p.coeffs)]
        changes = 0
        prev = None
        for k in range(-50000, 50001):
            v = 0
            for ci in reversed(ints):
                v = v * k + ci
            s = (v > 0) - (v < 0)
            if s == 0:
                continue
            if prev is not None and s != prev:
                changes += 1
            prev = s
        assert changes <= count_real_roots(p)
        assert changes == expected


def _gcd(a: int, b: int) -> int:
    import math
    return math.gcd(a, b)


# --- isolation ------------------------------------------------------------------


@given(distinct_roots, st.lists(rootless_quadratics, max_size=1))
def test_isolation_brackets_every_root(roots, quads):
    p = build(roots, quads)
    if p.degree <= 0:
        return
    report = isolate_real_roots(p)
    assert report.count == len(roots)
    located = sorted(iv.midpoint for iv in report.intervals)
    for found, true_root in zip(located, sorted(roots)):
        assert abs(found - true_root) <= Fraction(1, 10 ** 6)
    # intervals are pairwise disjoint and each contains its root
    for iv, true_root in zip(report.intervals,
                             sorted(set(roots))):
        assert iv.lo <= true_root <= iv.hi
    for a, b in zip(report.intervals, report.intervals[1:]):
        assert a.hi < b.lo or (a.exact is not None and b.exact is not None)


def test_isolation_region_is_open():
    p = linear(Fraction(1)) * linear(Fraction(3))
    report = isolate_real_roots(p, (Fraction(1), Fraction(4)))
    assert report.count == 1
    assert report.intervals[0].lo <= 3 <= report.intervals[0].hi


def test_positive_real_roots_excludes_zero_and_negatives():
    p = T * linear(Fraction(-2)) * linear(Fraction(5, 3))
    report = positive_real_roots(p)
    assert report.count == 1
    iv = report.intervals[0]
    assert iv.exact == Fraction(5, 3)


def test_refinement_reaches_requested_width():
    p = UniPoly([-2, 0, 1])  # sqrt(2)
    report = isolate_real_roots(p, (Fraction(0), None))
    iv = report.intervals[0]
    tight = refine_root(p, iv, Fraction(1, 10 ** 30))
    assert tight.width <= Fraction(1, 10 ** 30)
    assert tight.lo ** 2 < 2 < tight.hi ** 2


def test_rational_roots_are_pinned_exactly():
    p = linear(Fraction(3, 7)) * UniPoly([1, 0, 1])
    report = isolate_real_roots(p)
    assert report.count == 1
    assert report.intervals[0].exact == Fraction(3, 7)


def test_irrational_root_not_claimed_rational():
    p = UniPoly([-2, 0, 1])
    report = isolate_real_roots(p, (Fraction(0), None))
    assert report.intervals[0].exact is None


def test_rational_root_with_large_denominator_is_exact():
    """The leading coefficient 10^13 exceeds 1 / DEFAULT_WIDTH, so the
    interval of 1/10^13 is refined before its one candidate is tested."""
    p = UniPoly([-1, 10 ** 13]) * UniPoly([-2, 0, 1])
    lo, root, hi = isolate_real_roots(p).intervals
    assert root.exact == Fraction(1, 10 ** 13)
    assert lo.exact is None and lo.lo ** 2 > 2 > lo.hi ** 2
    assert hi.exact is None and hi.lo ** 2 < 2 < hi.hi ** 2


@given(distinct_roots)
def test_root_bound_contains_all_roots(roots):
    p = build(roots, [])
    if p.degree <= 0:
        return
    bound = root_bound(p)
    assert all(-bound < r < bound for r in roots)


# --- square-free decomposition ------------------------------------------------


def test_yun_factors_golden():
    p = linear(Fraction(1)) ** 2 * linear(Fraction(-2)) ** 3
    factors = yun_factors(p)
    by_mult = {m: f for f, m in factors if f.degree > 0}
    assert set(by_mult) == {2, 3}
    assert by_mult[2].eval_at(Fraction(1)) == 0
    assert by_mult[3].eval_at(Fraction(-2)) == 0


@given(distinct_roots)
def test_square_free_part_has_simple_roots(roots):
    p = build(roots, []) ** 2
    if p.degree <= 0:
        return
    sqf = square_free_part(p)
    assert sqf.degree == len(roots)
    g = unipoly_gcd(sqf, sqf.derivative())
    assert g.degree <= 0


def test_root_multiplicity():
    p = linear(Fraction(1)) ** 2 * linear(Fraction(-2)) ** 3
    report = isolate_real_roots(p)
    mults = sorted(root_multiplicity(p, iv) for iv in report.intervals)
    assert mults == [2, 3]


# --- Sturm chain shape -----------------------------------------------------------


def test_sturm_chain_starts_with_poly_and_derivative():
    p = UniPoly([-2, 0, 1])
    chain = sturm_chain(p)
    assert chain[0] == [-2, 0, 1]
    assert chain[1] == [0, 1]  # derivative 2t, primitive part t
    assert len(chain[-1]) >= 1


# --- the integer kernel against the Fraction bisection it replaced -------------

# The Fraction isolation and refinement that the integer root context
# replaced, kept as the reference: plain bisection on rational endpoints,
# with the chain's sign variations recomputed at every node.  Its intervals
# are then made exact at the rational roots the caller names.


def _reference_variations(chain, point):
    return _variations([_int_eval_sign(q, point) for q in chain])


def _reference_sqf(p: UniPoly, region) -> list[int]:
    """The square-free part with roots at finite region ends divided out."""
    sqf = square_free_part(p)
    for endpoint in region:
        if endpoint is not None and sqf.eval_at(endpoint) == 0:
            sqf = sqf.divexact(UniPoly([-endpoint, 1], sqf.var))
    return sqf


def _reference_bisect_region(chain, sqf, lo, hi, count, found):
    if count == 0:
        return
    if count == 1:
        found.append(RootInterval(lo, hi))
        return
    mid = (lo + hi) / 2
    if _int_eval_sign(sqf, mid) == 0:
        found.append(RootInterval(mid, mid, exact=mid))
        delta = (hi - lo) / 4
        while True:
            if (_int_eval_sign(sqf, mid - delta) != 0
                    and _int_eval_sign(sqf, mid + delta) != 0):
                inner = (_reference_variations(chain, mid - delta)
                         - _reference_variations(chain, mid + delta))
                if inner == 1:
                    break
            delta /= 2
        left_count = (_reference_variations(chain, lo)
                      - _reference_variations(chain, mid - delta))
        right_count = (_reference_variations(chain, mid + delta)
                       - _reference_variations(chain, hi))
        _reference_bisect_region(chain, sqf, lo, mid - delta, left_count, found)
        _reference_bisect_region(chain, sqf, mid + delta, hi, right_count, found)
        return
    left_count = _reference_variations(chain, lo) - _reference_variations(chain, mid)
    _reference_bisect_region(chain, sqf, lo, mid, left_count, found)
    _reference_bisect_region(chain, sqf, mid, hi, count - left_count, found)


def _reference_refine(sqf, iv, width):
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


def _reference_isolate(p, rationals, region=(None, None)):
    """Bisection's intervals, with the one around each root in
    ``rationals`` (every rational root of p) replaced by that root."""
    sqf_poly = _reference_sqf(p, region)
    if sqf_poly.degree <= 0:
        return ()
    sqf = sqf_poly.ints
    chain = sturm_chain(sqf_poly)
    bound = root_bound(sqf_poly)
    lo = region[0] if region[0] is not None else -bound
    hi = region[1] if region[1] is not None else bound
    if lo >= hi:
        return ()
    total = _reference_variations(chain, lo) - _reference_variations(chain, hi)
    found = []
    _reference_bisect_region(chain, sqf, lo, hi, total, found)
    refined = [_reference_refine(sqf, iv, DEFAULT_WIDTH) for iv in found]
    # an interval holds the roots in (lo, hi], and only its lo can be a root
    # (the region's open end), so one holding a rational root isolates it
    refined = [next((RootInterval(r, r, exact=r) for r in rationals
                     if iv.exact is None and iv.lo < r <= iv.hi), iv)
               for iv in refined]
    return tuple(sorted(refined, key=lambda iv: (iv.lo, iv.hi)))


def _rational_sqrt(c: Fraction) -> Fraction | None:
    n, d = isqrt(c.numerator), isqrt(c.denominator)
    return Fraction(n, d) if n * n == c.numerator and d * d == c.denominator else None


# Roots on the dyadic grid of the regions below (0 is the first midpoint
# of every symmetric region), pairs closer than 1e-9, and rationals with
# large denominators; the quadratic factors add irrational roots.
_dyadic_roots = st.builds(lambda n, k: Fraction(n, 2 ** k),
                          st.integers(-16, 16), st.integers(0, 4))
_wide_roots = st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                           max_denominator=10 ** 15)


@st.composite
def _root_sets(draw):
    roots = draw(st.lists(st.one_of(_dyadic_roots, _wide_roots),
                          max_size=4, unique=True))
    if roots and draw(st.booleans()):
        gap = Fraction(1, draw(st.integers(10 ** 9 + 1, 10 ** 12)))
        roots.append(roots[0] + gap)
    return sorted(set(roots))


@st.composite
def _oracle_polys(draw):
    """A polynomial and its rational roots: the planted ones, and the
    square roots of each quadratic factor's c that is a rational square."""
    rationals = draw(_root_sets())
    p = build(rationals, [])
    for c in draw(st.lists(st.fractions(min_value=Fraction(1, 8),
                                        max_value=Fraction(9),
                                        max_denominator=10 ** 6),
                           max_size=2)):
        p = p * UniPoly([-c, 0, 1])  # roots +- sqrt(c)
        if (root := _rational_sqrt(c)) is not None:
            rationals = rationals + [root, -root]
    if draw(st.booleans()):
        p = p * p
    scale = draw(st.fractions(min_value=Fraction(1, 10 ** 6),
                              max_value=Fraction(10 ** 6),
                              max_denominator=10 ** 9).filter(bool))
    return p.scale(scale), rationals


_regions = st.one_of(
    st.just((None, None)),
    st.just((Fraction(0), None)),
    st.sampled_from([(Fraction(-1), Fraction(1)), (Fraction(-2), Fraction(2)),
                     (Fraction(0), Fraction(1)), (Fraction(-1, 2), None),
                     (None, Fraction(1, 4))]),
    st.tuples(_dyadic_roots, st.none()),
)


@given(_oracle_polys(), _regions)
def test_isolation_equals_fraction_bisection(oracle, region):
    p, rationals = oracle
    if p.degree <= 0:
        return
    report = isolate_real_roots(p, region)
    assert report.intervals == _reference_isolate(p, rationals, region)
    if region == (Fraction(0), None):
        assert positive_real_roots(p).intervals == report.intervals


@given(_oracle_polys(), _regions, st.sampled_from([DEFAULT_WIDTH,
                                                   Fraction(1, 10 ** 30)]))
def test_refinement_equals_fraction_bisection(oracle, region, width):
    p, _ = oracle
    if p.degree <= 0:
        return
    report = isolate_real_roots(p, region)
    reduced = _reference_sqf(p, region)
    for iv in report.intervals:
        expected = _reference_refine(reduced.ints, iv, width)
        assert refine_root(report.context, iv, width) == expected
        if region == (None, None):
            # without a region no interval ends on a root of p
            assert refine_root(p, iv, width) == expected


def test_midpoint_roots_take_the_halving_loops_delta():
    """0 is the first midpoint of a symmetric bound and 1/2 one of [-1, 1]'s;
    the nearest other root decides how far the loop halves delta."""
    for near in (Fraction(1, 3), Fraction(1, 10 ** 6), Fraction(1, 10 ** 11)):
        rationals = [Fraction(0), near, Fraction(-5, 7)]
        p = T * linear(near) * linear(Fraction(-5, 7)) * UniPoly([-2, 0, 1])
        assert (isolate_real_roots(p).intervals
                == _reference_isolate(p, rationals))
        rationals = [Fraction(1, 2), Fraction(1, 2) + near, -near]
        q = linear(rationals[0]) * linear(rationals[1]) * linear(rationals[2])
        region = (Fraction(-1), Fraction(1))
        assert (isolate_real_roots(q, region).intervals
                == _reference_isolate(q, rationals, region))
