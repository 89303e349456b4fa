"""Exact-arithmetic properties of the polynomial layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import XY, points, polys, nonzero_polys, rationals, unipolys
from cclab.polynomials import Poly2, UniPoly, format_poly2, format_unipoly


def P(terms):
    return Poly2(terms, XY)


# --- ring axioms -------------------------------------------------------------


@given(polys(), polys(), polys())
def test_addition_associative_commutative(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys(), polys())
def test_multiplication_commutative(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_identities(p):
    zero = Poly2.zero(XY)
    one = Poly2.constant(1, XY)
    assert p + zero == p
    assert p * one == p
    assert p * zero == zero
    assert p + (-p) == zero


@given(polys(), points)
def test_evaluation_is_a_ring_map(p, pt):
    q = Poly2({(1, 1): Fraction(2), (0, 2): Fraction(-1, 3)}, XY)
    px, py = pt
    assert (p + q).eval_at(px, py) == p.eval_at(px, py) + q.eval_at(px, py)
    assert (p * q).eval_at(px, py) == p.eval_at(px, py) * q.eval_at(px, py)


# --- calculus ----------------------------------------------------------------


@given(polys())
def test_mixed_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@given(polys(), polys())
def test_leibniz_rule(p, q):
    for var in XY:
        lhs = (p * q).partial(var)
        rhs = p.partial(var) * q + p * q.partial(var)
        assert lhs == rhs


@given(polys(), polys())
def test_derivative_is_linear(p, q):
    for var in XY:
        assert (p + q).partial(var) == p.partial(var) + q.partial(var)


# --- substitution ------------------------------------------------------------


@given(polys(), points)
def test_substitution_commutes_with_evaluation(p, pt):
    matrix = ((Fraction(2), Fraction(1)), (Fraction(-1), Fraction(1, 2)))
    offset = (Fraction(1, 3), Fraction(-2))
    image = p.subs_linear(matrix, offset, ("u", "v"))
    u, v = pt
    old_x = matrix[0][0] * u + matrix[0][1] * v + offset[0]
    old_y = matrix[1][0] * u + matrix[1][1] * v + offset[1]
    assert image.eval_at(u, v) == p.eval_at(old_x, old_y)


def test_substitution_identity_renames_only():
    p = P({(2, 1): Fraction(3), (0, 0): Fraction(-1, 2)})
    image = p.subs_linear(((1, 0), (0, 1)), (0, 0), ("u", "v"))
    assert image.terms == p.terms
    assert image.varnames == ("u", "v")


# --- degrees and structure ---------------------------------------------------


def test_zero_polynomial_degree_sentinel():
    zero = Poly2.zero(XY)
    assert zero.total_degree == -1
    assert zero.degree_in("x") == -1
    assert zero.is_zero()
    assert UniPoly.zero().degree == -1


@given(nonzero_polys(), nonzero_polys())
def test_product_degree_adds(p, q):
    assert (p * q).total_degree == p.total_degree + q.total_degree


def test_canonical_form_drops_zero_coefficients():
    p = P({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == P({(0, 1): Fraction(2)})


def test_constant_value():
    assert P({(0, 0): Fraction(5, 7)}).constant_value() == Fraction(5, 7)
    assert Poly2.zero(XY).constant_value() == 0
    assert P({(1, 0): 1}).constant_value() is None


def test_immutability():
    p = P({(1, 0): 1})
    with pytest.raises(AttributeError):
        p.terms = {}


def test_varname_mismatch_rejected():
    p = P({(1, 0): 1})
    q = Poly2({(1, 0): 1}, ("u", "v"))
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p.partial("u")


# --- division ----------------------------------------------------------------


@given(polys(), nonzero_polys())
def test_exact_division_inverts_multiplication(p, q):
    quotient = (p * q).try_divide(q)
    assert quotient == p


@given(nonzero_polys(max_terms=4))
def test_inexact_division_detected(q):
    # x*q + 1 is never a multiple of q unless q is a nonzero constant
    x = Poly2.variable("x", XY)
    candidate = x * q + Poly2.constant(1, XY)
    result = candidate.try_divide(q)
    if q.total_degree == 0:
        assert result is not None
    else:
        assert result is None


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        P({(1, 0): 1}).try_divide(Poly2.zero(XY))


# --- interval evaluation -----------------------------------------------------


@given(polys(), points, points)
def test_eval_box_encloses_point_values(p, lo, hi):
    xlo, ylo = min(lo[0], hi[0]), min(lo[1], hi[1])
    xhi, yhi = max(lo[0], hi[0]), max(lo[1], hi[1])
    box_lo, box_hi = p.eval_box((xlo, xhi), (ylo, yhi))
    for px, py in ((xlo, ylo), (xhi, yhi),
                   ((xlo + xhi) / 2, (ylo + yhi) / 2)):
        value = p.eval_at(px, py)
        assert box_lo <= value <= box_hi


# The Fraction kernels the integer ones replaced, kept as the reference: the
# integer kernels must give the same exact values, and the same enclosure
# whenever the box needs no outward rounding.


def _reference_eval_at(p, px, py):
    px, py = Fraction(px), Fraction(py)
    return sum((c * px ** i * py ** j for (i, j), c in p.terms.items()),
               Fraction(0))


def _reference_powers(lo, hi, upto):
    table = [(Fraction(1), Fraction(1))]
    for n in range(1, upto + 1):
        if n % 2 == 1 or lo >= 0:
            table.append((lo ** n, hi ** n))
        elif hi <= 0:
            table.append((hi ** n, lo ** n))
        else:
            table.append((Fraction(0), max(lo ** n, hi ** n)))
    return table


def _reference_eval_box(p, ix, iy):
    if not p.terms:
        return (Fraction(0), Fraction(0))
    xp = _reference_powers(Fraction(ix[0]), Fraction(ix[1]),
                           max(i for i, _ in p.terms))
    yp = _reference_powers(Fraction(iy[0]), Fraction(iy[1]),
                           max(j for _, j in p.terms))
    lo = hi = Fraction(0)
    for (i, j), c in p.terms.items():
        (a0, a1), (b0, b1) = xp[i], yp[j]
        products = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
        tlo, thi = min(products), max(products)
        lo += c * (tlo if c >= 0 else thi)
        hi += c * (thi if c >= 0 else tlo)
    return (lo, hi)


@st.composite
def _endpoints(draw, denominators):
    """A sorted pair of rationals in [-4, 4] over the given denominators."""
    pair = []
    for _ in range(2):
        d = draw(denominators)
        pair.append(Fraction(draw(st.integers(-4 * d, 4 * d)), d))
    return tuple(sorted(pair))


# Denominators of at most 2**128 are used exactly; 3**90 needs 143 bits.
_exact_denominators = st.one_of(st.integers(1, 64),
                                st.integers(1, 2 ** 128))
_huge_denominators = st.sampled_from((3 ** 90, 7 ** 60, 2 ** 129 + 1))


@given(polys(), _endpoints(_exact_denominators),
       _endpoints(_exact_denominators))
def test_eval_box_matches_reference_on_exact_boxes(p, ix, iy):
    assert p.eval_box(ix, iy) == _reference_eval_box(p, ix, iy)


@given(polys(), _endpoints(_huge_denominators),
       _endpoints(st.one_of(_huge_denominators, _exact_denominators)))
def test_eval_box_encloses_reference_on_rounded_boxes(p, ix, iy):
    lo, hi = p.eval_box(ix, iy)
    ref_lo, ref_hi = _reference_eval_box(p, ix, iy)
    assert lo <= ref_lo and ref_hi <= hi
    assert (lo, hi) == _reference_eval_box(p, _outward(ix), _outward(iy))


def _outward(iv):
    """Endpoints with denominators over 2**128 rounded outward to 2**-128."""
    scale = 2 ** 128
    lo, hi = iv
    if lo.denominator > scale:
        lo = Fraction(math.floor(lo * scale), scale)
    if hi.denominator > scale:
        hi = Fraction(math.ceil(hi * scale), scale)
    return (lo, hi)


@given(polys(), st.one_of(points, st.just((Fraction(1, 3), Fraction(-2, 3)))))
def test_eval_box_on_a_point_is_the_exact_value(p, pt):
    px, py = pt
    lo, hi = p.eval_box((px, px), (py, py))
    assert lo == hi == p.eval_at(px, py)


@given(polys(), _endpoints(_exact_denominators))
def test_eval_at_matches_reference(p, pt):
    assert p.eval_at(*pt) == _reference_eval_at(p, *pt)


# --- coefficient extraction ---------------------------------------------------


@given(polys(), points)
def test_coeffs_in_reassembles(p, pt):
    px, py = pt
    rows = p.coeffs_in("x")
    total = sum((row.eval_at(py) * px ** k for k, row in enumerate(rows)),
                Fraction(0))
    assert total == p.eval_at(px, py)


# --- univariate layer ----------------------------------------------------------


@given(unipolys(), unipolys())
def test_unipoly_ring_ops(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert (f - g) + g == f


@given(unipolys(), rationals)
def test_unipoly_evaluation_homomorphism(f, t):
    g = UniPoly([Fraction(1), Fraction(0), Fraction(-2)])
    assert (f * g).eval_at(t) == f.eval_at(t) * g.eval_at(t)
    assert (f + g).eval_at(t) == f.eval_at(t) + g.eval_at(t)


@given(unipolys(), unipolys())
def test_unipoly_divmod_identity(f, g):
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.divmod(g)
        return
    q, r = f.divmod(g)
    assert f == q * g + r
    assert r.degree < g.degree or r.is_zero()


@given(unipolys())
def test_unipoly_leibniz(f):
    g = UniPoly([Fraction(-1), Fraction(1, 2), Fraction(3)])
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_unipoly_power():
    t = UniPoly.variable()
    assert (t + 1) ** 3 == t ** 3 + t ** 2 * 3 + t * 3 + 1
    with pytest.raises(ValueError):
        t ** -1


# --- formatting sanity ---------------------------------------------------------


def test_format_round_trips_through_parser():
    from cclab.parsing import parse_expression
    p = P({(2, 1): Fraction(-3, 4), (0, 0): Fraction(5), (1, 3): Fraction(1)})
    assert parse_expression(format_poly2(p), XY) == p


def test_format_zero():
    assert format_poly2(Poly2.zero(XY)) == "0"
    assert format_unipoly(UniPoly.zero()) == "0"
