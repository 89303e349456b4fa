"""Exact-arithmetic properties of the polynomial layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import (XY, exponent_pairs, nonzero_polys, points, polys,
                         rationals, unipolys)
from cclab.polynomials import Poly2, UniPoly, format_poly2, format_unipoly
from cclab.realroots import square_free_part, unipoly_gcd


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
def test_unipoly_divexact_identity(f, g):
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.divexact(g)
        return
    assert (f * g).divexact(g) == f
    if g.degree > 0:
        with pytest.raises(ValueError):
            (f * g + 1).divexact(g)


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


# --- the integer form against the Fraction kernels it replaced -----------------

# Today's Poly2 stores one rational content times a primitive integer
# polynomial.  The Fraction-coefficient loops it replaced are kept here as
# the reference, on plain {(i, j): Fraction} dicts; every operation must give
# the same terms.  test_curvature.py builds its reference curvature on them.


def ref_clean(terms):
    return {key: Fraction(c) for key, c in terms.items() if c != 0}


def ref_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, Fraction(0)) + c
    return ref_clean(out)


def ref_neg(p):
    return {key: -c for key, c in p.items()}


def ref_scale(p, factor):
    return ref_clean({key: c * factor for key, c in p.items()})


def ref_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(p, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, p)
    return out


def ref_partial(p, idx):
    out = {}
    for (i, j), c in p.items():
        e = (i, j)[idx]
        if e == 0:
            continue
        key = (i - 1, j) if idx == 0 else (i, j - 1)
        out[key] = out.get(key, Fraction(0)) + c * e
    return ref_clean(out)


def ref_try_divide(p, divisor):
    if not p:
        return {}
    div_lead = max(divisor)
    div_lc = divisor[div_lead]
    rem = dict(p)
    quot = {}
    while rem:
        lead = max(rem)
        if lead[0] < div_lead[0] or lead[1] < div_lead[1]:
            return None
        qkey = (lead[0] - div_lead[0], lead[1] - div_lead[1])
        qc = rem[lead] / div_lc
        quot[qkey] = qc
        for (i, j), c in divisor.items():
            key = (qkey[0] + i, qkey[1] + j)
            value = rem.get(key, Fraction(0)) - qc * c
            if value == 0:
                rem.pop(key, None)
            else:
                rem[key] = value
    return ref_clean(quot)


def ref_subs_linear(p, matrix, offset):
    (a, b), (c, d) = matrix
    e, f = offset
    new_x = ref_clean({(1, 0): a, (0, 1): b, (0, 0): e})
    new_y = ref_clean({(1, 0): c, (0, 1): d, (0, 0): f})
    if not p:
        return {}
    xp = [ref_pow(new_x, n) for n in range(max(i for i, _ in p) + 1)]
    yp = [ref_pow(new_y, n) for n in range(max(j for _, j in p) + 1)]
    total = {}
    for (i, j), coeff in p.items():
        total = ref_add(total, ref_scale(ref_mul(xp[i], yp[j]), coeff))
    return total


def ref_coeffs_in(p, idx, survivor):
    if not p:
        return []
    deg = max(key[idx] for key in p)
    rows = [dict() for _ in range(deg + 1)]
    for (i, j), c in p.items():
        own, other = (i, j) if idx == 0 else (j, i)
        rows[own][other] = c
    out = []
    for row in rows:
        coeffs = ([row.get(k, Fraction(0)) for k in range(max(row) + 1)]
                  if row else [])
        out.append(UniPoly(coeffs, survivor))
    return out


def ref_format(p, varnames):
    if not p:
        return "0"
    pieces = []
    for key in sorted(p, key=lambda k: (-(k[0] + k[1]), -k[0])):
        c = p[key]
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for e, name in zip(key, varnames) if e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def assert_normal_form(p):
    """content * ints with ints primitive, zero-free and lex-leading positive."""
    if not p.ints:
        assert p.content == 0
        return
    assert p.content != 0
    assert all(isinstance(c, int) and c != 0 for c in p.ints.values())
    assert math.gcd(*p.ints.values()) == 1
    assert p.ints[max(p.ints)] > 0


# Coefficients with numerators and denominators up to 1e15.
big_rationals = st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15),
                          st.integers(1, 10 ** 15))


@st.composite
def big_polys(draw, max_terms: int = 6):
    terms = draw(st.dictionaries(exponent_pairs(), big_rationals,
                                 max_size=max_terms))
    return Poly2(terms, XY)


# Small and huge coefficients, negated copies (negative content) and zero.
any_polys = st.one_of(polys(), big_polys(), big_polys().map(lambda p: -p),
                      st.just(Poly2.zero(XY)))


@given(any_polys, any_polys)
def test_sum_and_difference_match_reference(p, q):
    assert_normal_form(p + q)
    assert (p + q).terms == ref_add(p.terms, q.terms)
    assert (p - q).terms == ref_add(p.terms, ref_neg(q.terms))
    assert (-p).terms == ref_neg(p.terms)


@given(any_polys, any_polys)
def test_product_matches_reference(p, q):
    product = p * q
    assert_normal_form(product)
    assert product.terms == ref_mul(p.terms, q.terms)


@given(any_polys, st.one_of(big_rationals, rationals))
def test_scale_matches_reference(p, factor):
    assert_normal_form(p.scale(factor))
    assert p.scale(factor).terms == ref_scale(p.terms, factor)


@given(any_polys)
def test_partial_matches_reference(p):
    for idx, var in enumerate(XY):
        derivative = p.partial(var)
        assert_normal_form(derivative)
        assert derivative.terms == ref_partial(p.terms, idx)


@given(any_polys, nonzero_polys() | big_polys().filter(lambda p: not p.is_zero()))
def test_exact_division_matches_reference(p, q):
    product = p * q
    quotient = product.try_divide(q)
    assert quotient is not None
    assert_normal_form(quotient)
    assert quotient.terms == ref_try_divide(product.terms, q.terms) == p.terms


@given(any_polys, any_polys, nonzero_polys() | big_polys().filter(lambda p: not p.is_zero()))
def test_division_with_remainder_matches_reference(p, r, q):
    candidate = p * q + r
    quotient = candidate.try_divide(q)
    expected = ref_try_divide(candidate.terms, q.terms)
    if expected is None:
        assert quotient is None
    else:
        assert quotient.terms == expected


@given(nonzero_polys(max_terms=4) | big_polys(max_terms=4).filter(
    lambda p: not p.is_zero()), st.integers(2, 9))
def test_leading_coefficient_that_does_not_divide_is_inexact(q, k):
    # the divisor's primitive lead is a multiple of k; the candidate's is
    # one more than a multiple, so the first integer step has a remainder
    divisor = q * P({(1, 0): k, (0, 0): 1})
    lead = max(divisor.ints)
    candidate = Poly2._make(divisor.content,
                            {**divisor.ints, lead: divisor.ints[lead] + 1}, XY)
    assert candidate.ints[max(candidate.ints)] % divisor.ints[lead] != 0
    assert candidate.try_divide(divisor) is None
    assert ref_try_divide(candidate.terms, divisor.terms) is None


def test_division_goldens_with_non_monic_divisors():
    x, y = Poly2.variable("x", XY), Poly2.variable("y", XY)
    divisor = x * 2 + y * 3 + 1
    assert (x * x * 2 + x * y * 3 + x).try_divide(divisor) == x
    assert ((x + 1) * divisor).scale(Fraction(-5, 7)).try_divide(
        divisor.scale(Fraction(1, 3))) == (x + 1).scale(Fraction(-15, 7))
    assert (x + 1).try_divide(divisor) is None       # 1 is not a multiple of 2
    assert (x * 4 + 1).try_divide(divisor) is None   # the quotient 2 leaves y


_matrices = st.tuples(st.tuples(big_rationals, big_rationals),
                      st.tuples(big_rationals, big_rationals))
_offsets = st.tuples(big_rationals, big_rationals)


@given(any_polys, st.one_of(_matrices, st.tuples(st.tuples(rationals, rationals),
                                                 st.tuples(rationals, rationals))),
       st.one_of(_offsets, st.tuples(rationals, rationals)))
def test_subs_linear_matches_reference(p, matrix, offset):
    image = p.subs_linear(matrix, offset, ("u", "v"))
    assert_normal_form(image)
    assert image.varnames == ("u", "v")
    assert image.terms == ref_subs_linear(p.terms, matrix, offset)


@given(any_polys)
def test_coeffs_in_matches_reference(p):
    for idx, var in enumerate(XY):
        assert p.coeffs_in(var) == ref_coeffs_in(p.terms, idx, XY[1 - idx])


@given(any_polys)
def test_format_matches_reference(p):
    assert format_poly2(p) == ref_format(p.terms, XY)


@given(any_polys, any_polys, any_polys, st.one_of(big_rationals, rationals).filter(bool))
def test_equal_polynomials_have_identical_forms(p, q, r, c):
    def form(poly):
        return (poly.content, poly.ints)
    assert form((p + q) * r) == form(p * r + q * r)
    assert form(p.scale(c).scale(1 / c)) == form(p)
    assert form(Poly2(p.terms, XY)) == form(p)
    assert form((p * q).partial("x")) == form(p.partial("x") * q + p * q.partial("x"))
    assert form(p - p) == form(Poly2.zero(XY))


# --- UniPoly's integer form against the Fraction loops it replaced -------------

# UniPoly stores one rational content times a primitive tuple of ints too.
# Its former Fraction-coefficient loops, on plain lists lowest degree first,
# are the reference here; Euclid over the rationals is the gcd's.


def uref_trim(coeffs):
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def uref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return uref_trim(out)


def uref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return uref_trim(out)


def uref_eval(a, t):
    total = Fraction(0)
    for c in reversed(a):
        total = total * t + c
    return total


def uref_derivative(a):
    return uref_trim([c * k for k, c in enumerate(a)][1:])


def uref_divmod(a, b):
    rem = list(a)
    ddeg, lead = len(b) - 1, b[-1]
    quot = [Fraction(0)] * max(len(rem) - ddeg, 0)
    for k in range(len(rem) - 1, ddeg - 1, -1):
        factor = rem[k] / lead
        quot[k - ddeg] = factor
        for i, c in enumerate(b):
            rem[k - ddeg + i] -= factor * c
    return uref_trim(quot), uref_trim(rem[:ddeg])


def uref_gcd(a, b):
    """Euclid over the rationals, scaled to primitive ints with positive lead."""
    while b:
        a, b = b, uref_divmod(a, b)[1]
    if not a:
        return []
    den = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [Fraction(c // g) for c in ints]


def uref_square_free_part(a):
    g = uref_gcd(a, uref_derivative(a))
    if len(g) <= 1:
        return a
    quot, rem = uref_divmod(a, g)
    assert not rem
    return quot


def assert_uni_normal_form(p):
    """content * ints with ints primitive and a positive leading entry."""
    assert UniPoly(p.coeffs, p.var) == p
    if not p.ints:
        assert p.content == 0
        return
    assert p.content != 0
    assert all(isinstance(c, int) for c in p.ints)
    assert math.gcd(*p.ints) == 1
    assert p.ints[-1] > 0


# Small and huge coefficients, negated copies (negative content) and zero.
any_unipolys = st.one_of(
    unipolys(), unipolys().map(lambda p: -p),
    st.lists(big_rationals, max_size=5).map(UniPoly), st.just(UniPoly.zero()))


@given(any_unipolys, any_unipolys, st.one_of(big_rationals, rationals))
def test_unipoly_matches_fraction_reference(f, g, t):
    a, b = list(f.coeffs), list(g.coeffs)
    assert_uni_normal_form(f)
    for result, expected in (
            (f + g, uref_add(a, b)),
            (f - g, uref_add(a, [-c for c in b])),
            (f * g, uref_mul(a, b)),
            (f.derivative(), uref_derivative(a)),
            (unipoly_gcd(f, g), uref_gcd(a, b)),
            (square_free_part(f), uref_square_free_part(a))):
        assert_uni_normal_form(result)
        assert list(result.coeffs) == expected
    assert f.eval_at(t) == uref_eval(a, t)
    if b:
        product = f * g
        assert product.divexact(g) == f
        assert list(product.divexact(g).coeffs) == uref_divmod(uref_mul(a, b), b)[0]
