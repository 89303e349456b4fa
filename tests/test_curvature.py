"""Curvature rationalization: frozen values, identities, and the numeric probe."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import XY, points
from cclab.curvature import (
    INDETERMINATE,
    SINGULAR,
    VALUE,
    DegenerateMetricError,
    PointValue,
    RationalFunction,
    metric_components,
    scalar_curvature,
)
from cclab.parsing import parse_expression, parse_system
from cclab.polynomials import Poly2
from cclab.systems import PlanarSystem
from test_polynomials import (ref_add, ref_mul, ref_neg, ref_partial, ref_pow,
                              ref_scale, ref_try_divide)

ORIGIN_VALUES = {
    "s1": Fraction(-1),
    "s1a": Fraction(-80, 289),
    "s2": Fraction(6, 5),
    "center": Fraction(1),
}


def test_origin_values_exact(curvatures, catalogue):
    for key, expected in ORIGIN_VALUES.items():
        data = curvatures[key]
        outcome = data.curvature.evaluate(Fraction(0), Fraction(0))
        assert outcome.kind == VALUE, key
        assert outcome.value == expected, key


def test_denominator_is_twice_square_of_determinant(curvatures):
    """The denominator times the cancelled copies of g11 and g22 is 2W^2."""
    for key, data in curvatures.items():
        det, g11, g22 = data.metric.det, data.metric.g11, data.metric.g22
        assert det == g11 * g22
        e1, e2 = data.den_exponents
        assert (data.curvature.denominator * g11 ** (2 - e1) * g22 ** (2 - e2)
                == (det * det).scale(2))


def test_transcribed_quotients_match(curvatures, references):
    for key, (num, den) in references.curvature.items():
        assert curvatures[key].curvature.equals_quotient(num, den), key


def test_center_closed_form(curvatures):
    data = curvatures["center"]
    num = parse_expression("1", XY)
    den = parse_expression("(x^2 + 1)^2 * (4*x^2 + (y + 1)^2)", XY)
    assert data.curvature.equals_quotient(num, den)


def test_reduced_form_is_the_same_function(curvatures, catalogue):
    for key, data in curvatures.items():
        raw = raw_reference_curvature(catalogue[key].system)
        assert raw.same_function(data.curvature), key
        e1, e2 = data.den_exponents
        assert 0 <= e1 <= 2 and 0 <= e2 <= 2, key
        expected_den = (Poly2.constant(2, data.curvature.varnames)
                        * data.metric.g11 ** e1 * data.metric.g22 ** e2)
        assert data.curvature.denominator == expected_den, key


def test_center_reduction_exposes_the_pole(curvatures, catalogue):
    data = curvatures["center"]
    assert data.den_exponents == (1, 2)
    raw = raw_reference_curvature(catalogue["center"].system).evaluate(
        Fraction(0), Fraction(-1))
    reduced = data.curvature.evaluate(Fraction(0), Fraction(-1))
    assert raw.kind == INDETERMINATE
    assert reduced.kind == SINGULAR


def test_branches_are_the_jacobian_columns(curvatures, catalogue):
    for key, data in curvatures.items():
        system = catalogue[key].system
        a, b = system.varnames
        first, second = data.branches
        assert first.column == a and second.column == b
        assert first.first == system.P.partial(a)
        assert first.second == system.Q.partial(a)
        # each metric entry is twice the sum of squares of its branch pair
        assert data.metric.g11 == (first.first ** 2 + first.second ** 2).scale(2)
        assert data.metric.g22 == (second.first ** 2 + second.second ** 2).scale(2)


@given(points)
def test_metric_entries_are_nonnegative(pt):
    system = parse_system(
        "vars: x y\n"
        "dx = -y + x*(x^2 + y^2 - 1)\n"
        "dy = x + y*(x^2 + y^2 - 1)\n")
    metric = metric_components(system)
    px, py = pt
    assert metric.g11.eval_at(px, py) >= 0
    assert metric.g22.eval_at(px, py) >= 0
    assert metric.det.eval_at(px, py) >= 0


def test_degenerate_metric_rejected():
    # both components independent of x: the first Jacobian column vanishes
    flat = parse_system("vars: x y\ndx = y^2\ndy = 1 - y\n")
    with pytest.raises(DegenerateMetricError):
        scalar_curvature(flat)
    with pytest.raises(DegenerateMetricError):
        numeric_curvature_probe(flat, 0.5, 0.5)


# Central-difference step of numeric_curvature_probe.
_PROBE_STEP = 1e-5


def numeric_curvature_probe(system: PlanarSystem, px: float,
                            py: float) -> float:
    """Curvature at a point by central differences on the divergence form.

    Independent of the rational expansion: only the metric entries and their
    first derivatives are taken symbolically; the outer derivatives of
    d(g22)/dx / sqrt(W) and d(g11)/dy / sqrt(W) are numeric, with step 1e-5.
    The finite-difference reference the exact formula is checked against.
    """
    a, b = system.varnames
    metric = metric_components(system)
    det, g11, g22 = metric.det, metric.g11, metric.g22
    if det.is_zero():
        raise DegenerateMetricError("metric determinant is identically zero")
    g22_a = g22.partial(a)
    g11_b = g11.partial(b)

    def as_float(poly: Poly2, fx: float, fy: float) -> float:
        n, d = poly.content.numerator, poly.content.denominator
        total = 0.0
        for (i, j), c in poly.ints.items():
            total += n * c / d * fx**i * fy**j
        return total

    def ratio_x(fx: float, fy: float) -> float:
        w = as_float(det, fx, fy)
        if w <= 0:
            raise ValueError(
                f"metric determinant is not positive at ({fx}, {fy})")
        return as_float(g22_a, fx, fy) / math.sqrt(w)

    def ratio_y(fx: float, fy: float) -> float:
        w = as_float(det, fx, fy)
        if w <= 0:
            raise ValueError(
                f"metric determinant is not positive at ({fx}, {fy})")
        return as_float(g11_b, fx, fy) / math.sqrt(w)

    w0 = as_float(det, px, py)
    if w0 <= 0:
        raise ValueError(f"metric determinant is not positive at ({px}, {py})")
    step = _PROBE_STEP
    div = ((ratio_x(px + step, py) - ratio_x(px - step, py)) / (2 * step)
           + (ratio_y(px, py + step) - ratio_y(px, py - step)) / (2 * step))
    return div / math.sqrt(w0)


def probe_agreement_points(data, system, count, rng):
    """Yield (point, exact float, probe float) at nonsingular random points."""
    produced = 0
    while produced < count:
        px = rng.uniform(-1.5, 1.5)
        py = rng.uniform(-1.5, 1.5)
        fx, fy = Fraction(px), Fraction(py)
        outcome = data.curvature.evaluate(fx, fy)
        if outcome.kind != VALUE:
            continue
        den = data.curvature.denominator.eval_at(fx, fy)
        if abs(den) < Fraction(1, 100):
            continue  # too close to the singular locus for finite differences
        probe = numeric_curvature_probe(system, px, py)
        yield (px, py), float(outcome.value), probe
        produced += 1


def test_probe_matches_exact_rationalization(curvatures, catalogue):
    rng = random.Random(20260816)
    for key, data in curvatures.items():
        system = catalogue[key].system
        for pt, exact, probe in probe_agreement_points(data, system, 100, rng):
            assert abs(probe - exact) <= 1e-5 * (1 + abs(exact)), (key, pt)


# --- point-value semantics ------------------------------------------------------


def test_point_value_validation():
    with pytest.raises(ValueError):
        PointValue("nonsense")
    with pytest.raises(ValueError):
        PointValue(VALUE)  # a finite value must carry one
    with pytest.raises(ValueError):
        PointValue(SINGULAR, Fraction(1))


def test_rational_function_validation():
    x = Poly2.variable("x", XY)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, Poly2.zero(XY))
    other = RationalFunction(Poly2.variable("u", ("u", "v")),
                             Poly2.constant(1, ("u", "v")))
    with pytest.raises(ValueError):
        RationalFunction(x, Poly2.constant(1, XY)).same_function(other)


def test_evaluate_classifies_all_three_kinds():
    x = Poly2.variable("x", XY)
    y = Poly2.variable("y", XY)
    rf = RationalFunction(y, x)
    assert rf.evaluate(1, 5).kind == VALUE
    assert rf.evaluate(0, 5).kind == SINGULAR
    assert rf.evaluate(0, 0).kind == INDETERMINATE


def test_cross_multiplication_identity():
    x = Poly2.variable("x", XY)
    one = Poly2.constant(1, XY)
    # x/(x^2) equals 1/x as rational functions without any reduction
    assert RationalFunction(x, x * x).same_function(RationalFunction(one, x))


# --- golden: the integer-form curvature against a Fraction reference ----------

# scalar_curvature built on the Fraction-coefficient Poly2 loops that the
# integer form replaced (kept in test_polynomials.py), one step per line of
# curvature.py.  Every output polynomial must have the same terms.


def reference_curvature(system):
    pa, qa = ref_partial(system.P.terms, 0), ref_partial(system.Q.terms, 0)
    pb, qb = ref_partial(system.P.terms, 1), ref_partial(system.Q.terms, 1)
    g11 = ref_scale(ref_add(ref_mul(pa, pa), ref_mul(qa, qa)), 2)
    g22 = ref_scale(ref_add(ref_mul(pb, pb), ref_mul(qb, qb)), 2)
    det = ref_mul(g11, g22)
    g22_a = ref_partial(g22, 0)
    g11_b = ref_partial(g11, 1)
    laplace_like = ref_add(ref_partial(g22_a, 0), ref_partial(g11_b, 1))
    det_a, det_b = ref_partial(det, 0), ref_partial(det, 1)
    numerator = ref_add(
        ref_scale(ref_mul(det, laplace_like), 2),
        ref_neg(ref_add(ref_mul(det_a, g22_a), ref_mul(det_b, g11_b))))
    exponents = [2, 2]
    reduced = numerator
    for idx, factor in ((0, g11), (1, g22)):
        while exponents[idx] > 0:
            quotient = ref_try_divide(reduced, factor)
            if quotient is None:
                break
            reduced = quotient
            exponents[idx] -= 1
    reduced_den = ref_mul(ref_scale(ref_pow(g11, exponents[0]), 2),
                          ref_pow(g22, exponents[1]))
    denominator = reduced_den
    for factor, exponent in zip((g11, g22), exponents):
        denominator = ref_mul(denominator, ref_pow(factor, 2 - exponent))
    return {
        "numerator": numerator,
        "denominator": denominator,
        "reduced numerator": reduced,
        "reduced denominator": reduced_den,
        "den_exponents": tuple(exponents),
        "branches": ((pa, qa), (pb, qb)),
    }


def raw_reference_curvature(system):
    """The literal quotient N / (2W^2), built by the reference."""
    ref = reference_curvature(system)
    return RationalFunction(Poly2(ref["numerator"], system.varnames),
                            Poly2(ref["denominator"], system.varnames))


def curvature_outputs(data):
    return {
        "reduced numerator": data.curvature.numerator.terms,
        "reduced denominator": data.curvature.denominator.terms,
        "den_exponents": data.den_exponents,
        "branches": tuple((pair.first.terms, pair.second.terms)
                          for pair in data.branches),
    }


def assert_matches_reference(data, system):
    """Every output term by term, and N / (2W^2) as the same function."""
    expected = reference_curvature(system)
    del expected["numerator"], expected["denominator"]
    assert curvature_outputs(data) == expected
    assert raw_reference_curvature(system).same_function(data.curvature)


def radial_system(radii_sq):
    f = "*".join("(x^2 + y^2 - %s)" % r for r in radii_sq)
    return parse_system("vars: x y\ndx = -y + x*%s\ndy = x + y*%s\n" % (f, f))


def test_catalogue_curvature_matches_fraction_reference(curvatures, catalogue):
    for key in ("s1", "s1a", "s2", "center"):
        assert_matches_reference(curvatures[key], catalogue[key].system)


@pytest.mark.parametrize("radii_sq", [(2,), (1, 3), (1, 2, 3)])
def test_radial_curvature_matches_fraction_reference(radii_sq):
    system = radial_system(radii_sq)
    assert_matches_reference(scalar_curvature(system), system)


_field_coefficients = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                                   max_denominator=16)


@st.composite
def _fields(draw):
    """Fields of degree 2-4 with linear part (-y, x) and up to four higher
    terms per component."""
    degree = draw(st.integers(2, 4))
    higher = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(
        lambda ij: 2 <= ij[0] + ij[1] <= degree)
    P = {(0, 1): Fraction(-1)}
    Q = {(1, 0): Fraction(1)}
    for component in (P, Q):
        component.update(draw(st.dictionaries(higher, _field_coefficients,
                                               min_size=1, max_size=4)))
    return PlanarSystem(Poly2(P, XY), Poly2(Q, XY), XY)


@given(_fields())
def test_generated_curvature_matches_fraction_reference(system):
    assert_matches_reference(scalar_curvature(system), system)
