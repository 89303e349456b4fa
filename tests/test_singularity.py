"""Certified 2x2 solving, singular-locus decomposition, and the two criteria."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.curvature import (
    INDETERMINATE,
    SINGULAR,
    DegenerateMetricError,
    scalar_curvature,
)
from cclab.parsing import parse_system
from cclab.polynomials import Poly2
from cclab.realroots import RootInterval
from cclab.systems import PlanarSystem
from cclab.singularity import (
    A_FAILS_INDETERMINATE,
    A_FAILS_NO_SINGULARITY,
    A_FAILS_R_NEGATIVE,
    A_HOLDS,
    DEGENERATE_BRANCH,
    EMPTY_CERTIFIED,
    NEGATIVE_NEIGHBORHOOD,
    POINTS,
    POSITIVE_NEIGHBORHOOD,
    SIGN_UNRESOLVED,
    DivergencePoint,
    EquilibriumCertificate,
    PointBox,
    SingularLocusReport,
    _Jets,
    _certify_half_exact,
    _merge_across_branches,
    _specialize,
    assertion_report,
    find_equilibria,
    real_solutions_2x2,
    sign_at,
    singular_locus,
    verify_equilibrium,
)
from cclab.curvature import CurvatureData
from cclab.polynomials import UniPoly
from test_polynomials import any_polys, big_rationals

XY = ("x", "y")


def P(terms):
    return Poly2(terms, XY)


def origin_certificate(curv):
    """The exact equilibrium certificate at the origin, as a one-item list."""
    return [verify_equilibrium(curv, _exact_box(0, 0))]


# Locus of the two-cycle system, frozen from an independent high-precision
# run: the eight zeros of the first Jacobian-column pair.  The second
# column's zeros are exactly their images under the quarter turn
# (u, v) -> (-v, u), and each branch is itself symmetric under the point
# reflection through the origin.
TWO_CYCLE_LOCUS_HALF = [
    (-1.506350093620, 0.687300372552),
    (-0.532206267714, -0.216482055810),
    (-0.167867309983, -0.956244371559),
    (-0.084352334154, 1.994673294874),
    (0.084352334154, -1.994673294874),
    (0.167867309983, 0.956244371559),
    (0.532206267714, 0.216482055810),
    (1.506350093620, -0.687300372552),
]


# --- the certified 2x2 solver ----------------------------------------------------


def test_line_meets_circle_at_two_exact_points():
    line = P({(1, 0): 1, (0, 1): 1, (0, 0): -3})
    circle = P({(2, 0): 1, (0, 2): 1, (0, 0): -5})
    result = real_solutions_2x2(line, circle)
    assert result.status == POINTS
    assert len(result.points) == 2
    assert not result.unresolved
    boxes = sorted(result.points, key=lambda b: b.float_point())
    for box, (tx, ty) in zip(boxes, [(Fraction(1), Fraction(2)),
                                     (Fraction(2), Fraction(1))]):
        assert box.x.lo <= tx <= box.x.hi
        assert box.y.lo <= ty <= box.y.hi
        fx, fy = box.float_point()
        assert abs(fx - tx) < 1e-9 and abs(fy - ty) < 1e-9


def test_disjoint_curves_certified_empty():
    f = P({(2, 0): 1, (0, 2): 1, (0, 0): 1})   # empty real curve
    g = P({(1, 0): 1, (0, 1): -1})
    result = real_solutions_2x2(f, g)
    assert result.status == EMPTY_CERTIFIED
    assert not result.points


def test_irrational_intersections_are_certified_boxes():
    # y = x^2 meets x^2 + y^2 = 3: x^2 = y, y^2 + y - 3 = 0,
    # y = (sqrt(13) - 1)/2, two symmetric x values
    f = P({(0, 1): 1, (2, 0): -1})
    g = P({(2, 0): 1, (0, 2): 1, (0, 0): -3})
    result = real_solutions_2x2(f, g)
    assert result.status == POINTS
    assert len(result.points) == 2
    assert not result.unresolved
    y_true = (13 ** 0.5 - 1) / 2
    for box in result.points:
        fx, fy = box.float_point()
        assert abs(fy - y_true) < 1e-9
        assert abs(abs(fx) - y_true ** 0.5) < 1e-9


def test_shared_factor_is_degenerate():
    shared = P({(1, 0): 1, (0, 1): -1})
    f = shared * P({(1, 0): 1, (0, 0): 2})
    g = shared * P({(0, 1): 1, (0, 0): -3})
    result = real_solutions_2x2(f, g)
    assert result.status == DEGENERATE_BRANCH


def test_zero_inputs():
    zero = Poly2.zero(XY)
    with pytest.raises(ValueError):
        real_solutions_2x2(zero, zero)
    assert real_solutions_2x2(zero, P({(0, 0): 2})).status == EMPTY_CERTIFIED
    assert real_solutions_2x2(zero, P({(1, 0): 1})).status == DEGENERATE_BRANCH


def test_rootless_eliminant_certifies_through_common_leading_zeros():
    # as polynomials in y the leading coefficients 2x and -2x vanish together
    # on x = 0, where the x-eliminant has a real root; the y-eliminant has
    # none, and since it lies in the ideal of the pair that settles it
    f = P({(2, 0): -2, (1, 1): 2, (0, 0): -2})   # -2x^2 + 2xy - 2
    g = P({(1, 2): -2, (0, 0): -2})              # -2xy^2 - 2
    assert str(f.coeffs_in("y")[-1]) == "2*x"
    assert str(g.coeffs_in("y")[-1]) == "-2*x"
    result = real_solutions_2x2(f, g)
    assert str(result.eliminant_x) == "-8*x^5 - 16*x^3 - 8*x^2 - 8*x"
    assert result.eliminant_x.eval_at(Fraction(0)) == 0
    assert str(result.eliminant_y) == "-8*y^4 - 8*y^3 - 8"
    assert result.status == EMPTY_CERTIFIED
    assert not result.points and not result.unresolved
    assert result.notes == (
        "eliminant in y has no real roots; since the resultant lies in the "
        "ideal of the pair, no common real zero can exist",)


def test_tangential_rational_contact_is_pinned():
    f = P({(0, 1): 1, (2, 0): -1})  # y - x^2
    g = P({(0, 1): 1})              # y
    result = real_solutions_2x2(f, g)
    assert result.status == POINTS
    assert len(result.points) == 1
    box = result.points[0]
    assert box.is_exact and box.x.exact == 0 and box.y.exact == 0


def test_tangential_branch_pair_has_no_unresolved_cell():
    """generic4-127's branch pair meets tangentially at (16, -32), where
    det J = 0, so interval Newton cannot certify that cell; isolation
    returns both of its coordinates exactly instead."""
    system = parse_system("vars: x y\ndx = -3/32768*x^2*y - 3/16384*x^3\n"
                          "dy = 1 + 3/64*y + 1/8192*x^3\n")
    result = real_solutions_2x2(system.P, system.Q)
    assert result.status == POINTS and not result.unresolved
    assert [(box.x.exact, box.y.exact) for box in result.points] == [
        (-32, 64), (0, Fraction(-64, 3)), (16, -32)]


# --- specialization against the UniPoly loop it replaced ----------------------


def _reference_specialize(poly, var, value):
    survivor = poly.varnames[1 - poly._axis(var)]
    out = UniPoly.zero(survivor)
    power = Fraction(1)
    for row in poly.coeffs_in(var):
        out = out + row.scale(power)
        power *= value
    return out


@given(any_polys, st.one_of(big_rationals, st.fractions(max_denominator=12)))
def test_specialize_matches_reference(poly, value):
    for var in XY:
        assert _specialize(poly, var, value) == _reference_specialize(poly, var, value)


# --- sign-grid cross-check of certified emptiness ---------------------------------


def _grid_values(poly: Poly2, axis: np.ndarray) -> np.ndarray:
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    total = np.zeros_like(X)
    for (i, j), c in poly.terms.items():
        total += float(c) * X ** i * Y ** j
    return total


def _cells_where_sign_spans_zero(values: np.ndarray) -> np.ndarray:
    corners = (values[:-1, :-1], values[1:, :-1],
               values[:-1, 1:], values[1:, 1:])
    lo = np.minimum.reduce(corners)
    hi = np.maximum.reduce(corners)
    return (lo <= 0) & (hi >= 0)


def test_empty_branches_survive_dense_sign_grid(curvatures):
    """No 0.01-cell of [-10,10]^2 lets both pair members straddle zero."""
    axis = np.linspace(-10.0, 10.0, 2001)
    for key in ("s1", "s2"):
        for pair in curvatures[key].branches:
            f_span = _cells_where_sign_spans_zero(_grid_values(pair.first, axis))
            g_span = _cells_where_sign_spans_zero(_grid_values(pair.second, axis))
            assert not np.any(f_span & g_span), (key, pair.column)


# --- singular loci of the catalogue systems ----------------------------------------


def test_cubic_and_transformed_loci_are_empty(loci):
    for key in ("s1", "s2"):
        report = loci[key]
        assert report.all_branches_empty, key
        assert not report.divergence_points, key
        assert not report.unresolved, key
        assert report.certified_divergence_count == 0, key


def test_center_locus_is_one_exact_point(loci):
    report = loci["center"]
    assert len(report.divergence_points) == 1
    dp = report.divergence_points[0]
    assert dp.numerator_nonzero
    assert dp.box.is_exact
    assert dp.box.x.exact == 0 and dp.box.y.exact == -1
    assert report.certified_divergence_count == 1


def test_two_cycle_locus_has_sixteen_certified_points(loci):
    report = loci["s1a"]
    assert len(report.divergence_points) == 16
    assert report.certified_divergence_count == 16
    assert all(dp.numerator_nonzero and not dp.note
               for dp in report.divergence_points)
    assert not report.unresolved

    expected = sorted(TWO_CYCLE_LOCUS_HALF
                      + [(-y, x) for x, y in TWO_CYCLE_LOCUS_HALF])
    got = sorted(dp.box.float_point() for dp in report.divergence_points)
    for (gx, gy), (ex, ey) in zip(got, expected):
        assert abs(gx - ex) < 1e-9 and abs(gy - ey) < 1e-9


def _partials_of_order(poly: Poly2, k: int) -> list[Poly2]:
    """Every d^k/(dx^i dy^(k-i)) of poly, zeros included, built directly."""
    out = []
    for i in range(k + 1):
        d = poly
        for _ in range(i):
            d = d.partial("x")
        for _ in range(k - i):
            d = d.partial("y")
        out.append(d)
    return out


def _jet_exponent(curv, dp) -> int:
    return sum(curv.den_exponents[i] for i in dp.branch_indices)


def test_certified_divergence_points_satisfy_the_defining_signs(loci, curvatures):
    """At an exact point: den = 0, and the point is certified iff num != 0
    there or some partial of num of order below 2e is nonzero there, with e
    the summed den exponents of its branches; all evaluated exactly."""
    for key, report in loci.items():
        curv = curvatures[key]
        reduced = curv.curvature
        for dp in report.divergence_points:
            if not dp.box.is_exact:
                continue
            px, py = dp.box.x.exact, dp.box.y.exact
            assert reduced.denominator.eval_at(px, py) == 0, key
            nonzero_jet = any(
                d.eval_at(px, py) != 0
                for k in range(2 * _jet_exponent(curv, dp))
                for d in _partials_of_order(reduced.numerator, k))
            assert dp.numerator_nonzero == nonzero_jet, key


def _assert_jet_certificates(curv, report):
    """Each certified non-exact point has a partial of the reduced numerator
    of order k < 2e whose enclosure over its box excludes zero."""
    numerator = curv.curvature.numerator
    for dp in report.divergence_points:
        if not dp.numerator_nonzero or dp.box.is_exact:
            continue
        ix, iy = dp.box.intervals()
        enclosures = (d.eval_box(ix, iy)
                      for k in range(2 * _jet_exponent(curv, dp))
                      for d in _partials_of_order(numerator, k))
        assert any(lo > 0 or hi < 0 for lo, hi in enclosures), dp


def test_catalogue_jet_certificates(loci, curvatures):
    for key, report in loci.items():
        _assert_jet_certificates(curvatures[key], report)


# fields x' = -y + f, y' = x + g with f, g cubic: the metric factors vanish
# at isolated real points for many of them
_small_coeffs = st.fractions(min_value=Fraction(-2), max_value=Fraction(2),
                             max_denominator=4)
_nonlinear_terms = st.dictionaries(
    st.sampled_from([(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]),
    _small_coeffs, min_size=1, max_size=4)


@settings(max_examples=25)
@given(_nonlinear_terms, _nonlinear_terms)
def test_certified_points_carry_a_jet_certificate(f_terms, g_terms):
    P_ = P({(0, 1): -1, **f_terms})
    Q_ = P({(1, 0): 1, **g_terms})
    try:
        curv = scalar_curvature(PlanarSystem(P_, Q_, XY))
    except DegenerateMetricError:
        return
    _assert_jet_certificates(curv, singular_locus(curv))


GENERIC_CUBIC = ("-y + x^3 - 2*x*y^2 + x^2/2", "x + 3*x^2*y - y^3/4 + x*y")


def test_generic_cubic_certifies_all_four_points():
    dx, dy = GENERIC_CUBIC
    curv = scalar_curvature(parse_system(f"vars: x y\ndx = {dx}\ndy = {dy}\n"))
    report = singular_locus(curv)
    assert len(report.divergence_points) == 4
    assert report.certified_divergence_count == 4
    verdict = assertion_report(origin_certificate(curv), report)
    assert verdict.assertion_A != A_FAILS_NO_SINGULARITY
    assert verdict.assertion_B_count == 4


def test_exact_point_with_vanishing_gradient_is_certified_at_order_two():
    """At (+-1, 0) the reduced N and D and the gradient of N all vanish; a
    nonzero Hessian entry gives order 2 < 2e = 4."""
    curv = scalar_curvature(parse_system(
        "vars: x y\ndx = -y + x^2*y - 2*y^2\ndy = x - y^3 - 2*x^3\n"))
    report = singular_locus(curv)
    numerator = curv.curvature.numerator
    exact = [dp for dp in report.divergence_points if dp.box.is_exact]
    assert sorted(dp.box.x.exact for dp in exact) == [-1, 1]
    for dp in exact:
        px, py = dp.box.x.exact, dp.box.y.exact
        assert py == 0
        assert curv.curvature.evaluate(px, py).kind == INDETERMINATE
        assert _jet_exponent(curv, dp) == 2
        for k in (0, 1):
            assert all(d.eval_at(px, py) == 0
                       for d in _partials_of_order(numerator, k))
        assert any(d.eval_at(px, py) != 0
                   for d in _partials_of_order(numerator, 2))
        assert dp.numerator_nonzero and not dp.note
    assert report.certified_divergence_count == len(report.divergence_points)


def test_half_exact_cell_pins_a_rational_root():
    """On the line x = 1 an exact y is kept when the gcd vanishes there,
    and an inexact one, which isolation leaves only around an irrational
    root, is refined to a 1e-30 box."""
    line = P({(1, 0): 1, (0, 0): -1})                    # x - 1
    pinned = RootInterval(Fraction(-4), Fraction(-4), Fraction(-4))
    assert _certify_half_exact(line, P({(0, 1): 1, (0, 0): 4}), "x",
                               Fraction(1), pinned) == pinned
    assert _certify_half_exact(line, P({(0, 1): 1, (0, 0): 3}), "x",
                               Fraction(1), pinned) is None
    boxed = _certify_half_exact(line, P({(0, 2): 1, (0, 0): -2}), "x",
                                Fraction(1), RootInterval(Fraction(1),
                                                          Fraction(2)))
    assert boxed.exact is None
    assert boxed.lo ** 2 < 2 < boxed.hi ** 2
    assert boxed.width <= Fraction(1, 10**30)
    # the gcd y^2 - 2 keeps its sign across (2, 3): no common zero there
    assert _certify_half_exact(line, P({(0, 2): 1, (0, 0): -2}), "x",
                               Fraction(1), RootInterval(Fraction(2),
                                                         Fraction(3))) is None


def test_bendixson_divergence_point_is_exact():
    """The field's one denominator zero, (1, -4), has x exact from isolation
    and y from the half-exact gcd; both are pinned, so the point takes the
    exact jet path."""
    curv = scalar_curvature(parse_system(
        "vars: x y\ndx = -y + x + x^3 + x*y\ndy = x + y + y^3 - x^2/2\n"))
    report = singular_locus(curv)
    assert len(report.divergence_points) == 1
    point = report.divergence_points[0]
    assert point.box.is_exact
    assert (point.box.x.exact, point.box.y.exact) == (1, -4)
    assert point.numerator_nonzero and not point.note


def test_jets_skip_zero_partials_and_build_on_demand():
    poly = P({(3, 0): 2, (1, 1): -1, (0, 2): Fraction(1, 3)})
    jets = _Jets(poly)
    assert jets.of_order(0) == (poly,)
    assert len(jets._orders) == 1
    for k in range(5):
        direct = [d for d in _partials_of_order(poly, k) if not d.is_zero()]
        assert sorted(map(str, jets.of_order(k))) == sorted(map(str, direct))
    assert jets.of_order(4) == ()


def test_sign_at_exact_points_and_boxes():
    poly = P({(1, 0): -1, (0, 1): 2})                    # 2y - x
    jets = _Jets(poly)
    assert sign_at(_exact_box(0, 1), jets, (0,)) == 1
    assert sign_at(_exact_box(2, 1), jets, (0,)) == 0
    # at (2, 1) the first nonzero partial is d/dx = -1
    assert sign_at(_exact_box(2, 1), jets, range(2)) == -1
    third = Fraction(1, 3)
    assert sign_at(_box(third, 2 * third, -1, 0), jets, (0,)) == -1
    assert sign_at(_box(-1, 1, -1, 1), jets, (0,)) is None


def test_sign_at_reads_an_enclosure_of_zero_as_zero():
    """On the line y = 0 a multiple of y encloses to {0} on every box
    around an irrational x, so it vanishes at the point."""
    box = PointBox(RootInterval(Fraction(141, 100), Fraction(142, 100)),
                   RootInterval(Fraction(0), Fraction(0), Fraction(0)))
    multiple_of_y = P({(2, 1): 1, (0, 1): -2})           # (x^2 - 2) y
    assert sign_at(box, _Jets(multiple_of_y), (0,)) == 0
    assert sign_at(box, _Jets(multiple_of_y), range(2)) is None


# generic2-0 of the seeded generic workload: its denominator zero
# (-64/9, -128/9) is rational, and the reduced numerator vanishes there
GENERIC2_0 = ("-y + 1/128*x^2 - 1/64*x*y - 1/32*y^2",
              "x + 1/64*x^2 - 1/32*x*y + 1/128*y^2")


def test_collapsed_newton_image_is_marked_exact():
    """The rational zero that an interval Newton step would enclose in a
    one-point box is exact from isolation, before any Newton step."""
    dx, dy = GENERIC2_0
    curv = scalar_curvature(parse_system(f"vars: x y\ndx = {dx}\ndy = {dy}\n"))
    exact = [(dp.box.x.exact, dp.box.y.exact)
             for dp in singular_locus(curv).divergence_points if dp.box.is_exact]
    assert (Fraction(-64, 9), Fraction(-128, 9)) in exact


def test_zero_enclosure_does_not_end_the_divergence_search():
    dx, dy = GENERIC2_0
    curv = scalar_curvature(parse_system(f"vars: x y\ndx = {dx}\ndy = {dy}\n"))
    report = singular_locus(curv)
    jets = _Jets(curv.curvature.numerator)
    point = next(dp for dp in report.divergence_points
                 if dp.box.intervals() == ((Fraction(-64, 9),) * 2,
                                           (Fraction(-128, 9),) * 2))
    assert sign_at(point.box, jets, (0,)) == 0
    assert sign_at(point.box, jets, range(4)) != 0
    assert point.numerator_nonzero
    assert report.certified_divergence_count == len(report.divergence_points)


def test_unresolved_equilibrium_enclosure_makes_the_verdict_indeterminate():
    box = _box(1, 2, 1, 2)
    certified = DivergencePoint(box, True, (0,))
    locus = SingularLocusReport((), (), (certified,), (), ())
    positive = EquilibriumCertificate(_exact_box(0, 0), POSITIVE_NEIGHBORHOOD)
    negative = EquilibriumCertificate(box, NEGATIVE_NEIGHBORHOOD)
    assert assertion_report([positive], locus).assertion_A == A_HOLDS
    report = assertion_report([positive], locus, 1)
    assert report.assertion_A == A_FAILS_INDETERMINATE
    assert any("unresolved equilibrium enclosure" in note
               for note in report.notes)
    assert (assertion_report([positive, negative], locus, 1).assertion_A
            == A_FAILS_R_NEGATIVE)


def test_unresolved_equilibrium_sign_makes_the_verdict_indeterminate():
    locus = SingularLocusReport((), (), (DivergencePoint(_box(1, 2, 1, 2),
                                                         True, (0,)),), (), ())
    positive = EquilibriumCertificate(_exact_box(0, 0), POSITIVE_NEIGHBORHOOD)
    unsigned = EquilibriumCertificate(_box(3, 4, 3, 4), SIGN_UNRESOLVED)
    report = assertion_report([positive, unsigned], locus)
    assert report.assertion_A == A_FAILS_INDETERMINATE
    assert report.equilibrium_signs[1] == (_box(3, 4, 3, 4), SIGN_UNRESOLVED)


def test_open_divergence_point_makes_the_first_criterion_indeterminate():
    """A positive equilibrium sign with 0 certified but 1 uncertified
    divergence point is not "no singularity"."""
    box = _box(0, Fraction(1, 10), 0, Fraction(1, 10))
    open_point = DivergencePoint(box, False, (0,), "divergence not certified")
    removable = DivergencePoint(box, False, (1,), "removable: finite here")
    cert = EquilibriumCertificate(_exact_box(0, 0), POSITIVE_NEIGHBORHOOD)

    def locus(points):
        return SingularLocusReport((), (), tuple(points), (), ())

    report = assertion_report([cert], locus([open_point, removable]))
    assert report.assertion_A == A_FAILS_INDETERMINATE
    assert report.assertion_B_count == 0
    assert any("1 located divergence point(s) are uncertified" in note
               for note in report.notes)
    assert (assertion_report([cert], locus([removable])).assertion_A
            == A_FAILS_NO_SINGULARITY)


def test_branch_relabeling_does_not_change_the_count(curvatures):
    data = curvatures["center"]
    swapped = CurvatureData(
        system=data.system,
        metric=data.metric,
        curvature=data.curvature,
        den_exponents=data.den_exponents,
        branches=(data.branches[1], data.branches[0]),
    )
    a = singular_locus(data)
    b = singular_locus(swapped)
    assert (a.certified_divergence_count
            == b.certified_divergence_count == 1)
    assert len(a.divergence_points) == len(b.divergence_points)


def _exact_box(x, y):
    x, y = Fraction(x), Fraction(y)
    return PointBox(RootInterval(x, x, x), RootInterval(y, y, y))


def _box(x_lo, x_hi, y_lo, y_hi):
    return PointBox(RootInterval(Fraction(x_lo), Fraction(x_hi)),
                    RootInterval(Fraction(y_lo), Fraction(y_hi)))


def test_merge_joins_one_exact_point_found_by_two_branches():
    merged = _merge_across_branches([(_exact_box(Fraction(1, 2), -3), (1,)),
                                     (_exact_box(Fraction(1, 2), -3), (0,)),
                                     (_exact_box(2, 0), (0,))])
    assert merged == [(_exact_box(Fraction(1, 2), -3), (0, 1)),
                      (_exact_box(2, 0), (0,))]


# --- equilibria --------------------------------------------------------------------


def test_catalogue_equilibria_are_the_origin(catalogue):
    for key, entry in catalogue.items():
        result = find_equilibria(entry.system)
        assert result.status == POINTS, key
        exact = [(b.x.exact, b.y.exact) for b in result.points if b.is_exact]
        assert (Fraction(0), Fraction(0)) in exact, key


def test_center_has_only_the_origin():
    system = parse_system("vars: x y\ndx = -y + x^2\ndy = x + x*y\n")
    result = find_equilibria(system)
    assert len(result.points) == 1


def test_degenerate_equilibrium_set_rejected():
    system = parse_system("vars: x y\ndx = x*y\ndy = x*(y + 1)\n")
    with pytest.raises(ValueError):
        find_equilibria(system)


def test_verify_equilibrium_certificate(curvatures):
    data = curvatures["s1"]
    cert = verify_equilibrium(data, _exact_box(0, 0))
    assert cert.valid
    assert cert.R_at_point.value == -1
    off = verify_equilibrium(data, _exact_box(1, 1))
    assert not off.valid


# --- sign of R near equilibria and the two criteria ------------------------------


def test_sign_verdicts(curvatures, loci):
    expected = {"s1": NEGATIVE_NEIGHBORHOOD, "s1a": NEGATIVE_NEIGHBORHOOD,
                "s2": POSITIVE_NEIGHBORHOOD, "center": POSITIVE_NEIGHBORHOOD}
    for key, sign in expected.items():
        report = assertion_report(origin_certificate(curvatures[key]),
                                  loci[key])
        assert report.equilibrium_signs == ((_exact_box(0, 0), sign),)


def test_assertion_reports(curvatures, loci):
    def report(key):
        return assertion_report(origin_certificate(curvatures[key]), loci[key])

    r = report("s1")
    assert r.assertion_A == A_FAILS_R_NEGATIVE
    assert r.assertion_B_count == 0

    r = report("s1a")
    assert r.assertion_A == A_FAILS_R_NEGATIVE
    assert r.assertion_B_count == 16

    r = report("s2")
    assert r.assertion_A == A_FAILS_NO_SINGULARITY
    assert r.assertion_B_count == 0

    r = report("center")
    assert r.assertion_A == A_HOLDS
    assert r.assertion_B_count == 1


def test_assertion_report_rejects_non_equilibria(curvatures, loci):
    data = curvatures["s1"]
    off = verify_equilibrium(data, _exact_box(1, 0))
    with pytest.raises(ValueError):
        assertion_report([off], loci["s1"])


def test_two_cycle_criteria_regression(curvatures, loci, analyses):
    """R < 0 near the origin and two genuine cycles: both criteria wrong."""
    report = assertion_report(origin_certificate(curvatures["s1a"]),
                              loci["s1a"])
    assert report.assertion_A == A_FAILS_R_NEGATIVE
    assert report.assertion_B_count == 16
    assert analyses["s1a"].cycles_exact.cycle_count == 2


@pytest.mark.parametrize("dx, dy", [
    # the generic cubic: every cell is settled without refinement
    ("-y + x^3 - 2*x*y^2 + x^2/2", "x + 3*x^2*y - y^3/4 + x*y"),
    # generic4-127's branch pair: both eliminants have a double root, so
    # each context divides gcd(p, p') out and builds the quotient's chain
    ("-3/32768*x^2*y - 3/16384*x^3", "1 + 3/64*y + 1/8192*x^3"),
])
def test_one_square_free_part_per_eliminant(monkeypatch, dx, dy):
    """Isolation builds one root context per eliminant, whose one Sturm
    chain of the eliminant also gives its square-free part, and the cell
    certification refines through it instead of starting again."""
    from cclab import realroots
    system = parse_system(f"vars: x y\ndx = {dx}\ndy = {dy}\n")
    calls = []
    sturm_chain = realroots.sturm_chain

    def counted(p):
        calls.append(p)
        return sturm_chain(p)

    monkeypatch.setattr(realroots, "sturm_chain", counted)
    result = real_solutions_2x2(system.P, system.Q)
    assert result.status == POINTS and result.points
    for eliminant in (result.eliminant_x, result.eliminant_y):
        assert sum(1 for p in calls if p == eliminant) == 1
