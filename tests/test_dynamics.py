"""Integration, radial structure detection, and both cycle locators."""

import math
import time
from fractions import Fraction

import pytest

from cclab import dynamics
from cclab.dynamics import (
    EXACT_RADIAL,
    NUMERIC_POINCARE,
    SEMI_STABLE,
    STABLE,
    TWO_PI,
    UNSTABLE,
    DivergenceError,
    EquilibriumCaptureError,
    NoReturnError,
    detect_radial_form,
    exact_radial_cycles,
    find_cycles_numeric,
    poincare_return,
)
from cclab.parsing import parse_system
from cclab.polynomials import UniPoly


def rigid(f_text: str):
    """A rigid system with the given radial factor written in x^2 + y^2."""
    return parse_system(
        "vars: x y\n"
        f"dx = -y + x*({f_text})\n"
        f"dy = x + y*({f_text})\n")


# --- radial structure detection ------------------------------------------------


def test_radial_form_of_catalogue_systems(catalogue):
    form = detect_radial_form(catalogue["s1"].system)
    assert form.matched
    assert form.f == UniPoly([-1, 1], "s")

    form = detect_radial_form(catalogue["s1a"].system)
    assert form.matched
    assert form.f == UniPoly([4, -5, 1], "s")  # (s-1)(s-4)

    assert not detect_radial_form(catalogue["s2"].system).matched
    assert not detect_radial_form(catalogue["center"].system).matched


def test_radial_form_rejects_odd_radial_factor():
    skew = parse_system("vars: x y\ndx = -y + x*x\ndy = x + y*x\n")
    assert not detect_radial_form(skew).matched


def test_rigid_linear_rotation_is_a_center():
    form = detect_radial_form(parse_system("vars: x y\ndx = -y\ndy = x\n"))
    assert form.matched
    assert form.f.is_zero()
    report = exact_radial_cycles(form)
    assert report.center_flag
    assert report.cycle_count == 0


# --- exact cycles ----------------------------------------------------------------


def test_exact_cycles_unit_circle(catalogue):
    report = exact_radial_cycles(detect_radial_form(catalogue["s1"].system))
    assert report.cycle_count == 1
    cycle = report.cycles[0]
    assert cycle.stability == UNSTABLE
    assert cycle.source == EXACT_RADIAL
    assert cycle.radius_interval.exact == 1
    assert cycle.period == TWO_PI


def test_exact_cycles_two_nested(catalogue):
    report = exact_radial_cycles(detect_radial_form(catalogue["s1a"].system))
    assert report.cycle_count == 2
    inner, outer = report.cycles
    assert inner.radius_interval.exact == 1 and inner.stability == STABLE
    assert outer.radius_interval.exact == 2 and outer.stability == UNSTABLE


def test_exact_cycles_irrational_radius():
    report = exact_radial_cycles(detect_radial_form(rigid("x^2 + y^2 - 2")))
    assert report.cycle_count == 1
    iv = report.cycles[0].radius_interval
    assert iv.exact is None
    assert iv.lo ** 2 < 2 < iv.hi ** 2
    assert abs(report.cycles[0].radius - math.sqrt(2)) < 1e-12


def test_exact_cycles_semi_stable_double_root():
    report = exact_radial_cycles(
        detect_radial_form(rigid("(x^2 + y^2 - 1)*(x^2 + y^2 - 1)")))
    assert report.cycle_count == 1
    cycle = report.cycles[0]
    assert cycle.stability == SEMI_STABLE
    assert "multiplicity 2" in cycle.note


def test_exact_cycles_root_above_a_vanishing_region_edge():
    """f = s(s - 1) vanishes at the region edge 0 just below its only
    positive root, so stability must come from the sign above the root."""
    report = exact_radial_cycles(
        detect_radial_form(rigid("(x^2 + y^2)*(x^2 + y^2 - 1)")))
    assert report.cycle_count == 1
    cycle = report.cycles[0]
    assert cycle.stability == UNSTABLE
    assert cycle.radius_interval.exact == 1
    assert cycle.note == ""


def test_exact_cycles_require_matched_form(catalogue):
    with pytest.raises(ValueError):
        exact_radial_cycles(detect_radial_form(catalogue["s2"].system))


# --- integrator ------------------------------------------------------------------


def exact_cubic_state(t: float) -> tuple[float, float]:
    """Closed form for the unit-circle system from (1/2, 0): with u = r^2,
    u' = 2u(u - 1), so u(t) = u0 / (u0 + (1 - u0) e^{2t}) and theta = t."""
    u0 = 0.25
    u = u0 / (u0 + (1 - u0) * math.exp(2.0 * t))
    r = math.sqrt(u)
    return (r * math.cos(t), r * math.sin(t))


def test_dop853_step_converges_at_eighth_order(catalogue):
    deriv = dynamics._compile_field(catalogue["s1"].system).deriv
    ex, ey = exact_cubic_state(5.0)

    def error(h):
        x, y = 0.5, 0.0
        for _ in range(round(5.0 / h)):
            x, y = dynamics._dop853_step(deriv, x, y, *deriv(x, y), h)[:2]
        return math.hypot(x - ex, y - ey)

    errors = [error(h) for h in (1.0, 0.5, 0.25)]
    # halving the step cuts the error by about 2^8 = 256; order 7 gives 128
    assert errors[0] / errors[1] > 150
    assert errors[1] / errors[2] > 150
    assert error(0.1) < 1e-14


def test_dop853_tableau_is_consistent():
    """Catches transcription slips: each row of A sums to its node, the
    weights integrate t^k exactly for k = 0..7, the order-5 error weights
    sum to 0 and the order-3 comparison weights to 1."""
    for c, row in zip(dynamics._DP_C, dynamics._DP_A):
        assert abs(sum(a for _, a in row) - c) < 1e-14
    for k in range(8):
        quadrature = sum(b * dynamics._DP_C[j] ** k for j, b in dynamics._DP_B)
        assert abs(quadrature - 1.0 / (k + 1)) < 1e-14
    assert abs(sum(e for _, e in dynamics._DP_E5)) < 1e-14
    assert abs(sum(b for _, b in dynamics._DP_BHH) - 1.0) < 1e-14


def test_adaptive_integration_tracks_the_closed_form(catalogue):
    deriv = dynamics._compile_field(catalogue["s1"].system).deriv
    states = list(dynamics._adaptive_steps(deriv, (0.5, 0.0), 5.0,
                                           1e-12, 1e-14))
    t, x, y, fx, fy = states[-1]
    ex, ey = exact_cubic_state(5.0)
    assert abs(t - 5.0) < 1e-9
    assert math.hypot(x - ex, y - ey) < 1e-9
    assert (fx, fy) == deriv(x, y)
    # no step is longer than the 0.2 cap
    assert all(b[0] - a[0] <= dynamics._MAX_STEP
               for a, b in zip(states, states[1:]))


def test_divergence_detected(catalogue):
    deriv = dynamics._compile_field(catalogue["s1"].system).deriv
    with pytest.raises(DivergenceError) as exc:
        for _ in dynamics._adaptive_steps(deriv, (3.0, 0.0), 10.0,
                                          1e-10, 1e-12):
            pass
    assert exc.value.t < 10.0


# --- Poincare return map -------------------------------------------------------


def test_return_to_the_unit_circle(catalogue):
    system = catalogue["s1"].system
    assert abs(poincare_return(system, 1.0) - 1.0) < 1e-8


def test_return_decays_inside(catalogue):
    system = catalogue["s1"].system
    # strictly inside the repelling circle the return comes back closer in
    assert poincare_return(system, 0.6) < 0.6


def test_return_requires_positive_start(catalogue):
    with pytest.raises(ValueError):
        poincare_return(catalogue["s1"].system, 0.0)
    with pytest.raises(ValueError):
        poincare_return(catalogue["s1"].system, -1.0)


def test_no_return_error(monkeypatch):
    monkeypatch.setattr(dynamics, "_T_MAX", 5.0)
    runaway = parse_system("vars: x y\ndx = x\ndy = 0\n")
    with pytest.raises(NoReturnError):
        poincare_return(runaway, 1.0)


@pytest.mark.parametrize("r0", [0.3, 1.0, 3.7])
def test_return_event_of_the_linear_rotation(r0):
    """Every orbit of dx = -y, dy = x is a circle run in time 2*pi, so the
    crossing solve must land on the start to the return tolerances."""
    deriv = dynamics._section_field(
        parse_system("vars: x y\ndx = -y\ndy = x\n"))
    xc, tc = dynamics._return_event(deriv, r0, dynamics._RETURN_RTOL,
                                    dynamics._RETURN_ATOL)
    assert abs(xc - r0) < 1e-12
    assert abs(tc - TWO_PI) < 1e-12


def counting_field(field, calls: list):
    """The field with every evaluation of F recorded in ``calls``."""
    def deriv(x, y):
        calls.append((x, y))
        return field.deriv(x, y)

    return field._replace(deriv=deriv)


def test_one_return_of_the_rotation_is_cheap():
    """At the scan tolerances order 8 takes the 0.2 step cap around the
    circle: about 35 steps of 12 evaluations, plus the crossing solve."""
    calls = []
    field = dynamics._section_field(parse_system("vars: x y\ndx = -y\ndy = x\n"))
    cell = dynamics._evaluate_cell(counting_field(field, calls), 1.0)
    assert cell.kind == dynamics._RETURN
    assert len(calls) <= 600


def test_equilibrium_capture_error(monkeypatch):
    monkeypatch.setattr(dynamics, "_R_MIN", 1e-3)
    sink = rigid("-1")
    with pytest.raises(EquilibriumCaptureError) as exc:
        poincare_return(sink, 0.5)
    assert exc.value.r_min <= 1e-3


# --- numeric cycle scan -----------------------------------------------------------


def test_scan_finds_the_unit_circle(catalogue):
    report = find_cycles_numeric(catalogue["s1"].system, (0.25, 4.0), 16)
    assert report.cycle_count == 1
    cycle = report.cycles[0]
    assert cycle.source == NUMERIC_POINCARE
    assert cycle.stability == UNSTABLE
    assert abs(cycle.radius - 1.0) < 1e-6
    assert abs(cycle.period - TWO_PI) < 1e-6
    assert not report.center_flag


def test_scan_finds_both_nested_cycles(catalogue):
    report = find_cycles_numeric(catalogue["s1a"].system, (0.25, 4.0), 16)
    assert report.cycle_count == 2
    inner, outer = sorted(report.cycles, key=lambda c: c.radius)
    assert abs(inner.radius - 1.0) < 1e-6 and inner.stability == STABLE
    assert abs(outer.radius - 2.0) < 1e-6 and outer.stability == UNSTABLE


def test_scan_crossing_of_transformed_system(catalogue):
    report = find_cycles_numeric(catalogue["s2"].system, (0.25, 4.0), 16)
    assert report.cycle_count == 1
    assert abs(report.cycles[0].radius - math.sqrt(0.5)) < 1e-6
    assert report.cycles[0].stability == UNSTABLE


def test_scan_flags_center(catalogue):
    report = find_cycles_numeric(catalogue["center"].system, (0.25, 4.0), 16)
    assert report.cycle_count == 0
    assert report.center_flag


@pytest.mark.parametrize("key, radii", [
    ("s1", [1.0]), ("s1a", [1.0, 2.0]), ("s2", [math.sqrt(0.5)])])
def test_scan_radii_and_periods_are_accurate(catalogue, key, radii):
    report = find_cycles_numeric(catalogue[key].system, (0.25, 4.0), 16)
    assert len(report.cycles) == len(radii)
    for cycle, radius in zip(report.cycles, radii):
        assert abs(cycle.radius - radius) < 1e-11
        assert abs(cycle.period - TWO_PI) < 1e-10


def test_scan_reversed_range_is_identical(catalogue):
    forward = find_cycles_numeric(catalogue["s1"].system, (0.25, 4.0), 16)
    backward = find_cycles_numeric(catalogue["s1"].system, (4.0, 0.25), 16)
    assert forward == backward


def test_scan_argument_validation(catalogue):
    with pytest.raises(ValueError):
        find_cycles_numeric(catalogue["s1"].system, (0.0, 4.0), 16)
    with pytest.raises(ValueError):
        find_cycles_numeric(catalogue["s1"].system, (0.25, 4.0), 1)


def test_scan_survives_float_overflow_in_the_field():
    """Degree 7: far-out trial steps overflow to inf or nan before the 1e12
    coordinate guard fires; they must shrink the step, not abort the scan."""
    system = rigid("(x^2 + y^2 - 1)*(x^2 + y^2 - 2)*(x^2 + y^2 - 3)")
    report = find_cycles_numeric(system, (0.25, 4.0), 16)
    assert [c.stability for c in report.cycles] == [UNSTABLE, STABLE, UNSTABLE]
    for cycle, sq in zip(report.cycles, (1, 2, 3)):
        assert abs(cycle.radius - math.sqrt(sq)) < 1e-6


def test_scan_times_a_strongly_repelling_cycle_backward():
    """Radius^2 = 5: the cycle's multiplier is e^(20*pi), so in the forward
    field every grid cell near it escapes or is captured before returning.
    The bracket is refined in the reflected, time-reversed field, where the
    cycle attracts, and the return that meets the tolerance times the
    period."""
    report = find_cycles_numeric(rigid("x^2 + y^2 - 5"), (0.25, 4.0), 16)
    assert report.cycle_count == 1
    cycle = report.cycles[0]
    assert abs(cycle.radius - math.sqrt(5)) < 1e-6
    assert cycle.stability == UNSTABLE
    assert abs(cycle.period - TWO_PI) < 1e-6
    assert cycle.note == ""


def test_scan_compiles_the_field_once(catalogue, monkeypatch):
    calls = []
    compile_field = dynamics._compile_field

    def counting(system):
        calls.append(system)
        return compile_field(system)

    monkeypatch.setattr(dynamics, "_compile_field", counting)
    report = find_cycles_numeric(catalogue["s1a"].system, (0.25, 4.0), 16)
    assert report.cycle_count == 2
    assert len(calls) == 1


@pytest.mark.parametrize("key", ["s1", "s1a", "s2", "center"])
def test_catalogue_scan_return_count(catalogue, monkeypatch, key):
    """The grid costs one return per radius; each bracket, refined where its
    cycle attracts, costs at most four more."""
    calls = []
    return_event = dynamics._return_event

    def counting(*args):
        calls.append(args[1])
        return return_event(*args)

    monkeypatch.setattr(dynamics, "_return_event", counting)
    report = find_cycles_numeric(catalogue[key].system, (0.25, 4.0), 16)
    assert len(calls) <= 16 + 4 * report.cycle_count


STIFF_CUBIC = ("vars: x y\n"
               "dx = -y + y^2/32 + 3*y^3/512 - x^2/64\n"
               "dy = x + 3*y^2/32 - x*y^2/1024 + x^2/16\n")


def test_stiff_return_spends_its_step_budget():
    """From r = 3.3 this cubic runs into a stiff far stable node, where the
    step controller would reject steps by the million before t_max; the
    trial-step budget ends the return as an unusable cell."""
    deriv = dynamics._section_field(parse_system(STIFF_CUBIC))
    cell = dynamics._evaluate_cell(deriv, 3.3)
    assert cell.kind == dynamics._UNUSABLE
    assert "budget of %d" % dynamics._RETURN_STEPS in cell.note


def test_scan_of_a_stiff_cubic_is_bounded():
    started = time.perf_counter()
    report = find_cycles_numeric(parse_system(STIFF_CUBIC), (0.25, 4.0), 16)
    assert time.perf_counter() - started < 20.0
    assert report.cycle_count == 0
    assert any("produced no usable displacement" in note
               for note in report.notes)
    # each unusable cell's reason reaches the report
    assert any("budget of %d" % dynamics._RETURN_STEPS in note
               for note in report.notes)


GENERIC_CUBIC = ("vars: x y\n"
                 "dx = -y + x^3 - 2*x*y^2 + x^2/2\n"
                 "dy = x + 3*x^2*y - y^3/4 + x*y\n")


def test_returns_end_where_the_orbit_settles_at_a_sink():
    """13 of this cubic's 16 grid orbits settle at the focus near
    (0.3715, -1.457), and each return ends there instead of running out
    t_max = 1e3 at the 0.2 step cap (about 60000 evaluations)."""
    field = dynamics._section_field(parse_system(GENERIC_CUBIC))
    settled = 0
    for k in range(16):
        calls = []
        cell = dynamics._evaluate_cell(counting_field(field, calls),
                                       0.25 * 16.0 ** (k / 15))
        if cell.kind == dynamics._UNUSABLE:
            settled += 1
            assert "settled at the sink (0.371536, -1.45689)" in cell.note
            assert len(calls) < 3500
    assert settled == 13
    report = find_cycles_numeric(parse_system(GENERIC_CUBIC), (0.25, 4.0), 16)
    assert any("13 grid radii" in note and "settled at the sink" in note
               for note in report.notes)


def test_scan_period_unknown_when_no_return_is_timed(no_timed_returns):
    """With every return reduced to its sign the bracket still refines to
    the cycle, but no return is timed, so the period is None, never NaN."""
    report = find_cycles_numeric(rigid("x^2 + y^2 - 5"), (0.25, 4.0), 16)
    assert report.cycle_count == 1
    cycle = report.cycles[0]
    assert abs(cycle.radius - math.sqrt(5)) < 1e-6
    assert cycle.stability == UNSTABLE
    assert cycle.period is None
    assert cycle.note.startswith("period unknown")
    assert "period = unknown" in cycle.summary()


def test_exact_and_numeric_radii_agree(catalogue):
    for key in ("s1", "s1a"):
        system = catalogue[key].system
        exact = exact_radial_cycles(detect_radial_form(system))
        numeric = find_cycles_numeric(system, (0.25, 4.0), 16)
        assert exact.cycle_count == numeric.cycle_count
        for e, n in zip(sorted(exact.cycles, key=lambda c: c.radius),
                        sorted(numeric.cycles, key=lambda c: c.radius)):
            assert abs(e.radius - n.radius) < 1e-6
            assert e.stability == n.stability
            assert abs(n.period - TWO_PI) < 1e-6


def test_poincare_return_ends_at_the_sink(monkeypatch):
    """At its own tight tolerances poincare_return still stops where the
    orbit settles, instead of integrating to t_max = 1e3 (about 60000
    evaluations) and reporting no return."""
    section_field = dynamics._section_field
    for r0 in (1.0, 4.0):
        calls = []
        monkeypatch.setattr(
            dynamics, "_section_field",
            lambda system: counting_field(section_field(system), calls))
        with pytest.raises(NoReturnError) as exc:
            poincare_return(parse_system(GENERIC_CUBIC), r0)
        assert "settled at the sink (0.371536, -1.45689)" in str(exc.value)
        assert len(calls) < 10_000
