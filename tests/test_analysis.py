"""The orchestrated pipeline: reports, verdicts, and JSON shapes."""

import math
from fractions import Fraction

import pytest

import cclab.analysis
import cclab.singularity
from cclab.analysis import (
    analyze,
    render_report,
    report_dict,
    verdict_line,
)
from cclab.dynamics import Cycle, LimitCycleReport, NUMERIC_POINCARE, TWO_PI
from cclab.jsonout import dumps
from cclab.parsing import parse_system
from cclab.realroots import RootInterval
from cclab.singularity import (
    A_FAILS_NO_SINGULARITY,
    A_FAILS_R_NEGATIVE,
    A_HOLDS,
    NEGATIVE_NEIGHBORHOOD,
    POSITIVE_NEIGHBORHOOD,
    ZERO_AT_POINT,
    AssertionReport,
    PointBox,
)


ZERO = RootInterval(Fraction(0), Fraction(0), Fraction(0))


def make_assertions(verdict: str, b_count: int) -> AssertionReport:
    return AssertionReport(
        assertion_A=verdict,
        assertion_B_count=b_count,
        equilibrium_signs=((PointBox(ZERO, ZERO), "positive_neighborhood"),),
    )


def make_cycles(count: int, center: bool = False) -> LimitCycleReport:
    cycles = tuple(
        Cycle(radius=float(i + 1), period=TWO_PI, stability="unstable",
              source=NUMERIC_POINCARE)
        for i in range(count))
    return LimitCycleReport(cycles, center_flag=center)


# --- verdict lines -------------------------------------------------------------


def test_verdict_criterion_holds_but_no_cycles():
    line = verdict_line(make_assertions(A_HOLDS, 1), make_cycles(0, center=True))
    assert "differs" in line
    assert "no limit cycle exists" in line
    assert "ring of periodic orbits" in line


def test_verdict_criterion_holds_and_matches():
    line = verdict_line(make_assertions(A_HOLDS, 1), make_cycles(1))
    assert "matches" in line


def test_verdict_criterion_holds_with_wrong_count():
    line = verdict_line(make_assertions(A_HOLDS, 3), make_cycles(1))
    assert "differs" in line or "holds but" in line


def test_verdict_criterion_fails_with_cycles_present():
    line = verdict_line(make_assertions(A_FAILS_R_NEGATIVE, 0), make_cycles(2))
    assert "differs" in line
    assert "2 limit cycles" in line


def test_verdict_criterion_fails_no_cycles():
    line = verdict_line(make_assertions(A_FAILS_NO_SINGULARITY, 0), make_cycles(0))
    assert "agree" in line


# --- full pipeline on the catalogue ------------------------------------------------


def test_analyze_unit_circle_system(analyses):
    report = analyses["s1"]
    assert report.degrees == (3, 3)
    assert len(report.equilibria) == 1
    assert report.equilibria[0].point == (0, 0)
    assert report.equilibria[0].R_at_point.value == -1
    assert report.assertions.assertion_A == A_FAILS_R_NEGATIVE
    assert report.cycles_exact.cycle_count == 1
    assert report.cycles_numeric.cycle_count == 1
    assert abs(report.cycles_numeric.cycles[0].radius - 1.0) < 1e-6
    assert report.locus.certified_divergence_count == 0
    assert "agree on count, radii, stability" in " ".join(report.notes)
    assert "differs" in report.verdict


def test_analyze_two_cycle_system(analyses):
    report = analyses["s1a"]
    assert report.cycles_exact.cycle_count == 2
    assert report.assertions.assertion_B_count == 16
    assert len(report.locus.divergence_points) == 16
    assert "differs" in report.verdict


def test_analyze_transformed_system(analyses):
    report = analyses["s2"]
    assert report.cycles_exact is None
    assert report.cycles_numeric.cycle_count == 1
    assert abs(report.cycles_numeric.cycles[0].radius - math.sqrt(0.5)) < 1e-6
    assert report.assertions.assertion_A == A_FAILS_NO_SINGULARITY
    assert report.locus.all_branches_empty


def test_analyze_center_system(analyses):
    report = analyses["center"]
    assert report.assertions.assertion_A == A_HOLDS
    assert report.assertions.assertion_B_count == 1
    assert report.cycles.cycle_count == 0
    assert report.cycles_numeric.center_flag
    assert "no limit cycle exists" in report.verdict


def test_analyze_without_scan(catalogue, monkeypatch):
    def unavailable(*args):
        raise ValueError("scan unavailable")

    monkeypatch.setattr(cclab.analysis, "find_cycles_numeric", unavailable)
    report = analyze(catalogue["s1"].system)
    assert "numeric cycle scan skipped: scan unavailable" in report.notes
    assert report.cycles_numeric is None
    assert report.cycles_exact.cycle_count == 1
    # the preferred report falls back to the exact one
    assert report.cycles is report.cycles_exact


def test_analyze_certifies_each_equilibrium_once(monkeypatch):
    calls = []
    original = cclab.singularity.verify_equilibrium

    def counting(*args, **kwargs):
        calls.append((args[1].x.exact, args[1].y.exact))
        return original(*args, **kwargs)

    monkeypatch.setattr(cclab.analysis, "verify_equilibrium", counting)
    monkeypatch.setattr(cclab.singularity, "verify_equilibrium", counting)
    # exact equilibria at (+-1, 0)
    system = parse_system("vars: x y\ndx = y\ndy = x^2 - 1\n")
    report = analyze(system)
    assert len(report.equilibria) == 2
    assert sorted(calls) == sorted(cert.point for cert in report.equilibria)
    assert [box for box, _ in report.assertions.equilibrium_signs] == [
        cert.box for cert in report.equilibria]


def test_analyze_pins_rational_equilibria_of_a_double_well():
    system = parse_system("vars: x y\ndx = y\ndy = x - x^3\n")
    report = analyze(system)
    assert sorted(cert.point for cert in report.equilibria) == [
        (-1, 0), (0, 0), (1, 0)]
    assert all(cert.valid for cert in report.equilibria)
    assert not any("irrational enclosure" in note for note in report.notes)


def test_analyze_pins_rational_equilibria_off_the_axes():
    system = parse_system("vars: x y\ndx = x*(1 - x)\ndy = y*(1 - y)\n")
    report = analyze(system)
    assert sorted(cert.point for cert in report.equilibria) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert not any("irrational enclosure" in note for note in report.notes)


# two fields of the seeded generic workload
GENERIC2_4 = ("vars: x y\ndx = -y + 3/128*x^2 - 3/128*x*y - 1/64*y^2\n"
              "dy = x + 1/64*x^2 - 1/128*x*y + 1/32*y^2\n")
GENERIC3_67 = ("vars: x y\ndx = -y + 1/128*y^2 - 1/2048*x*y^2 + 3/4096*y^3\n"
               "dy = x + 1/32*x^2 - 1/4096*x^3 - 1/1024*y^3\n")


def test_irrational_equilibrium_with_negative_curvature_refutes():
    """R > 0 at the origin and two certified divergences, but R < 0 is
    certified at an irrational saddle: the first criterion fails."""
    report = analyze(parse_system(GENERIC2_4))
    assert report.assertions.assertion_A == A_FAILS_R_NEGATIVE
    assert report.assertions.assertion_B_count == 2
    signs = dict(report.assertions.equilibrium_signs)
    assert len(signs) == len(report.equilibria) == 2
    (saddle,) = [cert for cert in report.equilibria if cert.point is None]
    fx, fy = saddle.box.float_point()
    assert abs(fx + 24.3772) < 1e-4 and abs(fy - 19.1391) < 1e-4
    assert saddle.valid and saddle.R_at_point is None
    assert signs[saddle.box] == NEGATIVE_NEIGHBORHOOD
    assert signs[report.equilibria[1].box] == POSITIVE_NEIGHBORHOOD
    assert not any("irrational enclosure" in note for note in report.notes)


def test_half_exact_equilibria_where_the_numerator_vanishes_are_zero():
    """The equilibria at x = -26.51... and x = 154.50... on y = 0 have an
    irrational x; the reduced numerator encloses to {0} on their boxes."""
    report = analyze(parse_system(GENERIC3_67))
    on_axis = [cert for cert in report.equilibria
               if cert.box.y.exact == 0 and cert.box.x.exact is None]
    assert len(on_axis) == 2
    assert all(cert.sign == ZERO_AT_POINT for cert in on_axis)
    assert report.assertions.assertion_A == A_FAILS_R_NEGATIVE


def test_boxed_equilibrium_is_printed_once():
    report = analyze(parse_system(GENERIC2_4))
    d = report_dict(report)
    saddle, origin = d["equilibria"]
    assert set(saddle) == {"box"} and saddle["box"]["x"]["exact"] is None
    assert origin["point"] == [0, 0]
    signs = d["assertions"]["equilibrium_signs"]
    assert signs[0] == {"approx": saddle["box"]["approx"],
                        "sign": NEGATIVE_NEIGHBORHOOD}
    assert signs[1] == {"point": [0, 0], "sign": POSITIVE_NEIGHBORHOOD}
    assert ("sign near (-24.3772208, 19.139144): negative neighborhood"
            in render_report(report))


def test_analyze_skips_scan_off_origin():
    # shift the equilibrium away from the origin: the scan must bow out
    # with a note instead of raising
    system = parse_system(
        "vars: x y\ndx = -(y - 1) + (x - 2)\ndy = (x - 2) + (y - 1)\n")
    report = analyze(system)
    assert report.cycles_numeric is None
    assert any("scan skipped" in note for note in report.notes)


# --- serialized shape ----------------------------------------------------------------


def test_report_dict_is_json_ready_and_deterministic(analyses):
    for key in ("s1", "center"):
        d1 = report_dict(analyses[key])
        d2 = report_dict(analyses[key])
        assert dumps(d1) == dumps(d2)
        assert d1["verdict"] == analyses[key].verdict
        for top in ("curvature", "assertions", "singular_locus",
                    "cycles_exact", "cycles_numeric", "equilibria"):
            assert top in d1, (key, top)


def test_report_dict_content(analyses):
    d = report_dict(analyses["s1"])
    assert d["assertions"]["assertion_A"] == A_FAILS_R_NEGATIVE
    assert d["assertions"]["assertion_B_count"] == 0
    assert len(d["cycles_exact"]["cycles"]) == 1
    assert len(d["cycles_numeric"]["cycles"]) == 1
    assert d["variables"] == ["x", "y"]
    assert d["degrees"] == [3, 3]
    curvature = d["curvature"]
    assert set(curvature) == {"reduced", "reduced_denominator_exponents"}
    assert len(curvature["reduced_denominator_exponents"]) == 2
    assert d["singular_locus"]["certified_divergence_count"] == 0


def test_render_report_mentions_the_essentials(analyses):
    text = render_report(analyses["s1"])
    assert "equilibri" in text.lower()
    assert "cycle" in text.lower()
    assert "criterion" in text.lower() or "verdict" in text.lower()


def test_report_with_an_untimed_cycle_period_renders(no_timed_returns):
    system = parse_system("vars: x y\n"
                          "dx = -y + x*(x^2 + y^2 - 5)\n"
                          "dy = x + y*(x^2 + y^2 - 5)\n")
    report = analyze(system)
    text = dumps(report_dict(report))
    assert '"period":null' in text.replace(" ", "")
    assert "period = unknown" in render_report(report)
