"""End-to-end analysis of one system: curvature, locus, criteria, cycles.

This is the assembly layer the command line uses.  It runs the exact
pipeline (curvature, equilibria, singular locus, criterion verdicts), then
both cycle detectors, and packages everything into one report whose verdict
line is a pure function of the sub-reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curvature import (
    VALUE,
    CurvatureData,
    PointValue,
    RationalFunction,
    scalar_curvature,
)
from .dynamics import (
    Cycle,
    LimitCycleReport,
    detect_radial_form,
    exact_radial_cycles,
    find_cycles_numeric,
    scan_annulus,
)
from .jsonout import format_rational
from .polynomials import Poly2
from .singularity import (
    A_HOLDS,
    AssertionReport,
    EquilibriumCertificate,
    SingularLocusReport,
    assertion_report,
    find_equilibria,
    singular_locus,
    verify_equilibrium,
)
from .systems import PlanarSystem

DEFAULT_R_RANGE = (0.25, 4.0)
DEFAULT_N_SCAN = 16


def verdict_line(assertions: AssertionReport, cycles: LimitCycleReport) -> str:
    """One-sentence comparison of the criterion outcome with detected cycles."""
    n = cycles.cycle_count
    cycles_text = "%d limit cycle%s" % (n, "" if n == 1 else "s")
    if assertions.assertion_A == A_HOLDS:
        b = assertions.assertion_B_count
        if n == 0:
            tail = " (ring of periodic orbits)" if cycles.center_flag else ""
            return ("criterion outcome differs from detected cycles: the "
                    "positivity-plus-divergence criterion holds with "
                    "divergence count %d while no limit cycle exists%s" % (b, tail))
        if b == n:
            return ("criterion outcome matches detected cycles: the criterion "
                    "holds and its divergence count equals the %s found" % cycles_text)
        return ("criterion holds but its divergence count %d differs from the "
                "%s detected" % (b, cycles_text))
    if n == 0:
        return ("criterion outcome and detected cycles agree: the "
                "positivity-plus-divergence criterion fails and no limit "
                "cycle was found")
    return ("criterion outcome differs from detected cycles: the "
            "positivity-plus-divergence criterion fails (%s) while %s exist%s"
            % (assertions.assertion_A, cycles_text, "s" if n == 1 else ""))


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the full pipeline produced for one system."""

    system: PlanarSystem
    curvature: CurvatureData
    equilibria: tuple[EquilibriumCertificate, ...]
    locus: SingularLocusReport
    assertions: AssertionReport
    cycles_exact: LimitCycleReport | None
    cycles_numeric: LimitCycleReport | None
    notes: tuple[str, ...] = ()

    @property
    def degrees(self) -> tuple[int, int]:
        return (self.system.P.total_degree, self.system.Q.total_degree)

    @property
    def cycles(self) -> LimitCycleReport:
        """The preferred cycle report: exact when available, else numeric."""
        if self.cycles_exact is not None:
            return self.cycles_exact
        if self.cycles_numeric is not None:
            return self.cycles_numeric
        return LimitCycleReport(cycles=(), center_flag=False,
                                notes=("no cycle analysis was run",))

    @property
    def verdict(self) -> str:
        return verdict_line(self.assertions, self.cycles)


def analyze(
    system: PlanarSystem,
    r_range: tuple[float, float] = DEFAULT_R_RANGE,
    n_scan: int = DEFAULT_N_SCAN,
) -> AnalysisReport:
    """Run the full pipeline on one system.

    Invalid scan arguments raise ValueError before any exact work.  The
    numeric scan needs the origin to be an equilibrium (it works on a
    transversal section of rays from the origin); when it is not, the scan
    is skipped with a note instead of failing the whole analysis.
    """
    scan_annulus(r_range, n_scan)
    curv = scalar_curvature(system)
    notes: list[str] = []

    eq_branch = find_equilibria(system)
    certificates = [verify_equilibrium(curv, box) for box in eq_branch.points]
    if eq_branch.unresolved:
        notes.append("%d unresolved equilibrium enclosure(s)"
                     % len(eq_branch.unresolved))

    locus = singular_locus(curv)
    assertions = assertion_report(certificates, locus,
                                  len(eq_branch.unresolved))

    radial = detect_radial_form(system)
    cycles_exact = exact_radial_cycles(radial) if radial.matched else None

    cycles_numeric: LimitCycleReport | None = None
    try:
        cycles_numeric = find_cycles_numeric(system, r_range, n_scan)
    except ValueError as exc:
        notes.append("numeric cycle scan skipped: %s" % exc)

    if cycles_exact is not None and cycles_numeric is not None:
        notes.append(_agreement_note(cycles_exact, cycles_numeric))

    return AnalysisReport(
        system=system,
        curvature=curv,
        equilibria=tuple(certificates),
        locus=locus,
        assertions=assertions,
        cycles_exact=cycles_exact,
        cycles_numeric=cycles_numeric,
        notes=tuple(notes),
    )


def _agreement_note(exact: LimitCycleReport, numeric: LimitCycleReport) -> str:
    if exact.cycle_count != numeric.cycle_count:
        return ("exact radial analysis found %d cycle(s) but the numeric scan "
                "found %d; the scan annulus may not cover every radius"
                % (exact.cycle_count, numeric.cycle_count))
    for e, n in zip(exact.cycles, numeric.cycles):
        if abs(e.radius - n.radius) > 1e-6 or e.stability != n.stability:
            return ("exact and numeric cycle analyses disagree near radius "
                    "%.9g" % e.radius)
    return "exact and numeric cycle analyses agree on count, radii, stability"


# --- JSON-ready dictionaries ---------------------------------------------------


def _point_value_dict(pv: PointValue) -> dict:
    return {
        "kind": pv.kind,
        "value": None if pv.value is None else Fraction(pv.value),
    }


def _interval_dict(iv) -> dict:
    return {
        "lo": Fraction(iv.lo),
        "hi": Fraction(iv.hi),
        "exact": None if iv.exact is None else Fraction(iv.exact),
    }


def _box_dict(box) -> dict:
    fx, fy = box.float_point()
    return {
        "x": _interval_dict(box.x),
        "y": _interval_dict(box.y),
        "approx": [fx, fy],
    }


def _point_text(box) -> str:
    if box.is_exact:
        return "(%s, %s)" % (format_rational(box.x.exact),
                             format_rational(box.y.exact))
    return "(%.9g, %.9g)" % box.float_point()


def _poly_dict(poly: Poly2) -> dict:
    return {"text": str(poly), "total_degree": poly.total_degree}


def _rational_function_dict(rf: RationalFunction) -> dict:
    return {"numerator": _poly_dict(rf.numerator),
            "denominator": _poly_dict(rf.denominator)}


def _cycle_dict(cycle: Cycle) -> dict:
    return {
        "radius": cycle.radius,
        "period": cycle.period,
        "stability": cycle.stability,
        "source": cycle.source,
        "radius_interval": (None if cycle.radius_interval is None
                            else _interval_dict(cycle.radius_interval)),
        "note": cycle.note,
    }


def cycles_dict(report: LimitCycleReport) -> dict:
    return {
        "cycles": [_cycle_dict(c) for c in report.cycles],
        "center_flag": report.center_flag,
        "notes": list(report.notes),
    }


def locus_dict(report: SingularLocusReport) -> dict:
    return {
        "branches": [
            {
                "status": b.status,
                "point_count": len(b.points),
                "notes": list(b.notes),
            }
            for b in report.branches
        ],
        "divergence_points": [
            {
                "box": _box_dict(p.box),
                "numerator_nonzero": p.numerator_nonzero,
                "branch_indices": list(p.branch_indices),
                "note": p.note,
            }
            for p in report.divergence_points
        ],
        "certified_divergence_count": report.certified_divergence_count,
        "unresolved_count": len(report.unresolved),
        "notes": list(report.notes),
    }


def assertions_dict(report: AssertionReport) -> dict:
    return {
        "assertion_A": report.assertion_A,
        "assertion_B_count": report.assertion_B_count,
        "equilibrium_signs": [
            # a boxed point's enclosure is printed once, in "equilibria"
            {"point": [box.x.exact, box.y.exact], "sign": verdict}
            if box.is_exact else
            {"approx": list(box.float_point()), "sign": verdict}
            for box, verdict in report.equilibrium_signs
        ],
        "notes": list(report.notes),
    }


def report_dict(report: AnalysisReport) -> dict:
    """The full analysis as JSON-ready data (exact values as "p/q" strings)."""
    system = report.system
    return {
        "label": system.label,
        "variables": list(system.varnames),
        "degrees": list(report.degrees),
        "equilibria": [
            {
                "point": list(cert.point),
                "P_value": cert.P_value,
                "Q_value": cert.Q_value,
                "R": _point_value_dict(cert.R_at_point),
            } if cert.point is not None else {"box": _box_dict(cert.box)}
            for cert in report.equilibria
        ],
        "curvature": {
            "reduced": _rational_function_dict(report.curvature.curvature),
            "reduced_denominator_exponents": list(report.curvature.den_exponents),
        },
        "singular_locus": locus_dict(report.locus),
        "assertions": assertions_dict(report.assertions),
        "cycles_exact": (None if report.cycles_exact is None
                         else cycles_dict(report.cycles_exact)),
        "cycles_numeric": (None if report.cycles_numeric is None
                           else cycles_dict(report.cycles_numeric)),
        "verdict": report.verdict,
        "notes": list(report.notes),
    }


def render_report(report: AnalysisReport) -> str:
    """Human-readable multi-line rendering of an analysis report."""
    system = report.system
    lines = []
    label = system.label or "system"
    lines.append("system %s in variables (%s, %s), degrees (%d, %d)"
                 % (label, system.varnames[0], system.varnames[1],
                    *report.degrees))
    lines.append("  d%s/dt = %s" % (system.varnames[0], system.P))
    lines.append("  d%s/dt = %s" % (system.varnames[1], system.Q))

    lines.append("equilibria: %d certified" % len(report.equilibria))
    for cert in report.equilibria:
        pv = cert.R_at_point
        if pv is not None:  # R is only signed at a boxed point
            r_text = format_rational(pv.value) if pv.kind == VALUE else pv.kind
            lines.append("  %s: R = %s" % (_point_text(cert.box), r_text))
    for box, sign in report.assertions.equilibrium_signs:
        lines.append("  sign near %s: %s"
                     % (_point_text(box), sign.replace("_", " ")))

    locus = report.locus
    if locus.all_branches_empty:
        lines.append("singular locus: empty (denominator has no real zeros; "
                     "certified)")
    else:
        lines.append("singular locus: %d denominator zero(s), %d certified "
                     "divergence(s)" % (len(locus.divergence_points),
                                        locus.certified_divergence_count))
        for point in locus.divergence_points:
            fx, fy = point.box.float_point()
            kind = "|R| diverges" if point.numerator_nonzero else "not certified"
            lines.append("  (%.9g, %.9g): %s%s"
                         % (fx, fy, kind,
                            " [%s]" % point.note if point.note else ""))
    if locus.unresolved:
        lines.append("  %d unresolved enclosure(s)" % len(locus.unresolved))

    lines.append("criterion report: first criterion %s, divergence count %d"
                 % (report.assertions.assertion_A.replace("_", " "),
                    report.assertions.assertion_B_count))

    for title, cyc in (("exact radial cycles", report.cycles_exact),
                       ("numeric scan cycles", report.cycles_numeric)):
        if cyc is None:
            continue
        lines.append("%s: %d%s" % (title, cyc.cycle_count,
                                   " (center flag set)" if cyc.center_flag else ""))
        for cycle in cyc.cycles:
            lines.append("  %s [%s]" % (cycle.summary(), cycle.source))
        for note in cyc.notes:
            lines.append("  note: %s" % note)

    for note in report.assertions.notes:
        lines.append("note: %s" % note)
    for note in report.notes:
        lines.append("note: %s" % note)
    lines.append("verdict: %s" % report.verdict)
    return "\n".join(lines)
