"""Regression harness over every transcribed fact about the catalogue.

Each check recomputes one fact from scratch with this package's own
machinery and compares it with the value recorded in the data files.  The
engine accepts pre-loaded (possibly perturbed) catalogue and reference data
so the test suite can prove the checks actually depend on the data: changing
one transcribed coefficient or one expected radius must flip a row to FAIL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import AnalysisReport, analyze
from .catalogue import (
    CatalogueEntry,
    ReferenceData,
    load_catalogue,
    load_references,
)
from .curvature import VALUE
from .dynamics import EXACT_RADIAL
from .elimination import resultant
from .growth import (
    claimed_quadratic_bound,
    constructed_cycle_count,
    contradiction_threshold,
)
from .jsonout import format_rational
from .realroots import count_real_roots
from .singularity import A_HOLDS, EMPTY_CERTIFIED, real_solutions_2x2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _Harness:
    """Accumulates check results; one analyze() per system, shared by rows."""

    def __init__(self, catalogue: dict[str, CatalogueEntry],
                 references: ReferenceData):
        self.catalogue = catalogue
        self.references = references
        self.results: list[CheckResult] = []
        self._reports: dict[str, AnalysisReport] = {}

    def report_for(self, key: str) -> AnalysisReport:
        if key not in self._reports:
            self._reports[key] = analyze(self.catalogue[key].system)
        return self._reports[key]

    def add(self, name: str, fn) -> None:
        """Run one check; an exception is a failure, never a crash."""
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not abort the table
            passed, detail = False, "check raised %s: %s" % (type(exc).__name__, exc)
        self.results.append(CheckResult(name, bool(passed), detail))


def _check_origin_value(harness: _Harness, key: str):
    def run():
        entry = harness.catalogue[key]
        expected = entry.curvature_at_origin.value
        outcome = harness.report_for(key).curvature.curvature.evaluate(
            Fraction(0), Fraction(0))
        if outcome.kind != VALUE:
            return False, "R is %s at the origin" % outcome.kind
        ok = outcome.value == expected
        return ok, "computed %s, recorded %s (%s)" % (
            format_rational(outcome.value), format_rational(expected),
            entry.curvature_at_origin.provenance)
    harness.add("curvature value at the origin (%s)" % key, run)


def _check_transcribed_quotient(harness: _Harness, key: str):
    def run():
        num, den = harness.references.curvature[key]
        curv = harness.report_for(key).curvature
        ok = curv.curvature.equals_quotient(num, den)
        return ok, ("cross-multiplication identity of the computed quotient "
                    "against the transcription" +
                    ("" if ok else " does not hold"))
    harness.add("curvature matches the transcribed quotient (%s)" % key, run)


def _check_divergence_points(harness: _Harness, key: str):
    """Certified divergence points against the recorded ones, one to one.

    An exact point matches a recorded exact point by equality; any other
    certified box must lie inside exactly one recorded enclosure.
    """
    def run():
        entry = harness.catalogue[key]
        expected = entry.divergence_points.value
        locus = harness.report_for(key).locus
        certified = [p for p in locus.divergence_points if p.numerator_nonzero]
        if len(certified) != len(expected):
            return False, ("certified %d divergence point(s), recorded %d"
                           % (len(certified), len(expected)))
        remaining = list(expected)
        for point in certified:
            if point.box.is_exact:
                coords = (point.box.x.exact, point.box.y.exact)
                if coords not in remaining:
                    return False, ("unexpected divergence point (%s, %s)"
                                   % (format_rational(coords[0]),
                                      format_rational(coords[1])))
                remaining.remove(coords)
                continue
            holders = [r for r in expected if _encloses(r, point.box)]
            near = "(%.12g, %.12g)" % point.box.float_point()
            if len(holders) != 1:
                return False, ("divergence point near %s lies in %d recorded "
                               "enclosure(s)" % (near, len(holders)))
            if holders[0] not in remaining:
                return False, ("a second divergence point lies in the recorded "
                               "enclosure near %s" % near)
            remaining.remove(holders[0])
        exact = ["(%s, %s)" % (format_rational(p[0]), format_rational(p[1]))
                 for p in expected if isinstance(p[0], Fraction)]
        enclosed = len(expected) - len(exact)
        pts = "; ".join(exact + (["%d in recorded enclosures" % enclosed]
                                 if enclosed else [])) or "none"
        return True, "certified divergence points: %s (%s)" % (
            pts, entry.divergence_points.provenance)
    harness.add("divergence points of |R| (%s)" % key, run)


def _encloses(recorded, box) -> bool:
    """Whether a recorded enclosure ((xlo, xhi), (ylo, yhi)) contains a box."""
    if isinstance(recorded[0], Fraction):
        return False
    (xlo, xhi), (ylo, yhi) = recorded
    return (xlo <= box.x.lo and box.x.hi <= xhi
            and ylo <= box.y.lo and box.y.hi <= yhi)


def _check_s2_branches_empty(harness: _Harness):
    def run():
        locus = harness.report_for("s2").locus
        if not locus.all_branches_empty:
            statuses = ", ".join(b.status for b in locus.branches)
            return False, "branch statuses: %s" % statuses
        return True, ("both denominator branches certified empty, so |R| "
                      "of s2 has no singularities")
    harness.add("s2 denominator has no real zeros", run)


def _check_stated_eliminants(harness: _Harness):
    for position, stated in zip(("first", "second"), harness.references.eliminants):
        def run(stated=stated, position=position):
            if stated.quartic.is_zero():
                return False, "stated eliminant is the zero polynomial"
            roots = count_real_roots(stated.quartic)
            if roots != 0:
                return False, "stated quartic has %d real root(s)" % roots
            own = resultant(stated.pair[0], stated.pair[1], stated.eliminated)
            own_roots = count_real_roots(own)
            if own_roots != 0:
                return False, ("the build's own eliminant has %d real root(s)"
                               % own_roots)
            status = real_solutions_2x2(stated.pair[0], stated.pair[1]).status
            if status != EMPTY_CERTIFIED:
                return False, "pair status is %s, not certified empty" % status
            if stated.quartic.ints == own.ints:  # proportional
                extra = "the stated quartic matches the build's eliminant up to scale"
            else:
                extra = ("the stated quartic is not a constant multiple of the "
                         "build's eliminant (%s); both are real-root-free and "
                         "certify the same emptiness" % own)
            return True, extra
        harness.add("stated eliminant for the %s denominator branch is "
                    "real-root-free" % position, run)


def _check_cycles(harness: _Harness, key: str):
    def run():
        entry = harness.catalogue[key]
        expected_sq = entry.cycle_radii_squared.value
        expected_st = entry.cycle_stabilities.value
        report = harness.report_for(key)

        if entry.center:
            numeric = report.cycles_numeric
            if numeric is None:
                return False, "numeric scan did not run"
            if numeric.cycle_count != 0:
                return False, "scan found %d cycle(s)" % numeric.cycle_count
            if not numeric.center_flag:
                return False, "center flag is not set"
            return True, "no cycles in the scanned annulus and center flag set"

        exact = report.cycles_exact
        if exact is not None:
            if exact.cycle_count != len(expected_sq):
                return False, ("exact analysis found %d cycle(s), recorded %d"
                               % (exact.cycle_count, len(expected_sq)))
            for cycle, sq, stab in zip(exact.cycles, expected_sq, expected_st):
                if cycle.stability != stab:
                    return False, ("radius %.9g is %s, recorded %s"
                                   % (cycle.radius, cycle.stability, stab))
                if not _radius_matches(cycle, sq, 1e-9):
                    return False, ("exact radius %.12g does not match recorded "
                                   "squared value %s"
                                   % (cycle.radius, format_rational(sq)))
        numeric = report.cycles_numeric
        if numeric is None:
            return False, "numeric scan did not run"
        if numeric.cycle_count != len(expected_sq):
            return False, ("numeric scan found %d cycle(s), recorded %d"
                           % (numeric.cycle_count, len(expected_sq)))
        for cycle, sq, stab in zip(numeric.cycles, expected_sq, expected_st):
            if cycle.stability != stab:
                return False, ("numeric radius %.9g is %s, recorded %s"
                               % (cycle.radius, cycle.stability, stab))
            if not _radius_matches(cycle, sq, 1e-6):
                return False, ("numeric radius %.12g is not within 1e-6 of the "
                               "recorded crossing" % cycle.radius)
        detail = "radii and stabilities match (%s)" % entry.cycle_radii_squared.provenance
        if exact is not None:
            detail = "exact and numeric analyses both agree; " + detail
        return True, detail
    harness.add("limit cycles (%s)" % key, run)


def _radius_matches(cycle, expected_sq: Fraction, tol: float) -> bool:
    iv = cycle.radius_interval
    if cycle.source == EXACT_RADIAL and iv is not None and iv.exact is not None:
        return iv.exact * iv.exact == expected_sq
    return abs(cycle.radius - math.sqrt(float(expected_sq))) <= tol


def _check_transform(harness: _Harness):
    def run():
        from .systems import transform_system
        s1 = harness.catalogue["s1"].system
        s2 = harness.catalogue["s2"].system
        image = transform_system(
            s1, ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2))),
            new_varnames=s2.varnames, label="s1 transformed")
        ok = image.P == s2.P and image.Q == s2.Q
        return ok, ("substituting (first, first + second/2) into s1 "
                    + ("reproduces s2 exactly" if ok else "does NOT reproduce s2"))
    harness.add("linear change of variables carries s1 to s2", run)


def _check_growth(harness: _Harness):
    def run():
        threshold = contradiction_threshold()
        if threshold != 35:
            return False, "threshold computed as %d" % threshold
        for k in (34, 35):
            t = 2 ** k
            excess = constructed_cycle_count(k) - claimed_quadratic_bound(t - 1)
            if excess != Fraction(t * t * (6 * k - 205), 24) + 37 * t - Fraction(121, 3):
                return False, "closed-form excess fails at k=%d" % k
            if (excess > 0) != (k == 35):
                return False, "excess has the wrong sign at k=%d" % k
        return True, ("first excess of the constructed count over the claimed "
                      "bound at k=35, certified for every k >= 35 by the "
                      "identity excess = t^2(k - 205/6)/4 + 37t - 121/3, "
                      "t = 2^k")
    harness.add("growth contradiction threshold", run)

    def run_identity():
        for k in range(2, 65):
            if claimed_quadratic_bound(2 ** k - 1) != (
                    4 * (2 ** k - 2) * (2 ** (k + 1) - 5)):
                return False, "identity fails at k=%d" % k
        return True, "claimed bound at degree 2^k - 1 equals 4(2^k-2)(2^(k+1)-5) for k=2..64"
    harness.add("claimed-bound identity at doubling degrees", run_identity)

    def run_small():
        ok = constructed_cycle_count(2) == 3 and constructed_cycle_count(3) == 21
        return ok, "constructed counts at k=2,3 are 3 and 21"
    harness.add("constructed cycle counts at small k", run_small)


def _check_criteria(harness: _Harness, key: str):
    def run():
        entry = harness.catalogue[key]
        report = harness.report_for(key)
        a = report.assertions.assertion_A
        b = report.assertions.assertion_B_count
        cycles = report.cycles.cycle_count
        if entry.center:
            ok = (a == A_HOLDS and b == 1 and cycles == 0
                  and report.cycles.center_flag)
            return ok, ("criterion holds with divergence count %d while the "
                        "field has no limit cycles" % b)
        expected_cycles = len(entry.cycle_radii_squared.value)
        ok = a != A_HOLDS and cycles == expected_cycles and cycles > 0
        return ok, ("criterion outcome %s with %d limit cycle(s) present"
                    % (a.replace("_", " "), cycles))
    harness.add("criterion verdict versus actual cycles (%s)" % key, run)


def run_paper_check(
    catalogue: dict[str, CatalogueEntry] | None = None,
    references: ReferenceData | None = None,
) -> tuple[CheckResult, ...]:
    """Recompute and verify every transcribed fact; one result per fact."""
    catalogue = catalogue if catalogue is not None else load_catalogue()
    references = references if references is not None else load_references()
    harness = _Harness(catalogue, references)

    for key in ("s1", "s1a", "s2", "center"):
        _check_origin_value(harness, key)
    for key in sorted(references.curvature):
        _check_transcribed_quotient(harness, key)
    for key in ("s1", "s1a", "s2", "center"):
        _check_divergence_points(harness, key)
    _check_s2_branches_empty(harness)
    _check_stated_eliminants(harness)
    for key in ("s1", "s1a", "s2", "center"):
        _check_cycles(harness, key)
    _check_transform(harness)
    _check_growth(harness)
    for key in ("s1", "s1a", "s2", "center"):
        _check_criteria(harness, key)
    return tuple(harness.results)


def render_results(results: tuple[CheckResult, ...]) -> str:
    """Fixed-width PASS/FAIL table, one row per checked fact."""
    lines = []
    width = max(len(r.name) for r in results) if results else 0
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        line = "%s  %-*s" % (mark, width, result.name)
        if result.detail:
            line += "  %s" % result.detail
        lines.append(line.rstrip())
    failed = sum(1 for r in results if not r.passed)
    lines.append("%d checks, %d failed" % (len(results), failed))
    return "\n".join(lines)


def results_dict(results: tuple[CheckResult, ...]) -> dict:
    return {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "total": len(results),
        "failed": sum(1 for r in results if not r.passed),
    }
