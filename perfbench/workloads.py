"""Seeded workloads for the cclab benchmark, with their reference checks.

A workload is a list of operations.  One operation is one user-visible unit
of work: ``analyze`` followed by ``report_dict`` and ``jsonout.dumps`` (what
``cclab analyze --json`` does), one ``run_paper_check()``, or one
``log_bound_crossover(a, b, c)``.  Each operation carries a check that
compares its output with a reference; the worker runs checks outside the
timed region.

Workloads (the program only ever sees the generated systems):

* ``paper``: the paper's fact-check traffic on the built-in catalogue, plus
  seeded linear images of s1 (the paper's transform claim).  The only
  workload that reaches ``growth`` and the scan's center-flag path.
* ``radial``: rigid radial fields dx = -y + x*f(x^2+y^2), dy = x + y*f(...)
  of degree 3, 5 and 7 with seeded squared radii planted in a monic f, so
  every cycle is known exactly.  The singular locus at high degree
  dominates.  Radii are drawn from fixed strata so that every seed gives
  the same mix of cost and outcome; see ``RADIAL_ROUND``.
* ``generic``: seeded fields of degree 2 to 4 with linear part (-y, x) and
  rational higher terms, which have irrational equilibria and divergence
  points.  The first field of each degree is analyzed again at the end of
  the round, so the JSON bytes of the repeat can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cclab import (
    analyze,
    load_catalogue,
    load_references,
    log_bound_crossover,
    parse_system,
    report_dict,
    run_paper_check,
    transform_system,
)
from cclab import jsonout
from cclab.dynamics import STABLE, UNSTABLE

PAPER_SYSTEMS = ("s1", "s1a", "s2", "center")
PAPER_ROWS = 26
CROSSOVER_GOLDENS = (((8, 0, 0), 65490), ((8, -20, 12), 65462),
                     ((0, 0, 0), 0), ((1, 1, 1), 0))
# The paper's transform claim: s2 is s1 seen through a linear change of
# coordinates.  Each paper round also analyzes seeded images of s1 under
# old = M*new with det M > 0, which keep its repelling cycle, crossing the
# new x-axis at squared radius 1/(a^2 + c^2).  These cheap analyses keep the
# median and tail from resting on two or three operations.  Images of center
# are left out: the scan's center flag needs every displacement below 1e-8,
# which some images miss, so their outcome would depend on the seed.
PAPER_S1_IMAGES = 24
IMAGE_ENTRIES = tuple(Fraction(n, 2) for n in (-4, -3, -2, -1, 1, 2, 3, 4))

# One radial round: (degree, candidate lists of planted squared radii).  The
# candidates of one entry have equal locus size and similar cost, so the seed
# changes the fields but not the round's cost or outcome.  Degree 3 has one
# entry below and one above squared radius 5: above it the lone repelling
# cycle sends every scan cell in or out without a return, the cycle's period
# is NaN and ``jsonout.dumps`` raises.  Degree-5 radii differ by at least 2,
# which gives 16 divergence points (a gap of 1 gives 0 or 8 and a third of
# the cost); with three of them the median averages the two cheaper ones.
# Degree 7 (radii 1, 2, 3) always raises OverflowError in the scan after a
# 25-30 s locus; other degree-7 triples take 47-78 s, which one run cannot
# hold, so its radii are fixed.
RADIAL_ROUND = (
    (3, ((2,), (3,), (4,))),
    (3, ((5,), (6,), (7,), (8,))),
    (5, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))),
    (5, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))),
    (5, ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))),
    (7, ((1, 2, 3),)),
)

# Generic fields: (degree, number of fields) for one round.  Each field has a
# monomial support fixed by its slot and rational coefficients drawn from the
# seed.  For generic coefficients the support fixes the eliminant degrees, so
# the seed moves a field's cost far less than a fresh support would.
# Degree-k coefficients are scaled by GENERIC_SCALE**(k-1), which keeps the
# nonlinear terms weaker than the unit rotation inside the scan annulus
# r <= 4.  At scale 1/8 or 1/16 about one field in 40 sends a scan cell to a
# far stable node, where the stiff integration runs for minutes.  Degree 5 is
# left out: its cost grows by about 0.7 s per real divergence point, so one
# field takes 0.01-9 s and a run cannot hold enough of them to be steady.
# The degree-5 locus is measured on paper (s1a) and radial.
GENERIC_ROUND = ((2, 40), (3, 60), (4, 40))
GENERIC_TERMS = 3
GENERIC_SCALE = Fraction(1, 32)
GENERIC_NUMERATORS = (-3, -2, -1, 1, 2, 3)
GENERIC_DENOMINATORS = (2, 4)


@dataclass
class Outcome:
    """What one checked operation returned, for the counters and shares."""

    ok: bool
    detail: str = ""
    report: object = None       # AnalysisReport for analyze operations
    rows_passed: int = 0        # run_paper_check rows that passed
    json_bytes: int = 0


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


# --- checks ---------------------------------------------------------------------


def _analyze_op(name: str, system, check: Callable) -> Operation:
    def run():
        report = analyze(system)
        return report, jsonout.dumps(report_dict(report))
    return Operation(name, run, check)


def _equilibria_valid(report) -> str:
    for cert in report.equilibria:
        if not cert.valid:
            return "equilibrium certificate at %s is not valid" % (cert.point,)
    return ""


def _cycles_match(cycles, radii_sq, stabilities, *, exact: bool) -> str:
    """Empty when the cycles have the given squared radii and stabilities.

    Exact cycles must carry a radius interval that encloses the root of the
    squared radius; numeric ones must lie within 1e-6 of it.
    """
    if len(cycles.cycles) != len(radii_sq):
        return "%d cycle(s), expected %d" % (len(cycles.cycles), len(radii_sq))
    for cycle, sq, stab in zip(cycles.cycles, radii_sq, stabilities):
        if cycle.stability != stab:
            return "radius %.9g is %s, expected %s" % (cycle.radius,
                                                      cycle.stability, stab)
        if exact:
            iv = cycle.radius_interval
            if iv is None or not (iv.lo * iv.lo <= sq <= iv.hi * iv.hi):
                return "exact radius interval misses squared radius %s" % sq
        elif abs(cycle.radius - math.sqrt(sq)) > 1e-6:
            return "radius %.12g is not within 1e-6 of sqrt(%s)" % (
                cycle.radius, sq)
    return ""


def _analysis_check(radii_sq, stabilities, *, exact: bool, center: bool):
    def check(result) -> Outcome:
        report, text = result
        problem = _equilibria_valid(report)
        if not problem and center:
            scan = report.cycles_numeric
            if scan is None or scan.cycles or not scan.center_flag:
                problem = "expected no cycles and the center flag"
        if not problem and not center:
            if exact:
                if report.cycles_exact is None:
                    problem = "no exact radial analysis"
                else:
                    problem = _cycles_match(report.cycles_exact, radii_sq,
                                            stabilities, exact=True)
            if not problem:
                if report.cycles_numeric is None:
                    problem = "numeric scan did not run"
                else:
                    problem = _cycles_match(report.cycles_numeric, radii_sq,
                                            stabilities, exact=False)
        return Outcome(not problem, problem, report,
                       json_bytes=len(text.encode()))
    return check


def point_counts(report) -> tuple[int, int]:
    """(points located, points whose outcome carries no certificate).

    Points are equilibria, divergence points and unresolved locus
    enclosures.  Uncertified: irrational equilibria (the sign test skips
    them), unresolved equilibrium or locus enclosures, and divergence points
    that are neither certified divergent nor certified removable.
    """
    irrational = sum(1 for note in report.notes
                     if note.startswith("equilibrium near"))
    enclosures = sum(int(note.split()[0]) for note in report.notes
                     if note.endswith("unresolved equilibrium enclosure(s)"))
    locus = report.locus
    open_points = sum(1 for p in locus.divergence_points
                      if not p.numerator_nonzero
                      and not p.note.startswith("removable"))
    located = (len(report.equilibria) + irrational + enclosures
               + len(locus.divergence_points) + len(locus.unresolved))
    return located, irrational + enclosures + open_points + len(locus.unresolved)


def _alternating(count: int) -> tuple[str, ...]:
    """Stabilities of a monic f's simple roots, inner to outer."""
    return tuple(UNSTABLE if (count - 1 - i) % 2 == 0 else STABLE
                 for i in range(count))


# --- paper ------------------------------------------------------------------------


def paper(seed: int) -> list[Operation]:
    catalogue = load_catalogue()
    references = load_references()
    ops: list[Operation] = []
    for key in PAPER_SYSTEMS:
        entry = catalogue[key]
        check = _analysis_check(
            entry.cycle_radii_squared.value, entry.cycle_stabilities.value,
            exact=key in ("s1", "s1a"), center=entry.center)
        ops.append(_analyze_op("analyze:" + key, entry.system, check))

    def check_rows(results) -> Outcome:
        passed = sum(1 for r in results if r.passed)
        return Outcome(passed == PAPER_ROWS == len(results),
                       "%d/%d rows passed" % (passed, len(results)),
                       rows_passed=passed)
    ops.append(Operation(
        "paper_check",
        lambda: run_paper_check(catalogue, references), check_rows))

    for args, expected in CROSSOVER_GOLDENS:
        def check_crossover(value, expected=expected) -> Outcome:
            return Outcome(value == expected, "got %r, expected %r"
                           % (value, expected))
        ops.append(Operation("crossover:%d,%d,%d" % args,
                             lambda args=args: log_bound_crossover(*args),
                             check_crossover))
    rng = random.Random(seed)
    s1 = catalogue["s1"]
    for n in range(PAPER_S1_IMAGES):
        (a, b), (c, d) = matrix = _image_matrix(rng)
        check = _analysis_check(
            tuple(sq / (a * a + c * c) for sq in s1.cycle_radii_squared.value),
            s1.cycle_stabilities.value, exact=False, center=False)
        image = transform_system(s1.system, matrix, label="s1-image%d" % n)
        ops.append(_analyze_op("analyze:" + image.label, image, check))
    rng.shuffle(ops)
    return ops


def _image_matrix(rng: random.Random):
    """An orientation-preserving M whose first column has squared length in
    [1/4, 4], so a unit-circle cycle crosses the new x-axis inside the scan
    annulus."""
    while True:
        a, b, c, d = (rng.choice(IMAGE_ENTRIES) for _ in range(4))
        if a * d - b * c > 0 and Fraction(1, 4) <= a * a + c * c <= 4:
            return (a, b), (c, d)


# --- radial -----------------------------------------------------------------------


def radial_text(radii_sq) -> str:
    f = "*".join("(x^2 + y^2 - %s)" % r for r in radii_sq)
    return ("vars: x y\nlabel = radial %s\ndx = -y + x*%s\ndy = x + y*%s\n"
            % (" ".join(str(r) for r in radii_sq), f, f))


def radial(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    ops: list[Operation] = []
    for degree, candidates in RADIAL_ROUND:
        radii = [Fraction(r) for r in rng.choice(candidates)]
        system = parse_system(radial_text(radii))
        check = _analysis_check(tuple(radii), _alternating(len(radii)),
                                exact=True, center=False)
        ops.append(_analyze_op("analyze:radial%d" % degree, system, check))
    return ops


# --- generic ----------------------------------------------------------------------


def _monomial(i: int, j: int) -> str:
    parts = [v if e == 1 else "%s^%d" % (v, e) for v, e in (("x", i), ("y", j))
             if e]
    return "*".join(parts)


def _generic_component(support: random.Random, coeffs: random.Random,
                       degree: int) -> str:
    top = [(i, degree - i) for i in range(degree + 1)]
    pool = [(i, t - i) for t in range(2, degree + 1) for i in range(t + 1)]
    chosen = [support.choice(top)]
    pool.remove(chosen[0])
    chosen += support.sample(pool, GENERIC_TERMS - 1)
    out = []
    for i, j in sorted(chosen):
        coeff = (Fraction(coeffs.choice(GENERIC_NUMERATORS),
                          coeffs.choice(GENERIC_DENOMINATORS))
                 * GENERIC_SCALE ** (i + j - 1))
        out.append("(%s)*%s" % (coeff, _monomial(i, j)))
    return " + ".join(out)


def generic_text(slot: int, coeffs: random.Random, degree: int) -> str:
    support = random.Random(slot)
    return ("vars: x y\nlabel = generic%d-%d\ndx = -y + %s\ndy = x + %s\n"
            % (degree, slot, _generic_component(support, coeffs, degree),
               _generic_component(support, coeffs, degree)))


def generic(seed: int) -> list[Operation]:
    rng = random.Random(seed)
    ops: list[Operation] = []
    repeats: list[Operation] = []
    slot = 0
    for degree, count in GENERIC_ROUND:
        for n in range(count):
            system = parse_system(generic_text(slot, rng, degree))
            slot += 1
            first: list[str] = []

            def check(result, first=first) -> Outcome:
                report, text = result
                problem = _equilibria_valid(report)
                if not problem:
                    if not first:
                        first.append(text)
                    elif text != first[0]:
                        problem = "JSON bytes differ from the first analysis"
                return Outcome(not problem, problem, report,
                               json_bytes=len(text.encode()))
            op = _analyze_op("analyze:" + system.label, system, check)
            ops.append(op)
            if n == 0:
                repeats.append(op)
    return ops + repeats


BUILDERS = {"paper": paper, "radial": radial, "generic": generic}
