"""Acceptance gate: the nine headline facts, at their stated tolerances.

Each test prints one ``criterion N: PASS/FAIL`` line (visible under ``-s``;
under plain ``-v`` the per-test PASSED/FAILED line carries the same verdict)
and enforces the stated runtime budget with a fresh computation, not a
cached fixture.
"""

import math
import random
import time
from fractions import Fraction

from cclab import dynamics
from cclab.analysis import analyze
from cclab.catalogue import load_catalogue, load_references
from cclab.curvature import VALUE, scalar_curvature
from cclab.dynamics import (
    STABLE,
    TWO_PI,
    UNSTABLE,
    detect_radial_form,
    exact_radial_cycles,
    find_cycles_numeric,
)
from cclab.elimination import resultant
from cclab.growth import claimed_quadratic_bound, constructed_cycle_count
from cclab.parsing import ParseError, parse_expression
from cclab.polynomials import Poly2, UniPoly, format_poly2
from cclab.realroots import count_real_roots
from cclab.singularity import (
    A_FAILS_NO_SINGULARITY,
    A_FAILS_R_NEGATIVE,
    A_HOLDS,
    singular_locus,
)
from cclab.systems import transform_system
from test_curvature import numeric_curvature_probe

XY = ("x", "y")


def report(number: int, passed: bool, detail: str) -> None:
    print("criterion %d: %s  %s" % (number, "PASS" if passed else "FAIL",
                                    detail))
    assert passed, "criterion %d failed: %s" % (number, detail)


def rand_poly(rng: random.Random, max_terms: int = 6) -> Poly2:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        terms[(i, j)] = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
    return Poly2(terms, XY)


def test_criterion_1_exact_origin_curvature_values():
    expected = {
        "s1": Fraction(-1),
        "s1a": Fraction(-80, 289),
        "s2": Fraction(6, 5),
        "center": Fraction(1),
    }
    catalogue = load_catalogue()
    worst = 0.0
    ok = True
    for key, value in expected.items():
        started = time.monotonic()
        data = scalar_curvature(catalogue[key].system)
        outcome = data.curvature.evaluate(Fraction(0), Fraction(0))
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        ok = ok and outcome.kind == VALUE and outcome.value == value
        ok = ok and elapsed < 1.0
    report(1, ok, "R(0,0) exact for all four systems, slowest %.2fs" % worst)


def test_criterion_2_cross_multiplication_identities():
    started = time.monotonic()
    catalogue = load_catalogue()
    references = load_references()
    ok = True
    for key in ("s1", "s2"):
        data = scalar_curvature(catalogue[key].system)
        num, den = references.curvature[key]
        ok = ok and data.curvature.equals_quotient(num, den)
    center = scalar_curvature(catalogue["center"].system)
    closed_num = parse_expression("1", XY)
    closed_den = parse_expression("(x^2 + 1)^2 * (4*x^2 + (y + 1)^2)", XY)
    ok = ok and center.curvature.equals_quotient(closed_num, closed_den)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    report(2, ok, "exact quotient identities for s1, s2, center in %.2fs"
           % elapsed)


def test_criterion_3_singular_locus_certifications():
    started = time.monotonic()
    catalogue = load_catalogue()
    s2_locus = singular_locus(scalar_curvature(catalogue["s2"].system))
    ok = s2_locus.all_branches_empty
    ok = ok and s2_locus.certified_divergence_count == 0
    center_locus = singular_locus(scalar_curvature(catalogue["center"].system))
    ok = ok and center_locus.certified_divergence_count == 1
    if center_locus.divergence_points:
        box = center_locus.divergence_points[0].box
        ok = ok and box.is_exact and box.x.exact == 0 and box.y.exact == -1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    report(3, ok, "both s2 branches empty; center diverges exactly at "
                  "(0, -1); %.2fs" % elapsed)


def test_criterion_4_limit_cycle_ground_truth():
    started = time.monotonic()
    catalogue = load_catalogue()
    ok = True

    exact1 = exact_radial_cycles(detect_radial_form(catalogue["s1"].system))
    ok = ok and exact1.cycle_count == 1
    ok = ok and exact1.cycles[0].radius_interval.exact == 1
    ok = ok and exact1.cycles[0].stability == UNSTABLE

    exact2 = exact_radial_cycles(detect_radial_form(catalogue["s1a"].system))
    ok = ok and exact2.cycle_count == 2
    ok = ok and exact2.cycles[0].radius_interval.exact == 1
    ok = ok and exact2.cycles[0].stability == STABLE
    ok = ok and exact2.cycles[1].radius_interval.exact == 2
    ok = ok and exact2.cycles[1].stability == UNSTABLE

    for key, exact in (("s1", exact1), ("s1a", exact2)):
        numeric = find_cycles_numeric(catalogue[key].system, (0.25, 4.0), 16)
        ok = ok and numeric.cycle_count == exact.cycle_count
        for e, n in zip(exact.cycles, numeric.cycles):
            ok = ok and abs(e.radius - n.radius) <= 1e-6
            ok = ok and e.stability == n.stability

    center = find_cycles_numeric(catalogue["center"].system, (0.25, 4.0), 16)
    ok = ok and center.cycle_count == 0 and center.center_flag

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    report(4, ok, "radii and stabilities agree exactly/1e-6; center flagged; "
                  "%.2fs" % elapsed)


def test_criterion_5_transform_reproduction():
    catalogue = load_catalogue()
    image = transform_system(
        catalogue["s1"].system,
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2))),
        new_varnames=("u", "v"))
    target = catalogue["s2"].system
    ok = image.P == target.P and image.Q == target.Q
    report(5, ok, "(x, y) = (u, u + v/2) carries s1 to s2 exactly")


def test_criterion_6_growth_contradiction():
    started = time.monotonic()
    ok = True
    k = 2
    while constructed_cycle_count(k) <= claimed_quadratic_bound(2 ** k - 1):
        k += 1
    ok = ok and k == 35
    ok = ok and (constructed_cycle_count(34)
                 <= claimed_quadratic_bound(2 ** 34 - 1))
    ok = ok and (constructed_cycle_count(35)
                 > 4 * (2 ** 35 - 2) * (2 ** 36 - 5))
    for j in range(2, 65):
        n = 2 ** j - 1
        ok = ok and (claimed_quadratic_bound(n)
                     == 4 * (2 ** j - 2) * (2 ** (j + 1) - 5))
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    report(6, ok, "minimal k = 35; factored identity holds for k = 2..64; "
                  "%.2fs" % elapsed)


def test_criterion_7_rationalization_validity():
    started = time.monotonic()
    catalogue = load_catalogue()
    rng = random.Random(74207281)
    ok = True
    for key, entry in catalogue.items():
        data = scalar_curvature(entry.system)
        reduced = data.curvature
        checked = 0
        while checked < 100:
            px, py = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            fx, fy = Fraction(px), Fraction(py)
            outcome = reduced.evaluate(fx, fy)
            if outcome.kind != VALUE:
                continue
            if abs(reduced.denominator.eval_at(fx, fy)) < Fraction(1, 100):
                continue
            exact = float(outcome.value)
            probe = numeric_curvature_probe(entry.system, px, py)
            ok = ok and abs(probe - exact) <= 1e-5 * (1 + abs(exact))
            checked += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    report(7, ok, "400 random nonsingular points within 1e-5 relative; "
                  "%.2fs" % elapsed)


def test_criterion_8_property_suites():
    started = time.monotonic()
    rng = random.Random(13466917)
    ok = True

    # ring axioms and Leibniz
    for _ in range(30):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and p * (q + r) == p * q + p * r
        ok = ok and p * q == q * p
        ok = ok and ((p * q).partial("x")
                     == p.partial("x") * q + p * q.partial("x"))

    # substitution-evaluation commutation
    matrix = ((Fraction(2), Fraction(-1)), (Fraction(1), Fraction(3)))
    offset = (Fraction(1, 2), Fraction(-1, 3))
    for _ in range(20):
        p = rand_poly(rng)
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        image = p.subs_linear(matrix, offset, ("u", "v"))
        ox = matrix[0][0] * u + matrix[0][1] * v + offset[0]
        oy = matrix[1][0] * u + matrix[1][1] * v + offset[1]
        ok = ok and image.eval_at(u, v) == p.eval_at(ox, oy)

    # Sturm counting against known factorizations
    for _ in range(20):
        roots = rng.sample([Fraction(n, 2) for n in range(-8, 9)],
                           rng.randint(0, 4))
        poly = UniPoly([1])
        for root in roots:
            poly = poly * UniPoly([-root, 1])
        for _ in range(rng.randint(0, 2)):
            b = Fraction(rng.randint(-3, 3))
            poly = poly * UniPoly([b * b + 1, b * 2, 1])  # (t+b)^2 + 1
        if poly.degree >= 1:
            ok = ok and count_real_roots(poly) == len(roots)

    # resultant specialization
    from test_elimination import numeric_sylvester_resultant, specialize_x
    done = 0
    while done < 10:
        f, g = rand_poly(rng), rand_poly(rng)
        if f.degree_in("x") < 1 or g.degree_in("x") < 1:
            continue
        y0 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        fc, gc = specialize_x(f, y0), specialize_x(g, y0)
        if fc[-1] == 0 or gc[-1] == 0:
            continue
        ok = ok and (resultant(f, g, "x").eval_at(y0)
                     == numeric_sylvester_resultant(fc, gc))
        done += 1

    # integrator eighth-order convergence on the cubic with a closed form
    catalogue = load_catalogue()
    deriv = dynamics._compile_field(catalogue["s1"].system).deriv
    u0 = 0.25
    u = u0 / (u0 + (1 - u0) * math.exp(10.0))
    exact_pt = (math.sqrt(u) * math.cos(5.0), math.sqrt(u) * math.sin(5.0))
    errors = []
    for h in (1.0, 0.5, 0.25, 0.1):
        x, y = 0.5, 0.0
        for _ in range(round(5.0 / h)):
            x, y = dynamics._dop853_step(deriv, x, y, *deriv(x, y), h)[:2]
        errors.append(math.hypot(x - exact_pt[0], y - exact_pt[1]))
    ok = ok and errors[0] / errors[1] > 150 and errors[1] / errors[2] > 150
    ok = ok and errors[3] < 1e-14

    # parser round-trip and fuzz totality
    for _ in range(30):
        p = rand_poly(rng)
        ok = ok and parse_expression(format_poly2(p), XY) == p
    alphabet = "xy01279+-*/^() .e$\\"
    for _ in range(300):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 40)))
        try:
            parse_expression(text, XY)
        except ParseError:
            pass

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report(8, ok, "ring, Leibniz, substitution, Sturm, resultant, O(h^8), "
                  "parser properties in %.2fs" % elapsed)


def test_criterion_9_composite_refutation_facts():
    catalogue = load_catalogue()
    ok = True

    reports = {key: analyze(entry.system)
               for key, entry in catalogue.items()}

    # the criterion fails on three systems that DO have limit cycles
    ok = ok and reports["s1"].assertions.assertion_A == A_FAILS_R_NEGATIVE
    ok = ok and reports["s1"].cycles.cycle_count == 1
    ok = ok and reports["s1a"].assertions.assertion_A == A_FAILS_R_NEGATIVE
    ok = ok and reports["s1a"].cycles.cycle_count == 2
    ok = ok and reports["s2"].assertions.assertion_A == A_FAILS_NO_SINGULARITY
    ok = ok and reports["s2"].cycles.cycle_count == 1

    # and holds, with one certified divergence point, where NO cycle exists
    center = reports["center"]
    ok = ok and center.assertions.assertion_A == A_HOLDS
    ok = ok and center.assertions.assertion_B_count == 1
    ok = ok and center.cycles.cycle_count == 0
    ok = ok and center.cycles.center_flag

    report(9, ok, "positivity criterion wrong in both directions: fails on "
                  "s1/s1a/s2 with cycles present, holds on the cycle-free "
                  "center")
