"""The fact-recheck harness: all green on a fresh tree, red under mutation."""

import dataclasses
import time
from fractions import Fraction

import pytest

from cclab.catalogue import load_catalogue, load_references, ReferenceData
from cclab.factcheck import render_results, results_dict, run_paper_check
from cclab.polynomials import Poly2


@pytest.fixture(scope="module")
def fresh_run():
    started = time.monotonic()
    results = run_paper_check()
    return results, time.monotonic() - started


def test_fresh_run_is_all_green_and_fast(fresh_run):
    results, elapsed = fresh_run
    assert len(results) == 26
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert elapsed < 60.0


def test_mutated_transcription_fails_exactly_one_row():
    references = load_references()
    num, den = references.curvature["s1"]
    bumped = num + Poly2.constant(1, num.varnames)
    mutated = ReferenceData(
        curvature={**references.curvature, "s1": (bumped, den)},
        eliminants=references.eliminants,
    )
    results = run_paper_check(references=mutated)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["curvature matches the transcribed quotient (s1)"]


def test_mutated_cycle_radius_fails_the_cycle_row():
    catalogue = load_catalogue()
    entry = catalogue["s1a"]
    wrong = dataclasses.replace(
        entry,
        cycle_radii_squared=dataclasses.replace(
            entry.cycle_radii_squared, value=(Fraction(1), Fraction(9))),
    )
    results = run_paper_check(catalogue={**catalogue, "s1a": wrong})
    failed = [r.name for r in results if not r.passed]
    assert "limit cycles (s1a)" in failed
    # nothing unrelated should turn red
    assert all("s1a" in name for name in failed)


def test_broken_system_is_reported_not_raised():
    catalogue = load_catalogue()
    entry = catalogue["center"]
    # a field with an identically singular metric: every dependent check
    # must land as a FAIL row instead of crashing the harness
    from cclab.parsing import parse_system
    degenerate = parse_system("vars: x y\ndx = y^2\ndy = 1 - y\n")
    broken = dataclasses.replace(entry, system=degenerate)
    results = run_paper_check(catalogue={**catalogue, "center": broken})
    assert len(results) == 26
    failed = [r for r in results if not r.passed]
    assert failed
    assert any("raised" in r.detail for r in failed)
    for r in failed:
        assert "center" in r.name


def test_render_results_format(fresh_run):
    results, _ = fresh_run
    text = render_results(results)
    lines = text.splitlines()
    assert len(lines) == len(results) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1] == "%d checks, 0 failed" % len(results)


def test_results_dict_round_trip(fresh_run):
    results, _ = fresh_run
    d = results_dict(results)
    assert len(d["checks"]) == len(results)
    assert d["checks"][0]["name"] == results[0].name
    from cclab.jsonout import dumps
    assert dumps(d) == dumps(results_dict(results))


def _with_s1a_points(points):
    catalogue = load_catalogue()
    entry = catalogue["s1a"]
    wrong = dataclasses.replace(
        entry,
        divergence_points=dataclasses.replace(entry.divergence_points,
                                              value=tuple(points)))
    return {**catalogue, "s1a": wrong}


@pytest.mark.parametrize("mutate", [
    # the data as it stood before the divergence points were certified
    lambda recorded: (),
    # one enclosure moved off its point
    lambda recorded: ((tuple((lo + 1, hi + 1) for lo, hi in recorded[0]),)
                      + recorded[1:]),
    # one enclosure widened over every point: each point lies in two
    lambda recorded: (((Fraction(-3), Fraction(3)),) * 2,) + recorded[1:],
    # an exact point where an enclosure belongs
    lambda recorded: ((recorded[0][0][0], recorded[0][1][0]),) + recorded[1:],
])
def test_mutated_divergence_enclosure_fails_the_s1a_row(mutate):
    recorded = load_catalogue()["s1a"].divergence_points.value
    results = run_paper_check(catalogue=_with_s1a_points(mutate(recorded)))
    failed = [r.name for r in results if not r.passed]
    assert failed == ["divergence points of |R| (s1a)"]
