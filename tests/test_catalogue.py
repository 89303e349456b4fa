"""The built-in system catalogue and transcribed reference data."""

from fractions import Fraction

import pytest

from cclab.catalogue import (
    CATALOGUE_KEYS,
    _parse_points,
    load_catalogue,
    load_references,
)
from cclab.parsing import parse_expression
from cclab.systems import PlanarSystem


def test_catalogue_keys(catalogue):
    assert tuple(catalogue) == CATALOGUE_KEYS


def test_entries_are_well_formed(catalogue):
    for key, entry in catalogue.items():
        assert entry.key == key
        assert isinstance(entry.system, PlanarSystem)
        assert entry.summary
        assert isinstance(entry.curvature_at_origin.value, Fraction)
        assert entry.curvature_at_origin.provenance in ("reference", "derived")
        radii = entry.cycle_radii_squared.value
        stabilities = entry.cycle_stabilities.value
        assert len(radii) == len(stabilities)
        assert all(isinstance(r, Fraction) and r > 0 for r in radii)
        for point in entry.divergence_points.value:
            assert len(point) == 2
            if not all(isinstance(c, Fraction) for c in point):
                # an irrational point: two nonempty rational enclosures
                for lo, hi in point:
                    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
                    assert lo < hi


def test_center_flag_is_exclusive(catalogue):
    flags = {key: entry.center for key, entry in catalogue.items()}
    assert flags == {"s1": False, "s1a": False, "s2": False, "center": True}


def test_catalogue_agrees_with_sources(catalogue):
    s1 = catalogue["s1"].system
    assert s1.varnames == ("x", "y")
    assert s1.P == parse_expression("-y + x*(x^2 + y^2 - 1)", ("x", "y"))
    assert catalogue["s1"].cycle_radii_squared.value == (Fraction(1),)
    assert catalogue["s1a"].cycle_radii_squared.value == (Fraction(1), Fraction(4))
    assert catalogue["s1a"].cycle_stabilities.value == ("stable", "unstable")
    assert catalogue["s2"].cycle_radii_squared.value == (Fraction(1, 2),)
    assert catalogue["s2"].system.varnames == ("u", "v")
    assert catalogue["center"].divergence_points.value == ((Fraction(0), Fraction(-1)),)


def test_two_cycle_points_are_recorded_as_disjoint_enclosures(catalogue):
    fact = catalogue["s1a"].divergence_points
    assert fact.provenance == "derived"
    assert len(fact.value) == 16
    for i, (ax, ay) in enumerate(fact.value):
        for bx, by in fact.value[i + 1:]:
            assert ax[1] < bx[0] or bx[1] < ax[0] or ay[1] < by[0] or by[1] < ay[0]


@pytest.mark.parametrize("text, expected", [
    ("1/2 -3", ((Fraction(1, 2), Fraction(-3)),)),
    ("-1.5..-1.25 0..1/3; 2 0",
     (((Fraction(-3, 2), Fraction(-5, 4)), (Fraction(0), Fraction(1, 3))),
      (Fraction(2), Fraction(0)))),
    ("", ()),
])
def test_parse_points(text, expected):
    assert _parse_points(text) == expected


@pytest.mark.parametrize("text", ["1 2 3", "0..1 2", "1..1 0..1", "1..0 0..1"])
def test_parse_points_rejects_malformed_points(text):
    with pytest.raises(ValueError):
        _parse_points(text)


def test_load_catalogue_from_explicit_path(tmp_path):
    text = (
        "[tiny]\n"
        "variables = x y\n"
        "dx = -y\n"
        "dy = x\n"
        "summary = linear rotation\n"
        "curvature_at_origin = 1\n"
        "curvature_at_origin_source = derived\n"
        "cycle_radii_squared =\n"
        "cycle_stabilities =\n"
        "cycles_source = derived\n"
        "divergence_points =\n"
        "divergence_points_source = derived\n"
        "center = yes\n"
    )
    path = tmp_path / "alt.ini"
    path.write_text(text)
    entries = load_catalogue(str(path))
    assert tuple(entries) == ("tiny",)
    assert entries["tiny"].center
    assert entries["tiny"].system.P == parse_expression("-y", ("x", "y"))


def test_references_cover_the_transcribed_systems(references):
    assert set(references.curvature) == {"s1", "s2", "center"}
    for key, (num, den) in references.curvature.items():
        assert not num.is_zero()
        assert not den.is_zero()
        assert num.varnames == den.varnames


def test_reference_eliminants(references):
    assert len(references.eliminants) == 2
    first, second = references.eliminants
    assert first.eliminated == "u"
    assert second.eliminated == "v"
    for stated in references.eliminants:
        assert stated.quartic.degree == 4
        f, g = stated.pair
        assert f.varnames == ("u", "v")


def test_malformed_catalogue_rejected(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[oops]\nvariables = x y\ndx = -y\n")
    with pytest.raises(Exception):
        load_catalogue(str(path))
