"""Built-in system catalogue and transcribed reference expressions.

Both live in INI data files next to this module so that a transcription fix
is a data edit, not a code change.  The loaders accept an explicit path so
tests can run the fact-check engine against a deliberately perturbed copy.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .parsing import parse_expression
from .polynomials import Poly2, UniPoly
from .systems import PlanarSystem

CATALOGUE_KEYS = ("s1", "s1a", "s2", "center")

# An exact point (x, y), or an irrational one as ((xlo, xhi), (ylo, yhi)).
RecordedPoint = tuple[Fraction, Fraction] | tuple[tuple[Fraction, Fraction],
                                                  tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class KnownFact:
    """One expected value with its provenance label.

    ``reference`` means transcribed from the reference material, ``derived``
    means established independently by this package; either way the
    fact-check command recomputes the value from scratch and compares.
    """

    name: str
    value: object
    provenance: str


@dataclass(frozen=True)
class CatalogueEntry:
    key: str
    system: PlanarSystem
    summary: str
    curvature_at_origin: KnownFact
    cycle_radii_squared: KnownFact   # value: tuple[Fraction, ...]
    cycle_stabilities: KnownFact     # value: tuple[str, ...], parallel to radii
    divergence_points: KnownFact     # value: tuple[RecordedPoint, ...]
    center: bool


@dataclass(frozen=True)
class StatedEliminant:
    """A quoted single-variable quartic tied to one denominator branch."""

    pair: tuple[Poly2, Poly2]
    eliminated: str
    quartic: UniPoly


@dataclass(frozen=True)
class ReferenceData:
    """Transcribed curvature quotients plus the quoted eliminants."""

    curvature: dict[str, tuple[Poly2, Poly2]]  # key -> (numerator, denominator)
    eliminants: tuple[StatedEliminant, ...]


def _read_ini(filename: str, path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    else:
        text = (resources.files("cclab") / "data" / filename).read_text("utf-8")
        parser.read_string(text)
    return parser


def _parse_coordinate(token: str) -> Fraction | tuple[Fraction, Fraction]:
    """A rational ``p/q``, or an enclosing interval ``lo..hi`` with lo < hi."""
    if ".." not in token:
        return Fraction(token)
    lo, hi = (Fraction(end) for end in token.split(".."))
    if not lo < hi:
        raise ValueError(f"enclosure {token!r} is empty or a point")
    return (lo, hi)


def _parse_points(text: str) -> tuple[RecordedPoint, ...]:
    """Semicolon-separated points: two rationals, or two enclosures."""
    points = []
    for chunk in text.split(";"):
        parts = chunk.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"a point needs two coordinates, got {chunk!r}")
        x, y = (_parse_coordinate(part) for part in parts)
        if isinstance(x, Fraction) != isinstance(y, Fraction):
            raise ValueError(f"point {chunk!r} mixes an exact coordinate "
                             "with an enclosure")
        points.append((x, y))
    return tuple(points)


def load_catalogue(path: str | None = None) -> dict[str, CatalogueEntry]:
    """All catalogue entries, keyed by their short names."""
    parser = _read_ini("catalogue.ini", path)
    entries: dict[str, CatalogueEntry] = {}
    for key in parser.sections():
        section = parser[key]
        names = tuple(section["variables"].split())
        if len(names) != 2:
            raise ValueError(f"[{key}] must declare exactly two variables")
        varnames = (names[0], names[1])
        p = parse_expression(section["d" + varnames[0]], varnames)
        q = parse_expression(section["d" + varnames[1]], varnames)
        system = PlanarSystem(p, q, varnames, label=key)

        cycles_src = section["cycles_source"]
        radii = tuple(Fraction(t) for t in section["cycle_radii_squared"].split())
        stabilities = tuple(section["cycle_stabilities"].split())
        if len(radii) != len(stabilities):
            raise ValueError(f"[{key}] radii and stabilities differ in length")
        entries[key] = CatalogueEntry(
            key=key,
            system=system,
            summary=section["summary"],
            curvature_at_origin=KnownFact(
                "curvature at the origin",
                Fraction(section["curvature_at_origin"]),
                section["curvature_at_origin_source"],
            ),
            cycle_radii_squared=KnownFact(
                "squared axis crossings of the cycles", radii, cycles_src),
            cycle_stabilities=KnownFact(
                "stability of each cycle", stabilities, cycles_src),
            divergence_points=KnownFact(
                "certified divergence points",
                _parse_points(section["divergence_points"]),
                section["divergence_points_source"],
            ),
            center=section.getboolean("center"),
        )
    return entries


def load_references(path: str | None = None) -> ReferenceData:
    """Transcribed curvature quotients and stated eliminants."""
    parser = _read_ini("reference_polynomials.ini", path)
    curvature: dict[str, tuple[Poly2, Poly2]] = {}
    for key in CATALOGUE_KEYS:
        section_name = f"{key}_curvature"
        if section_name not in parser:
            continue
        section = parser[section_name]
        names = tuple(section["variables"].split())
        varnames = (names[0], names[1])
        num = parse_expression(section["numerator"], varnames)
        den = parse_expression(section["denominator"], varnames)
        curvature[key] = (num, den)

    eliminants: list[StatedEliminant] = []
    section = parser["stated_eliminants"]
    names = tuple(section["variables"].split())
    varnames = (names[0], names[1])
    for prefix in ("first", "second"):
        raw_pair = section[f"{prefix}_pair"].split(";")
        if len(raw_pair) != 2:
            raise ValueError(f"{prefix}_pair must hold two expressions")
        pair = (
            parse_expression(raw_pair[0], varnames),
            parse_expression(raw_pair[1], varnames),
        )
        eliminated = section[f"{prefix}_eliminated"].strip()
        if eliminated not in varnames:
            raise ValueError(f"{prefix}_eliminated names an unknown variable")
        quartic_poly = parse_expression(section[f"{prefix}_quartic"], varnames)
        remaining = varnames[1] if eliminated == varnames[0] else varnames[0]
        rows = quartic_poly.coeffs_in(eliminated)
        if len(rows) > 1:
            raise ValueError(f"{prefix}_quartic still involves {eliminated}")
        eliminants.append(StatedEliminant(pair, eliminated, rows[0]
                                          if rows else UniPoly([], remaining)))
    return ReferenceData(curvature=curvature, eliminants=tuple(eliminants))
