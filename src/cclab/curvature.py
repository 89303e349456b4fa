"""Scalar curvature of the Jacobian-energy metric of a planar system.

For a system x' = P(x, y), y' = Q(x, y), the metric is diagonal with entries
built from the squared Jacobian columns:

    g11 = 2 * ((dP/dx)^2 + (dQ/dx)^2)
    g22 = 2 * ((dP/dy)^2 + (dQ/dy)^2)

Both entries are sums of squares, so the metric degenerates exactly where a
whole Jacobian column vanishes.  Writing W = g11 * g22 for the determinant,
the scalar curvature of this metric is the rational function

    R = [ 2*W*(d2(g22)/dx2 + d2(g11)/dy2)
          - (dW/dx * d(g22)/dx + dW/dy * d(g11)/dy) ] / (2 * W^2)

obtained by expanding the usual divergence form of the curvature of a
diagonal metric; every square root cancels.  Only whole copies of g11 and
g22 are cancelled from the quotient (no bivariate gcd is attempted);
equality of rational functions is decided by cross-multiplication, which is
exact and total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly2, Rat
from .systems import PlanarSystem

VALUE = "value"
SINGULAR = "singular"
INDETERMINATE = "indeterminate"


class DegenerateMetricError(ValueError):
    """The metric determinant is identically zero, so curvature is undefined."""


@dataclass(frozen=True)
class PointValue:
    """Outcome of evaluating a rational function at a point.

    ``kind`` is ``"value"`` (finite, ``value`` holds the exact rational),
    ``"singular"`` (denominator vanishes, numerator does not: |R| blows up
    along generic approaches), or ``"indeterminate"`` (both vanish; the
    unreduced form carries no information at this point).
    """

    kind: str
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (VALUE, SINGULAR, INDETERMINATE):
            raise ValueError(f"unknown point-value kind {self.kind!r}")
        if (self.value is None) == (self.kind == VALUE):
            raise ValueError("value must be present exactly for kind 'value'")


@dataclass(frozen=True)
class RationalFunction:
    """A quotient of two bivariate polynomials, deliberately unreduced."""

    numerator: Poly2
    denominator: Poly2

    def __post_init__(self):
        if self.numerator.varnames != self.denominator.varnames:
            raise ValueError("numerator and denominator use different variables")
        if self.denominator.is_zero():
            raise ZeroDivisionError("denominator is the zero polynomial")

    @property
    def varnames(self) -> tuple[str, str]:
        return self.numerator.varnames

    def evaluate(self, px: Rat, py: Rat) -> PointValue:
        den = self.denominator.eval_at(px, py)
        num = self.numerator.eval_at(px, py)
        if den != 0:
            return PointValue(VALUE, num / den)
        if num != 0:
            return PointValue(SINGULAR)
        return PointValue(INDETERMINATE)

    def same_function(self, other: RationalFunction) -> bool:
        """Equality as rational functions, by exact cross-multiplication."""
        if self.varnames != other.varnames:
            raise ValueError("cannot compare across different variable names")
        return (self.numerator * other.denominator
                == other.numerator * self.denominator)

    def equals_quotient(self, numerator: Poly2, denominator: Poly2) -> bool:
        return self.same_function(RationalFunction(numerator, denominator))


@dataclass(frozen=True)
class MetricComponents:
    """Diagonal metric entries and their determinant, all exact polynomials."""

    g11: Poly2
    g22: Poly2
    det: Poly2


@dataclass(frozen=True)
class VanishingPair:
    """Two polynomials whose common zeros form one branch of the singular set.

    The metric determinant is (up to the factor 4) a product of two sums of
    two squares, so it vanishes exactly where one of the two Jacobian columns
    does; each branch is the common zero set of a pair.
    """

    first: Poly2
    second: Poly2
    column: str  # which Jacobian column vanishes on this branch


@dataclass(frozen=True)
class CurvatureData:
    """Everything the curvature computation produces for one system.

    ``curvature`` is N/(2W^2) with shared metric factors cancelled.  The
    literal pair can share whole copies of g11 or g22 between numerator and
    denominator, which turns genuine poles into spurious 0/0 points; both
    sides are divided by those two polynomials (only them, never a general
    gcd) while the division stays exact, so the denominator is
    2 * g11^e1 * g22^e2 with ``den_exponents`` (e1, e2).  Its outcomes at
    points classify 0/0 points correctly whenever the shared factor was one
    of the metric entries.
    """

    system: PlanarSystem
    metric: MetricComponents
    curvature: RationalFunction
    den_exponents: tuple[int, int]
    branches: tuple[VanishingPair, VanishingPair]


def metric_components(system: PlanarSystem) -> MetricComponents:
    a, b = system.varnames
    pa, qa = system.P.partial(a), system.Q.partial(a)
    pb, qb = system.P.partial(b), system.Q.partial(b)
    g11 = (pa * pa + qa * qa).scale(2)
    g22 = (pb * pb + qb * qb).scale(2)
    return MetricComponents(g11, g22, g11 * g22)


def scalar_curvature(system: PlanarSystem) -> CurvatureData:
    """Exact scalar curvature as a rational function, metric factors cancelled.

    Raises DegenerateMetricError when the determinant is identically zero
    (one Jacobian column vanishes as a polynomial), in which case the metric
    never defines a curvature anywhere.
    """
    a, b = system.varnames
    metric = metric_components(system)
    g11, g22, det = metric.g11, metric.g22, metric.det
    if det.is_zero():
        raise DegenerateMetricError(
            f"metric of {system.label or 'system'} is degenerate: "
            "a Jacobian column is identically zero"
        )
    g22_a = g22.partial(a)
    g11_b = g11.partial(b)
    laplace_like = g22_a.partial(a) + g11_b.partial(b)
    det_a, det_b = det.partial(a), det.partial(b)
    numerator = (det * laplace_like).scale(2) - (det_a * g22_a + det_b * g11_b)
    branches = (
        VanishingPair(system.P.partial(a), system.Q.partial(a), column=a),
        VanishingPair(system.P.partial(b), system.Q.partial(b), column=b),
    )
    curvature, exponents = _cancel_metric_factors(numerator, g11, g22)
    return CurvatureData(system, metric, curvature, exponents, branches)


def _cancel_metric_factors(numerator: Poly2, g11: Poly2,
                           g22: Poly2) -> tuple[RationalFunction, tuple[int, int]]:
    """N / (2 * g11^2 * g22^2) with whole copies of g11 and g22 divided out
    of both sides, and the exponents (e1, e2) left in the denominator."""
    exponents = [2, 2]
    num = numerator
    for idx, factor in ((0, g11), (1, g22)):
        while exponents[idx] > 0:
            quotient = num.try_divide(factor)
            if quotient is None:
                break
            num = quotient
            exponents[idx] -= 1
    den = Poly2.constant(2, numerator.varnames)
    den = den * g11 ** exponents[0] * g22 ** exponents[1]
    return RationalFunction(num, den), (exponents[0], exponents[1])


# Central-difference step of numeric_curvature_probe.
_PROBE_STEP = 1e-5


def numeric_curvature_probe(system: PlanarSystem, px: float,
                            py: float) -> float:
    """Curvature at a point by central differences on the divergence form.

    Independent of the rational expansion: only the metric entries and their
    first derivatives are taken symbolically; the outer derivatives of
    d(g22)/dx / sqrt(W) and d(g11)/dy / sqrt(W) are numeric, with step 1e-5.
    Used to cross-check the exact formula, not for production values.
    """
    a, b = system.varnames
    metric = metric_components(system)
    det, g11, g22 = metric.det, metric.g11, metric.g22
    if det.is_zero():
        raise DegenerateMetricError("metric determinant is identically zero")
    g22_a = g22.partial(a)
    g11_b = g11.partial(b)

    def as_float(poly: Poly2, fx: float, fy: float) -> float:
        n, d = poly.content.numerator, poly.content.denominator
        total = 0.0
        for (i, j), c in poly.ints.items():
            total += n * c / d * fx**i * fy**j
        return total

    def ratio_x(fx: float, fy: float) -> float:
        w = as_float(det, fx, fy)
        if w <= 0:
            raise ValueError(
                f"metric determinant is not positive at ({fx}, {fy})")
        return as_float(g22_a, fx, fy) / math.sqrt(w)

    def ratio_y(fx: float, fy: float) -> float:
        w = as_float(det, fx, fy)
        if w <= 0:
            raise ValueError(
                f"metric determinant is not positive at ({fx}, {fy})")
        return as_float(g11_b, fx, fy) / math.sqrt(w)

    w0 = as_float(det, px, py)
    if w0 <= 0:
        raise ValueError(f"metric determinant is not positive at ({px}, {py})")
    step = _PROBE_STEP
    div = ((ratio_x(px + step, py) - ratio_x(px - step, py)) / (2 * step)
           + (ratio_y(px, py + step) - ratio_y(px, py - step)) / (2 * step))
    return div / math.sqrt(w0)
