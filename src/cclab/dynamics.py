"""Limit-cycle ground truth, established two independent ways.

For rigid rotationally symmetric fields the radial dynamics decouple
exactly: if P = -y + x*f(x^2+y^2) and Q = x + y*f(x^2+y^2) as polynomial
identities, then in polar coordinates the radius obeys dr/dt = r*f(r^2)
while the angle advances at unit speed.  Limit cycles are then circles
whose squared radius is a positive simple root of f, and their stability
is read off the sign change of f, all in exact arithmetic.

For everything else (and as a cross-check on the rigid path) a numerical
Poincare return map on the positive x-axis is scanned for fixed points
with an embedded Runge-Kutta 4(5) integrator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, TextIO

from .polynomials import Poly2, UniPoly
from .realroots import (
    RootInterval,
    positive_real_roots,
    rational_root_in,
    root_multiplicity,
)
from .systems import PlanarSystem

STABLE = "stable"
UNSTABLE = "unstable"
SEMI_STABLE = "semi_stable"

EXACT_RADIAL = "exact_radial"
NUMERIC_POINCARE = "numeric_poincare"

TWO_PI = 2.0 * math.pi


class DivergenceError(RuntimeError):
    """The trajectory left the integrable region (finite-time blow-up)."""

    def __init__(self, t: float, state: tuple[float, float]):
        self.t = t
        self.state = state
        super().__init__(
            f"step size underflow at t={t:.6g}, last state "
            f"({state[0]:.6g}, {state[1]:.6g})")


class NoReturnError(RuntimeError):
    """No section crossing occurred within the time budget."""

    def __init__(self, t_max: float):
        self.t_max = t_max
        super().__init__(f"no return to the section within t_max={t_max:g}")


class StepBudgetError(RuntimeError):
    """The integrator spent its budget of trial steps (a stiff stretch)."""

    def __init__(self, budget: int, t: float):
        self.budget = budget
        self.t = t
        super().__init__(
            f"trial-step budget of {budget} spent at t={t:.6g}")


class EquilibriumCaptureError(RuntimeError):
    """The trajectory fell inside the r_min disc around the equilibrium."""

    def __init__(self, t: float, r_min: float):
        self.t = t
        self.r_min = r_min
        super().__init__(f"trajectory entered r < {r_min:g} at t={t:.6g}")


# --- compiled float evaluation ------------------------------------------------


def _poly_expr(poly: Poly2, xname: str, yname: str) -> str:
    """A float-arithmetic expression string for one polynomial."""
    pieces = []
    for (i, j), c in sorted(poly.terms.items()):
        factors = [repr(float(c))]
        if i == 1:
            factors.append(xname)
        elif i > 1:
            factors.append(f"{xname}**{i}")
        if j == 1:
            factors.append(yname)
        elif j > 1:
            factors.append(f"{yname}**{j}")
        pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0.0"


def _compile_field(system: PlanarSystem) -> Callable[[float, float], tuple[float, float]]:
    """Compile (P, Q) into one fast float-valued function of (x, y).

    The scan below evaluates the field millions of times, so the term-by-term
    dictionary walk is compiled once into a plain arithmetic expression.
    """
    src = (
        "def _deriv(x, y):\n"
        f"    return ({_poly_expr(system.P, 'x', 'y')}), "
        f"({_poly_expr(system.Q, 'x', 'y')})\n"
    )
    namespace: dict = {}
    exec(src, namespace)
    return namespace["_deriv"]


# --- embedded Runge-Kutta 4(5), Fehlberg coefficients --------------------------

_A21 = 1.0 / 4.0
_A31, _A32 = 3.0 / 32.0, 9.0 / 32.0
_A41, _A42, _A43 = 1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0
_A51, _A52, _A53, _A54 = 439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0
_A61, _A62, _A63, _A64, _A65 = (
    -8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0)
_B1, _B3, _B4, _B5 = 25.0 / 216.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0
_E1, _E3, _E4, _E5, _E6 = (
    16.0 / 135.0 - _B1, 6656.0 / 12825.0 - _B3,
    28561.0 / 56430.0 - _B4, -9.0 / 50.0 - _B5, 2.0 / 55.0)

_MAX_COORD = 1e12


def _rkf45_step(deriv, x: float, y: float, h: float):
    """One trial step.  Returns the order-4 result and the embedded error."""
    k1x, k1y = deriv(x, y)
    k2x, k2y = deriv(x + h * _A21 * k1x, y + h * _A21 * k1y)
    k3x, k3y = deriv(x + h * (_A31 * k1x + _A32 * k2x),
                     y + h * (_A31 * k1y + _A32 * k2y))
    k4x, k4y = deriv(x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x),
                     y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y))
    k5x, k5y = deriv(
        x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x),
        y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y))
    k6x, k6y = deriv(
        x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x),
        y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y))
    nx = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x)
    ny = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y)
    ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x)
    ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y)
    return nx, ny, ex, ey


def _adaptive_steps(
    deriv,
    start: tuple[float, float],
    t_end: float,
    rtol: float,
    atol: float,
    max_step: float | None = None,
    max_trials: int | None = None,
    stats: list | None = None,
) -> Iterator[tuple[float, float, float, float, float, float]]:
    """Yield accepted steps (t0, x0, y0, t1, x1, y1) up to t_end.

    Raises DivergenceError when the controller underflows the step size or a
    coordinate leaves [-1e12, 1e12], both of which signal finite-time blow-up
    for polynomial fields, and StepBudgetError once ``max_trials`` trial
    steps, accepted plus rejected, have been spent.
    """
    t = 0.0
    x, y = float(start[0]), float(start[1])
    h = min(1e-3, t_end)
    if max_step is not None:
        h = min(h, max_step)
    accepted = rejected = 0
    try:
        while t < t_end:
            remaining = t_end - t
            if remaining <= 4.0 * sys.float_info.epsilon * max(abs(t), abs(t_end)):
                # the span is complete up to rounding: t + h can land a few
                # ulps short of t_end, and that residue is not a blow-up
                break
            if max_trials is not None and accepted + rejected >= max_trials:
                raise StepBudgetError(max_trials, t)
            h = min(h, remaining)
            if h < 1e-14 * max(1.0, abs(t)):
                raise DivergenceError(t, (x, y))
            try:
                nx, ny, ex, ey = _rkf45_step(deriv, x, y, h)
                finite = math.isfinite(nx) and math.isfinite(ny)
            except OverflowError:
                # the compiled field's float ** raises where * gives inf
                finite = False
            if not finite:
                h *= 0.25
                rejected += 1
                continue
            sx = atol + rtol * max(abs(x), abs(nx))
            sy = atol + rtol * max(abs(y), abs(ny))
            ratio = max(abs(ex) / sx, abs(ey) / sy)
            if ratio <= 1.0:
                t0, x0, y0 = t, x, y
                # propagate the order-5 member (the error vector is exactly
                # the order difference, so this is free local extrapolation)
                t, x, y = t + h, nx + ex, ny + ey
                accepted += 1
                if abs(x) > _MAX_COORD or abs(y) > _MAX_COORD:
                    raise DivergenceError(t, (x, y))
                grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2)
                h *= max(0.2, grow)
                if max_step is not None:
                    h = min(h, max_step)
                yield (t0, x0, y0, t, x, y)
            else:
                rejected += 1
                h *= max(0.2, 0.9 * ratio ** -0.2)
    finally:
        if stats is not None:
            stats[:] = [accepted, rejected]


@dataclass(frozen=True)
class Trajectory:
    """A computed orbit segment with the settings that produced it."""

    samples: tuple[tuple[float, float, float], ...]
    rtol: float
    atol: float
    steps_accepted: int
    steps_rejected: int
    fixed_step: float | None = None

    def dump_csv(self, target: str | TextIO) -> None:
        """Write t,x,y rows; run metadata goes first as '#' comment lines."""
        own = isinstance(target, str)
        fh = open(target, "w", encoding="utf-8") if own else target
        try:
            if self.fixed_step is None:
                fh.write(f"# adaptive rkf45, rtol={self.rtol:g}, "
                         f"atol={self.atol:g}\n")
            else:
                fh.write(f"# fixed-step rkf45, h={self.fixed_step:g}\n")
            fh.write(f"# steps accepted={self.steps_accepted}, "
                     f"rejected={self.steps_rejected}\n")
            fh.write("t,x,y\n")
            for t, x, y in self.samples:
                fh.write(f"{t!r},{x!r},{y!r}\n")
        finally:
            if own:
                fh.close()


def integrate(
    system: PlanarSystem,
    start: tuple[float, float],
    t_end: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    *,
    fixed_step: float | None = None,
) -> Trajectory:
    """Integrate the field from ``start`` for ``t_end`` time units.

    Adaptive by default; pass ``fixed_step`` to disable error control and
    march at a constant step (used by the order-verification tests).
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    deriv = _compile_field(system)
    samples = [(0.0, float(start[0]), float(start[1]))]
    if fixed_step is not None:
        if fixed_step <= 0:
            raise ValueError("fixed_step must be positive")
        t, x, y = samples[0]
        count = 0
        while t < t_end - 1e-12 * max(1.0, t_end):
            h = min(fixed_step, t_end - t)
            x, y, _, _ = _rkf45_step(deriv, x, y, h)
            if abs(x) > _MAX_COORD or abs(y) > _MAX_COORD \
                    or not (math.isfinite(x) and math.isfinite(y)):
                raise DivergenceError(t + h, (x, y))
            t += h
            count += 1
            samples.append((t, x, y))
        return Trajectory(tuple(samples), rtol, atol, count, 0, fixed_step)
    stats: list = []
    for (_, _, _, t1, x1, y1) in _adaptive_steps(
            deriv, start, t_end, rtol, atol, stats=stats):
        samples.append((t1, x1, y1))
    return Trajectory(tuple(samples), rtol, atol, stats[0], stats[1])


# --- rigid radial structure -----------------------------------------------------


@dataclass(frozen=True)
class RadialForm:
    """Result of matching P = -y + x*f(x^2+y^2), Q = x + y*f(x^2+y^2)."""

    f: UniPoly
    matched: bool


def _as_poly_in_square_radius(flat: Poly2) -> UniPoly | None:
    """Rewrite a Poly2 as f(x^2+y^2) if exactly possible, else None.

    Expanding sum_k a_k (x^2+y^2)^k puts a_k alone on the monomial x^(2k),
    so the candidate coefficients can be read off directly and the identity
    checked by one exact re-expansion.
    """
    if flat.is_zero():
        return UniPoly([], "s")
    varnames = flat.varnames
    degree = flat.total_degree
    if degree % 2 != 0:
        return None
    coeffs = [flat.terms.get((2 * k, 0), Fraction(0))
              for k in range(degree // 2 + 1)]
    s_poly = Poly2({(2, 0): Fraction(1), (0, 2): Fraction(1)}, varnames)
    rebuilt = Poly2.zero(varnames)
    power = Poly2.constant(1, varnames)
    for a_k in coeffs:
        if a_k:
            rebuilt = rebuilt + Poly2.constant(a_k, varnames) * power
        power = power * s_poly
    if rebuilt != flat:
        return None
    return UniPoly(coeffs, "s")


def detect_radial_form(system: PlanarSystem) -> RadialForm:
    """Match the rigid rotationally symmetric structure exactly.

    Unmatched systems get ``matched=False`` and a zero placeholder f; a
    matched system with f identically zero is the rigid linear rotation.
    """
    xname, yname = system.varnames
    x = Poly2.variable(xname, system.varnames)
    y = Poly2.variable(yname, system.varnames)
    a = system.P + y
    b = system.Q - x
    quot_a = a.try_divide(x)
    quot_b = b.try_divide(y)
    if quot_a is None or quot_b is None or quot_a != quot_b:
        return RadialForm(UniPoly([], "s"), False)
    f = _as_poly_in_square_radius(quot_a)
    if f is None:
        return RadialForm(UniPoly([], "s"), False)
    return RadialForm(f, True)


@dataclass(frozen=True)
class Cycle:
    """One detected limit cycle."""

    radius: float
    period: float | None    # None when no return around the cycle was timed
    stability: str
    source: str
    radius_interval: RootInterval | None = None
    note: str = ""

    def summary(self) -> str:
        """One line for text reports: radius, period and stability."""
        period = "unknown" if self.period is None else "%.12g" % self.period
        return "r = %.12g, period = %s, %s" % (self.radius, period,
                                               self.stability)


@dataclass(frozen=True)
class LimitCycleReport:
    cycles: tuple[Cycle, ...]
    center_flag: bool
    notes: tuple[str, ...] = ()

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)


def _sqrt_bounds(value: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(value) <= hi with width about 1e-15."""
    if value < 0:
        raise ValueError("negative radicand")
    scale = 10 ** 15
    shifted = (value.numerator * scale * scale) // value.denominator
    root = math.isqrt(shifted)
    return Fraction(root, scale), Fraction(root + 2, scale)


def _exact_sqrt(value: Fraction) -> Fraction | None:
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def _point_above(intervals, i: int) -> Fraction:
    """A rational point between the i-th isolated root and the next one.

    An inexact isolating interval's upper end is such a point; an exact
    root takes the midpoint of the gap to the next interval, or the root
    plus one when it is the last.
    """
    iv = intervals[i]
    if iv.exact is None:
        return iv.hi
    if i + 1 < len(intervals):
        return (iv.exact + intervals[i + 1].lo) / 2
    return iv.exact + 1


def exact_radial_cycles(form: RadialForm) -> LimitCycleReport:
    """Limit cycles of a rigid system, from the roots of its radial rate.

    Each positive simple root s* of f gives a cycle of radius sqrt(s*) and
    period exactly 2*pi.  At a root of odd multiplicity f changes sign, so
    the sign of f just above the root gives stability: positive (f rises
    through zero) repels nearby radii, negative attracts them.  Roots of
    even multiplicity are one-sided contacts, reported as semi-stable and
    counted once.
    """
    if not form.matched:
        raise ValueError("exact radial analysis needs a matched rigid form")
    if form.f.is_zero():
        return LimitCycleReport(
            cycles=(),
            center_flag=True,
            notes=("radial rate is identically zero: every circle around "
                   "the origin is a periodic orbit, so no cycle is isolated",))
    report = positive_real_roots(form.f)
    cycles = []
    for i, iv in enumerate(report.intervals):
        mult = root_multiplicity(form.f, iv)
        note = ""
        if mult % 2 == 0:
            stability = SEMI_STABLE
            note = (f"root of multiplicity {mult}: one-sided contact, "
                    "counted as a single semi-stable cycle")
        elif form.f.eval_at(_point_above(report.intervals, i)) > 0:
            stability = UNSTABLE
        else:
            stability = STABLE
        if mult > 1 and not note:
            note = f"root of multiplicity {mult}"
        exact_s = iv.exact if iv.exact is not None else rational_root_in(form.f, iv)
        if exact_s is not None:
            root = _exact_sqrt(exact_s)
            if root is not None:
                r_iv = RootInterval(root, root, exact=root)
            else:
                lo, hi = _sqrt_bounds(exact_s)
                r_iv = RootInterval(lo, hi)
        else:
            lo = _sqrt_bounds(iv.lo)[0]
            hi = _sqrt_bounds(iv.hi)[1]
            r_iv = RootInterval(lo, hi)
        cycles.append(Cycle(
            radius=float(r_iv.exact) if r_iv.exact is not None
            else float(r_iv.midpoint),
            period=TWO_PI,
            stability=stability,
            source=EXACT_RADIAL,
            radius_interval=r_iv,
            note=note,
        ))
    cycles.sort(key=lambda c: c.radius)
    return LimitCycleReport(tuple(cycles), center_flag=False)


# --- Poincare return map on the positive x-axis --------------------------------

# One return is abandoned after _T_MAX time units or _RETURN_STEPS trial
# steps, accepted plus rejected (near a stiff node the step controller can
# otherwise reject millions of steps before _T_MAX), and a trajectory that
# comes within _R_MIN of the origin counts as captured by the equilibrium.
_T_MAX = 1e3
_RETURN_STEPS = 20_000
_R_MIN = 1e-6
# poincare_return's tolerances; its docstring says why they are this tight
_RETURN_RTOL = 1e-14
_RETURN_ATOL = 1e-16


def _section_field(
    system: PlanarSystem,
) -> Callable[[float, float], tuple[float, float]]:
    """The compiled field of a system whose origin anchors the section."""
    if system.P.eval_at(0, 0) != 0 or system.Q.eval_at(0, 0) != 0:
        raise ValueError("the section is anchored at the origin, which must "
                         "be an equilibrium; translate the system first")
    return _compile_field(system)


def _solve_crossing(deriv, x0: float, y0: float, h: float,
                    y1: float) -> tuple[float, float]:
    """Offset tau in [0, h] and abscissa where an accepted step meets y = 0.

    The step of size h from (x0, y0) has y0 < 0 and ends at y1 >= 0.  The
    first estimate interpolates y linearly; each Newton step
    tau <- tau - y(tau)/Q then evaluates y(tau) with one RKF45 sub-step of
    size tau from the stored step start, which is at least as accurate as
    the accepted step.  The sign bracket [lo, hi] is kept, and a Newton
    step that leaves it falls back to the bracket midpoint.  The solve stops
    once tau moves by less than 1e-12 or the bracket is narrower than that.
    """
    lo, hi = 0.0, h
    tau = h * y0 / (y0 - y1)
    for _ in range(200):
        nx, ny, ex, ey = _rkf45_step(deriv, x0, y0, tau)
        x, y = nx + ex, ny + ey
        if y < 0.0:
            lo = tau
        else:
            hi = tau
        q = deriv(x, y)[1]
        nxt = tau - y / q if q > 0.0 else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - tau) < 1e-12 or hi - lo < 1e-12
        tau = nxt
        if done:
            break
    nx, _, ex, _ = _rkf45_step(deriv, x0, y0, tau)
    return tau, nx + ex


def _return_event(deriv, r0: float, rtol: float,
                  atol: float) -> tuple[float, float]:
    """First return to the positive x-axis: (crossing abscissa, crossing time).

    The section is {y = 0, x > _R_MIN} oriented upward: a crossing counts
    when y passes from negative to nonnegative.  Starting on the section
    itself is fine, since the start has y = 0 exactly and the test needs
    y < 0 first.  The crossing is solved inside the accepted step that
    contains it (see _solve_crossing), so the return is integrated once.
    """
    r_min_sq = _R_MIN * _R_MIN
    for (t0, x0, y0, t1, x1, y1) in _adaptive_steps(
            deriv, (r0, 0.0), _T_MAX, rtol, atol, max_step=0.2,
            max_trials=_RETURN_STEPS):
        if x1 * x1 + y1 * y1 < r_min_sq:
            raise EquilibriumCaptureError(t1, _R_MIN)
        if y0 < 0.0 <= y1 and max(x0, x1) > _R_MIN:
            tau, xc = _solve_crossing(deriv, x0, y0, t1 - t0, y1)
            if xc > _R_MIN:
                return xc, t0 + tau
    raise NoReturnError(_T_MAX)


def poincare_return(system: PlanarSystem, r0: float) -> float:
    """Abscissa of the first oriented return to the positive x-axis.

    The tolerances, rtol 1e-14 and atol 1e-16, are tighter than the plain
    integrator's: a repelling cycle amplifies per-step error by the
    exponential of its positive multiplier over one period, so returning to
    a known invariant circle within 1e-8 requires local error near the
    rounding floor.  A return that takes longer than 1e3 time units raises
    NoReturnError, one that spends 20000 trial steps raises StepBudgetError,
    and a trajectory that comes within 1e-6 of the origin raises
    EquilibriumCaptureError.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    xc, _ = _return_event(_section_field(system), r0,
                          _RETURN_RTOL, _RETURN_ATOL)
    return xc


# --- displacement scan ----------------------------------------------------------

# The scan integrates at the plain integrator's tolerances, and refines a
# bracket until its displacement is below _D_TOL.
_SCAN_RTOL = 1e-10
_SCAN_ATOL = 1e-12
_D_TOL = 1e-9

_RETURN = "return"
_OUTWARD = "outward"
_INWARD = "inward"
_UNUSABLE = "unusable"


@dataclass(frozen=True)
class _Cell:
    r: float
    kind: str
    displacement: float = math.nan
    return_time: float = math.nan
    note: str = ""


def _evaluate_cell(deriv, r: float) -> _Cell:
    try:
        r1, tau = _return_event(deriv, r, _SCAN_RTOL, _SCAN_ATOL)
    except DivergenceError as exc:
        lx, ly = exc.state
        if math.hypot(lx, ly) > r:
            return _Cell(r, _OUTWARD,
                         note="escaped outward before returning")
        return _Cell(r, _UNUSABLE, note=str(exc))
    except EquilibriumCaptureError:
        return _Cell(r, _INWARD, note="spiralled into the equilibrium")
    except (NoReturnError, StepBudgetError) as exc:
        return _Cell(r, _UNUSABLE, note=str(exc))
    return _Cell(r, _RETURN, displacement=r1 - r, return_time=tau)


def _cell_sign(cell: _Cell) -> int | None:
    """Displacement sign for bracketing: +1, -1, 0 (tiny), None (unusable)."""
    if cell.kind == _OUTWARD:
        return 1
    if cell.kind == _INWARD:
        return -1
    if cell.kind == _UNUSABLE:
        return None
    if cell.displacement > _D_TOL:
        return 1
    if cell.displacement < -_D_TOL:
        return -1
    return 0


def _group_note(kind: str, cells: list[_Cell]) -> str:
    rs = [c.r for c in cells]
    what = {
        _OUTWARD: "escaped outward before first return (counted as "
                  "outward displacement)",
        _INWARD: "fell into the equilibrium (counted as inward displacement)",
        _UNUSABLE: "produced no usable displacement",
    }[kind]
    if len(rs) == 1:
        text = f"grid radius {rs[0]:.6g} {what}"
    else:
        text = f"{len(rs)} grid radii in [{min(rs):.6g}, {max(rs):.6g}] {what}"
    if kind == _UNUSABLE:
        # each unusable cell says why: the group is otherwise unexplained
        text += ": " + "; ".join(f"r = {c.r:.6g}: {c.note}" for c in cells)
    return text


def find_cycles_numeric(
    system: PlanarSystem,
    r_range: tuple[float, float],
    n_scan: int,
) -> LimitCycleReport:
    """Scan the return-map displacement d(r) for sign changes.

    The grid is geometric over the annulus, and every return is integrated
    at rtol 1e-10 and atol 1e-12 for at most 1e3 time units and 20000 trial
    steps; a trajectory that comes within 1e-6 of the origin counts as
    captured.  Each sign-change bracket is refined in the field where its
    cycle attracts (see _refine_bracket) until |d| < 1e-9 or the bracket is
    narrower than 1e-12.  A grid cell whose trajectory blows up outward, or
    falls into the equilibrium, still carries a usable displacement sign, so
    cycles bordering a blow-up region (any repelling cycle of a field with
    fast far-field growth) are still found.  The center flag is set when every
    cell that did return moved by less than 1e-8, which is the
    continuum-of-periodic-orbits signature.
    """
    lo, hi = sorted((float(r_range[0]), float(r_range[1])))
    if lo <= 0:
        raise ValueError("the scanned annulus must have positive inner radius")
    if n_scan < 2:
        raise ValueError("n_scan must be at least 2")
    deriv = _section_field(system)
    ratio = hi / lo
    cells = [
        _evaluate_cell(deriv, lo * ratio ** (k / (n_scan - 1)))
        for k in range(n_scan)
    ]

    notes: list[str] = [
        f"displacement scan over the annulus [{lo:.6g}, {hi:.6g}] with "
        f"{n_scan} geometric grid radii",
        "absence of cycles is certified only inside the scanned annulus",
    ]
    for kind in (_OUTWARD, _INWARD, _UNUSABLE):
        group = [c for c in cells if c.kind == kind]
        if group:
            notes.append(_group_note(kind, group))

    cycles: list[Cycle] = []
    for left, right in zip(cells, cells[1:]):
        s_left, s_right = _cell_sign(left), _cell_sign(right)
        if s_left is None or s_right is None or s_left == 0 or s_right == 0:
            continue
        if s_left == s_right:
            continue
        found = _refine_bracket(deriv, left.r, right.r, s_left)
        if found is None:
            notes.append(f"bracket [{left.r:.6g}, {right.r:.6g}] could not "
                         "be refined (integration failed inside it)")
            continue
        cycles.append(found)

    cycles.sort(key=lambda c: c.radius)
    deduped: list[Cycle] = []
    for cyc in cycles:
        if deduped and abs(cyc.radius - deduped[-1].radius) < 1e-6:
            continue
        deduped.append(cyc)

    returned = [c for c in cells if c.kind == _RETURN]
    center_flag = (
        not deduped
        and bool(returned)
        and all(abs(c.displacement) < 1e-8 for c in returned)
    )
    return LimitCycleReport(tuple(deduped), center_flag, tuple(notes))


def _refine_bracket(deriv, lo: float, hi: float, s_left: int) -> Cycle | None:
    """Refine one sign-change bracket to a cycle radius and its period.

    The work is done in the field where the cycle attracts: the field itself
    for a stable cycle, and for an unstable one the field (-P(x, -y),
    Q(x, -y)), whose orbits are the mirror images in the x-axis run backward
    in time.  That field turns the same way round the origin and maps the
    positive x-axis to itself, so the cycle keeps its crossing and period
    while repelling and attracting swap.  There d(r) = P(r) - r is positive
    at lo, negative at hi and smooth with slope in (-1, 0) near the cycle.

    The first radius is the bracket midpoint, the second its image point
    r + d(r), and each later one the secant through the last two returns.
    The sign bracket is kept, and a candidate outside it, or one after an
    evaluation with no return, falls back to the bracket midpoint.  The
    first return with |d| < _D_TOL gives the radius, and its return time is
    the period.  A bracket that narrows below 1e-12 first ends at its
    midpoint, which is timed by one more return.
    """
    stability = UNSTABLE if s_left < 0 else STABLE
    attracting = deriv
    if stability == UNSTABLE:
        def attracting(x, y):
            p, q = deriv(x, -y)
            return -p, q
    r = 0.5 * (lo + hi)
    last = None
    for _ in range(200):
        cell = _evaluate_cell(attracting, r)
        if cell.kind == _RETURN and abs(cell.displacement) < _D_TOL:
            return Cycle(radius=r, period=cell.return_time,
                         stability=stability, source=NUMERIC_POINCARE)
        sign = _cell_sign(cell)
        if sign is None:
            return None
        if sign > 0:
            lo = r
        else:
            hi = r
        if hi - lo < 1e-12:
            break
        nxt = math.nan
        if cell.kind == _RETURN:
            d = cell.displacement
            if last is None:
                nxt = r + d
            elif d != last[1]:
                nxt = r - d * (r - last[0]) / (d - last[1])
            last = (r, d)
        r = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    r_star = 0.5 * (lo + hi)
    timed = _evaluate_cell(attracting, r_star)
    if timed.kind == _RETURN:
        return Cycle(radius=r_star, period=timed.return_time,
                     stability=stability, source=NUMERIC_POINCARE)
    return Cycle(radius=r_star, period=None, stability=stability,
                 source=NUMERIC_POINCARE,
                 note=("period unknown: the refined radius did not return "
                       "in the field where the cycle attracts (%s)"
                       % timed.note))
