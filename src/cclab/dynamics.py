"""Limit-cycle ground truth, established two independent ways.

For rigid rotationally symmetric fields the radial dynamics decouple
exactly: if P = -y + x*f(x^2+y^2) and Q = x + y*f(x^2+y^2) as polynomial
identities, then in polar coordinates the radius obeys dr/dt = r*f(r^2)
while the angle advances at unit speed.  Limit cycles are then circles
whose squared radius is a positive simple root of f, and their stability
is read off the sign change of f, all in exact arithmetic.

For everything else (and as a cross-check on the rigid path) a numerical
Poincare return map on the positive x-axis is scanned for fixed points
with Dormand and Prince's order-8 integrator DOP853.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterator, NamedTuple

from .polynomials import Poly2, UniPoly
from .realroots import (
    RootInterval,
    positive_real_roots,
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
    """No section crossing occurred within the time budget.

    ``sink`` is set when the orbit settled at a sink first, and so would
    never have returned.
    """

    def __init__(self, t_max: float, sink: tuple[float, float] | None = None):
        self.t_max = t_max
        self.sink = sink
        if sink is None:
            message = f"no return to the section within t_max={t_max:g}"
        else:
            message = (f"settled at the sink ({sink[0]:.6g}, {sink[1]:.6g}) "
                       "without returning to the section")
        super().__init__(message)


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


def _poly_expr(poly: Poly2) -> str:
    """A float expression for one polynomial in x, y and their powers x2, y3..."""
    pieces = []
    n, d = poly.content.numerator, poly.content.denominator
    for (i, j), c in sorted(poly.ints.items()):
        factors = [v if k == 1 else f"{v}{k}"
                   for v, k in (("x", i), ("y", j)) if k > 0]
        c = n * c / d  # correctly rounded, as float(Fraction) is
        if not factors:
            pieces.append(repr(c))
        elif c == 1.0 or c == -1.0:
            pieces.append(("-" if c < 0 else "") + "*".join(factors))
        else:
            pieces.append("*".join([repr(c)] + factors))
    return " + ".join(pieces) if pieces else "0.0"


def _powers_source(polys) -> str:
    """Lines binding x2 = x * x, x3 = x2 * x, ... as far as polys need."""
    lines = []
    for axis, v in ((0, "x"), (1, "y")):
        top = max((m[axis] for p in polys for m in p.ints), default=0)
        for k in range(2, top + 1):
            lower = v if k == 2 else f"{v}{k - 1}"
            lines.append(f"    {v}{k} = {lower} * {v}\n")
    return "".join(lines)


def _define(src: str, name: str) -> Callable:
    """Execute generated source and return the function it defines."""
    namespace: dict = {}
    exec(src, namespace)
    return namespace[name]


class _Field(NamedTuple):
    """A compiled field F = (P, Q) and its Jacobian's (trace, determinant)."""

    deriv: Callable[[float, float], tuple[float, float]]
    jacobian: Callable[[float, float], tuple[float, float]]


def _compile_field(system: PlanarSystem) -> _Field:
    """Compile (P, Q) and its Jacobian into fast float-valued functions.

    The scan below evaluates the field millions of times, so the term-by-term
    dictionary walk is compiled once into a plain arithmetic expression.
    Powers are repeated products: float ** is slower, and it raises
    OverflowError where * overflows to inf, which the step controller
    rejects like any other non-finite step.
    """
    xname, yname = system.varnames
    partials = [poly.partial(var) for poly in (system.P, system.Q)
                for var in (xname, yname)]
    px, py, qx, qy = map(_poly_expr, partials)
    deriv = _define(
        "def _deriv(x, y):\n"
        + _powers_source((system.P, system.Q))
        + f"    return ({_poly_expr(system.P)}), ({_poly_expr(system.Q)})\n",
        "_deriv")
    jacobian = _define(
        "def _jacobian(x, y):\n"
        + _powers_source(partials)
        + f"    px, py, qx, qy = ({px}), ({py}), ({qx}), ({qy})\n"
        "    return px + qy, px * qy - py * qx\n", "_jacobian")
    return _Field(deriv, jacobian)


def _mirrored(field: _Field) -> _Field:
    """The field (-P(x, -y), Q(x, -y)): F's mirror images run backward.

    Its Jacobian at (x, y) has the opposite trace and the same determinant
    as F's at (x, -y), so F's sources are its sinks.
    """
    deriv, jacobian = field

    def mirror_deriv(x, y):
        p, q = deriv(x, -y)
        return -p, q

    def mirror_jacobian(x, y):
        trace, det = jacobian(x, -y)
        return -trace, det

    return _Field(mirror_deriv, mirror_jacobian)


# --- Dormand-Prince 8(5,3) ------------------------------------------------------

# The DOP853 pair (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, section II.10), with the digits of Hairer's code.  Stage 0 is
# F at the step start; row i of _DP_A lists stage i's nonzero coefficients as
# (earlier stage, a_ij) pairs, and stage i is evaluated at time offset
# _DP_C[i] * h.  _DP_B gives the order-8 state, _DP_E5 the order-5 error
# estimate, and the order-3 estimate is sum(b_i k_i) - sum(bhh_i k_i).
_DP_C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_DP_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    (
        (0, 1.97250569845378994544595329183e-2),
        (1, 5.91751709536136983633785987549e-2),
    ),
    (
        (0, 2.95875854768068491816892993775e-2),
        (2, 8.87627564304205475450678981324e-2),
    ),
    (
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1),
    ),
    (
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1),
    ),
    (
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2),
    ),
    (
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3),
    ),
    (
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1),
    ),
    (
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2),
    ),
    (
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022),
    ),
    (
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1),
    ),
)
_DP_B = (
    (0, 5.42937341165687622380535766363e-2),
    (5, 4.45031289275240888144113950566),
    (6, 1.89151789931450038304281599044),
    (7, -5.8012039600105847814672114227),
    (8, 3.1116436695781989440891606237e-1),
    (9, -1.52160949662516078556178806805e-1),
    (10, 2.01365400804030348374776537501e-1),
    (11, 4.47106157277725905176885569043e-2),
)
_DP_E5 = (
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1),
)
_DP_BHH = (
    (0, 0.244094488188976377952755905512),
    (8, 0.733846688281611857341361741547),
    (11, 0.220588235294117647058823529412e-1),
)

# A step is at most _MAX_STEP time units long, and a coordinate beyond
# _MAX_COORD in absolute value counts as finite-time blow-up.
_MAX_STEP = 0.2
_MAX_COORD = 1e12


def _dop853_source() -> str:
    """Source of _dop853_step: the tableau unrolled into float literals."""

    def combo(pairs, axis: str) -> str:
        return " + ".join(f"{a!r} * k{j}{axis}" for j, a in pairs)

    lines = ["def _dop853_step(deriv, x, y, k0x, k0y, h):"]
    for i, row in enumerate(_DP_A[1:], start=1):
        lines.append(f"    k{i}x, k{i}y = deriv(x + h * ({combo(row, 'x')}), "
                     f"y + h * ({combo(row, 'y')}))")
    lines += [
        f"    bx = {combo(_DP_B, 'x')}",
        f"    by = {combo(_DP_B, 'y')}",
        "    return (x + h * bx, y + h * by,",
        f"            h * ({combo(_DP_E5, 'x')}),",
        f"            h * ({combo(_DP_E5, 'y')}),",
        f"            h * (bx - ({combo(_DP_BHH, 'x')})),",
        f"            h * (by - ({combo(_DP_BHH, 'y')})))",
    ]
    return "\n".join(lines) + "\n"


# One trial step of size h from (x, y), where (k0x, k0y) = F(x, y): returns
# the order-8 state and the order-5 and order-3 error vectors.  The caller
# evaluates F at an accepted state once, and that value is the next step's
# first stage (first same as last), so a step costs 11 evaluations plus one
# when it is accepted.
_dop853_step = _define(_dop853_source(), "_dop853_step")


def _adaptive_steps(
    deriv, start: tuple[float, float], t_end: float, rtol: float, atol: float,
) -> Iterator[tuple[float, float, float, float, float]]:
    """Yield (t, x, y, fx, fy) at the start and after every accepted step.

    (fx, fy) is F(x, y), which is also the next step's first stage.  The
    error of a trial step is Hairer's combination of the order-5 and order-3
    estimates e5 and e3, |e5|^2 / sqrt(2 (|e5|^2 + 0.01 |e3|^2)), with each
    component divided by atol + rtol * |coordinate|; the step size follows
    it with exponent 1/8 and never exceeds _MAX_STEP.

    Raises DivergenceError when the controller underflows the step size or a
    coordinate leaves [-1e12, 1e12], both of which signal finite-time blow-up
    for polynomial fields, and StepBudgetError once _RETURN_STEPS trial
    steps, accepted plus rejected, have been spent.
    """
    t = 0.0
    x, y = float(start[0]), float(start[1])
    kx, ky = deriv(x, y)
    h = min(1e-3, t_end, _MAX_STEP)
    trials = 0
    yield t, x, y, kx, ky
    while t < t_end:
        remaining = t_end - t
        if remaining <= 4.0 * sys.float_info.epsilon * max(abs(t), abs(t_end)):
            # the span is complete up to rounding: t + h can land a few
            # ulps short of t_end, and that residue is not a blow-up
            break
        if trials >= _RETURN_STEPS:
            raise StepBudgetError(_RETURN_STEPS, t)
        trials += 1
        h = min(h, remaining)
        if h < 1e-14 * max(1.0, abs(t)):
            raise DivergenceError(t, (x, y))
        nx, ny, e5x, e5y, e3x, e3y = _dop853_step(deriv, x, y, kx, ky, h)
        if not (math.isfinite(nx) and math.isfinite(ny)):
            h *= 0.25
            continue
        sx = atol + rtol * max(abs(x), abs(nx))
        sy = atol + rtol * max(abs(y), abs(ny))
        e5x, e5y, e3x, e3y = e5x / sx, e5y / sy, e3x / sx, e3y / sy
        err5 = e5x * e5x + e5y * e5y
        err3 = e3x * e3x + e3y * e3y
        ratio = err5 / math.sqrt(2.0 * (err5 + 0.01 * err3)) if err5 else 0.0
        if ratio <= 1.0:
            t, x, y = t + h, nx, ny
            if abs(x) > _MAX_COORD or abs(y) > _MAX_COORD:
                raise DivergenceError(t, (x, y))
            kx, ky = deriv(x, y)
            grow = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.125)
            h = min(h * max(0.2, grow), _MAX_STEP)
            yield t, x, y, kx, ky
        else:
            h *= max(0.2, 0.9 * ratio ** -0.125)


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
    coeffs = [flat.coefficient(2 * k, 0) for k in range(degree // 2 + 1)]
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
        if iv.exact is not None:
            root = _exact_sqrt(iv.exact)
            if root is not None:
                r_iv = RootInterval(root, root, exact=root)
            else:
                lo, hi = _sqrt_bounds(iv.exact)
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
# 10000 trials are 120000 field evaluations at most.
_T_MAX = 1e3
_RETURN_STEPS = 10_000
_R_MIN = 1e-6
# poincare_return's tolerances; its docstring says why they are this tight
_RETURN_RTOL = 1e-14
_RETURN_ATOL = 1e-16


def _section_field(system: PlanarSystem) -> _Field:
    """The compiled field of a system whose origin anchors the section."""
    if system.P.eval_at(0, 0) != 0 or system.Q.eval_at(0, 0) != 0:
        raise ValueError("the section is anchored at the origin, which must "
                         "be an equilibrium; translate the system first")
    return _compile_field(system)


def _solve_crossing(deriv, x0: float, y0: float, k0x: float, k0y: float,
                    h: float, y1: float) -> tuple[float, float]:
    """Offset tau in [0, h] and abscissa where an accepted step meets y = 0.

    The step of size h from (x0, y0), where F = (k0x, k0y), has y0 < 0 and
    ends at y1 >= 0.  The first estimate interpolates y linearly; each Newton
    step tau <- tau - y(tau)/Q then evaluates y(tau) with one DOP853 sub-step
    of size tau from the stored step start, which is at least as accurate as
    the accepted step.  The sign bracket [lo, hi] is kept, and a Newton step
    that leaves it falls back to the bracket midpoint.  The solve stops once
    tau moves by less than 1e-12 or the bracket is narrower than that, and
    that last move carries the abscissa along P to first order, with an
    error second order in the move.
    """
    lo, hi = 0.0, h
    nxt = h * y0 / (y0 - y1)
    for _ in range(200):
        tau = nxt
        x, y = _dop853_step(deriv, x0, y0, k0x, k0y, tau)[:2]
        if y < 0.0:
            lo = tau
        else:
            hi = tau
        p, q = deriv(x, y)
        nxt = tau - y / q if q > 0.0 else math.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - tau) < 1e-12 or hi - lo < 1e-12:
            break
    return nxt, x + p * (nxt - tau)


def _return_event(field: _Field, r0: float, rtol: float,
                  atol: float) -> tuple[float, float]:
    """First return to the positive x-axis: (crossing abscissa, crossing time).

    The section is {y = 0, x > _R_MIN} oriented upward: a crossing counts
    when y passes from negative to nonnegative.  Starting on the section
    itself is fine, since the start has y = 0 exactly and the test needs
    y < 0 first.  The crossing is solved inside the accepted step that
    contains it (see _solve_crossing), so the return is integrated once.

    An orbit that settles at a sink never returns, so the return ends with
    NoReturnError naming the point as soon as the speed |F| at an accepted
    state is below the scan's atol, 1e-12, and the Jacobian there has
    trace < 0 < determinant.  The speed test keeps that threshold at every
    atol: poincare_return's 1e-16 is below the rounding floor of F.
    """
    deriv, jacobian = field
    r_min_sq = _R_MIN * _R_MIN
    still_sq = _SCAN_ATOL * _SCAN_ATOL
    states = _adaptive_steps(deriv, (r0, 0.0), _T_MAX, rtol, atol)
    for (t0, x0, y0, k0x, k0y), (t1, x1, y1, k1x, k1y) in pairwise(states):
        if x1 * x1 + y1 * y1 < r_min_sq:
            raise EquilibriumCaptureError(t1, _R_MIN)
        if y0 < 0.0 <= y1 and max(x0, x1) > _R_MIN:
            tau, xc = _solve_crossing(deriv, x0, y0, k0x, k0y, t1 - t0, y1)
            if xc > _R_MIN:
                return xc, t0 + tau
        if k1x * k1x + k1y * k1y < still_sq:
            trace, det = jacobian(x1, y1)
            if trace < 0.0 < det:
                raise NoReturnError(_T_MAX, sink=(x1, y1))
    raise NoReturnError(_T_MAX)


def poincare_return(system: PlanarSystem, r0: float) -> float:
    """Abscissa of the first oriented return to the positive x-axis.

    The tolerances, rtol 1e-14 and atol 1e-16, are tighter than the scan's
    1e-10 and 1e-12: a repelling cycle amplifies per-step error by the
    exponential of its positive multiplier over one period, so returning to
    a known invariant circle within 1e-8 requires local error near the
    rounding floor.  The integrator is DOP853 with steps of at most 0.2.
    A return that takes longer than 1e3 time units, or settles at a sink
    first, raises NoReturnError; one that spends 10000 trial steps raises
    StepBudgetError; and a trajectory that comes within 1e-6 of the origin
    raises EquilibriumCaptureError.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    xc, _ = _return_event(_section_field(system), r0,
                          _RETURN_RTOL, _RETURN_ATOL)
    return xc


# --- displacement scan ----------------------------------------------------------

# The scan integrates at these tolerances, and refines a bracket until its
# displacement is below _D_TOL.
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


def _evaluate_cell(field: _Field, r: float) -> _Cell:
    try:
        r1, tau = _return_event(field, r, _SCAN_RTOL, _SCAN_ATOL)
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


def scan_annulus(r_range: tuple[float, float],
                 n_scan: int) -> tuple[float, float]:
    """The scanned annulus (lo, hi) of valid scan arguments.

    Raises ValueError unless both radii are positive and finite and there
    are at least two grid radii.
    """
    lo, hi = sorted((float(r_range[0]), float(r_range[1])))
    if not (lo > 0 and math.isfinite(hi)):
        raise ValueError("the scanned annulus must have positive finite radii, "
                         f"not [{lo:g}, {hi:g}]")
    if n_scan < 2:
        raise ValueError(f"n_scan must be at least 2, not {n_scan}")
    return lo, hi


def find_cycles_numeric(
    system: PlanarSystem,
    r_range: tuple[float, float],
    n_scan: int,
) -> LimitCycleReport:
    """Scan the return-map displacement d(r) for sign changes.

    The grid is geometric over the annulus, and every return is integrated
    by DOP853 at rtol 1e-10 and atol 1e-12 for at most 1e3 time units and
    10000 trial steps; a trajectory that comes within 1e-6 of the origin
    counts as captured.  One that settles at a sink (speed below 1e-12 where
    the Jacobian has negative trace and positive determinant) ends there
    without a return, and its cell is unusable with a note naming the sink.
    Each sign-change bracket is refined in the field where its
    cycle attracts (see _refine_bracket) until |d| < 1e-9 or the bracket is
    narrower than 1e-12.  A grid cell whose trajectory blows up outward, or
    falls into the equilibrium, still carries a usable displacement sign, so
    cycles bordering a blow-up region (any repelling cycle of a field with
    fast far-field growth) are still found.  The center flag is set when every
    cell that did return moved by less than 1e-8, which is the
    continuum-of-periodic-orbits signature.
    """
    lo, hi = scan_annulus(r_range, n_scan)
    field = _section_field(system)
    ratio = hi / lo
    cells = [
        _evaluate_cell(field, lo * ratio ** (k / (n_scan - 1)))
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
        found = _refine_bracket(field, left.r, right.r, s_left)
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


def _refine_bracket(field: _Field, lo: float, hi: float,
                    s_left: int) -> Cycle | None:
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
    attracting = _mirrored(field) if stability == UNSTABLE else field
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
