"""Certified real solutions of 2x2 polynomial systems and what they imply.

This module answers three questions exactly:

* where is the curvature denominator zero (the candidate divergence set),
* which of those points are genuine divergences of |R|,
* what sign does R take at and therefore near each equilibrium.

The real-solution engine works in two stages.  Elimination: the resultant in
each variable direction projects every common real zero onto a real root of a
univariate eliminant (the resultant lies in the ideal generated by the pair,
so the projection cannot miss a zero).  Isolation returns every rational
eliminant root exactly (rational root theorem), so a coordinate whose
interval is not exact is irrational.  Certification: each candidate cell of
the root grid is then either rejected or certified.  Rational candidates are
settled by exact evaluation; cells with one rational coordinate reduce to a
univariate gcd; fully irrational cells go through an exact interval Newton
step (rational interval arithmetic, no floating point), whose strict
containment conclusion proves existence and uniqueness inside the box.

Every sign at a certified point comes from ``sign_at``: exact evaluation at
a rational point, enclosures over boxes around an irrational one.  Each
metric factor is a sum of squares, so the reduced denominator vanishes on a
branch to at least twice its surviving exponent there, and a lower-order
partial of the reduced numerator that is nonzero at the point proves that
|R| diverges; at an equilibrium, R has the numerator's sign unless a metric
factor left in the denominator vanishes there.

Nothing in this module is heuristic: every "empty" is a certificate, every
point carries an enclosure, and anything the procedure cannot settle is
reported as unresolved rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curvature import CurvatureData, PointValue
from .elimination import resultant
from .polynomials import Poly2, UniPoly, _dyadic_outward
from .realroots import (
    DEFAULT_WIDTH,
    RootContext,
    RootInterval,
    count_real_roots,
    isolate_real_roots,
    refine_root,
    unipoly_gcd,
)
from .systems import PlanarSystem

# branch status values
EMPTY_CERTIFIED = "empty_certified"
POINTS = "points"
DEGENERATE_BRANCH = "degenerate_branch"

# neighborhood sign verdicts
POSITIVE_NEIGHBORHOOD = "positive_neighborhood"
NEGATIVE_NEIGHBORHOOD = "negative_neighborhood"
ZERO_AT_POINT = "zero_at_point"
NOT_CONTINUOUS_HERE = "not_continuous_here"
SIGN_UNRESOLVED = "sign_unresolved"

# assertion A verdicts
A_HOLDS = "holds"
A_FAILS_R_NEGATIVE = "fails_R_negative"
A_FAILS_NO_SINGULARITY = "fails_no_singularity"
A_FAILS_INDETERMINATE = "fails_indeterminate"


# --- rational interval helpers ------------------------------------------------

Interval = tuple[Fraction, Fraction]


def _isub(a: Interval, b: Interval) -> Interval:
    return (a[0] - b[1], a[1] - b[0])


def _imul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _irecip(a: Interval) -> Interval:
    if a[0] <= 0 <= a[1]:
        raise ZeroDivisionError("interval contains zero")
    return (1 / a[1], 1 / a[0])


def _iintersect(a: Interval, b: Interval) -> Interval | None:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def _istrictly_inside(a: Interval, b: Interval) -> bool:
    return b[0] < a[0] and a[1] < b[1]


# --- result shapes ------------------------------------------------------------


@dataclass(frozen=True)
class PointBox:
    """A real point enclosed coordinatewise by rational intervals.

    Either coordinate may be pinned exactly (RootInterval.exact), in which
    case the enclosure is degenerate in that direction.
    """

    x: RootInterval
    y: RootInterval

    @property
    def is_exact(self) -> bool:
        return self.x.exact is not None and self.y.exact is not None

    def float_point(self) -> tuple[float, float]:
        return (float(self.x.midpoint), float(self.y.midpoint))

    def intervals(self) -> tuple[Interval, Interval]:
        return ((self.x.lo, self.x.hi), (self.y.lo, self.y.hi))

    def overlaps(self, other: PointBox) -> bool:
        return (_iintersect(self.intervals()[0], other.intervals()[0]) is not None
                and _iintersect(self.intervals()[1], other.intervals()[1]) is not None)


@dataclass(frozen=True)
class BranchSolutions:
    """Real common zeros of one polynomial pair, with certification data."""

    f: Poly2
    g: Poly2
    status: str
    points: tuple[PointBox, ...] = ()
    unresolved: tuple[PointBox, ...] = ()
    eliminant_x: UniPoly | None = None
    eliminant_y: UniPoly | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DivergencePoint:
    """A certified zero of the denominator, with the divergence verdict there.

    ``numerator_nonzero`` means divergence certified: the reduced numerator
    vanishes to a lower order at the point than the reduced denominator
    (order 0 being the numerator itself), so |R| is unbounded near it.  When
    it is false, ``note`` says why: either the point is removable (R is
    finite there) or no tested order settled it.
    """

    box: PointBox
    numerator_nonzero: bool
    branch_indices: tuple[int, ...]
    note: str = ""

    @property
    def uncertified(self) -> bool:
        """Neither certified divergent nor certified removable."""
        return not self.numerator_nonzero and not self.note.startswith("removable")


@dataclass(frozen=True)
class SingularLocusReport:
    """Full decomposition of the denominator's real zero set."""

    subsystems: tuple[tuple[Poly2, Poly2], ...]
    branches: tuple[BranchSolutions, ...]
    divergence_points: tuple[DivergencePoint, ...]
    unresolved: tuple[PointBox, ...]
    notes: tuple[str, ...]

    @property
    def all_branches_empty(self) -> bool:
        return all(b.status == EMPTY_CERTIFIED for b in self.branches)

    @property
    def certified_divergence_count(self) -> int:
        return sum(1 for p in self.divergence_points if p.numerator_nonzero)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """R's sign verdict at an equilibrium enclosed by ``box``; at an exact
    point also P, Q and the reduced R there (a boxed point is certified, so
    P and Q vanish there)."""

    box: PointBox
    sign: str
    P_value: Fraction = Fraction(0)
    Q_value: Fraction = Fraction(0)
    R_at_point: PointValue | None = None

    @property
    def point(self) -> tuple[Fraction, Fraction] | None:
        """The exact point, or None for a boxed one."""
        return (self.box.x.exact, self.box.y.exact) if self.box.is_exact else None

    @property
    def valid(self) -> bool:
        return self.P_value == 0 and self.Q_value == 0


@dataclass(frozen=True)
class AssertionReport:
    """Executable verdicts for the two curvature-based cycle criteria.

    ``assertion_A`` records whether R is positive at (hence near) every given
    equilibrium while |R| also diverges somewhere; ``assertion_B_count`` is
    the number of certified isolated divergence points.
    """

    assertion_A: str
    assertion_B_count: int
    equilibrium_signs: tuple[tuple[PointBox, str], ...]
    notes: tuple[str, ...] = ()


# --- the 2x2 real-solution engine ---------------------------------------------


def _specialize(poly: Poly2, var: str, value: Fraction) -> UniPoly:
    """Fix one variable at an exact rational value; univariate result.

    With value = p/q and rows r_k of the integer terms, each coefficient is
    content * sum(r_k * p**k * q**(deg - k)) / q**deg: integer Horner in p
    with powers of q, then one division.
    """
    rows = poly._int_rows(var)
    survivor = poly.varnames[1 - poly._axis(var)]
    if not rows:
        return UniPoly.zero(survivor)
    p, q = value.numerator, value.denominator
    deg = len(rows) - 1
    acc = [0] * (max(max(row, default=0) for row in rows) + 1)
    q_power = 1
    for row in reversed(rows):
        acc = [a * p for a in acc]
        for m, c in row.items():
            acc[m] += c * q_power
        q_power *= q
    return UniPoly._make(poly.content / q ** deg, acc, survivor)


def _certify_exact(f: Poly2, g: Poly2, cx: Fraction, cy: Fraction) -> bool:
    return f.eval_at(cx, cy) == 0 and g.eval_at(cx, cy) == 0


def _certify_half_exact(
    f: Poly2, g: Poly2, exact_var: str, exact_value: Fraction, iv: RootInterval
) -> RootInterval | None:
    """Certify a cell with one rational coordinate via a univariate gcd.

    Returns an interval for the free coordinate when the pair has a common
    zero there, else None: ``iv`` itself when it is exact, otherwise the
    gcd's root refined to width 1e-30.  Exact: a common zero on the line
    exists iff the gcd of the two specializations vanishes, and the gcd's
    roots are eliminant roots, so the isolating interval holds at most one;
    a sign change across it decides whether it does.  An inexact ``iv``
    holds an irrational eliminant root, so refinement never ends exact.
    """
    fs = _specialize(f, exact_var, exact_value)
    gs = _specialize(g, exact_var, exact_value)
    if fs.is_zero() and gs.is_zero():
        # the whole line solves the pair; caller treats this as degenerate
        raise _LineOfSolutions(exact_var, exact_value)
    if fs.is_zero():
        h = gs
    elif gs.is_zero():
        h = fs
    else:
        h = unipoly_gcd(fs, gs)
    if h.degree <= 0:
        return None
    if iv.exact is not None:
        return iv if h.eval_at(iv.exact) == 0 else None
    context = RootContext(h, (iv.lo, iv.hi))
    t_poly = context.mapped  # the gcd over iv, as a polynomial in t in [0, 1]
    if t_poly is None or (t_poly[0] > 0) == (sum(t_poly) > 0):
        return None
    # a sharp box for the sign tests downstream
    return context.refine(iv, Fraction(1, 10**30))


class _LineOfSolutions(Exception):
    def __init__(self, var: str, value: Fraction):
        self.var = var
        self.value = value
        super().__init__(f"entire line {var} = {value} solves the pair")


def _interval_newton_step(
    f: Poly2, g: Poly2, partials, ix: Interval, iy: Interval,
) -> tuple[str, Interval, Interval]:
    """One exact interval Newton step.  Returns (verdict, nx, ny).

    verdict "certified": the Newton image lies strictly inside the box, which
    proves a unique zero exists in it.  "rejected": image and box are
    disjoint, no zero.  "unknown": neither, caller should shrink and retry.
    The returned intervals are the (intersected) refinement when available;
    a certified image is rounded outward to ``eval_box``'s dyadic grid,
    which every later enclosure rounds to anyway, and cut to the box.
    """
    for poly in (f, g):
        lo, hi = poly.eval_box(ix, iy)
        if lo > 0 or hi < 0:
            return ("rejected", ix, iy)
    ja, jb, jc, jd = (d.eval_box(ix, iy) for d in partials)
    det = _isub(_imul(ja, jd), _imul(jb, jc))
    if det[0] <= 0 <= det[1]:
        return ("unknown", ix, iy)
    mx = (ix[0] + ix[1]) / 2
    my = (iy[0] + iy[1]) / 2
    fv, gv = f.eval_at(mx, my), g.eval_at(mx, my)
    f_m, g_m = (fv, fv), (gv, gv)
    inv_det = _irecip(det)
    nx = _isub((mx, mx), _imul(_isub(_imul(jd, f_m), _imul(jb, g_m)), inv_det))
    ny = _isub((my, my), _imul(_isub(_imul(ja, g_m), _imul(jc, f_m)), inv_det))
    cut_x = _iintersect(nx, ix)
    cut_y = _iintersect(ny, iy)
    if cut_x is None or cut_y is None:
        return ("rejected", ix, iy)
    if _istrictly_inside(nx, ix) and _istrictly_inside(ny, iy):
        return ("certified", _iintersect(_dyadic_outward(nx), ix),
                _iintersect(_dyadic_outward(ny), iy))
    return ("unknown", cut_x, cut_y)


def real_solutions_2x2(f: Poly2, g: Poly2) -> BranchSolutions:
    """All real common zeros of two bivariate polynomials, certified.

    The outcome is one of: EMPTY_CERTIFIED (eliminant in some direction is
    nonzero with no real roots), POINTS (each listed point certified exactly
    or by interval Newton; anything unsettled is listed as unresolved, never
    counted), or DEGENERATE_BRANCH (the common zero set is not finite:
    shared factor or a full line).
    """
    if f.varnames != g.varnames:
        raise ValueError(f"variable names differ: {f.varnames} vs {g.varnames}")
    if f.is_zero() and g.is_zero():
        raise ValueError("both polynomials are identically zero")
    a, b = f.varnames

    if f.is_zero() or g.is_zero():
        other = g if f.is_zero() else f
        if other.constant_value() is not None:
            return BranchSolutions(
                f, g, EMPTY_CERTIFIED,
                notes=("one polynomial is zero, the other a nonzero constant",))
        return BranchSolutions(
            f, g, DEGENERATE_BRANCH,
            notes=("one polynomial is identically zero; the common zero set "
                   "is the other's zero curve (not zero-dimensional)",))

    for poly, name in ((f, "first"), (g, "second")):
        cv = poly.constant_value()
        if cv is not None:  # nonzero constant (zero case handled above)
            return BranchSolutions(
                f, g, EMPTY_CERTIFIED,
                notes=(f"the {name} polynomial is the nonzero constant {cv}",))

    # both depend on only one (and the same) variable: zero set is a union of
    # lines when the univariate gcd has real roots
    for var, kind in ((a, "vertical"), (b, "horizontal")):
        other_var = b if var == a else a
        if f.degree_in(other_var) <= 0 and g.degree_in(other_var) <= 0:
            uf = f.coeffs_in(other_var)[0]
            ug = g.coeffs_in(other_var)[0]
            h = unipoly_gcd(uf, ug)
            if h.degree > 0 and count_real_roots(h) > 0:
                return BranchSolutions(
                    f, g, DEGENERATE_BRANCH,
                    notes=(f"both polynomials depend only on {var}; common "
                           f"zeros form {kind} lines",))
            return BranchSolutions(
                f, g, EMPTY_CERTIFIED,
                notes=(f"both polynomials depend only on {var} and share no "
                       "real root in it",))

    eliminant_b = resultant(f, g, a)  # univariate in b
    eliminant_a = resultant(f, g, b)  # univariate in a
    if eliminant_a.is_zero() or eliminant_b.is_zero():
        return BranchSolutions(
            f, g, DEGENERATE_BRANCH,
            eliminant_x=None if eliminant_a.is_zero() else eliminant_a,
            eliminant_y=None if eliminant_b.is_zero() else eliminant_b,
            notes=("a resultant vanishes identically: the pair shares a "
                   "factor, so the common zero set is not finite",))

    roots_a = isolate_real_roots(eliminant_a)
    roots_b = isolate_real_roots(eliminant_b)

    if roots_a.count == 0 or roots_b.count == 0:
        empty_dir = a if roots_a.count == 0 else b
        return BranchSolutions(
            f, g, EMPTY_CERTIFIED,
            eliminant_x=eliminant_a, eliminant_y=eliminant_b,
            notes=(f"eliminant in {empty_dir} has no real roots; since the "
                   "resultant lies in the ideal of the pair, no common real "
                   "zero can exist",))

    # candidate grid: every common real zero projects into one cell
    partials = (f.partial(a), f.partial(b), g.partial(a), g.partial(b))
    points: list[PointBox] = []
    unresolved: list[PointBox] = []
    try:
        for ivx in roots_a.intervals:
            for ivy in roots_b.intervals:
                outcome = _certify_cell(f, g, partials, ivx, ivy,
                                        roots_a.context, roots_b.context)
                if outcome is None:
                    continue
                kind, box = outcome
                (points if kind == "point" else unresolved).append(box)
    except _LineOfSolutions as line:
        return BranchSolutions(
            f, g, DEGENERATE_BRANCH,
            eliminant_x=eliminant_a, eliminant_y=eliminant_b,
            notes=(f"the entire line {line.var} = {line.value} solves the "
                   "pair",))
    notes: tuple[str, ...] = ()
    if unresolved:
        notes = (f"{len(unresolved)} candidate cell(s) could not be certified "
                 "or rejected at the smallest refinement width; they are "
                 "excluded from every count",)
    points.sort(key=lambda pb: (pb.x.lo, pb.y.lo))
    return BranchSolutions(
        f, g, POINTS,
        points=tuple(points), unresolved=tuple(unresolved),
        eliminant_x=eliminant_a, eliminant_y=eliminant_b,
        notes=notes)


def _certify_cell(
    f: Poly2,
    g: Poly2,
    partials: tuple[Poly2, Poly2, Poly2, Poly2],
    ivx: RootInterval,
    ivy: RootInterval,
    context_a: RootContext,
    context_b: RootContext,
) -> tuple[str, PointBox] | None:
    """Settle one candidate cell: ("point", box), ("unresolved", box), or None.

    A cell with a rational coordinate is settled exactly.  Both coordinates
    of any other cell are irrational, since isolation returns every rational
    root exactly, and refining them never makes them exact: an inconclusive
    interval Newton step refines both, and the cell is retried, at most five
    times.
    """
    a, b = f.varnames
    if ivx.exact is not None and ivy.exact is not None:
        if _certify_exact(f, g, ivx.exact, ivy.exact):
            return ("point", PointBox(ivx, ivy))
        return None
    if ivx.exact is not None:
        refined = _certify_half_exact(f, g, a, ivx.exact, ivy)
        return None if refined is None else ("point", PointBox(ivx, refined))
    if ivy.exact is not None:
        refined = _certify_half_exact(f, g, b, ivy.exact, ivx)
        return None if refined is None else ("point", PointBox(refined, ivy))
    shrink_width = DEFAULT_WIDTH
    for _ in range(5):
        verdict, nx, ny = _interval_newton_step(
            f, g, partials, (ivx.lo, ivx.hi), (ivy.lo, ivy.hi))
        if verdict == "rejected":
            return None
        if verdict == "certified":
            return ("point", PointBox(RootInterval(*nx), RootInterval(*ny)))
        shrink_width = shrink_width * shrink_width
        ivx = refine_root(context_a, ivx, shrink_width)
        ivy = refine_root(context_b, ivy, shrink_width)
    return ("unresolved", PointBox(ivx, ivy))


# --- singular locus of |R| -----------------------------------------------------


def singular_locus(curv: CurvatureData) -> SingularLocusReport:
    """Decompose the real zero set of the curvature denominator.

    The determinant is a product of two sums of squares, so its zeros are the
    union over the two Jacobian-column pairs of their common real zeros.
    Each certified point is then judged against the structurally reduced
    curvature by the order of the reduced numerator there (see
    ``_divergence_verdict``); the numerator's partials are built once, on
    the first point that needs each order.
    """
    subsystems = tuple((br.first, br.second) for br in curv.branches)
    branch_results: list[BranchSolutions] = []
    located: list[tuple[PointBox, tuple[int, ...]]] = []
    unresolved: list[PointBox] = []
    notes: list[str] = []
    for idx, (first, second) in enumerate(subsystems):
        bs = real_solutions_2x2(first, second)
        branch_results.append(bs)
        if bs.status == DEGENERATE_BRANCH:
            notes.append(f"subsystem {idx}: degenerate branch ({bs.notes[0]})")
            continue
        for box in bs.points:
            located.append((box, (idx,)))
        unresolved.extend(bs.unresolved)

    jets = _Jets(curv.curvature.numerator)
    divergence = [
        _divergence_verdict(curv.den_exponents, jets, box, indices)
        for box, indices in _merge_across_branches(located)
    ]
    return SingularLocusReport(
        subsystems=subsystems,
        branches=tuple(branch_results),
        divergence_points=tuple(divergence),
        unresolved=tuple(unresolved),
        notes=tuple(notes),
    )


class _Jets:
    """The nonzero partial derivatives of one polynomial, by order.

    Order k holds the nonzero d^k/(da^i db^(k-i)) for i = 0..k.  Each order
    is built from the one below on its first request, so a locus whose
    points are all settled by low orders never builds the high ones.
    """

    def __init__(self, poly: Poly2):
        self._varnames = poly.varnames
        self._orders: list[dict[int, Poly2]] = [{} if poly.is_zero() else {0: poly}]

    def of_order(self, k: int) -> tuple[Poly2, ...]:
        a, b = self._varnames
        while len(self._orders) <= k:
            below = self._orders[-1]
            # key i counts the a-derivatives: each partial below gives the
            # one with i + 1 of them, and the pure-b one also the next in b
            order = {i + 1: p.partial(a) for i, p in below.items()}
            if 0 in below:
                order[0] = below[0].partial(b)
            self._orders.append({i: p for i, p in order.items()
                                 if not p.is_zero()})
        return tuple(self._orders[k].values())


# Dyadic widths, in bits, the point's box is rounded outward to before the
# box itself, whose endpoints carry over 120-bit denominators, is tried: a
# polynomial nonzero at the point mostly excludes zero there already.
_JET_BOX_BITS = (32, 64)


def sign_at(box: PointBox, jets: _Jets, orders) -> int | None:
    """The sign (+1, -1 or 0 when all vanish) at the point of ``box`` of the
    first partial of the given orders in ``jets`` that is nonzero there.

    An irrational point's partials are enclosed over each of the boxes in
    turn (rounded to _JET_BOX_BITS, then exact): the first enclosure that
    excludes zero gives the sign, and a box on which every one is {0} gives
    0.  None: no box settled it.
    """
    if box.is_exact:
        for k in orders:
            for d in jets.of_order(k):
                value = d.eval_at(box.x.exact, box.y.exact)
                if value:
                    return 1 if value > 0 else -1
        return 0
    ix, iy = box.intervals()
    for bits in _JET_BOX_BITS + (None,):
        cell = (ix, iy) if bits is None else \
            (_dyadic_outward(ix, bits), _dyadic_outward(iy, bits))
        vanishes = True
        for k in orders:
            for d in jets.of_order(k):
                lo, hi = d.eval_box(*cell)
                if lo > 0 or hi < 0:
                    return 1 if lo > 0 else -1
                vanishes = vanishes and lo == hi == 0
        if vanishes:
            return 0
    return None


def _divergence_verdict(
    den_exponents: tuple[int, int],
    jets: _Jets,
    box: PointBox,
    branch_indices: tuple[int, ...],
) -> DivergencePoint:
    """Judge one certified denominator zero by the reduced numerator's order.

    Each branch through the point keeps its metric factor, a sum of squares
    that vanishes there, to the power den_exponents[i] in the reduced
    denominator; so the denominator vanishes to order >= 2e at the point,
    with e the sum of those exponents.  A partial of the reduced numerator
    of order k < 2e that is nonzero at the point (``sign_at``) bounds the
    numerator's order by k, and then |R| grows like dist**(k - 2e) along
    some direction: |R| diverges.
    """
    e = sum(den_exponents[i] for i in branch_indices)
    if e == 0:
        return DivergencePoint(
            box, False, branch_indices,
            "removable: every metric factor vanishing here cancelled out of "
            "the denominator")
    sign = sign_at(box, jets, range(2 * e))
    if sign:
        return DivergencePoint(box, True, branch_indices)
    return DivergencePoint(box, False, branch_indices, (
        "reduced numerator and denominator both vanish, and so does every "
        f"partial of the numerator of order below {2 * e}" if sign == 0 else
        f"no partial of the reduced numerator of order 0 to {2 * e - 1} "
        "excludes zero on the point's box") + ": divergence not certified")


def _merge_across_branches(
    located: list[tuple[PointBox, tuple[int, ...]]],
) -> list[tuple[PointBox, tuple[int, ...]]]:
    """Deduplicate points certified by more than one subsystem."""
    merged: list[tuple[PointBox, tuple[int, ...]]] = []
    for box, indices in sorted(located, key=lambda t: (t[0].x.lo, t[0].y.lo)):
        for i, (kept, kept_idx) in enumerate(merged):
            # boxes are certified isolating enclosures, so overlap is
            # identity (each encloses exactly one zero); an exact point's box
            # is the point itself, so for two of them overlap is equality
            if box.overlaps(kept):
                merged[i] = (kept, tuple(sorted(set(kept_idx + indices))))
                break
        else:
            merged.append((box, indices))
    return merged


# --- equilibria and the assertion criteria -------------------------------------


def verify_equilibrium(curv: CurvatureData, box: PointBox) -> EquilibriumCertificate:
    """R's sign verdict at a claimed equilibrium (a rational point, or an
    enclosure from ``find_equilibria``), and P, Q and R at a rational one.

    The reduced denominator 2 * g11^e1 * g22^e2 is positive unless a factor
    with e > 0, a sum of squares, vanishes; else R has the numerator's sign.
    """
    metric, reduced = curv.metric, curv.curvature
    factors = [sign_at(box, _Jets(g), (0,)) for g, e in
               zip((metric.g11, metric.g22), curv.den_exponents) if e]
    if 0 in factors:
        sign = NOT_CONTINUOUS_HERE
    elif None in factors:
        sign = SIGN_UNRESOLVED
    else:
        sign = _SIGN_VERDICTS[sign_at(box, _Jets(reduced.numerator), (0,))]
    if not box.is_exact:
        return EquilibriumCertificate(box, sign)
    px, py = box.x.exact, box.y.exact
    return EquilibriumCertificate(
        box, sign, curv.system.P.eval_at(px, py), curv.system.Q.eval_at(px, py),
        reduced.evaluate(px, py))


_SIGN_VERDICTS = {1: POSITIVE_NEIGHBORHOOD, -1: NEGATIVE_NEIGHBORHOOD,
                  0: ZERO_AT_POINT, None: SIGN_UNRESOLVED}


def find_equilibria(system: PlanarSystem) -> BranchSolutions:
    """Certified equilibria (common zeros of the two components).

    An equilibrium with both coordinates rational is exact, since isolation
    returns every rational eliminant root exactly; any other is a box.
    Raises ValueError when the equilibrium set is not zero-dimensional,
    since none of the downstream criteria are meaningful then.
    """
    result = real_solutions_2x2(system.P, system.Q)
    if result.status == DEGENERATE_BRANCH:
        raise ValueError(
            "equilibrium set is not zero-dimensional: " + "; ".join(result.notes))
    return result


def assertion_report(
    certificates: list[EquilibriumCertificate],
    locus: SingularLocusReport,
    unresolved_equilibria: int = 0,
) -> AssertionReport:
    """Evaluate both curvature-based criteria against certified facts.

    The first criterion holds only when R is positive at (hence near) the
    equilibrium of every certificate, no equilibrium enclosure is left
    unresolved, and at least one divergence point of |R| is certified.  It
    fails outright when R < 0 is certified at an equilibrium.  The second is
    the certified divergence count itself.
    """
    signs = []
    for cert in certificates:
        if not cert.valid:
            raise ValueError(f"({cert.point[0]}, {cert.point[1]}) is not an "
                             "equilibrium; cannot evaluate the criteria there")
        signs.append((cert.box, cert.sign))

    b_count = locus.certified_divergence_count
    open_points = sum(1 for p in locus.divergence_points if p.uncertified)
    notes: list[str] = []
    if locus.unresolved:
        notes.append(
            f"{len(locus.unresolved)} unresolved enclosure(s) excluded from "
            "the divergence count")
    kinds = {verdict for _, verdict in signs}
    if NEGATIVE_NEIGHBORHOOD in kinds:
        verdict_a = A_FAILS_R_NEGATIVE
    elif kinds - {POSITIVE_NEIGHBORHOOD} or not signs or unresolved_equilibria:
        verdict_a = A_FAILS_INDETERMINATE
        if ZERO_AT_POINT in kinds:
            notes.append("R is exactly zero at an equilibrium: no sign "
                         "extends to a neighborhood")
        if SIGN_UNRESOLVED in kinds:
            notes.append("the sign of R at an equilibrium is unresolved")
        if unresolved_equilibria:
            notes.append("an unresolved equilibrium enclosure may hold an "
                         "equilibrium where R is not positive")
        if not signs:
            notes.append("no equilibria supplied")
    elif b_count == 0 and open_points:
        verdict_a = A_FAILS_INDETERMINATE
        notes.append(f"no divergence certified, but {open_points} located "
                     "divergence point(s) are uncertified")
    elif b_count == 0:
        verdict_a = A_FAILS_NO_SINGULARITY
    else:
        verdict_a = A_HOLDS
    return AssertionReport(
        assertion_A=verdict_a,
        assertion_B_count=b_count,
        equilibrium_signs=tuple(signs),
        notes=tuple(notes),
    )
