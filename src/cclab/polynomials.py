"""Exact sparse polynomial arithmetic over the rationals.

Two representations cover everything the analysis needs:

* ``Poly2`` -- bivariate polynomials stored sparsely as a map from exponent
  pairs ``(i, j)`` to nonzero ``Fraction`` coefficients.  The pair of variable
  names travels with the polynomial so that mixing systems written in
  different coordinates is rejected instead of silently reinterpreted.
* ``UniPoly`` -- univariate polynomials stored densely, lowest degree first.

Everything in this module is exact; no floats are produced or consumed.
The degree of the zero polynomial is -1 by convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


def _to_fraction(value: Rat) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _check_varnames(varnames: tuple[str, str]) -> tuple[str, str]:
    a, b = varnames
    for name in (a, b):
        if not name.isidentifier():
            raise ValueError(f"invalid variable name: {name!r}")
    if a == b:
        raise ValueError(f"variable names must differ, got {a!r} twice")
    return (a, b)


class Poly2:
    """A bivariate polynomial with exact rational coefficients.

    ``terms`` maps ``(i, j)`` exponent pairs to nonzero coefficients; the
    canonical form never stores a zero coefficient.  Instances are treated
    as immutable: all operations return new polynomials.
    """

    __slots__ = ("terms", "varnames", "_integer_form")

    def __init__(self, terms: Mapping[tuple[int, int], Rat], varnames: tuple[str, str]):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in terms.items():
            if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                raise ValueError(f"bad exponent pair: {(i, j)!r}")
            coeff = _to_fraction(c)
            if coeff != 0:
                clean[(i, j)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "varnames", _check_varnames(tuple(varnames)))
        object.__setattr__(self, "_integer_form", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls, varnames: tuple[str, str]) -> Poly2:
        return cls({}, varnames)

    @classmethod
    def constant(cls, value: Rat, varnames: tuple[str, str]) -> Poly2:
        return cls({(0, 0): value}, varnames)

    @classmethod
    def variable(cls, name: str, varnames: tuple[str, str]) -> Poly2:
        if name == varnames[0]:
            return cls({(1, 0): 1}, varnames)
        if name == varnames[1]:
            return cls({(0, 1): 1}, varnames)
        raise ValueError(f"unknown variable {name!r} for {varnames}")

    # --- structure ---

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        idx = self._axis(var)
        if not self.terms:
            return -1
        return max(key[idx] for key in self.terms)

    def _axis(self, var: str) -> int:
        if var == self.varnames[0]:
            return 0
        if var == self.varnames[1]:
            return 1
        raise ValueError(f"unknown variable {var!r} for {self.varnames}")

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if not constant."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {(0, 0)}:
            return self.terms[(0, 0)]
        return None

    # --- arithmetic ---

    def _coerce(self, other) -> Poly2 | None:
        if isinstance(other, Poly2):
            if other.varnames != self.varnames:
                raise ValueError(
                    f"variable names differ: {self.varnames} vs {other.varnames}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly2.constant(other, self.varnames)
        return None

    def __add__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in rhs.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return Poly2(out, self.varnames)

    __radd__ = __add__

    def __neg__(self) -> Poly2:
        return Poly2({key: -c for key, c in self.terms.items()}, self.varnames)

    def __sub__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in rhs.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Poly2(out, self.varnames)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly2:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = Poly2.constant(1, self.varnames)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, factor: Rat) -> Poly2:
        f = _to_fraction(factor)
        return Poly2({key: c * f for key, c in self.terms.items()}, self.varnames)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other, self.varnames)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.varnames == other.varnames and self.terms == other.terms

    __hash__ = None  # mutable mapping inside; identity hashing would mislead

    # --- calculus and evaluation ---

    def partial(self, var: str) -> Poly2:
        """Exact partial derivative with respect to one of the two variables."""
        idx = self._axis(var)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[idx]
            if e == 0:
                continue
            key = (i - 1, j) if idx == 0 else (i, j - 1)
            out[key] = out.get(key, Fraction(0)) + c * e
        return Poly2(out, self.varnames)

    def _integer(self) -> tuple[int, int, int, list[tuple[int, int, int]]]:
        """The polynomial over one common denominator, as Python ints.

        Returns ``(den, max_i, max_j, [(i, j, c), ...])`` with self equal to
        the sum of ``c * x**i * y**j`` divided by ``den``.  Computed on first
        use and kept, so the evaluation kernels clear denominators once.
        """
        form = self._integer_form
        if form is None:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            form = (den,
                    max(i for i, _ in self.terms),
                    max(j for _, j in self.terms),
                    [(i, j, c.numerator * (den // c.denominator))
                     for (i, j), c in self.terms.items()])
            object.__setattr__(self, "_integer_form", form)
        return form

    def eval_at(self, px: Rat, py: Rat) -> Fraction:
        """Exact evaluation at a rational point."""
        fx, fy = _to_fraction(px), _to_fraction(py)
        if not self.terms:
            return Fraction(0)
        den, max_i, max_j, terms = self._integer()
        xp = _homogeneous_powers(fx.numerator, fx.denominator, max_i)
        yp = _homogeneous_powers(fy.numerator, fy.denominator, max_j)
        total = sum(c * xp[i] * yp[j] for i, j, c in terms)
        return Fraction(total, den * fx.denominator ** max_i
                        * fy.denominator ** max_j)

    def eval_box(
        self,
        ix: tuple[Rat, Rat],
        iy: tuple[Rat, Rat],
    ) -> tuple[Fraction, Fraction]:
        """Interval evaluation over a rational box; returns enclosing [lo, hi].

        The enclosure is the monomial-wise one (each power of an axis
        interval taken exactly, each monomial's range bounded by its four
        corner products) over the box rounded outward to denominator
        2**128: an endpoint whose denominator has more bits is widened by
        less than 2**-128, and smaller endpoints are used exactly.
        """
        xlo, xhi = _to_fraction(ix[0]), _to_fraction(ix[1])
        ylo, yhi = _to_fraction(iy[0]), _to_fraction(iy[1])
        if xlo > xhi or ylo > yhi:
            raise ValueError("box endpoints out of order")
        if not self.terms:
            return (Fraction(0), Fraction(0))
        den, max_i, max_j, terms = self._integer()
        xp, dx = _homogeneous_interval_powers(_dyadic_outward((xlo, xhi)), max_i)
        yp, dy = _homogeneous_interval_powers(_dyadic_outward((ylo, yhi)), max_j)
        lo = hi = 0
        for i, j, c in terms:
            a0, a1 = xp[i]
            b0, b1 = yp[j]
            products = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
            if c >= 0:
                lo += c * min(products)
                hi += c * max(products)
            else:
                lo += c * max(products)
                hi += c * min(products)
        scale = den * dx ** max_i * dy ** max_j
        return (Fraction(lo, scale), Fraction(hi, scale))

    def subs_linear(
        self,
        matrix: tuple[tuple[Rat, Rat], tuple[Rat, Rat]],
        offset: tuple[Rat, Rat],
        new_varnames: tuple[str, str],
    ) -> Poly2:
        """Substitute an affine change of variables.

        With ``matrix = ((a, b), (c, d))`` and ``offset = (e, f)``, the first
        old variable becomes ``a*u + b*v + e`` and the second ``c*u + d*v + f``
        where ``(u, v)`` are the new variables.  The result is expanded to
        canonical form over ``new_varnames``.
        """
        (a, b), (c, d) = matrix
        e, f = offset
        new_x = Poly2({(1, 0): _to_fraction(a), (0, 1): _to_fraction(b),
                       (0, 0): _to_fraction(e)}, new_varnames)
        new_y = Poly2({(1, 0): _to_fraction(c), (0, 1): _to_fraction(d),
                       (0, 0): _to_fraction(f)}, new_varnames)
        if not self.terms:
            return Poly2.zero(new_varnames)
        max_i = max(i for i, _ in self.terms)
        max_j = max(j for _, j in self.terms)
        xp = _poly_power_table(new_x, max_i)
        yp = _poly_power_table(new_y, max_j)
        total = Poly2.zero(new_varnames)
        for (i, j), coeff in self.terms.items():
            total = total + (xp[i] * yp[j]).scale(coeff)
        return total

    def try_divide(self, divisor: Poly2) -> Poly2 | None:
        """Exact multivariate division: self / divisor, or None if not exact.

        Runs the single-divisor division algorithm under lexicographic order;
        since leading monomials multiply under that order, a non-divisible
        leading term proves inexactness immediately.
        """
        if divisor.varnames != self.varnames:
            raise ValueError(
                f"variable names differ: {self.varnames} vs {divisor.varnames}")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly2.zero(self.varnames)
        div_lead = max(divisor.terms)
        div_lc = divisor.terms[div_lead]
        rem = dict(self.terms)
        quot: dict[tuple[int, int], Fraction] = {}
        while rem:
            lead = max(rem)
            if lead[0] < div_lead[0] or lead[1] < div_lead[1]:
                return None
            qkey = (lead[0] - div_lead[0], lead[1] - div_lead[1])
            qc = rem[lead] / div_lc
            quot[qkey] = qc
            for (i, j), c in divisor.terms.items():
                key = (qkey[0] + i, qkey[1] + j)
                value = rem.get(key, Fraction(0)) - qc * c
                if value == 0:
                    rem.pop(key, None)
                else:
                    rem[key] = value
        return Poly2(quot, self.varnames)

    def coeffs_in(self, var: str) -> list[UniPoly]:
        """Coefficients by powers of ``var``, each a UniPoly in the survivor.

        Entry ``k`` is the coefficient of ``var**k``.  Returns ``[]`` for the
        zero polynomial.
        """
        idx = self._axis(var)
        survivor = self.varnames[1 - idx]
        if not self.terms:
            return []
        deg = max(key[idx] for key in self.terms)
        rows: list[dict[int, Fraction]] = [dict() for _ in range(deg + 1)]
        for (i, j), c in self.terms.items():
            own, other = (i, j) if idx == 0 else (j, i)
            rows[own][other] = c
        out = []
        for row in rows:
            if row:
                size = max(row) + 1
                coeffs = [row.get(k, Fraction(0)) for k in range(size)]
            else:
                coeffs = []
            out.append(UniPoly(coeffs, survivor))
        return out

    def __repr__(self) -> str:
        return f"Poly2({format_poly2(self)!r}, vars={self.varnames})"

    def __str__(self) -> str:
        return format_poly2(self)


_DYADIC_BITS = 128


def _dyadic_outward(iv: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Round an interval's endpoints outward to denominator 2**128.

    Exact interval arithmetic grows endpoint fractions multiplicatively, so
    repeated Newton steps produce numbers with thousands of digits.  Rounding
    outward after each step, and before each box evaluation, keeps the
    arithmetic cheap while widening the enclosure by at most 2**-127, far
    below the working widths here.  Endpoints with at most 128-bit
    denominators are returned unchanged.
    """
    scale = 1 << _DYADIC_BITS
    lo, hi = iv
    if lo.denominator.bit_length() > _DYADIC_BITS:
        lo = Fraction(math.floor(lo * scale), scale)
    if hi.denominator.bit_length() > _DYADIC_BITS:
        hi = Fraction(math.ceil(hi * scale), scale)
    return (lo, hi)


def _homogeneous_powers(num: int, den: int, upto: int) -> list[int]:
    """``num**n * den**(upto - n)`` for n = 0..upto: (num/den)**n * den**upto."""
    table = [1] * (upto + 1)
    for n in range(1, upto + 1):
        table[n] = table[n - 1] * num
    scale = 1
    for n in range(upto, -1, -1):
        table[n] *= scale
        scale *= den
    return table


def _homogeneous_interval_powers(
    iv: tuple[Fraction, Fraction], upto: int
) -> tuple[list[tuple[int, int]], int]:
    """Exact ranges of t**n over t in ``iv`` for n = 0..upto, as ints.

    Returns ``(table, d)`` where d is the lcm of the endpoint denominators
    and ``table[n]`` is the range of t**n scaled by d**upto.
    """
    lo, hi = iv
    d = math.lcm(lo.denominator, hi.denominator)
    los = _homogeneous_powers(lo.numerator * (d // lo.denominator), d, upto)
    his = _homogeneous_powers(hi.numerator * (d // hi.denominator), d, upto)
    table = [(los[0], his[0])]
    for n in range(1, upto + 1):
        if n % 2 == 1 or lo >= 0:
            table.append((los[n], his[n]))
        elif hi <= 0:
            table.append((his[n], los[n]))
        else:
            table.append((0, max(los[n], his[n])))
    return table, d


def _poly_power_table(p: Poly2, upto: int) -> list[Poly2]:
    table = [Poly2.constant(1, p.varnames)]
    for _ in range(upto):
        table.append(table[-1] * p)
    return table


class UniPoly:
    """A univariate polynomial, dense coefficients lowest degree first."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Rat], var: str = "t"):
        clean = [_to_fraction(c) for c in coeffs]
        while clean and clean[-1] == 0:
            clean.pop()
        if not var.isidentifier():
            raise ValueError(f"invalid variable name: {var!r}")
        object.__setattr__(self, "coeffs", tuple(clean))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls, var: str = "t") -> UniPoly:
        return cls([], var)

    @classmethod
    def constant(cls, value: Rat, var: str = "t") -> UniPoly:
        return cls([value], var)

    @classmethod
    def variable(cls, var: str = "t") -> UniPoly:
        return cls([0, 1], var)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_value(self) -> Fraction | None:
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        return None

    def _coerce(self, other) -> UniPoly | None:
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise ValueError(f"variable names differ: {self.var!r} vs {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([other], self.var)
        return None

    def __add__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = max(len(self.coeffs), len(rhs.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(rhs.coeffs):
            out[i] += c
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self.coeffs or not rhs.coeffs:
            return UniPoly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(rhs.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(rhs.coeffs):
                out[i + j] += a * b
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> UniPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = UniPoly.constant(1, self.var)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, factor: Rat) -> UniPoly:
        f = _to_fraction(factor)
        return UniPoly([c * f for c in self.coeffs], self.var)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other], self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.var))

    def eval_at(self, point: Rat) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        p = _to_fraction(point)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * p + c
        return total

    def derivative(self) -> UniPoly:
        if len(self.coeffs) <= 1:
            return UniPoly.zero(self.var)
        return UniPoly([c * k for k, c in enumerate(self.coeffs) if k >= 1], self.var)

    def divmod(self, divisor: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Exact polynomial division with remainder over the rationals."""
        if divisor.var != self.var:
            raise ValueError(f"variable names differ: {self.var!r} vs {divisor.var!r}")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        ddeg = divisor.degree
        dlead = divisor.leading()
        quot = [Fraction(0)] * max(len(rem) - ddeg, 0)
        for k in range(len(rem) - 1, ddeg - 1, -1):
            factor = rem[k] / dlead
            if factor == 0:
                continue
            quot[k - ddeg] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[k - ddeg + i] -= factor * c
        return UniPoly(quot, self.var), UniPoly(rem[:ddeg] if ddeg > 0 else [], self.var)

    def divexact(self, divisor: UniPoly) -> UniPoly:
        """Division known to be exact; raises if a remainder appears."""
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise ValueError("division was not exact")
        return q

    def __repr__(self) -> str:
        return f"UniPoly({format_unipoly(self)!r})"

    def __str__(self) -> str:
        return format_unipoly(self)


# --- canonical printing ------------------------------------------------------
#
# Terms are ordered by total degree descending, then by the power of the first
# variable descending.  The output uses explicit '*' and '^' and reparses to
# the same polynomial under the expression grammar.


def _format_coeff(c: Fraction) -> str:
    return str(c)


def _format_monomial(i: int, j: int, varnames: tuple[str, str]) -> str:
    parts = []
    for e, name in ((i, varnames[0]), (j, varnames[1])):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly2(p: Poly2) -> str:
    if not p.terms:
        return "0"
    keys = sorted(p.terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
    pieces: list[str] = []
    for key in keys:
        c = p.terms[key]
        mono = _format_monomial(key[0], key[1], p.varnames)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_format_coeff(mag)}*{mono}"
        else:
            body = _format_coeff(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_unipoly(p: UniPoly) -> str:
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            mono = ""
        elif k == 1:
            mono = p.var
        else:
            mono = f"{p.var}^{k}"
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_format_coeff(mag)}*{mono}"
        else:
            body = _format_coeff(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
