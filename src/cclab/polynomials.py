"""Exact sparse polynomial arithmetic over the rationals.

Two representations cover everything the analysis needs:

* ``Poly2`` -- bivariate polynomials, stored sparsely as one rational
  content times a primitive integer polynomial: a ``Fraction`` and a map
  from exponent pairs ``(i, j)`` to nonzero Python ints with gcd 1, whose
  coefficient at the lex-largest pair is positive.  The pair of variable
  names travels with the polynomial so that mixing systems written in
  different coordinates is rejected instead of silently reinterpreted.
* ``UniPoly`` -- univariate polynomials, stored the same way: one rational
  content times a primitive tuple of ints, lowest degree first, whose
  leading entry is positive.

Every operation runs on the integer coefficients and touches the content
once.  Gauss's lemma (a product of primitive polynomials is primitive)
makes products need no gcd and makes exact division over the rationals
the same as exact division of the primitive parts over the integers.

Everything in this module is exact; no floats are produced or consumed.
The degree of the zero polynomial is -1 by convention.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]

IntTerms = dict[tuple[int, int], int]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_second = itemgetter(1)


def _to_fraction(value: Rat) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _power(base, exponent: int, one):
    """base ** exponent by binary powering, from the polynomial ``one``."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base if exponent > 1 else base
        exponent >>= 1
    return result


def _check_varnames(varnames: tuple[str, str]) -> tuple[str, str]:
    a, b = varnames
    for name in (a, b):
        if not name.isidentifier():
            raise ValueError(f"invalid variable name: {name!r}")
    if a == b:
        raise ValueError(f"variable names must differ, got {a!r} twice")
    return (a, b)


def _over_common(c1: Fraction, c2: Fraction) -> tuple[int, int, Fraction]:
    """Coprime ints a1, a2 and the rational c with c1 = a1 * c and c2 = a2 * c."""
    den = math.lcm(c1.denominator, c2.denominator)
    a1 = c1.numerator * (den // c1.denominator)
    a2 = c2.numerator * (den // c2.denominator)
    g = math.gcd(a1, a2)
    return a1 // g, a2 // g, Fraction(g, den)


def _normal_form(content: Fraction, ints: IntTerms) -> tuple[Fraction, IntTerms]:
    """``content * ints`` as (content, primitive map with positive lead)."""
    ints = {key: c for key, c in ints.items() if c}
    if not ints or not content:
        return _ZERO, {}
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {key: c // g for key, c in ints.items()}
        content = content * g
    return content, ints


class Poly2:
    """A bivariate polynomial with exact rational coefficients.

    The polynomial is ``content * sum(c * x**i * y**j)`` over the items
    ``(i, j): c`` of ``ints``.  ``ints`` is primitive (its ints have gcd 1),
    never stores a zero, and its coefficient at the lex-largest pair
    ``max(ints)`` is positive; the zero polynomial is content 0 with an
    empty map.  This form is unique, so ``==`` compares the pairs.

    By Gauss's lemma a product of primitive polynomials is primitive, and
    lex order is a monomial order, so ``__mul__`` multiplies the maps and
    the contents and is done.  The same lemma makes an exact quotient of
    primitive parts an integer polynomial: ``try_divide`` runs the
    division algorithm over the integers, and a leading coefficient that
    does not divide proves the quotient inexact over the rationals too.

    ``terms`` is the ``{(i, j): Fraction}`` view, built on each access.
    Instances are immutable (polynomials may share one ``ints`` map), and
    all operations return new polynomials.
    """

    __slots__ = ("content", "ints", "varnames")

    def __init__(self, terms: Mapping[tuple[int, int], Rat], varnames: tuple[str, str]):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in terms.items():
            if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                raise ValueError(f"bad exponent pair: {(i, j)!r}")
            coeff = _to_fraction(c)
            if coeff != 0:
                clean[(i, j)] = coeff
        den = math.lcm(*(c.denominator for c in clean.values()))
        content, ints = _normal_form(
            Fraction(1, den),
            {key: c.numerator * (den // c.denominator) for key, c in clean.items()})
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "varnames", _check_varnames(tuple(varnames)))

    @classmethod
    def _primitive(cls, content: Fraction, ints: IntTerms,
                   varnames: tuple[str, str]) -> Poly2:
        """A polynomial from a pair already in normal form."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "content", content)
        object.__setattr__(poly, "ints", ints)
        object.__setattr__(poly, "varnames", varnames)
        return poly

    @classmethod
    def _make(cls, content: Fraction, ints: IntTerms,
              varnames: tuple[str, str]) -> Poly2:
        """``content * ints`` for any integer map: one gcd brings it to normal form."""
        return cls._primitive(*_normal_form(content, ints), varnames)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # --- constructors ---

    @classmethod
    def zero(cls, varnames: tuple[str, str]) -> Poly2:
        return cls._primitive(_ZERO, {}, _check_varnames(tuple(varnames)))

    @classmethod
    def constant(cls, value: Rat, varnames: tuple[str, str]) -> Poly2:
        value = _to_fraction(value)
        if not value:
            return cls.zero(varnames)
        return cls._primitive(value, {(0, 0): 1}, _check_varnames(tuple(varnames)))

    @classmethod
    def variable(cls, name: str, varnames: tuple[str, str]) -> Poly2:
        if name == varnames[0]:
            key = (1, 0)
        elif name == varnames[1]:
            key = (0, 1)
        else:
            raise ValueError(f"unknown variable {name!r} for {varnames}")
        return cls._primitive(_ONE, {key: 1}, _check_varnames(tuple(varnames)))

    # --- structure ---

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero coefficients as ``{(i, j): Fraction}``; a new dict."""
        n, d = self.content.numerator, self.content.denominator
        return {key: Fraction(n * c, d) for key, c in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.ints:
            return -1
        return max(i + j for i, j in self.ints)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        idx = self._axis(var)
        if not self.ints:
            return -1
        return max(key[idx] for key in self.ints)

    def _axis(self, var: str) -> int:
        if var == self.varnames[0]:
            return 0
        if var == self.varnames[1]:
            return 1
        raise ValueError(f"unknown variable {var!r} for {self.varnames}")

    def _max_exponents(self) -> tuple[int, int]:
        """Top powers of x and of y; the lex-largest pair holds the first."""
        return (max(self.ints)[0], max(map(_second, self.ints)))

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.content * self.ints.get((i, j), 0)

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if not constant."""
        if not self.ints:
            return _ZERO
        if len(self.ints) == 1 and (0, 0) in self.ints:
            return self.content
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

    def _plus(self, content: Fraction, ints: IntTerms) -> Poly2:
        """self + content * ints, over the lcm of the two denominators."""
        if not ints:
            return self
        if not self.ints:
            return Poly2._primitive(content, ints, self.varnames)
        a1, a2, common = _over_common(self.content, content)
        out = {key: a1 * c for key, c in self.ints.items()}
        get = out.get
        for key, c in ints.items():
            out[key] = get(key, 0) + a2 * c
        return Poly2._make(common, out, self.varnames)

    def __add__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs.content, rhs.ints)

    __radd__ = __add__

    def __neg__(self) -> Poly2:
        return Poly2._primitive(-self.content, self.ints, self.varnames)

    def __sub__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(-rhs.content, rhs.ints)

    def __rsub__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._plus(-self.content, self.ints)

    def __mul__(self, other) -> Poly2:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self.ints or not rhs.ints:
            return Poly2.zero(self.varnames)
        # Gauss's lemma: the product is primitive, and its lex-leading
        # coefficient is the product of two positive ones
        out = _mul_ints(self.ints, rhs.ints)
        return Poly2._primitive(self.content * rhs.content,
                                {key: c for key, c in out.items() if c},
                                self.varnames)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly2:
        return _power(self, exponent, Poly2.constant(1, self.varnames))

    def scale(self, factor: Rat) -> Poly2:
        f = _to_fraction(factor)
        if not f:
            return Poly2.zero(self.varnames)
        return Poly2._primitive(self.content * f, self.ints, self.varnames)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.constant(other, self.varnames)
        if not isinstance(other, Poly2):
            return NotImplemented
        return (self.varnames == other.varnames and self.content == other.content
                and self.ints == other.ints)

    __hash__ = None  # mutable mapping inside; identity hashing would mislead

    # --- calculus and evaluation ---

    def partial(self, var: str) -> Poly2:
        """Exact partial derivative with respect to one of the two variables."""
        if self._axis(var) == 0:
            out = {(i - 1, j): c * i for (i, j), c in self.ints.items() if i}
        else:
            out = {(i, j - 1): c * j for (i, j), c in self.ints.items() if j}
        return Poly2._make(self.content, out, self.varnames)

    def eval_at(self, px: Rat, py: Rat) -> Fraction:
        """Exact evaluation at a rational point."""
        fx, fy = _to_fraction(px), _to_fraction(py)
        if not self.ints:
            return _ZERO
        max_i, max_j = self._max_exponents()
        xp = _homogeneous_powers(fx.numerator, fx.denominator, max_i)
        yp = _homogeneous_powers(fy.numerator, fy.denominator, max_j)
        total = sum(c * xp[i] * yp[j] for (i, j), c in self.ints.items())
        return Fraction(total * self.content.numerator,
                        self.content.denominator * fx.denominator ** max_i
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
        if not self.ints:
            return (_ZERO, _ZERO)
        max_i, max_j = self._max_exponents()
        xp, dx = _homogeneous_interval_powers(_dyadic_outward((xlo, xhi)), max_i)
        yp, dy = _homogeneous_interval_powers(_dyadic_outward((ylo, yhi)), max_j)
        lo = hi = 0
        for (i, j), c in self.ints.items():
            a0, a1 = xp[i]
            b0, b1 = yp[j]
            products = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
            if c >= 0:
                lo += c * min(products)
                hi += c * max(products)
            else:
                lo += c * max(products)
                hi += c * min(products)
        n = self.content.numerator
        if n < 0:
            lo, hi = hi, lo
        scale = self.content.denominator * dx ** max_i * dy ** max_j
        return (Fraction(lo * n, scale), Fraction(hi * n, scale))

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

        Each image is cleared to an integer linear form over its
        denominator, ``X / dx`` and ``Y / dy``; the sum of
        ``c * X**i * dx**(I - i) * Y**j * dy**(J - j)`` over the integer
        terms, with I and J the top exponents, is then the image times
        ``dx**I * dy**J / content``.
        """
        new_varnames = _check_varnames(tuple(new_varnames))
        (a, b), (c, d) = matrix
        e, f = offset
        new_x, dx = _int_linear(a, b, e)
        new_y, dy = _int_linear(c, d, f)
        if not self.ints:
            return Poly2.zero(new_varnames)
        max_i, max_j = self._max_exponents()
        xp = _int_power_table(new_x, max_i)
        yp = _int_power_table(new_y, max_j)
        total: IntTerms = {}
        get = total.get
        for (i, j), coeff in self.ints.items():
            weight = coeff * dx ** (max_i - i) * dy ** (max_j - j)
            for key, v in _mul_ints(xp[i], yp[j]).items():
                total[key] = get(key, 0) + weight * v
        return Poly2._make(self.content / (dx ** max_i * dy ** max_j), total,
                           new_varnames)

    def try_divide(self, divisor: Poly2) -> Poly2 | None:
        """Exact multivariate division: self / divisor, or None if not exact.

        Runs the single-divisor division algorithm on the primitive parts
        under lexicographic order.  An exact quotient of primitive parts is
        a primitive integer polynomial (Gauss's lemma), and each step finds
        one of its coefficients, so a leading term whose monomial or
        integer coefficient does not divide proves inexactness at once.
        The quotient's content is the ratio of the two contents.
        """
        if divisor.varnames != self.varnames:
            raise ValueError(
                f"variable names differ: {self.varnames} vs {divisor.varnames}")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly2.zero(self.varnames)
        div_lead = max(divisor.ints)
        div_lc = divisor.ints[div_lead]
        div_terms = list(divisor.ints.items())
        rem = dict(self.ints)
        quot: IntTerms = {}
        while rem:
            lead = max(rem)
            if lead[0] < div_lead[0] or lead[1] < div_lead[1]:
                return None
            qc, r = divmod(rem[lead], div_lc)
            if r:
                return None
            qi, qj = lead[0] - div_lead[0], lead[1] - div_lead[1]
            quot[(qi, qj)] = qc
            for (i, j), c in div_terms:
                key = (qi + i, qj + j)
                value = rem.get(key, 0) - qc * c
                if value:
                    rem[key] = value
                else:
                    del rem[key]
        return Poly2._primitive(self.content / divisor.content, quot, self.varnames)

    def _int_rows(self, var: str) -> list[dict[int, int]]:
        """Integer terms by powers of ``var``: row k maps survivor powers to ints.

        Row ``k`` times ``content`` is the coefficient of ``var**k``.
        """
        idx = self._axis(var)
        if not self.ints:
            return []
        rows: list[dict[int, int]] = [
            {} for _ in range(max(key[idx] for key in self.ints) + 1)]
        for key, c in self.ints.items():
            rows[key[idx]][key[1 - idx]] = c
        return rows

    def coeffs_in(self, var: str) -> list[UniPoly]:
        """Coefficients by powers of ``var``, each a UniPoly in the survivor.

        Entry ``k`` is the coefficient of ``var**k``.  Returns ``[]`` for the
        zero polynomial.
        """
        survivor = self.varnames[1 - self._axis(var)]
        return [UniPoly._make(self.content,
                              [row.get(k, 0) for k in range(max(row, default=-1) + 1)],
                              survivor)
                for row in self._int_rows(var)]

    def __repr__(self) -> str:
        return f"Poly2({format_poly2(self)!r}, vars={self.varnames})"

    def __str__(self) -> str:
        return format_poly2(self)


_DYADIC_BITS = 128


def _dyadic_outward(
    iv: tuple[Fraction, Fraction], bits: int = _DYADIC_BITS
) -> tuple[Fraction, Fraction]:
    """Round an interval's endpoints outward to denominator 2**bits.

    Exact interval arithmetic grows endpoint fractions multiplicatively, so
    repeated Newton steps produce numbers with thousands of digits.  Rounding
    outward before each box evaluation keeps the arithmetic cheap while
    widening the enclosure by at most 2**(1 - bits), far below the working
    widths here at the default 128.  Endpoints with at most ``bits``-bit
    denominators are returned unchanged.
    """
    scale = 1 << bits
    lo, hi = iv
    if lo.denominator.bit_length() > bits:
        lo = Fraction(math.floor(lo * scale), scale)
    if hi.denominator.bit_length() > bits:
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


def _mul_ints(p: IntTerms, q: IntTerms) -> IntTerms:
    """Product of two integer term maps; cancelled terms stay as zeros."""
    out: IntTerms = {}
    get = out.get
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = get(key, 0) + c1 * c2
    return out


def _int_linear(a: Rat, b: Rat, e: Rat) -> tuple[IntTerms, int]:
    """``a*u + b*v + e`` as (integer term map, d): the form is the map over d."""
    a, b, e = _to_fraction(a), _to_fraction(b), _to_fraction(e)
    d = math.lcm(a.denominator, b.denominator, e.denominator)
    terms = {(1, 0): a, (0, 1): b, (0, 0): e}
    return ({key: c.numerator * (d // c.denominator)
             for key, c in terms.items() if c}, d)


def _int_power_table(p: IntTerms, upto: int) -> list[IntTerms]:
    table = [{(0, 0): 1}]
    for _ in range(upto):
        table.append(_mul_ints(table[-1], p))
    return table


# --- the univariate integer kernel --------------------------------------------
#
# Integer coefficient lists, lowest degree first, with no trailing zeros.


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a, b) -> list[int]:
    out = [*a, *[0] * (len(b) - len(a))]
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _divexact(a, b) -> list[int]:
    """a / b over the integers, by long division from the top; ValueError
    unless b divides a."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        # each step's remainder stays in rem, where the check finds it
        q, rem[k + db] = divmod(rem[k + db], lead)
        quot[k] = q
        if q:
            for i in range(db):
                rem[k + i] -= q * b[i]
    if any(rem):
        raise ValueError("division was not exact")
    return quot


def _horner(coeffs, num: int, den: int) -> int:
    """den**d * p(num / den) for p of degree d, by integer Horner."""
    total = 0
    power = 1  # den**(d - k) at coefficient k, built from the top down
    for c in reversed(coeffs):
        total = total * num + c * power
        power *= den
    return total


def _uni_normal_form(content: Fraction, ints) -> tuple[Fraction, tuple[int, ...]]:
    """``content * ints`` as (content, primitive tuple with positive lead)."""
    ints = _trim(list(ints))
    if not ints or not content:
        return _ZERO, ()
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
        content = content * g
    return content, tuple(ints)


class UniPoly:
    """A univariate polynomial with exact rational coefficients.

    The polynomial is ``content * sum(c * var**k)`` over ``ints[k]``.
    ``ints`` is a tuple of ints, lowest degree first, with gcd 1 and a
    positive leading entry; the zero polynomial is content 0 with ``()``.
    The form is unique, so ``==`` compares the pairs and two nonzero
    polynomials are proportional exactly when their ``ints`` are equal.
    Every operation runs on the integer kernel above and touches the
    content once, as ``Poly2`` does; ``coeffs`` is the Fraction view.
    """

    __slots__ = ("content", "ints", "var")

    def __init__(self, coeffs: Iterable[Rat], var: str = "t"):
        clean = [_to_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in clean))
        content, ints = _uni_normal_form(
            Fraction(1, den), [c.numerator * (den // c.denominator) for c in clean])
        if not var.isidentifier():
            raise ValueError(f"invalid variable name: {var!r}")
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "var", var)

    @classmethod
    def _make(cls, content: Fraction, ints, var: str) -> UniPoly:
        """``content * ints`` for any integer list: one gcd brings it to normal form."""
        poly = object.__new__(cls)
        content, ints = _uni_normal_form(content, ints)
        object.__setattr__(poly, "content", content)
        object.__setattr__(poly, "ints", ints)
        object.__setattr__(poly, "var", var)
        return poly

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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first; a new tuple."""
        n, d = self.content.numerator, self.content.denominator
        return tuple(Fraction(n * c, d) for c in self.ints)

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def constant_value(self) -> Fraction | None:
        if len(self.ints) > 1:
            return None
        return self.content

    def _coerce(self, other) -> UniPoly | None:
        if isinstance(other, UniPoly):
            if other.var != self.var:
                raise ValueError(f"variable names differ: {self.var!r} vs {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([other], self.var)
        return None

    def _plus(self, content: Fraction, ints: tuple[int, ...]) -> UniPoly:
        """self + content * ints, over the lcm of the two denominators."""
        if not ints:
            return self
        if not self.ints:
            return UniPoly._make(content, ints, self.var)
        a1, a2, common = _over_common(self.content, content)
        return UniPoly._make(common, _sub([a1 * c for c in self.ints],
                                          [-a2 * c for c in ints]), self.var)

    def __add__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs.content, rhs.ints)

    __radd__ = __add__

    def __neg__(self) -> UniPoly:
        return UniPoly._make(-self.content, self.ints, self.var)

    def __sub__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(-rhs.content, rhs.ints)

    def __rsub__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._plus(-self.content, self.ints)

    def __mul__(self, other) -> UniPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # Gauss's lemma: the product of the primitive parts is primitive,
        # with a positive leading entry
        return UniPoly._make(self.content * rhs.content,
                             _mul(self.ints, rhs.ints), self.var)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> UniPoly:
        return _power(self, exponent, UniPoly.constant(1, self.var))

    def scale(self, factor: Rat) -> UniPoly:
        return UniPoly._make(self.content * _to_fraction(factor), self.ints,
                             self.var)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other], self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self.var == other.var and self.content == other.content
                and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.content, self.ints, self.var))

    def eval_at(self, point: Rat) -> Fraction:
        """Exact evaluation at a rational point, by one integer Horner pass."""
        p = _to_fraction(point)
        total = _horner(self.ints, p.numerator, p.denominator)
        return Fraction(self.content.numerator * total,
                        self.content.denominator * p.denominator ** max(self.degree, 0))

    def derivative(self) -> UniPoly:
        return UniPoly._make(self.content,
                             [k * c for k, c in enumerate(self.ints)][1:], self.var)

    def divexact(self, divisor: UniPoly) -> UniPoly:
        """Division known to be exact; raises ValueError if a remainder appears.

        By Gauss's lemma an exact quotient of the primitive parts is a
        primitive integer polynomial, so the division runs on ``ints``.
        """
        if divisor.var != self.var:
            raise ValueError(f"variable names differ: {self.var!r} vs {divisor.var!r}")
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        return UniPoly._make(self.content / divisor.content,
                             _divexact(self.ints, divisor.ints), self.var)

    def __repr__(self) -> str:
        return f"UniPoly({format_unipoly(self)!r})"

    def __str__(self) -> str:
        return format_unipoly(self)


# --- canonical printing ------------------------------------------------------
#
# Terms are ordered by total degree descending, then by the power of the first
# variable descending.  The output uses explicit '*' and '^' and reparses to
# the same polynomial under the expression grammar.


def _format_monomial(i: int, j: int, varnames: tuple[str, str]) -> str:
    parts = []
    for e, name in ((i, varnames[0]), (j, varnames[1])):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly2(p: Poly2) -> str:
    if not p.ints:
        return "0"
    keys = sorted(p.ints, key=lambda k: (-(k[0] + k[1]), -k[0]))
    n, d = p.content.numerator, p.content.denominator
    pieces: list[str] = []
    for key in keys:
        # the coefficient n*c/d in lowest terms, printed as str(Fraction) would
        c = n * p.ints[key]
        g = math.gcd(c, d)
        num, den = abs(c) // g, d // g
        mag = str(num) if den == 1 else f"{num}/{den}"
        mono = _format_monomial(key[0], key[1], p.varnames)
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_unipoly(p: UniPoly) -> str:
    if p.is_zero():
        return "0"
    coeffs = p.coeffs
    pieces: list[str] = []
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
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
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
