"""Exact variable elimination for bivariate polynomial pairs.

The resultant of two bivariate polynomials with respect to one variable is the
determinant of their Sylvester matrix, whose entries here are univariate
polynomials in the surviving variable.  The determinant is computed in
integers: each row is multiplied by the lcm of its entries' content
denominators, which is the common denominator of their coefficients and for
a Sylvester matrix is c_f on the rows of f and c_g on those of g.  Bareiss's
fraction-free elimination then runs on the entries' integer coefficient
lists, where every intermediate division is exact (each intermediate entry
is itself a minor of the integer matrix).  Dividing the integer determinant by
the product of the row factors, c_f^n * c_g^m, gives the determinant of the
original matrix, so the eliminant is the same rational polynomial.

The key consequence used downstream: the resultant lies in the ideal generated
by the two inputs, so every common real zero of the pair projects onto a real
root of the resultant.  A nonzero resultant with no real roots therefore
certifies that the pair has no common real zero anywhere, including on lines
where the leading coefficients of both inputs vanish.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .polynomials import Poly2, UniPoly, _divexact, _mul, _sub


def sylvester_matrix(f: Poly2, g: Poly2, eliminate: str) -> list[list[UniPoly]]:
    """Sylvester matrix of f and g with respect to ``eliminate``.

    Entries are univariate polynomials in the other variable.  Both inputs
    must have positive degree in the eliminated variable.
    """
    if f.varnames != g.varnames:
        raise ValueError(f"variable names differ: {f.varnames} vs {g.varnames}")
    m = f.degree_in(eliminate)
    n = g.degree_in(eliminate)
    if m <= 0 or n <= 0:
        raise ValueError(
            "Sylvester matrix needs positive degree in the eliminated variable"
        )
    survivor = f.varnames[1 - f._axis(eliminate)]
    fc = f.coeffs_in(eliminate)  # index k = coefficient of eliminate**k
    gc = g.coeffs_in(eliminate)
    size = m + n
    zero = UniPoly.zero(survivor)

    def row_from(coeffs: list[UniPoly], deg: int, shift: int) -> list[UniPoly]:
        row = [zero] * size
        for k in range(deg + 1):
            # descending powers: column shift holds the leading coefficient
            row[shift + k] = coeffs[deg - k]
        return row

    rows = [row_from(fc, m, i) for i in range(n)]
    rows += [row_from(gc, n, j) for j in range(m)]
    return rows


def bareiss_determinant(matrix: list[list[UniPoly]], var: str) -> UniPoly:
    """Determinant of a square matrix of univariate polynomials, fraction-free."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix is not square")
    if size == 0:
        return UniPoly.constant(1, var)
    m: list[list[list[int]]] = []
    scale = 1
    for row in matrix:
        den = lcm(*(entry.content.denominator for entry in row))
        scale *= den
        m.append([[entry.content.numerator * (den // entry.content.denominator) * c
                   for c in entry.ints] for entry in row])
    sign = 1
    prev = [1]
    for k in range(size - 1):
        if not m[k][k]:
            pivot_row = next(
                (i for i in range(k + 1, size) if m[i][k]), None
            )
            if pivot_row is None:
                return UniPoly.zero(var)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = _divexact(
                    _sub(_mul(row[j], pivot), _mul(lead, row_k[j])), prev)
        prev = pivot
    return UniPoly._make(Fraction(sign, scale), m[-1][-1], var)


def resultant(f: Poly2, g: Poly2, eliminate: str) -> UniPoly:
    """Resultant of f and g with respect to ``eliminate``.

    Returns a univariate polynomial in the surviving variable.  Conventions
    for degenerate degrees: if one input is constant in the eliminated
    variable, the resultant is that constant raised to the other's degree;
    if both are, the notion collapses and a ValueError is raised.  Zero
    inputs are rejected.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is not defined here")
    if f.varnames != g.varnames:
        raise ValueError(f"variable names differ: {f.varnames} vs {g.varnames}")
    survivor = f.varnames[1 - f._axis(eliminate)]
    m = f.degree_in(eliminate)
    n = g.degree_in(eliminate)
    if m <= 0 and n <= 0:
        raise ValueError(
            "both inputs are constant in the eliminated variable; "
            "eliminate the other one instead"
        )
    if m <= 0:
        base = f.coeffs_in(eliminate)[0]
        return base ** n
    if n <= 0:
        base = g.coeffs_in(eliminate)[0]
        return base ** m
    return bareiss_determinant(sylvester_matrix(f, g, eliminate), survivor)
