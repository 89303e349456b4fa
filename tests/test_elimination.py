"""Resultants: specialization consistency, goldens, degenerate conventions."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _strategies import XY, polys, small_rationals
from cclab.elimination import bareiss_determinant, resultant, sylvester_matrix
from cclab.polynomials import Poly2, UniPoly


def numeric_sylvester_resultant(fc: list[Fraction], gc: list[Fraction]) -> Fraction:
    """Univariate resultant through plain fraction Gaussian elimination.

    Independent of the package's fraction-free path; coefficient lists are
    lowest degree first.
    """
    while fc and fc[-1] == 0:
        fc = fc[:-1]
    while gc and gc[-1] == 0:
        gc = gc[:-1]
    m, n = len(fc) - 1, len(gc) - 1
    assert m >= 1 and n >= 1
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for k in range(m + 1):
            row[i + k] = fc[m - k]
        rows.append(row)
    for j in range(m):
        row = [Fraction(0)] * size
        for k in range(n + 1):
            row[j + k] = gc[n - k]
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def specialize_x(p: Poly2, y0: Fraction) -> list[Fraction]:
    cols = p.coeffs_in("x")
    return [row.eval_at(y0) for row in cols]


@given(polys(max_terms=5), polys(max_terms=5), small_rationals)
def test_resultant_specializes(f, g, y0):
    assume(f.degree_in("x") >= 1 and g.degree_in("x") >= 1)
    fc = specialize_x(f, y0)
    gc = specialize_x(g, y0)
    # leading coefficients must survive the specialization
    assume(fc[-1] != 0 and gc[-1] != 0)
    res = resultant(f, g, "x")
    assert res.eval_at(y0) == numeric_sylvester_resultant(fc, gc)


@given(polys(max_terms=4), small_rationals)
def test_common_linear_factor_kills_resultant(f, r):
    assume(f.degree_in("x") >= 1)
    x = Poly2.variable("x", XY)
    shared = x - Poly2.constant(r, XY)
    g = shared * Poly2({(0, 1): Fraction(1), (0, 0): Fraction(1)}, XY)
    res = resultant(f * shared, g, "x")
    assert res.is_zero()


def test_branch_eliminant_goldens():
    UV = ("u", "v")
    f1 = Poly2({(2, 0): 24, (1, 1): 8, (0, 2): 1, (0, 0): -8}, UV)
    g1 = Poly2({(1, 1): 4, (0, 2): 1, (0, 0): 4}, UV)
    assert resultant(f1, g1, "u") == UniPoly([384, 0, -64, 0, 8], "v")

    f2 = Poly2({(2, 0): 8, (1, 1): 8, (0, 2): 3}, UV)
    g2 = Poly2({(2, 0): 2, (1, 1): 1, (0, 0): -1}, UV)
    assert resultant(f2, g2, "v") == UniPoly([3, 0, -4, 0, 4], "u")


def test_sylvester_matrix_shape():
    f = Poly2({(2, 0): 1, (0, 1): 3}, XY)   # degree 2 in x
    g = Poly2({(3, 0): 2, (0, 0): -1}, XY)  # degree 3 in x
    matrix = sylvester_matrix(f, g, "x")
    assert len(matrix) == 5
    assert all(len(row) == 5 for row in matrix)
    # top-left entry carries the leading coefficient of f
    assert matrix[0][0] == UniPoly.constant(1, "y")


def test_degenerate_conventions():
    f = Poly2({(0, 1): 1, (0, 0): 2}, XY)       # constant in x
    g = Poly2({(2, 0): 1, (0, 0): -1}, XY)       # degree 2 in x
    assert resultant(f, g, "x") == UniPoly([2, 1], "y") ** 2
    assert resultant(g, f, "x") == UniPoly([2, 1], "y") ** 2
    both = Poly2({(0, 1): 1}, XY)
    with pytest.raises(ValueError):
        resultant(f, both, "x")
    with pytest.raises(ValueError):
        resultant(f, Poly2.zero(XY), "x")


def test_bareiss_matches_textbook_determinant():
    y = UniPoly.variable("y")
    one = UniPoly.constant(1, "y")
    matrix = [
        [y, one, UniPoly.zero("y")],
        [one, y, one],
        [UniPoly.zero("y"), one, y],
    ]
    # det = y^3 - 2y
    assert bareiss_determinant(matrix, "y") == y ** 3 - y * 2


def test_resultant_detects_shared_point_not_just_factor():
    # the line x + y = 3 meets the circle x^2 + y^2 = 5 at (1, 2) and
    # (2, 1): no shared factor, so the resultant vanishes exactly at the
    # intersection ordinates instead of identically
    f = Poly2({(1, 0): 1, (0, 1): 1, (0, 0): -3}, XY)
    g = Poly2({(2, 0): 1, (0, 2): 1, (0, 0): -5}, XY)
    res = resultant(f, g, "x")
    assert not res.is_zero()
    assert res.eval_at(Fraction(2)) == 0
    assert res.eval_at(Fraction(1)) == 0
    assert res.eval_at(Fraction(0)) != 0


# --- integer Bareiss against the UniPoly-entry loop it replaced ----------------


def _reference_bareiss(matrix, var):
    """Bareiss elimination on UniPoly entries with Fraction coefficients."""
    size = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = UniPoly.constant(1, var)
    for k in range(size - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, size) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return UniPoly.zero(var)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).divexact(prev)
            m[i][k] = UniPoly.zero(var)
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


_big_denominators = st.fractions(min_value=Fraction(-10), max_value=Fraction(10),
                                 max_denominator=10 ** 12)


@given(polys(max_terms=5), polys(max_terms=5),
       st.lists(_big_denominators, min_size=2, max_size=2),
       st.sampled_from(XY))
def test_resultant_equals_unipoly_bareiss(f, g, scales, var):
    assume(f.degree_in(var) >= 1 and g.degree_in(var) >= 1)
    assume(all(scales))
    f, g = f.scale(scales[0]), g.scale(scales[1])
    survivor = XY[1 - XY.index(var)]
    expected = _reference_bareiss(sylvester_matrix(f, g, var), survivor)
    assert resultant(f, g, var) == expected


def test_bareiss_pivots_past_zero_entries():
    y = UniPoly.variable("y")
    zero, half = UniPoly.zero("y"), UniPoly.constant(Fraction(1, 2), "y")
    matrices = [
        [[zero, y], [half, zero]],
        [[zero, half, y], [y * y, zero, half], [half, y, zero]],
        [[zero, zero, y], [zero, half, zero], [y, zero, zero]],
        [[y, half], [y * 2, half * 2]],  # singular
    ]
    for matrix in matrices:
        expected = _reference_bareiss(matrix, "y")
        assert bareiss_determinant(matrix, "y") == expected
    assert bareiss_determinant(matrices[0], "y") == y * Fraction(-1, 2)
    assert bareiss_determinant(matrices[3], "y").is_zero()
