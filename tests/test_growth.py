"""Big-integer growth comparison and the log-envelope crossover."""

from fractions import Fraction

import mpmath as mp
import pytest

from cclab import growth
from cclab.growth import (
    claimed_quadratic_bound,
    comparison_rows,
    constructed_cycle_count,
    contradiction_threshold,
    log_bound_crossover,
    render_comparison,
)
from cclab.parsing import parse_expression


# --- the claimed quadratic bound ---------------------------------------------------


def test_claimed_bound_values():
    assert claimed_quadratic_bound(2) == 4
    assert claimed_quadratic_bound(3) == 24
    for n in range(2, 60):
        assert claimed_quadratic_bound(n) == 8 * n * n - 20 * n + 12


def test_claimed_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        claimed_quadratic_bound(1)
    with pytest.raises(TypeError):
        claimed_quadratic_bound(2.0)
    with pytest.raises(TypeError):
        claimed_quadratic_bound(True)
    with pytest.raises(TypeError):
        claimed_quadratic_bound("3")


def test_claimed_bound_identity_at_odd_powers_of_two():
    """At n = 2^k - 1 the bound factors as 4*(2^k - 2)*(2^(k+1) - 5)."""
    for k in range(2, 65):
        n = 2 ** k - 1
        assert claimed_quadratic_bound(n) == 4 * (2 ** k - 2) * (2 ** (k + 1) - 5)


# --- the constructed counts -------------------------------------------------------


def test_constructed_counts_small():
    assert constructed_cycle_count(2) == 3
    assert constructed_cycle_count(3) == 21


def test_constructed_counts_match_closed_form():
    for k in range(2, 40):
        expected = (Fraction(4) ** (k - 1) * (Fraction(k) - Fraction(13, 6))
                    + Fraction(2) ** k - Fraction(1, 3))
        assert constructed_cycle_count(k) == expected


def test_constructed_counts_are_integers_and_monotone():
    previous = None
    for k in range(2, 201):
        value = constructed_cycle_count(k)
        assert isinstance(value, int)
        if previous is not None:
            assert value > previous
        previous = value


def test_constructed_count_rejects_bad_input():
    with pytest.raises(ValueError):
        constructed_cycle_count(1)
    with pytest.raises(TypeError):
        constructed_cycle_count(2.0)
    with pytest.raises(TypeError):
        constructed_cycle_count(False)


# --- the contradiction ---------------------------------------------------------------


def closed_form_excess(k: int) -> Fraction:
    """constructed(k) - claimed(2^k - 1) by the identity growth.py states."""
    t = 2 ** k
    return Fraction(t * t * (6 * k - 205), 24) + 37 * t - Fraction(121, 3)


def test_threshold_is_35_both_methods():
    """The exact walk stops at 35, and the closed-form excess changes sign
    there."""
    assert contradiction_threshold() == 35
    assert closed_form_excess(34) < 0 < closed_form_excess(35)


def test_closed_form_excess_is_an_exact_identity():
    """constructed - claimed = t^2 (k - 205/6)/4 + 37t - 121/3 as polynomials
    in k and t = 2^k, with each side tied to the functions at k = 2..80."""
    kt = ("k", "t")
    constructed = parse_expression("t^2*(k - 13/6)/4 + t - 1/3", kt)
    claimed = parse_expression("2*(t - 2)*(4*(t - 2) - 2)", kt)
    excess = parse_expression("t^2*(k - 205/6)/4 + 37*t - 121/3", kt)
    assert constructed - claimed == excess
    for k in range(2, 81):
        assert constructed.eval_at(k, 2 ** k) == constructed_cycle_count(k)
        assert claimed.eval_at(k, 2 ** k) == claimed_quadratic_bound(2 ** k - 1)
        assert excess.eval_at(k, 2 ** k) == closed_form_excess(k)


def test_threshold_below_the_certificate_raises(monkeypatch):
    """A first excess below 205/6 is not covered by the closed form."""
    monkeypatch.setattr(growth, "claimed_quadratic_bound", lambda n: 0)
    with pytest.raises(ArithmeticError):
        contradiction_threshold()


def test_threshold_boundary_exactly():
    below, at = 34, 35
    assert constructed_cycle_count(below) <= claimed_quadratic_bound(2 ** below - 1)
    assert constructed_cycle_count(at) > claimed_quadratic_bound(2 ** at - 1)


def test_comparison_rows():
    rows = comparison_rows(40)
    assert rows[0].k == 2 and rows[-1].k == 40
    for row in rows:
        assert row.degree == 2 ** row.k - 1
        assert row.constructed == constructed_cycle_count(row.k)
        assert row.claimed == claimed_quadratic_bound(row.degree)
        assert row.contradiction == (row.constructed > row.claimed)
    first_contradiction = next(row.k for row in rows if row.contradiction)
    assert first_contradiction == 35
    with pytest.raises(ValueError):
        comparison_rows(1)


def test_render_comparison():
    text = render_comparison(comparison_rows(36))
    lines = text.splitlines()
    assert "k" in lines[0] and "exceeds" in lines[0]
    assert any("yes" in line for line in lines[1:])
    assert any("no" in line for line in lines[1:])
    # the flip happens between the k=34 and k=35 rows
    yes_rows = [line for line in lines[1:] if "yes" in line]
    assert yes_rows[0].split()[0] == "35"


# --- the log-envelope crossover --------------------------------------------------------


def test_crossover_goldens():
    assert log_bound_crossover(8, 0, 0) == 65490
    assert log_bound_crossover(8, -20, 12) == 65462
    assert log_bound_crossover(0, 0, 0) == 0
    assert log_bound_crossover(1, 1, 1) == 0
    # the crossing lies where h is still concave
    assert log_bound_crossover(3, -10, 20) == 2
    assert log_bound_crossover(10, 0, 0) == 1048519


def test_crossover_accepts_rationals():
    assert log_bound_crossover(8, Fraction(-20), 12) == 65462


def test_crossover_rejects_negative_leading_coefficient():
    with pytest.raises(ValueError):
        log_bound_crossover(-1, 0, 0)


def test_crossover_stable_across_precision(monkeypatch):
    monkeypatch.setattr(growth, "_DEFAULT_BITS", 320)
    assert log_bound_crossover(8, 0, 0) == 65490


def test_crossover_boundary_with_independent_precision():
    """(n+2)^2 log2(n+2) / 2 against 8n^2, straddling the reported point."""
    def envelope(n: int):
        with mp.workprec(300):
            m = mp.mpf(n + 2)
            return m * m * mp.log(m, 2) / 2

    n_star = 65490
    assert envelope(n_star) > 8 * n_star ** 2
    assert envelope(n_star - 1) <= 8 * (n_star - 1) ** 2
    # and the envelope stays above the quadratic from the crossover onward
    for n in (n_star + 1, n_star + 100, 10 ** 6):
        assert envelope(n) > 8 * n ** 2


def _independent_crossover(a, b, c, limit: int) -> int:
    """Last n < limit with envelope <= quadratic, plus one, by a 300-bit scan
    (exact where n+2 is a power of two)."""
    last = -1
    for n in range(limit):
        quad = Fraction(a) * n * n + Fraction(b) * n + Fraction(c)
        m = n + 2
        if m & (m - 1) == 0:
            above = Fraction(m * m * (m.bit_length() - 1), 2) > quad
        else:
            with mp.workprec(300):
                above = (mp.mpf(m) ** 2 * mp.log(m, 2) / 2
                         > mp.mpf(quad.numerator) / quad.denominator)
        if not above:
            last = n
    return last + 1


@pytest.mark.parametrize("a, b, c, expected", [
    (Fraction(3, 2), 8, -9, 5),   # h is smallest just before the answer
    (2, -40, 47, 2),              # answer at the concave/convex boundary
    (3, -10, 20, 2),              # answer inside the concave part
    (0, 0, 16, 3),                # h(2) = 0 exactly: 4^2 * log2(4) / 2 = 16
    (0, -3, -5, 0),               # envelope above from the start
    (Fraction(1, 2), 30, 0, 15),
])
def test_crossover_matches_an_independent_scan(a, b, c, expected):
    assert log_bound_crossover(a, b, c) == expected
    assert _independent_crossover(a, b, c, 1024) == expected


def test_crossover_exact_zero_counts_as_not_above():
    """At n = 2, with n+2 a power of two, the envelope equals 16 exactly."""
    tiny = Fraction(1, 10 ** 30)
    assert log_bound_crossover(0, 0, 16 - tiny) == 2
    assert log_bound_crossover(0, 0, 16 + tiny) == 3


def test_crossover_escalates_from_a_low_starting_precision(monkeypatch):
    monkeypatch.setattr(growth, "_DEFAULT_BITS", 16)
    assert log_bound_crossover(8, 0, 0) == 65490
    assert log_bound_crossover(10, 0, 0) == 1048519


def test_crossover_out_of_reach_raises():
    """The crossing near 2^2000 cannot be resolved below 1280 bits."""
    with pytest.raises(ArithmeticError):
        log_bound_crossover(1000, 0, 0)


def test_crossover_boundary_with_independent_precision_shifted_quadratic():
    """(n+2)^2 log2(n+2) / 2 against 8n^2 - 20n + 12 around 65462."""
    def h(n: int):
        with mp.workprec(300):
            m = mp.mpf(n + 2)
            return m * m * mp.log(m, 2) / 2 - (8 * n * n - 20 * n + 12)

    n_star = 65462
    assert h(n_star) > 0
    assert h(n_star - 1) <= 0
    for n in (n_star + 1, n_star + 100, 10 ** 6):
        assert h(n) > 0
