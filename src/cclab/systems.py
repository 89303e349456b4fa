"""Planar polynomial vector fields and exact linear changes of variables."""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import Poly2, Rat, _to_fraction


@dataclass(frozen=True)
class PlanarSystem:
    """An autonomous planar system dx/dt = P(x, y), dy/dt = Q(x, y)."""

    P: Poly2
    Q: Poly2
    varnames: tuple[str, str]
    label: str | None = None

    def __post_init__(self):
        if self.P.varnames != self.varnames or self.Q.varnames != self.varnames:
            raise ValueError("component polynomials disagree with the system variables")
        if self.P.is_zero() and self.Q.is_zero():
            raise ValueError("the zero vector field is not a valid system")

    @property
    def degree(self) -> int:
        return max(self.P.total_degree, self.Q.total_degree)


def transform_system(
    system: PlanarSystem,
    matrix: tuple[tuple[Rat, Rat], tuple[Rat, Rat]],
    offset: tuple[Rat, Rat] = (0, 0),
    new_varnames: tuple[str, str] | None = None,
    label: str | None = None,
) -> PlanarSystem:
    """Rewrite a system under the invertible affine substitution old = M*new + offset.

    If the old coordinates are (x, y) and the new ones (u, v), the map is
    ``x = a*u + b*v + e``, ``y = c*u + d*v + f`` with ``matrix = ((a, b), (c, d))``
    and ``offset = (e, f)``.  The returned components are the exact pushforward
    ``(du/dt, dv/dt) = M^-1 (P, Q) composed with the map`` -- chain rule, no
    approximation.  Rejects singular matrices.
    """
    (a, b), (c, d) = (
        (_to_fraction(matrix[0][0]), _to_fraction(matrix[0][1])),
        (_to_fraction(matrix[1][0]), _to_fraction(matrix[1][1])),
    )
    det = a * d - b * c
    if det == 0:
        raise ValueError("transformation matrix is singular")
    new_vars = new_varnames if new_varnames is not None else system.varnames
    m = ((a, b), (c, d))
    p_sub = system.P.subs_linear(m, offset, new_vars)
    q_sub = system.Q.subs_linear(m, offset, new_vars)
    # inverse matrix rows: (d, -b)/det and (-c, a)/det
    new_p = p_sub.scale(d / det) + q_sub.scale(-b / det)
    new_q = p_sub.scale(-c / det) + q_sub.scale(a / det)
    return PlanarSystem(new_p, new_q, new_vars, label if label is not None else system.label)
