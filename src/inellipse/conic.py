"""Conic coefficients and the shape records of an ellipse.

A conic is stored as the six coefficients of

    A x^2 + B x y + C y^2 + D x + E y + F = 0.

Coefficients are kept at whatever scale the caller supplies; several
polynomial identities used elsewhere in the package hold only at the
defining scale.  Use :meth:`Conic.normalized` when comparing across
scales.  The package has no general conic-to-shape route and no line
type: the solved ellipse's :class:`EllipseGeometry` (center, semi-axes,
eccentricity, axis angle) comes from the family model in ``minecc.solve``,
which alone decides whether it is a circle (axis angle None);
:func:`conjugate_diameter_angle` is 2 atan(b/a) of that shape, with no
tolerance of its own.  ``oracle.verify`` checks that shape by its support
distances from the side lines, and the conic's tangency to each side line
by l^T adj(M) l.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .quad import Point2


class Conic(NamedTuple):
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float

    def __call__(self, x, y):
        A, B, C, D, E, F = self
        return A * x * x + B * x * y + C * y * y + D * x + E * y + F

    def normalized(self) -> "Conic":
        """Unit Euclidean coefficient norm with A + C > 0."""
        n = math.sqrt(sum(c * c for c in self))
        if n == 0.0:
            raise ValueError("zero conic cannot be normalized")
        k = (-1.0 if self.A + self.C < 0 else 1.0) * (1.0 / n)
        return Conic(*(k * c for c in self))


class EllipseGeometry(NamedTuple):
    center: Point2
    a: float                       # semi-major
    b: float                       # semi-minor
    eccentricity: float
    major_axis_angle: Optional[float]   # None for circles


def conjugate_diameter_angle(g: EllipseGeometry) -> float:
    """Smallest non-negative angle between the equal conjugate diameters.

    The equal pair makes angles +/- theta with the major axis where
    tan(theta) = b/a, so the angle between them is 2 theta.  A circle,
    b == a, gets 2 atan(1), exactly pi/2 in doubles (any perpendicular
    diameter pair is equal and conjugate).
    """
    return 2.0 * math.atan(g.b / g.a)
