"""Conic coefficients and the shape records of an ellipse.

A conic is stored as the six coefficients of

    A x^2 + B x y + C y^2 + D x + E y + F = 0.

Coefficients are kept at whatever scale the caller supplies; several
polynomial identities used elsewhere in the package hold only at the
defining scale.  Use :meth:`Conic.normalized` when comparing across
scales.  The package has no general conic-to-shape route: the solved
ellipse's :class:`EllipseGeometry` (center, semi-axes, eccentricity, axis
angle) comes from the family model in ``minecc.solve``, and
``oracle.verify`` checks that reported shape against the side lines by
its support distances and the tangency of its conic separately.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .quad import Point2, PointLike


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

    def scaled(self, k: float) -> "Conic":
        return Conic(*(k * c for c in self))

    def oriented(self) -> "Conic":
        """Sign-flipped if necessary so that A + C > 0 (no rescaling)."""
        return self.scaled(-1.0) if self.A + self.C < 0 else self

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self))

    def normalized(self) -> "Conic":
        """Unit Euclidean coefficient norm with A + C > 0."""
        n = self.norm
        if n == 0.0:
            raise ValueError("zero conic cannot be normalized")
        return self.oriented().scaled(1.0 / n)


class EllipseGeometry(NamedTuple):
    center: Point2
    a: float                       # semi-major
    b: float                       # semi-minor
    eccentricity: float
    major_axis_angle: Optional[float]   # None for circles


class Line2(NamedTuple):
    """Line in slope-intercept form; ``slope is None`` marks a vertical
    line whose ``intercept`` is then the x offset."""

    slope: Optional[float]
    intercept: float

    @classmethod
    def through(cls, p: PointLike, q: PointLike) -> "Line2":
        dx = q[0] - p[0]
        dy = q[1] - p[1]
        if abs(dx) <= 1e-15 * (abs(dx) + abs(dy)):
            return cls(None, p[0])
        m = dy / dx
        return cls(m, p[1] - m * p[0])

    @property
    def is_vertical(self) -> bool:
        return self.slope is None


class LineConicRelation(Enum):
    DISJOINT = "disjoint"
    TANGENT = "tangent"
    SECANT = "secant"


def _major_axis_angle(c: Conic, trace: float, gap_sq: float) -> Optional[float]:
    """Major-axis angle of an ellipse with A + C = trace > 0 and
    (A - C)^2 + B^2 = gap_sq.

    The eigenvector of the larger eigenvalue of the quadratic form
    [[A, B/2], [B/2, C]] makes the angle 1/2 atan2(B, A - C) with the x
    axis; the major axis is perpendicular to it.  The two-argument
    arctangent keeps the quadrant, so the angle is exact up to rounding
    for every orientation.  It is reported in (-pi/2, pi/2] and is None
    when the ellipse is a circle to machine precision.
    """
    if gap_sq <= 1e-24 * trace * trace:
        return None
    angle = 0.5 * math.atan2(c.B, c.A - c.C) + math.pi / 2.0
    return angle - math.pi if angle > math.pi / 2.0 else angle


def conjugate_diameter_angle(g: EllipseGeometry) -> float:
    """Smallest non-negative angle between the equal conjugate diameters.

    The equal pair makes angles +/- theta with the major axis where
    tan(theta) = b/a, so the angle between them is 2 theta.  Circles get
    exactly pi/2 (any perpendicular diameter pair is equal and conjugate).
    """
    ratio = g.b / g.a
    if ratio >= 1.0 - 1e-12:
        return math.pi / 2.0
    return 2.0 * math.atan(ratio)


def line_tangency(c: Conic, line: Line2) -> tuple[LineConicRelation, float]:
    """Classify a line against an ellipse by the substituted discriminant.

    Substituting the line into the conic leaves a quadratic in one
    variable; its discriminant is negative/zero/positive for
    disjoint/tangent/secant.  "Zero" means at most 1e-9 of the squared
    coefficient scale of that quadratic.
    """
    A, B, C, D, E, F = c
    if line.is_vertical:
        x0 = line.intercept
        q2, q1, q0 = C, B * x0 + E, (A * x0 + D) * x0 + F
    else:
        m, b0 = line.slope, line.intercept
        q2 = A + B * m + C * m * m
        q1 = B * b0 + 2.0 * C * m * b0 + D + E * m
        q0 = C * b0 * b0 + E * b0 + F
    disc = q1 * q1 - 4.0 * q2 * q0
    scale = max(q1 * q1, abs(4.0 * q2 * q0)) or 1.0
    if abs(disc) <= 1e-9 * scale:
        return LineConicRelation.TANGENT, disc
    if disc > 0.0:
        return LineConicRelation.SECANT, disc
    return LineConicRelation.DISJOINT, disc
