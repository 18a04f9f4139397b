"""General conic-coefficient geometry.

A conic is stored as the six coefficients of

    A x^2 + B x y + C y^2 + D x + E y + F = 0.

Coefficients are kept at whatever scale the caller supplies; several
polynomial identities used elsewhere in the package hold only at the
defining scale, so :func:`geometry` never rescales its input (it only
flips the overall sign so that A + C > 0).  Use :meth:`Conic.normalized`
when comparing shapes across scales.  Note that the ``delta`` quantity in
:class:`EllipseGeometry` is 1-homogeneous in the coefficients (delta of
k*c equals delta of c divided by k), while center, semi-axes and
eccentricity are scale-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .errors import NotAnEllipse, NotOnConic, SingularPoint
from .quad import Isometry2, Point2, PointLike


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

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        A, B, C, D, E, _ = self
        return (2.0 * A * x + B * y + D, B * x + 2.0 * C * y + E)

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


@dataclass(frozen=True)
class EllipseCheck:
    """Result of the two-part ellipse test; truthy iff both parts pass."""

    ok: bool
    ellipse_disc: float       # 4AC - B^2
    nondegeneracy: float      # CD^2 + AE^2 - BDE - F(4AC - B^2)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class EllipseGeometry:
    center: Point2
    a: float                       # semi-major
    b: float                       # semi-minor
    eccentricity: float
    major_axis_angle: Optional[float]   # None for circles
    delta: float


@dataclass(frozen=True)
class Line2:
    """Line in slope-intercept form; ``slope is None`` marks a vertical
    line whose ``intercept`` is then the x offset."""

    slope: Optional[float]
    intercept: float

    @classmethod
    def vertical(cls, x0: float) -> "Line2":
        return cls(None, x0)

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


def is_ellipse(c: Conic) -> EllipseCheck:
    """True iff the conic is a nondegenerate real ellipse.

    Requires 4AC - B^2 > 0 (elliptic type) and a positive nondegeneracy
    quantity, both evaluated after orienting the sign so A + C > 0.
    """
    A, B, C, D, E, F = c.oriented()
    disc = 4.0 * A * C - B * B
    ndg = C * D * D + A * E * E - B * D * E - F * disc
    return EllipseCheck(disc > 0.0 and ndg > 0.0, disc, ndg)


def geometry(c: Conic) -> EllipseGeometry:
    """Center, semi-axes, eccentricity, and axis orientation of an ellipse.

    The eigenvector of the larger eigenvalue of the quadratic form
    [[A, B/2], [B/2, C]] makes the angle 1/2 atan2(B, A - C) with the x
    axis; the major axis is perpendicular to it.  The two-argument
    arctangent keeps the quadrant, so the angle is exact up to rounding
    for every orientation.  It is reported in (-pi/2, pi/2] and is None
    when the ellipse is a circle to machine precision.
    """
    check = is_ellipse(c)
    if not check:
        raise NotAnEllipse("coefficients do not describe a nondegenerate ellipse")
    A, B, C, D, E, F = c.oriented()
    disc, ndg = check.ellipse_disc, check.nondegeneracy
    delta = 4.0 * ndg / (disc * disc)
    trace = A + C
    gap = math.hypot(A - C, B)
    a_sq = delta * (trace + gap) / 2.0
    b_sq = delta * disc / (2.0 * (trace + gap))   # = delta (trace - gap) / 2, stable
    ecc = math.sqrt(2.0 * gap / (trace + gap))
    cx = (B * E - 2.0 * C * D) / disc
    cy = (B * D - 2.0 * A * E) / disc

    if gap * gap <= 1e-24 * trace * trace:
        angle = None
    else:
        angle = 0.5 * math.atan2(B, A - C) + math.pi / 2.0
        if angle > math.pi / 2.0:
            angle -= math.pi
    return EllipseGeometry(Point2(cx, cy), math.sqrt(a_sq), math.sqrt(b_sq),
                           ecc, angle, delta)


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


def tangent_slope(c: Conic, p: PointLike, *, tol: float = 1e-9) -> Optional[float]:
    """Slope of the conic at a point on it; None marks a vertical tangent.

    Raises :class:`NotOnConic` when the point misses the conic relative to
    the local term scale and :class:`SingularPoint` when both partial
    derivatives vanish.
    """
    x, y = float(p[0]), float(p[1])
    A, B, C, D, E, F = c
    value = c(x, y)
    scale = (abs(A * x * x) + abs(B * x * y) + abs(C * y * y)
             + abs(D * x) + abs(E * y) + abs(F)) or 1.0
    if abs(value) > tol * scale:
        raise NotOnConic(f"residual {value!r} exceeds {tol!r} of term scale {scale!r}")
    gx, gy = c.gradient(x, y)
    gnorm = math.hypot(gx, gy)
    gscale = (abs(2.0 * A * x) + abs(B * y) + abs(D)
              + abs(B * x) + abs(2.0 * C * y) + abs(E)) or 1.0
    if gnorm <= tol * gscale:
        raise SingularPoint("conic gradient vanishes at the point")
    if abs(gy) <= tol * gnorm:
        return None
    return -gx / gy


def line_tangency(c: Conic, line: Line2, *, tol: float = 1e-9
                  ) -> tuple[LineConicRelation, float]:
    """Classify a line against an ellipse by the substituted discriminant.

    Substituting the line into the conic leaves a quadratic in one
    variable; its discriminant is negative/zero/positive for
    disjoint/tangent/secant.  "Zero" means small relative to the squared
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
    if abs(disc) <= tol * scale:
        return LineConicRelation.TANGENT, disc
    if disc > 0.0:
        return LineConicRelation.SECANT, disc
    return LineConicRelation.DISJOINT, disc


def pullback(c: Conic, iso: Isometry2) -> Conic:
    """Coefficients of the conic pre-composed with an isometry.

    If ``c`` describes a curve in the target frame of ``iso``, the result
    describes the same curve in the source frame: the zero set of the
    returned conic is the iso-preimage of the zero set of ``c``.
    """
    ct, st = math.cos(iso.angle), math.sin(iso.angle)
    r = -1.0 if iso.reflect else 1.0
    tx, ty = iso.translation
    # columns of the linear part R(angle) F: (ct, st) and r (-st, ct)
    A, B, C = c.A, c.B, c.C
    gx, gy = c.gradient(tx, ty)
    return Conic(A * ct * ct + B * ct * st + C * st * st,
                 r * (2.0 * (C - A) * ct * st + B * (ct * ct - st * st)),
                 A * st * st - B * ct * st + C * ct * ct,
                 ct * gx + st * gy,
                 r * (ct * gy - st * gx),
                 c(tx, ty))


def pushforward(c: Conic, iso: Isometry2) -> Conic:
    """Coefficients of the image of the conic's zero set under ``iso``."""
    return pullback(c, iso.inverse())
