"""Minimal-eccentricity inscribed ellipse.

Minimizing eccentricity over the inscribed family is equivalent to
maximizing the squared axis ratio

    (b/a)^2 = (T - sqrt(G)) / (T + sqrt(G)),   T = A + C,  G = (A - C)^2 + B^2,

over the segment coordinate lam in (0, 1) of the center (``family``),
where A, B, C are quadratics in lam with no division by s - v.  The sign
of its lam-derivative is the sign of the stationarity quartic
p = 2 T' G - T G' (``family.stationarity``), which is positive at the
left end of the segment, negative at the right, and changes sign exactly
once between (the unique optimum of the paper's [H1]); the maximizer is
that root.  ``oracle.optimum`` certifies it by two exact signs of p, one
on each side.  Every quad gets that root by bracketed, safeguarded
Newton, one path whatever its class.  For a midpoint-diagonal
quadrilateral p has an explicit quadratic factor, the paper's o(h) for
type 1 and q2(h) for type 2, whose closed-form roots are test references
only: near the MDQ locus they are the root of a neighbouring quad.  The
tangential circle is the same root, where the gap of the conic vanishes.
No path searches over values of the ratio.  The conic, the center, the
semi-axes and the axis angle are then read from the model at that lam;
the package has no route from a conic's six coefficients back to its
shape.  lam* is carried; h* is ``geom.center.x``.

For midpoint-diagonal quadrilaterals the angle between the equal conjugate
diameters of the solution equals the angle between the diagonals; the
result carries both angles and their residual so callers can check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import family
from .conic import Conic, EllipseGeometry, conjugate_diameter_angle
from .errors import NotAnEllipse
from .quad import CanonicalQuad, diagonal_angle

NUMERIC = "numeric"
STEP_TOL = 1e-12        # the root search stops at a step below this, in lam


class MinEccResult(NamedTuple):
    lam_star: float         # segment coordinate of the solution's center
    conic: Conic
    geom: EllipseGeometry
    gamma: float            # angle between equal conjugate diameters
    alpha: float            # angle between the diagonals
    ratio_sq: float         # (b/a)^2 at the solution
    method: str             # NUMERIC, the one path
    iterations: int         # root-search steps
    residual: float         # |gamma - alpha|


# ---------------------------------------------------------------------------
# stationarity root
# ---------------------------------------------------------------------------


def maximize_ratio_sq(cq: CanonicalQuad, *, max_iter: int = 200) -> tuple[float, int]:
    """Maximize the squared axis ratio: the root of the stationarity quartic
    p (``family.stationarity``).

    Returns (lam, steps) with lam the root's segment coordinate (its center
    abscissa is ``family._abscissa(cq, lam)``).  p is positive left of the
    root and negative right of it, so the guarded ends of (0, 1) bracket
    it.  Safeguarded Newton: the sign of p at each iterate shrinks the
    bracket; the Newton step is taken when it stays inside and at least
    halves the step before last, else the bracket is bisected.  Stops once
    a step is below ``STEP_TOL``, in units of lam, the share of the center
    interval; after ``max_iter`` steps it logs a warning and returns the
    last iterate with ``max_iter``.
    """
    guard = family.RELATIVE_ENDPOINT_GUARD
    a, b = guard, 1.0 - guard
    p = family.stationarity(cq)
    x = 0.5
    step = step_old = b - a
    for it in range(1, max_iter + 1):
        px, dpx = p(x)
        if px > 0.0:
            a = x
        elif px < 0.0:
            b = x
        else:
            return x, it
        newton = px / dpx if dpx else math.inf
        if abs(newton) <= STEP_TOL:
            return x - newton, it
        if not a < x - newton < b or abs(2.0 * newton) > abs(step_old):
            newton = x - 0.5 * (a + b)
        step_old, step = step, newton
        x -= step
        if abs(step) <= STEP_TOL:
            return x, it
    import logging
    logging.getLogger(__name__).warning(
        "stationarity root search did not converge in %d iterations", max_iter)
    return x, max_iter


# ---------------------------------------------------------------------------
# solver front end
# ---------------------------------------------------------------------------


def solve(cq: CanonicalQuad) -> MinEccResult:
    """Minimal-eccentricity inscribed ellipse of a canonical quadrilateral.

    Every quad takes one path, whatever its class: lam*, the segment
    coordinate of the optimum, is the root of the stationarity quartic
    (:func:`maximize_ratio_sq`), and the conic, the center and the
    spectral quantities are evaluated there (``family._at``).  No
    classification and no tolerance picks the answer.  With S = trace +
    gap at the defining scale, a^2 = S / (8 (s-v)^2), b = a sqrt(ratio_sq)
    and e^2 = 2 gap / S: no cancellation of 4AC - B^2, of the determinant
    or of 1 - (b/a)^2 on thin or near-circular members.  The major-axis
    angle is 1/2 atan2(B, A - C) + pi/2 of that conic (trace > 0, so no
    sign flip).  The result carries lam*; h* is ``geom.center.x``.  Where
    that conic is a circle to machine precision, gap^2 <= 1e-24 trace^2
    (the package's one circle test), the optimum is the inscribed circle,
    reported exactly: radius the center's distance to the side on the y
    axis, its abscissa, eccentricity 0, axis angle None, axis ratio 1 and
    a conjugate-diameter angle of 2 atan(1) = pi/2.
    Raises :class:`NotAnEllipse` unless trace > 0 and cubic > 0, the
    model's certificate of a real ellipse.
    """
    lam, iterations = maximize_ratio_sq(cq)
    conic, center, trace, gap_sq, ratio_sq, cubic = family._at(cq, lam)
    if not (trace > 0.0 and cubic > 0.0):     # 4AC - B^2 = 16 u (s-v)^2 cubic
        raise NotAnEllipse("the optimal member is not a nondegenerate ellipse")
    if gap_sq <= 1e-24 * trace * trace:       # a circle to machine precision
        geom = EllipseGeometry(center, center.x, center.x, 0.0, None)
        ratio_sq = 1.0
    else:       # gap > 1e-12 trace, so ratio_sq < 1 - 2e-12
        # the eigenvector of the larger eigenvalue of [[A, B/2], [B/2, C]]
        # is at 1/2 atan2(B, A - C), the major axis perpendicular to it;
        # atan2 keeps the quadrant, so the angle is exact up to rounding
        angle = 0.5 * math.atan2(conic.B, conic.A - conic.C) + math.pi / 2.0
        if angle > math.pi / 2.0:
            angle -= math.pi                    # into (-pi/2, pi/2]
        gap = math.sqrt(gap_sq)
        a = math.sqrt((trace + gap) / (8.0 * (cq.s - cq.v) * (cq.s - cq.v)))
        geom = EllipseGeometry(center, a, a * math.sqrt(ratio_sq),
                               math.sqrt(2.0 * gap / (trace + gap)), angle)
    gamma = conjugate_diameter_angle(geom)
    alpha = diagonal_angle(cq)
    return MinEccResult(lam, conic, geom, gamma, alpha, ratio_sq,
                        NUMERIC, iterations, abs(gamma - alpha))
