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
on each side.  For a midpoint-diagonal quadrilateral p has an explicit
quadratic factor, the paper's o(h) for type 1 and q2(h) for type 2, and
the root is its closed form in lam in the quad's own frame; every other
quad gets the root of p by bracketed, safeguarded Newton.  No path
searches over values of the ratio.  The conic, the center, the semi-axes
and the axis angle are then read from the model at that lam; the package
has no route from a conic's six coefficients back to its shape.  The
center abscissa h* is reported, never converted back.

For midpoint-diagonal quadrilaterals the angle between the equal conjugate
diameters of the solution equals the angle between the diagonals; the
result carries both angles and their residual so callers can check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import family
from .conic import (Conic, EllipseGeometry, _major_axis_angle,
                    conjugate_diameter_angle)
from .errors import NotAnEllipse
from .quad import (CanonicalQuad, QuadClass, QuadKind, classify,
                   diagonal_angle)

CLOSED_FORM = "closed_form_type1"
NUMERIC = "numeric"


class CenterQuadratic(NamedTuple):
    """Quadratic in the center abscissa whose root inside the center
    interval locates the minimal-eccentricity member (type-1 case).

    o(h) = c2 h^2 + c1 h + c0 with c2 = -2(s^2+t^2)(s-v), c1 = -2k,
    c0 = s k.  k and p1 are always positive, and o changes sign across the
    interval, so the bracketed root exists and is unique.
    """

    c2: float
    c1: float
    c0: float
    k: float
    p1: float

    def __call__(self, h: float) -> float:
        return (self.c2 * h + self.c1) * h + self.c0


class MinEccResult(NamedTuple):
    h_star: float
    conic: Conic
    geom: EllipseGeometry
    gamma: float            # angle between equal conjugate diameters
    alpha: float            # angle between the diagonals
    ratio_sq: float         # (b/a)^2 at the solution
    method: str             # CLOSED_FORM or NUMERIC
    iterations: int         # root-search steps (0 for the closed form)
    residual: float         # |gamma - alpha|
    qclass: QuadClass       # classification of the solved quad, which picked the path


def center_quadratic(cq: CanonicalQuad) -> CenterQuadratic:
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    st2 = s * s + t * t
    vs, ws, vtws = v * s, w * s, v * t - w * s
    k = vs * vs + vtws * vtws + ws * ws             # (s^2+t^2) v^2 - 2ws(vt - ws)
    p1 = vs * vs + (vtws - ws) ** 2                 # (s^2+t^2) v^2 - 4ws(vt - ws)
    return CenterQuadratic(-2.0 * st2 * (s - v), -2.0 * k, s * k, k, p1)


def _type1_root(cq: CanonicalQuad) -> float:
    """Segment coordinate of the type-1 optimum, the root of o(h) in the
    interval:

        lam = 2 s p1 / (((2s - v) sqrt(k) + v sqrt(K)) (sqrt(k) + sqrt(K)))

    with K = k + 2(s^2+t^2) s (s-v).  k and p1 are sums of squares
    (:func:`center_quadratic`); k K is the quarter discriminant of o,
    positive because o has opposite signs at the ends of the interval, so
    K > 0 too.  2s - v > 0 because D1 bisects D2 at abscissa v/2 inside
    (0, s).  So the denominator is positive termwise: the form takes no
    difference of the two roots and no division by s - v.
    """
    s, t, v = cq.s, cq.t, cq.v
    o = center_quadratic(cq)
    rk = math.sqrt(o.k)
    rbig = math.sqrt(o.k + 2.0 * (s * s + t * t) * s * (s - v))
    return 2.0 * s * o.p1 / (((2.0 * s - v) * rk + v * rbig) * (rk + rbig))


def _type2_root(cq: CanonicalQuad) -> float:
    """Segment coordinate of the type-2 optimum, u = (vt - ws)/(2v - s).

    There p has the factor q2(h) = 2(s-v) M h^2 - 2 K2 h + v K2 with
    M = (s-2v)^2 + (t-2w)^2 and 2 K2 = s^2 M + (s^2+t^2)(s-2v)^2.  Its
    root in the interval is

        lam = 4 v^2 M / (sqrt(2 K2) + |s - 2v| sqrt(M + s^2 + t^2))^2.

    M > 0 because 2v > s on the locus (u > 0), so both radicands and the
    denominator are sums of squares with a positive term: the root takes
    no difference.
    """
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    d = s - 2.0 * v
    st2 = s * s + t * t
    m = d * d + (t - 2.0 * w) ** 2
    den = math.sqrt(s * s * m + st2 * d * d) + abs(d) * math.sqrt(m + st2)
    return 4.0 * v * v * m / (den * den)


# ---------------------------------------------------------------------------
# stationarity root
# ---------------------------------------------------------------------------


def maximize_ratio_sq(cq: CanonicalQuad, *, tol: float = 1e-12,
                      max_iter: int = 200) -> tuple[float, int]:
    """Maximize the squared axis ratio: the root of the stationarity quartic
    p (``family.stationarity``).  Never uses the closed form.

    Returns (lam, steps) with lam the root's segment coordinate (its center
    abscissa is ``family._abscissa(cq, lam)``).  p is positive left of the
    root and negative right of it, so the guarded ends of (0, 1) bracket
    it.  Safeguarded Newton: the sign of p at each iterate shrinks the
    bracket; the Newton step is taken when it stays inside and at least
    halves the step before last, else the bracket is bisected.  Stops once
    a step is below ``tol``, in units of lam, the share of the center
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
        if abs(newton) <= tol:
            return x - newton, it
        if not a < x - newton < b or abs(2.0 * newton) > abs(step_old):
            newton = x - 0.5 * (a + b)
        step_old, step = step, newton
        x -= step
        if abs(step) <= tol:
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

    The quad is classified once, at ``quad.DEFAULT_TOL``; the result
    carries that classification.  Midpoint-diagonal quads of either type
    are solved in closed form in their own canonical frame; everything
    else is the root of the stationarity quartic (:func:`maximize_ratio_sq`).
    Both give the segment coordinate lam* of the optimum, at which the
    conic, the center and the spectral quantities are evaluated
    (``family._at``).  With S = trace + gap at the defining scale,
    a^2 = S / (8 (s-v)^2), b = a sqrt(ratio_sq) and e^2 = 2 gap / S: no
    cancellation of 4AC - B^2, of the determinant or of 1 - (b/a)^2 on
    thin or near-circular members.  The major-axis angle is
    1/2 atan2(B, A - C) + pi/2 of that conic (``conic._major_axis_angle``;
    trace > 0, so no sign flip).  h* is the center's abscissa.
    Tangential midpoint-diagonal quads are the inscribed circle exactly,
    reported with eccentricity 0 and a conjugate-diameter angle of pi/2.
    Raises :class:`NotAnEllipse` unless trace > 0 and cubic > 0, the
    model's certificate of a real ellipse.
    """
    qc = classify(cq)
    if qc.kind is QuadKind.GENERAL:
        method = NUMERIC
        lam, iterations = maximize_ratio_sq(cq)
    else:
        method, iterations = CLOSED_FORM, 0
        lam = _type1_root(cq) if qc.kind is QuadKind.MDQ_TYPE1 else _type2_root(cq)

    conic, center, sp = family._at(cq, lam)
    if not (sp.trace > 0.0 and sp.cubic > 0.0):     # 4AC - B^2 = 16 u (s-v)^2 cubic
        raise NotAnEllipse("the optimal member is not a nondegenerate ellipse")
    gap = math.sqrt(sp.gap_sq)
    a = math.sqrt((sp.trace + gap) / (8.0 * (cq.s - cq.v) ** 2))
    ratio_sq = min(sp.ratio_sq, 1.0)        # above 1 only by roundoff, on a circle

    if qc.tangential and qc.kind is not QuadKind.GENERAL:
        # Tangential MDQ: the optimum is the inscribed circle.  Report the
        # exact circle (the computed conic is that circle up to roundoff);
        # the center's distance to the side on the y axis is its abscissa.
        geom = EllipseGeometry(center, center.x, center.x, 0.0, None)
        gamma = math.pi / 2.0
    else:
        geom = EllipseGeometry(center, a, a * math.sqrt(ratio_sq),
                               math.sqrt(2.0 * gap / (sp.trace + gap)),
                               _major_axis_angle(conic, sp.trace, sp.gap_sq))
        gamma = conjugate_diameter_angle(geom)
    alpha = diagonal_angle(cq)
    return MinEccResult(center.x, conic, geom, gamma, alpha, ratio_sq,
                        method, iterations, abs(gamma - alpha), qc)
