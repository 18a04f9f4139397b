"""Minimal-eccentricity inscribed ellipse.

Minimizing eccentricity over the inscribed family is equivalent to
maximizing the squared axis ratio

    (b/a)^2 = (T - sqrt(G)) / (T + sqrt(G)),   T = A + C,  G = (A - C)^2 + B^2,

over the center abscissa h, where A, B, C are quadratics in h.  The sign
of its h-derivative is the sign of the stationarity quartic
p = 2 T' G - T G', which is positive at the left end of the center
interval, negative at the right, and changes sign exactly once between;
the maximizer is that root.  For a type-1 midpoint-diagonal quadrilateral
the root is the paper's closed form (the root of an explicit quadratic
that divides p), type-2 quads are relabeled to type 1 when a valid
relabeling exists, and every other quad gets the root of p by bracketed,
safeguarded Newton.  No path searches over values of the ratio.

For midpoint-diagonal quadrilaterals the angle between the equal conjugate
diameters of the solution equals the angle between the diagonals; the
result carries both angles and their residual so callers can check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import family
from .conic import Conic, EllipseGeometry, conjugate_diameter_angle, geometry, pullback
from .errors import NotType1
from .quad import (CanonicalQuad, Point2, QuadKind, classify, diagonal_angle,
                   diagonal_swapped_labelings)

log = logging.getLogger(__name__)

CLOSED_FORM = "closed_form_type1"
NUMERIC = "numeric"


@dataclass(frozen=True)
class CenterQuadratic:
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


@dataclass(frozen=True)
class MinEccResult:
    h_star: float
    conic: Conic
    geom: EllipseGeometry
    gamma: float            # angle between equal conjugate diameters
    alpha: float            # angle between the diagonals
    ratio_sq: float         # (b/a)^2 at the solution
    method: str             # CLOSED_FORM or NUMERIC
    iterations: int         # root-search steps (0 for the closed form)
    residual: float         # |gamma - alpha|


def center_quadratic(cq: CanonicalQuad) -> CenterQuadratic:
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    st2 = s * s + t * t
    k = st2 * v * v - 2.0 * w * s * (v * t - w * s)
    p1 = v * v * st2 - 4.0 * w * s * (v * t - w * s)
    return CenterQuadratic(-2.0 * st2 * (s - v), -2.0 * k, s * k, k, p1)


def _require_type1(cq: CanonicalQuad, tol: float) -> None:
    if classify(cq, tol=tol).kind is not QuadKind.MDQ_TYPE1:
        raise NotType1("closed form requires a type-1 midpoint-diagonal quadrilateral")


def _closed_form_root(cq: CanonicalQuad) -> float:
    s, t, v = cq.s, cq.t, cq.v
    st2 = s * s + t * t
    sv = s - v
    k = center_quadratic(cq).k
    rk = math.sqrt(k)
    return rk * (-rk + math.sqrt(2.0 * st2 * s * sv + k)) / (2.0 * st2 * sv)


def closed_form_h(cq: CanonicalQuad, *, tol: float = 1e-9) -> float:
    """Exact maximizing abscissa for a type-1 midpoint-diagonal quad."""
    _require_type1(cq, tol)
    return _closed_form_root(cq)


def ratio_sq_closed_form(cq: CanonicalQuad, *, tol: float = 1e-9) -> float:
    """Closed-form maximal squared axis ratio for a type-1 MDQ."""
    _require_type1(cq, tol)
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    st2 = s * s + t * t
    p1 = center_quadratic(cq).p1
    major = math.sqrt(st2) * math.sqrt(p1)
    minor = abs(2.0 * w * s * t - (t * t - s * s) * v)
    return (major - minor) / (major + minor)


# ---------------------------------------------------------------------------
# stationarity root
# ---------------------------------------------------------------------------


def stationarity(cq: CanonicalQuad) -> Callable[[float], tuple[float, float]]:
    """Callable h -> (p(h), p'(h)) for the stationarity quartic
    p = 2 T' G - T G'.

    p has the sign of d(b/a)^2/dh without dividing by the eigenvalue gap,
    so a circular member (a double root of G) is a simple root of p.  A
    and B are expanded in e = h - s/2, where each coefficient is a product
    of pose parameters and powers of s - v; in h-monomials
    (``family._abc_quadratics``) they are O(1) terms summing to
    O((s - v)^2), which buries the root of p in rounding noise on
    near-trapezoids.  An exact power-of-two scale keeps p in range.
    """
    s, t, u, v, w = cq.params
    sv = s - v
    k = u + w - t
    c2 = 4.0 * sv * sv
    scale = math.ldexp(1.0, -math.frexp(c2)[1])
    a2, a1, a0, b2, b1, b0, c2 = (scale * x for x in (
        4.0 * k * k, 4.0 * sv * (2.0 * w * u - t * k), (sv * t) ** 2,
        8.0 * sv * k, 4.0 * sv * (s * (u + w) - 2.0 * s * t + v * t - 2.0 * u * v),
        -2.0 * s * t * sv * sv, c2))
    half_s = s / 2.0
    tpp = 2.0 * (a2 + c2)         # T''
    dpp = 2.0 * (a2 - c2)         # (A - C)''

    def p(h: float) -> tuple[float, float]:
        e = h - half_s
        a = (a2 * e + a1) * e + a0
        b = (b2 * e + b1) * e + b0
        c = c2 * h * h
        ap = 2.0 * a2 * e + a1
        bp = 2.0 * b2 * e + b1
        cp = 2.0 * c2 * h
        d, dp = a - c, ap - cp
        t, tp = a + c, ap + cp
        g = d * d + b * b
        gp = 2.0 * (d * dp + b * bp)
        gpp = 2.0 * (dp * dp + d * dpp + bp * bp + 2.0 * b * b2)
        return 2.0 * tp * g - t * gp, 2.0 * tpp * g + tp * gp - t * gpp

    return p


def maximize_ratio_sq(cq: CanonicalQuad, *, tol: float = 1e-12,
                      max_iter: int = 200) -> tuple[float, int]:
    """Maximize the squared axis ratio: the root of the stationarity quartic.

    p is positive left of the root and negative right of it, so the guarded
    ends of the center interval bracket it.  Safeguarded Newton: the sign
    of p at each iterate shrinks the bracket; the Newton step is taken when
    it stays inside and at least halves the step before last, else the
    bracket is bisected.  Returns (h, steps) once a step is below ``tol``
    of the width; after ``max_iter`` steps it logs a warning and returns
    the last iterate with ``max_iter``.  Never uses the closed form.
    """
    lo, hi = cq.interval
    width = hi - lo
    guard = family.RELATIVE_ENDPOINT_GUARD * width
    a, b = lo + guard, hi - guard
    p = stationarity(cq)
    x = 0.5 * (a + b)
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
        if abs(newton) <= tol * width:
            return x - newton, it
        if not a < x - newton < b or abs(2.0 * newton) > abs(step_old):
            newton = x - 0.5 * (a + b)
        step_old, step = step, newton
        x -= step
        if abs(step) <= tol * width:
            return x, it
    log.warning("stationarity root search did not converge in %d iterations", max_iter)
    return x, max_iter


# ---------------------------------------------------------------------------
# solver front end
# ---------------------------------------------------------------------------


def _type1_relabeling(cq: CanonicalQuad, tol: float) -> Optional[CanonicalQuad]:
    """A relabeling of a type-2 quad that makes its MDQ diagonal D1, if any."""
    return next((alt for alt in diagonal_swapped_labelings(cq)
                 if classify(alt, tol=tol).kind is QuadKind.MDQ_TYPE1), None)


def solve(cq: CanonicalQuad, *, tol: float = 1e-9) -> MinEccResult:
    """Minimal-eccentricity inscribed ellipse of a canonical quadrilateral.

    The quad is classified once.  Type-1 midpoint-diagonal quads are solved
    in closed form; type-2 quads are relabeled to type 1 when a valid
    relabeling exists and the solution is mapped back; everything else is
    the root of the stationarity quartic (:func:`maximize_ratio_sq`).  The
    reported center is (h*, y(h*)) on the segment of admissible centers.
    Tangential midpoint-diagonal quads are the inscribed circle exactly,
    reported with eccentricity 0 and a conjugate-diameter angle of pi/2.
    """
    qc = classify(cq, tol=tol)
    frame: Optional[CanonicalQuad] = cq       # the quad whose family is solved
    if qc.kind is QuadKind.MDQ_TYPE2:
        frame = _type1_relabeling(cq, tol)
    if qc.kind is QuadKind.GENERAL or frame is None:
        frame, method = cq, NUMERIC
        h, iterations = maximize_ratio_sq(cq)
    else:
        method, iterations = CLOSED_FORM, 0
        h = _closed_form_root(frame)

    conic = family.coefficients(frame, h)
    center = Point2(h, family.center_y(frame, h))
    # family.spectral's ratio, taken from the conic in hand
    trace = conic.A + conic.C
    gap = math.hypot(conic.A - conic.C, conic.B)
    ratio_sq = (trace - gap) / (trace + gap)
    if frame is not cq:
        # the relabeled quad's raw frame is the canonical frame of cq
        conic = pullback(conic, frame.iso)
        center = frame.iso.inverse().apply(center)
        h = center.x
    geom = replace(geometry(conic), center=center)

    if qc.tangential and qc.kind is not QuadKind.GENERAL:
        # Tangential MDQ: the optimum is the inscribed circle.  Report the
        # exact circle (the computed conic is that circle up to roundoff);
        # the center's distance to the side on the y axis is its abscissa.
        geom = EllipseGeometry(center, h, h, 0.0, None, geom.delta)
        gamma = math.pi / 2.0
    else:
        gamma = conjugate_diameter_angle(geom)
    alpha = diagonal_angle(cq)
    return MinEccResult(h, conic, geom, gamma, alpha, ratio_sq,
                        method, iterations, abs(gamma - alpha))
