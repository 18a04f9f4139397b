"""The one-parameter family of ellipses inscribed in a canonical quad.

For each abscissa h in the open interval between the diagonal-midpoint
x-coordinates there is exactly one inscribed ellipse, centered at
(h, L(h)) on the segment joining the diagonal midpoints.  This module
evaluates its coefficients, its four tangency points, and the spectral
quantities of its quadratic form:

    trace    = A + C                  (> 0 on the interval)
    gap_sq   = (A - C)^2 + B^2        (squared eigenvalue gap)
    ratio_sq = (trace - gap) / (trace + gap) = (b/a)^2
             = 16 u (s-v)^2 cubic / (trace + gap)^2
    cubic    = (s - 2h)(2h - v) l5(h) (> 0 on the interval; certifies
                                       the conic is a real ellipse)

Coefficients are returned unnormalized, exactly as defined, because the
polynomial identities among them (for example trace^2 - gap_sq =
16 u (s-v)^2 cubic) hold only at the defining scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .conic import Conic
from .errors import CircularPoint, HOutOfRange
from .quad import CanonicalQuad, Point2

RELATIVE_ENDPOINT_GUARD = 1e-12
# ratio gap/trace below which a family member counts as circular and the
# analytic derivative of ratio_sq degenerates
CIRCULAR_GAP_RATIO = 1e-12


class SideLinears(NamedTuple):
    """Linear functions of h gating tangency-point denominators and signs.

    (s - v) * l1..l3 > 0 and l4, l5 > 0 everywhere on the center interval.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    l5: float


class Spectral(NamedTuple):
    trace: float
    gap_sq: float
    ratio_sq: float
    cubic: float


class SpectralDerivatives(NamedTuple):
    trace: float
    gap_sq: float
    trace_prime: float
    gap_sq_prime: float


class TangentPoint(NamedTuple):
    zeta: Point2
    lam: float


@dataclass(frozen=True)
class FamilyPoint:
    """One member of the inscribed family at center abscissa h."""

    h: float
    conic: Conic
    tangency: tuple[TangentPoint, TangentPoint, TangentPoint, TangentPoint]
    trace: float
    gap_sq: float
    ratio_sq: float
    cubic: float


def _require_h(cq: CanonicalQuad, h: float) -> None:
    lo, hi = cq.interval
    guard = RELATIVE_ENDPOINT_GUARD * (hi - lo)
    if not (lo + guard <= h <= hi - guard):
        raise HOutOfRange(f"h={h!r} outside the open center interval ({lo!r}, {hi!r})")


def center_y(cq: CanonicalQuad, h: float) -> float:
    """Ordinate of the family center at abscissa h (on the midpoint line)."""
    return cq.t / 2.0 + (cq.w + cq.u - cq.t) / (cq.v - cq.s) * (h - cq.s / 2.0)


def side_linears(cq: CanonicalQuad, h: float) -> SideLinears:
    s, t, u, v, w = cq.params
    return SideLinears(
        2.0 * (v * (t - u) - w * s) * h + v * (s * (u + w) - v * t),
        2.0 * (v * (u - t) + w * s) * h + s * (v * (t - 2.0 * u) + s * (u - w)),
        (v * (t - u) + (u - w) * s) * (s - 2.0 * h),
        -2.0 * u * h + v * t + s * (u - w),
        2.0 * (v * (t - u) - w * s) * h + u * v * s,
    )


def coefficients(cq: CanonicalQuad, h: float) -> Conic:
    """Unnormalized conic coefficients of the family member at h."""
    _require_h(cq, h)
    s, t, u, v, w = cq.params
    sv = s - v
    ly = center_y(cq, h)
    a = 4.0 * sv * sv * (ly * ly + w * u * (2.0 * h - s) / sv)
    b = 4.0 * sv * (2.0 * (u + w - t) * h * h
                    + (v * (t - 2.0 * u) - s * (u + w)) * h
                    + u * v * s)
    c = 4.0 * sv * sv * h * h
    d = 2.0 * u * (2.0 * h - s) * (2.0 * (v * (w + t - u) - 2.0 * w * s) * h
                                   + v * (s * (u + w) - v * t))
    e = 4.0 * u * v * sv * h * (2.0 * h - s)
    f = u * u * v * v * (2.0 * h - s) ** 2
    return Conic(a, b, c, d, e, f)


def tangency_points(cq: CanonicalQuad, h: float) -> list[TangentPoint]:
    """Tangency points with sides S1..S4, with their barycentric parameters.

    Each point divides its side as lam * far_end + (1 - lam) * near_end
    with lam strictly inside (0, 1) for h strictly inside the interval.
    """
    _require_h(cq, h)
    s, t, u, v, w = cq.params
    lin = side_linears(cq, h)
    lam1 = (s - 2.0 * h) * u * v / lin.l1
    lam2 = (s - 2.0 * h) * v / (2.0 * h * (s - v))
    lam3 = (2.0 * h - v) * s * u / lin.l2
    lam4 = lin.l3 / ((s - v) * lin.l4)
    return [
        TangentPoint(Point2(lam1 * v, lam1 * w), lam1),
        TangentPoint(Point2(0.0, lam2 * u), lam2),
        TangentPoint(Point2(lam3 * s, lam3 * t + (1.0 - lam3) * u), lam3),
        TangentPoint(Point2(lam4 * v + (1.0 - lam4) * s,
                            lam4 * w + (1.0 - lam4) * t), lam4),
    ]


def _abc_quadratics(cq: CanonicalQuad):
    """Exact quadratic h-coefficients of the three second-degree terms."""
    s, t, u, v, w = cq.params
    sv = s - v
    lc1 = (w + u - t) / (v - s)       # slope of the center line
    lc0 = t / 2.0 - lc1 * s / 2.0
    a2 = 4.0 * sv * sv * lc1 * lc1
    a1 = 8.0 * sv * sv * lc1 * lc0 + 8.0 * sv * w * u
    a0 = 4.0 * sv * sv * lc0 * lc0 - 4.0 * sv * w * u * s
    b2 = 8.0 * sv * (u + w - t)
    b1 = 4.0 * sv * (v * (t - 2.0 * u) - s * (u + w))
    b0 = 4.0 * sv * u * v * s
    c2 = 4.0 * sv * sv
    return (a2, a1, a0), (b2, b1, b0), c2


def spectral(cq: CanonicalQuad, h: float, *, conic: Optional[Conic] = None) -> Spectral:
    """Spectral quantities of the family member at h (``conic``: its
    coefficients, if at hand), the ratio in the product form."""
    c = coefficients(cq, h) if conic is None else conic
    s, t, u, v, w = cq.params
    trace = c.A + c.C
    gap = math.hypot(c.A - c.C, c.B)
    cubic = (s - 2.0 * h) * (2.0 * h - v) * (2.0 * (v * (t - u) - w * s) * h + u * v * s)
    return Spectral(trace, gap * gap, 16.0 * u * (s - v) ** 2 * cubic / (trace + gap) ** 2, cubic)


def spectral_derivatives(cq: CanonicalQuad, h: float) -> SpectralDerivatives:
    """trace, gap_sq, and their exact polynomial h-derivatives.

    The three second-degree coefficients are quadratics in h, so the
    derivatives are evaluated from explicit polynomial coefficients rather
    than numerically.
    """
    _require_h(cq, h)
    (a2, a1, a0), (b2, b1, b0), c2 = _abc_quadratics(cq)
    a = (a2 * h + a1) * h + a0
    b = (b2 * h + b1) * h + b0
    c = c2 * h * h
    ap = 2.0 * a2 * h + a1
    bp = 2.0 * b2 * h + b1
    cp = 2.0 * c2 * h
    trace = a + c
    gap_sq = (a - c) ** 2 + b * b
    return SpectralDerivatives(trace, gap_sq, ap + cp,
                               2.0 * (a - c) * (ap - cp) + 2.0 * b * bp)


def ratio_sq_prime(cq: CanonicalQuad, h: float) -> float:
    """Analytic derivative of the squared axis ratio at h.

    Raises :class:`CircularPoint` when the family member is circular to
    machine precision (the formula divides by the eigenvalue gap); callers
    should fall back to finite differences there.
    """
    d = spectral_derivatives(cq, h)
    if d.gap_sq <= (CIRCULAR_GAP_RATIO * d.trace) ** 2:
        raise CircularPoint("family member is circular at this abscissa")
    gap = math.sqrt(d.gap_sq)
    p = 2.0 * d.trace_prime * d.gap_sq - d.trace * d.gap_sq_prime
    return p / (gap * (d.trace + gap) ** 2)


def ratio_sq_function(cq: CanonicalQuad) -> Callable:
    """Fast callable h -> squared axis ratio (b/a)^2 of the member at h.

    Evaluated as 16 u (s-v)^2 cubic / (trace + gap)^2: the identity
    trace^2 - gap_sq = 16 u (s-v)^2 cubic turns (trace - gap) / (trace + gap)
    into a quotient of products, so a thin member ((b/a)^2 near 0) keeps
    full relative precision instead of the cancellation of trace - gap.
    Accepts scalars or numpy arrays, needs no numpy import, and performs no
    interval validation; callers control the evaluation range.
    """
    (a2, a1, a0), (b2, b1, b0), c2 = _abc_quadratics(cq)
    s, t, u, v, w = cq.params
    k = 16.0 * u * (s - v) ** 2
    l1, l0 = 2.0 * (v * (t - u) - w * s), u * v * s        # l5 = l1 h + l0

    def ratio_sq(h):
        a = (a2 * h + a1) * h + a0
        b = (b2 * h + b1) * h + b0
        c = c2 * h * h
        # augmented assignments reuse the arrays of a long sweep (scalars
        # just rebind), so the product form costs no more than the quotient
        den = a - c
        den *= den
        den += b * b
        den **= 0.5               # gap
        den += a + c
        den *= den                # (trace + gap)^2
        num = (s - 2.0 * h) * (2.0 * h - v)
        num *= l1 * h + l0
        num *= k                  # 16 u (s-v)^2 cubic
        num /= den
        return num

    return ratio_sq


def family_point(cq: CanonicalQuad, h: float) -> FamilyPoint:
    """Assemble the full record of the family member at h."""
    conic = coefficients(cq, h)
    sp = spectral(cq, h, conic=conic)
    tang = tuple(tangency_points(cq, h))
    return FamilyPoint(h, conic, tang, *sp)
