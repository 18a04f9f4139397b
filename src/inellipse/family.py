"""The one-parameter family of ellipses inscribed in a canonical quad.

The centers of the inscribed ellipses fill the open segment from the
diagonal midpoint M1 = (v/2, (u+w)/2) to M2 = (s/2, t/2).  The member
centered at M1 + lam (M2 - M1), lam in (0, 1), is (s-v)^2 times a conic
whose coefficients are quadratics in lam with no division (``_model``);
with mu = 1 - lam,

    A = (u-w)^2 mu^2 + 2 (t(u+w) - 2uw) lam mu + t^2 lam^2
    B = 2v(u-w) mu^2 + 2 (2uv - s(u+w) - tv) lam mu - 2st lam^2
    C = (v mu + s lam)^2            D = 2u mu (v(w-u) mu + (2sw - tv) lam)
    E = -2uv mu (v mu + s lam)      F = (uv mu)^2

At lam = 0 and 1 the member closes down to the doubled diagonals D2 and
D1.  The public API takes the center abscissa h = (v + (s-v) lam) / 2 and
evaluates the coefficients, the four tangency points, and the spectral
quantities of the quadratic form:

    trace    = A + C                  (> 0 on the interval)
    gap_sq   = (A - C)^2 + B^2        (squared eigenvalue gap)
    ratio_sq = (trace - gap) / (trace + gap) = (b/a)^2
             = 16 u (s-v)^2 cubic / (trace + gap)^2
    cubic    = (s - 2h)(2h - v) l5(h) (> 0 on the interval; certifies
                                       the conic is a real ellipse)

Coefficients are returned unnormalized, at the defining scale, because
the polynomial identities among them (for example trace^2 - gap_sq =
16 u (s-v)^2 cubic) hold only there.  The solver stays in lam:
``stationarity`` is the quartic whose root is the optimum, and ``_at``
the member, its center and its spectral quantities at a given lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .conic import Conic
from .errors import HOutOfRange
from .quad import CanonicalQuad, Point2

RELATIVE_ENDPOINT_GUARD = 1e-12


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


def side_linears(cq: CanonicalQuad, h: float) -> SideLinears:
    s, t, u, v, w = cq.params
    return SideLinears(
        2.0 * (v * (t - u) - w * s) * h + v * (s * (u + w) - v * t),
        2.0 * (v * (u - t) + w * s) * h + s * (v * (t - 2.0 * u) + s * (u - w)),
        (v * (t - u) + (u - w) * s) * (s - 2.0 * h),
        -2.0 * u * h + v * t + s * (u - w),
        2.0 * (v * (t - u) - w * s) * h + u * v * s,
    )


def _model(cq: CanonicalQuad) -> tuple:
    """The family over (s-v)^2: the Bernstein triples (b0, b1, b2) of its
    quadratics b0 mu^2 + 2 b1 lam mu + b2 lam^2, in the order A..F."""
    s, t, u, v, w = cq.params
    return (((u - w) ** 2, t * (u + w) - 2.0 * u * w, t * t),
            (2.0 * v * (u - w), 2.0 * u * v - s * (u + w) - t * v, -2.0 * s * t),
            (v * v, v * s, s * s),
            (2.0 * u * v * (w - u), u * (2.0 * s * w - t * v), 0.0),
            (-2.0 * u * v * v, -u * v * s, 0.0),
            ((u * v) ** 2, 0.0, 0.0))


def _member(cq: CanonicalQuad, lam: float, scale: float = 1.0) -> Conic:
    """The model at segment coordinate lam, times ``scale``: the member
    over (s-v)^2, or at the defining scale for scale = (s-v)^2."""
    mu = 1.0 - lam
    m2, lm, l2 = scale * mu * mu, 2.0 * scale * lam * mu, scale * lam * lam
    return Conic._make([b0 * m2 + b1 * lm + b2 * l2 for b0, b1, b2 in _model(cq)])


def _l5(cq: CanonicalQuad, lam):
    """l5, the linear factor of ``cubic``, at segment coordinate lam: the
    convex combination of its end values, both positive by (R1)."""
    s, t, u, v, w = cq.params
    return (1.0 - lam) * (v * (v * (t - u) + (u - w) * s)) + lam * (s * (v * t - w * s))


def _spectral(cq: CanonicalQuad, lam: float, m: Conic, scale: float) -> Spectral:
    """Spectral quantities of m, the model at lam times ``scale``, with
    cubic = scale lam (1-lam) l5 = (s-2h)(2h-v) l5 for scale = (s-v)^2."""
    trace, gap = m.A + m.C, math.hypot(m.A - m.C, m.B)
    cubic = scale * lam * (1.0 - lam) * _l5(cq, lam)
    return Spectral(trace, gap * gap, 16.0 * cq.u * scale * cubic / (trace + gap) ** 2, cubic)


def _abscissa(cq: CanonicalQuad, lam: float) -> float:
    """Center abscissa h of the member at segment coordinate lam."""
    return (cq.v + (cq.s - cq.v) * lam) / 2.0


def _at(cq: CanonicalQuad, lam: float) -> tuple[Conic, Point2, Spectral]:
    """The member at segment coordinate lam: its conic at the defining
    scale, its center M1 + lam (M2 - M1) and its spectral quantities."""
    s, t, u, v, w = cq.params
    sv2 = (s - v) ** 2
    conic = _member(cq, lam, sv2)
    center = Point2(_abscissa(cq, lam), (u + w + (t - u - w) * lam) / 2.0)
    return conic, center, _spectral(cq, lam, conic, sv2)


def _spectral_quadratics(cq: CanonicalQuad):
    """Monomial lam-coefficients (c2, c1, c0) of trace = A + C, A - C and B
    of the model."""
    (a0, a1, a2), b, (c0, c1, c2) = _model(cq)[:3]
    return [(x0 - 2.0 * x1 + x2, 2.0 * (x1 - x0), x0)
            for x0, x1, x2 in ((a0 + c0, a1 + c1, a2 + c2), (a0 - c0, a1 - c1, a2 - c2), b)]


def _segment_coordinate(cq: CanonicalQuad, h):
    """lam = (2h - v) / (s - v), rounded the same way for a scalar h and
    for each entry of an array h."""
    return (2.0 * h - cq.v) / (cq.s - cq.v)


def _horner(q, x):
    """The quadratic with monomial coefficients q at x."""
    c2, c1, c0 = q
    return (c2 * x + c1) * x + c0


def _unit(cq: CanonicalQuad) -> float:
    """The power of two nearest below 1/(s^2 + t^2): the model times it
    keeps the stationarity quartic, of degree six in the pose, in range."""
    return math.ldexp(1.0, -math.frexp(cq.s * cq.s + cq.t * cq.t)[1])


def stationarity(cq: CanonicalQuad) -> Callable[[float], tuple[float, float]]:
    """Callable lam -> (p, p') for the stationarity quartic of the model
    times ``_unit``, p = 2 T' G - T G' (T = trace, G = gap_sq, ' = d/dlam).

    p has the sign of d(b/a)^2/dlam without dividing by the eigenvalue gap,
    so a circular member (a double root of G) is a simple root of p.  As
    G = T^2 - 16 K, K = u lam (1-lam) l5, p = 16 (T K' - 2 T' K): no terms
    of size T^3 T' that cancel down to T K' on thin members.
    """
    scale = _unit(cq)
    t2, t1, t0 = [scale * x for x in _spectral_quadratics(cq)[0]]
    e0, e1 = [16.0 * cq.u * scale * scale * _l5(cq, x) for x in (0.0, 1.0)]
    slope = e1 - e0

    def p(lam: float) -> tuple[float, float]:
        mu = 1.0 - lam
        t = (t2 * lam + t1) * lam + t0
        tp = 2.0 * t2 * lam + t1
        l5 = e0 * mu + e1 * lam                   # 16 u l5, times scale^2
        k = lam * mu * l5                         # 16 K
        kp = (mu - lam) * l5 + lam * mu * slope
        kpp = 2.0 * ((mu - lam) * slope - l5)
        return t * kp - 2.0 * tp * k, t * kpp - tp * kp - 4.0 * t2 * k

    return p


def coefficients(cq: CanonicalQuad, h: float) -> Conic:
    """Unnormalized conic coefficients of the family member at h."""
    _require_h(cq, h)
    return _member(cq, _segment_coordinate(cq, h), (cq.s - cq.v) ** 2)


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


def spectral(cq: CanonicalQuad, h: float, *, conic: Optional[Conic] = None) -> Spectral:
    """Spectral quantities of the family member at h (``conic``: its
    coefficients, if at hand), the ratio in the product form."""
    c = coefficients(cq, h) if conic is None else conic
    return _spectral(cq, _segment_coordinate(cq, h), c, (cq.s - cq.v) ** 2)


def ratio_sq_function(cq: CanonicalQuad) -> Callable:
    """Fast callable h -> squared axis ratio (b/a)^2 of the member at h.

    Evaluated in the segment coordinate as 16 u lam (1-lam) l5 /
    (trace + gap)^2 of the model: the identity trace^2 - gap_sq =
    16 u lam (1-lam) l5 turns (trace - gap) / (trace + gap) into a quotient
    of products, so a thin member ((b/a)^2 near 0) keeps full relative
    precision instead of the cancellation of trace - gap.  Accepts scalars
    or numpy arrays, needs no numpy import, and performs no interval
    validation; callers control the evaluation range.
    """
    quadratics = _spectral_quadratics(cq)
    k = 16.0 * cq.u

    def ratio_sq(h):
        lam = _segment_coordinate(cq, h)
        trace, diff, b = (_horner(q, lam) for q in quadratics)   # A + C, A - C, B
        den = trace + (diff * diff + b * b) ** 0.5                # trace + gap
        return _l5(cq, lam) * lam * (1.0 - lam) * k / (den * den)

    return ratio_sq


def ratio_sq_bound(cq: CanonicalQuad, h1, h2):
    """Upper bound on the float value of ``ratio_sq_function`` at every
    float h between h1[j] and h2[j] (arrays of abscissas in the closed
    center interval), per j.

    The function takes lam = (2h - v) / (s - v) in [0, 1], rounded
    monotonically in h, so the lam of such an h lies between those of h1
    and h2; then it evaluates 16 u lam (1-lam) l5 / (T + G)^2 with T,
    A - C and B quadratics in monomial form (``_spectral_quadratics``),
    G = hypot(A - C, B) and l5 linear.  Between two lam each quadratic
    ranges between its values there and at its vertex, if the vertex lies
    between them; l5 between its end values; lam (1-lam), concave, up to
    1/4 if 1/2 lies between them and up to its larger end value otherwise;
    G down to the hypot of the least |A - C| and |B| of their ranges.

    Float margin, with unit roundoff eps = 2^-53: for lam in [0, 1],
    Horner's rule errs by at most gamma_4 sum|c_i| < 4.0001 eps sum|c_i|
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1).
    The ranges are widened by 12 eps sum|c_i| each way: 8 eps for two
    such evaluations (the function's at h, this bound's at a range
    point), 1 eps for rounding the widened end, and the rest for the
    vertex, which is off by at most eps so its value by eps^2 |c2|, and
    for rounding the margin itself.  Every other step adds, multiplies
    or divides nonnegative numbers or takes a square root, each within a
    factor 1 +- eps.  So the function's quotient is at most
    (1 + eps)^8 / (1 - eps)^8 times the exact quotient over the widened
    ranges (7 roundings in the numerator and 1 to divide; 8 in the
    denominator, counting the square root of three rounded terms), and
    the bound's own quotient at least (1 - eps)^9 / (1 + eps)^8 times it
    (the same counts, and 1 for the final factor).  Their ratio is below
    1 + 34 eps; the final factor 1 + 64 eps covers it.  At the diameters
    ``validate`` accepts, nothing overflows, and an underflow can only
    flush a square far below T^2 toward zero, by under 2^-1074.  Where
    the widened trace is not positive the bound is inf or NaN, below no
    value.
    """
    import numpy as np

    eps = 2.0 ** -53
    ends = _segment_coordinate(cq, np.array([h1, h2]))
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    ranges = []
    for q in _spectral_quadratics(cq):
        c2, c1, c0 = q
        at_ends = _horner(q, ends)
        q_lo, q_hi = np.minimum(*at_ends), np.maximum(*at_ends)
        if c2:
            vertex = -c1 / (2.0 * c2)
            k = np.flatnonzero((lo <= vertex) & (vertex <= hi))
            q_vertex = _horner(q, vertex)
            q_lo[k] = np.minimum(q_lo[k], q_vertex)
            q_hi[k] = np.maximum(q_hi[k], q_vertex)
        pad = 12.0 * eps * (abs(c2) + abs(c1) + abs(c0))
        ranges.append((q_lo - pad, q_hi + pad))
    (trace, _), (d_lo, d_hi), (b_lo, b_hi) = ranges
    d_min = np.maximum(np.maximum(d_lo, -d_hi), 0.0)
    b_min = np.maximum(np.maximum(b_lo, -b_hi), 0.0)
    gap = np.sqrt(d_min * d_min + b_min * b_min)
    spread = np.maximum(*(ends * (1.0 - ends)))
    spread[(lo <= 0.5) & (0.5 <= hi)] = 0.25
    num = 16.0 * cq.u * spread * np.maximum(*_l5(cq, ends))
    den = trace + gap
    den[trace <= 0.0] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / (den * den) * (1.0 + 64.0 * eps)


def family_point(cq: CanonicalQuad, h: float) -> FamilyPoint:
    """Assemble the full record of the family member at h."""
    conic = coefficients(cq, h)
    sp = spectral(cq, h, conic=conic)
    tang = tuple(tangency_points(cq, h))
    return FamilyPoint(h, conic, tang, *sp)
