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
D1.  ``family_point`` takes the center abscissa h = (v + (s-v) lam) / 2
and evaluates the coefficients, the four tangency points (``_tangency``:
ratios of same-signed forms in center weights (n, m) = (s - 2h, 2h - v),
no division by s - v either) and the spectral quantities of the form:

    trace    = A + C                  (> 0 on the interval)
    gap_sq   = (A - C)^2 + B^2        (squared eigenvalue gap)
    ratio_sq = (trace - gap) / (trace + gap) = (b/a)^2
             = 16 u (s-v)^2 cubic / (trace + gap)^2
    cubic    = (s - 2h)(2h - v) l5(h) (> 0 on the interval; certifies
                                       the conic is a real ellipse)

Coefficients are returned unnormalized, at the defining scale, because
the polynomial identities among them (for example trace^2 - gap_sq =
16 u (s-v)^2 cubic) hold only there.  The solver stays in lam:
``stationarity`` is the quartic whose root lam* is the optimum, ``_at``
the member, its center and its spectral quantities at a given lam, and
``_tangency`` at (1 - lam*, lam*) its tangency points.
``_model`` is written in the pose parameters with integer literals, so
``oracle.optimum`` evaluates the same model exactly on ``int`` poses.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .conic import Conic
from .errors import HOutOfRange
from .quad import CanonicalQuad, Point2, _r1

RELATIVE_ENDPOINT_GUARD = 1e-12


class Spectral(NamedTuple):
    trace: float
    gap_sq: float
    ratio_sq: float
    cubic: float


class TangentPoint(NamedTuple):
    zeta: Point2
    lam: float


class FamilyPoint(NamedTuple):
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


def _model(s, t, u, v, w) -> tuple:
    """The family over (s-v)^2: the Bernstein triples (b0, b1, b2) of its
    quadratics b0 mu^2 + 2 b1 lam mu + b2 lam^2, in the order A..F.  Integer
    literals only, so float poses give the same bits and ``int`` poses
    (``oracle._slope_sign``) stay exact."""
    return (((u - w) ** 2, t * (u + w) - 2 * u * w, t * t),
            (2 * v * (u - w), 2 * u * v - s * (u + w) - t * v, -2 * s * t),
            (v * v, v * s, s * s),
            (2 * u * v * (w - u), u * (2 * s * w - t * v), 0),
            (-2 * u * v * v, -u * v * s, 0),
            ((u * v) ** 2, 0, 0))


def _member(cq: CanonicalQuad, lam: float, scale: float = 1.0) -> Conic:
    """The model at segment coordinate lam, times ``scale``: the member
    over (s-v)^2, or at the defining scale for scale = (s-v)^2."""
    mu = 1.0 - lam
    m2, lm, l2 = scale * mu * mu, 2.0 * scale * lam * mu, scale * lam * lam
    return Conic._make([b0 * m2 + b1 * lm + b2 * l2 for b0, b1, b2 in _model(*cq.params)])


def _l5(cq: CanonicalQuad, lam):
    """l5, the linear factor of ``cubic``, at segment coordinate lam: the
    convex combination of its end values v P and s Q, both positive by (R1)."""
    p, q = _r1(*cq.params)
    return (1.0 - lam) * (cq.v * p) + lam * (cq.s * q)


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


def _segment_coordinate(cq: CanonicalQuad, h):
    """lam = (2h - v) / (s - v)."""
    return (2.0 * h - cq.v) / (cq.s - cq.v)


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
    model = _model(*cq.params)
    x0, x1, x2 = [a + c for a, c in zip(model[0], model[2])]     # trace = A + C
    t2, t1, t0 = scale * (x0 - 2.0 * x1 + x2), scale * (2.0 * (x1 - x0)), scale * x0
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


def _side_parameters(s, t, u, v, w, n, m) -> tuple:
    """lam1..lam4 on S1..S4 from center weights (n, m) = c (1 - lam, lam),
    c != 0, and the (R1) forms: uv n / (uv n + Q m), v n / (v n + s m),
    su m / (P n + su m) and P n / (P n + Q m).  n and m share a sign, so
    every term does by (R0) and (R1): no sum cancels, nothing divides by
    s - v, and each lam is homogeneous of degree 0 in (n, m)."""
    p, q = _r1(s, t, u, v, w)
    a1, a2, a3, a4, qm = u * v * n, v * n, s * u * m, p * n, q * m
    return a1 / (a1 + qm), a2 / (a2 + s * m), a3 / (a4 + a3), a4 / (a4 + qm)


def _tangency(cq: CanonicalQuad, n, m) -> tuple[TangentPoint, ...]:
    """Tangency points with sides S1..S4, with their barycentric parameters,
    of the member of center weights (n, m) (``_side_parameters``).  Each
    point divides its side as lam * far_end + (1 - lam) * near_end."""
    s, t, u, v, w = cq.params
    lam1, lam2, lam3, lam4 = _side_parameters(s, t, u, v, w, n, m)
    return (
        TangentPoint(Point2(lam1 * v, lam1 * w), lam1),
        TangentPoint(Point2(0.0, lam2 * u), lam2),
        TangentPoint(Point2(lam3 * s, lam3 * t + (1.0 - lam3) * u), lam3),
        TangentPoint(Point2(lam4 * v + (1.0 - lam4) * s,
                            lam4 * w + (1.0 - lam4) * t), lam4),
    )


def family_point(cq: CanonicalQuad, h: float) -> FamilyPoint:
    """Assemble the full record of the family member at h."""
    _require_h(cq, h)
    conic, _, sp = _at(cq, _segment_coordinate(cq, h))
    return FamilyPoint(h, conic, _tangency(cq, cq.s - 2.0 * h, 2.0 * h - cq.v), *sp)
