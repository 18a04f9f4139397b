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
    """lam = (2h - v) / (s - v), rounded as in ``ratio_sq_function``."""
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


def ratio_sq_function(cq: CanonicalQuad) -> Callable[[float], float]:
    """Fast callable h -> squared axis ratio (b/a)^2 of the member at h.

    Evaluated in the segment coordinate as 16 u lam (1-lam) l5 /
    (trace + gap)^2 of the model: the identity trace^2 - gap_sq =
    16 u lam (1-lam) l5 turns (trace - gap) / (trace + gap) into a quotient
    of products, so a thin member ((b/a)^2 near 0) keeps full relative
    precision instead of the cancellation of trace - gap.  Scalar; the gap
    is ``math.sqrt``, correctly rounded.  No interval validation.
    """
    (t2, t1, t0), (d2, d1, d0), (b2, b1, b0) = _spectral_quadratics(cq)
    e0, e1 = _l5(cq, 0.0), _l5(cq, 1.0)
    v, sv, k, sqrt = cq.v, cq.s - cq.v, 16.0 * cq.u, math.sqrt

    def ratio_sq(h: float) -> float:
        lam = (2.0 * h - v) / sv
        trace = (t2 * lam + t1) * lam + t0
        diff, b = (d2 * lam + d1) * lam + d0, (b2 * lam + b1) * lam + b0     # A - C, B
        den = trace + sqrt(diff * diff + b * b)                               # trace + gap
        return ((1.0 - lam) * e0 + lam * e1) * lam * (1.0 - lam) * k / (den * den)

    return ratio_sq


def _ratio_sq_below(cq: CanonicalQuad) -> Callable[[float], Callable[[float, float], bool]]:
    """Callable r -> below(ha, hb): True only if ``ratio_sq_function`` is
    below r at every float h between ha and hb in the closed interval.

    Stored floats taken as exact: T, D = A - C, B (``_spectral_quadratics``,
    absolute coefficient sums ct, cd, cb), K = k lam (1-lam) l5, k = 16u,
    l5 = (1-lam) e0 + lam e1, le = |e0| + |e1|, G = hypot(D, B), R = T^2 -
    G^2 - K; eps = 2^-53; j roundings err by < 1.0001 j eps (Higham).  The
    function rounds lam monotonically into [0, 1], where Horner errs by
    4.0001 eps ct (cd, cb), so its trace + gap is >= P - Delta, P = T + G,
    Delta = 8 eps (ct + cd + cb) + 2^-536 (a flushed square), and 8 roundings
    on each side of the bar give f <= rho K / (P - Delta)^2, rho = ((1+eps) /
    (1-eps))^8 < 1 + 16.001 eps.  With r1 = fl(r (1 - 32 eps)), f >= r > 0
    gives K >= r1 (P - Delta)^2; as K = (T - G) P - R and P >= T >= tlo >
    Delta, T (1-r1) + e >= G (1+r1) >= 0, e = 2 r1 Delta + rmax / tlo; then
    with G^2 = T^2 - K - R: phi = (1+r1)^2 K - 4 r1 T^2 >= -M, M = 2 (1+r1)
    ct e + e^2 + (1+r1)^2 rmax (exactly, phi >= 0 iff ratio >= r1).  tlo: T
    least at 0, 1 and an inner vertex, less 8 eps ct (3 roundings); rmax:
    sum |computed R coefficient| + 16 eps (ct^2 + cd^2 + cb^2 + 4 k le), each
    <= 7 terms through <= 7 roundings.  At the lam midpoint m, phi(m + x) =
    sum c_j x^j, c4 = -4 r1 t2^2 <= 0, so on |x| <= w (rounded up) phi <= U =
    c0 + |c1| w + max(c2, 0) w^2 + |c3| w^3, whose terms pass <= 24 roundings
    and sum in absolute value to <= S = 4.5 (1+r1)^2 k le + 60 r1 ct^2 (|m
    (1-m)| <= 1/4; |1-2m|, w <= 1; |l5(m)|, |e1-e0| <= le; |T(m)| <= ct;
    |T'(m)| <= 2 ct).  below: U + 32 eps S + 2 M < 0 (2 M for M's rounding);
    never if tlo <= Delta, e0 or e1 <= 0 (K >= 0 needs both), not r > 0.
    """
    eps = 2.0 ** -53
    (t2, t1, t0), (d2, d1, d0), (b2, b1, b0) = quads = _spectral_quadratics(cq)
    e0, e1 = _l5(cq, 0.0), _l5(cq, 1.0)
    v, sv, k, le, l1 = cq.v, cq.s - cq.v, 16.0 * cq.u, abs(e0) + abs(e1), e1 - e0
    ct, cd, cb = (sum(map(abs, q)) for q in quads)
    delta = 8.0 * eps * (ct + cd + cb) + 2.0 ** -536
    vertex = t0 - t1 * t1 / (4.0 * t2) if -2.0 * t2 <= t1 <= 0.0 < t2 else t0
    tlo = min(t0, t2 + t1 + t0, vertex) - 8.0 * eps * ct
    residual = (t2 * t2 - d2 * d2 - b2 * b2, 2.0 * (t2 * t1 - d2 * d1 - b2 * b1) - k * (e0 - e1),
                t1 * t1 + 2.0 * t2 * t0 - d1 * d1 - 2.0 * d2 * d0 - b1 * b1 - 2.0 * b2 * b0
                - k * (e1 - 2.0 * e0), 2.0 * (t1 * t0 - d1 * d0 - b1 * b0) - k * e0,
                t0 * t0 - d0 * d0 - b0 * b0)                     # R, lam^4 down to lam^0
    rmax = sum(map(abs, residual)) + 16.0 * eps * (ct * ct + cd * cd + cb * cb + 4.0 * k * le)

    def level(r: float) -> Callable[[float, float], bool]:
        r1 = r * (1.0 - 32.0 * eps)
        a, b = (1.0 + r1) * (1.0 + r1), 4.0 * r1
        ak, e = a * k, 2.0 * r1 * delta + rmax / max(tlo, delta)
        slack = (2.0 * (2.0 * (1.0 + r1) * ct * e + e * e + a * rmax)
                 + 32.0 * eps * (4.5 * ak * le + 15.0 * b * ct * ct)
                 if tlo > delta and e0 > 0.0 and e1 > 0.0 and r > 0.0 else math.inf)

        def below(ha: float, hb: float) -> bool:
            la, lb = (2.0 * ha - v) / sv, (2.0 * hb - v) / sv        # as ratio_sq takes them
            m = 0.5 * (la + lb)
            w = max(abs(m - la), abs(lb - m)) * (1.0 + 4.0 * eps)
            p0, p1, l0 = m * (1.0 - m), 1.0 - 2.0 * m, (1.0 - m) * e0 + m * e1
            tm, tp = (t2 * m + t1) * m + t0, 2.0 * t2 * m + t1
            c1 = ak * (p0 * l1 + p1 * l0) - b * 2.0 * tm * tp
            c2 = ak * (p1 * l1 - l0) - b * (tp * tp + 2.0 * tm * t2)
            return (ak * p0 * l0 - b * tm * tm + abs(c1) * w + max(c2, 0.0) * w * w
                    + abs(ak * l1 + b * 2.0 * tp * t2) * w * w * w + slack < 0.0)   # |c3|

        return below

    return level


def family_point(cq: CanonicalQuad, h: float) -> FamilyPoint:
    """Assemble the full record of the family member at h."""
    conic = coefficients(cq, h)
    sp = spectral(cq, h, conic=conic)
    tang = tuple(tangency_points(cq, h))
    return FamilyPoint(h, conic, tang, *sp)
