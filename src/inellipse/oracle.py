"""Verifiers and the battery that runs them on a solution.

Every oracle is independent of what it checks: :func:`optimum` takes the
model's slope in exact ``int`` arithmetic, without the float stationarity
quartic, its root search or a closed form; the tangency points come from
the side linears; the incircle from angle bisectors.  :func:`verify` runs
the battery on a ``minecc.solve`` result: ``containment`` traces the
reported ellipse (center, semi-axes, axis angle), ``side_tangency``
checks its conic and ``optimum`` its h*.  Plain ``math`` and ``int``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import family
from .conic import Conic, EllipseGeometry, Line2, LineConicRelation, line_tangency
from .errors import NotTangential
from .minecc import MinEccResult
from .quad import CanonicalQuad, Point2, QuadKind, classify


class OracleReport(NamedTuple):
    name: str
    passed: bool
    worst_residual: float
    location: str
    tolerance: float


def side_distance_lines(cq: CanonicalQuad) -> list[tuple[float, float, float]]:
    """Unit normal forms (nx, ny, c) of the side lines S1..S4, oriented so
    the quadrilateral's centroid has positive signed distance."""
    verts = cq.vertices
    cx = sum(p.x for p in verts) / 4.0
    cy = sum(p.y for p in verts) / 4.0
    lines = []
    for p, q in cq.sides:
        nx, ny = q.y - p.y, p.x - q.x
        norm = math.hypot(nx, ny)
        nx, ny = nx / norm, ny / norm
        c = -(nx * p.x + ny * p.y)
        if nx * cx + ny * cy + c < 0.0:
            nx, ny, c = -nx, -ny, -c
        lines.append((nx, ny, c))
    return lines


def containment(g: EllipseGeometry, cq: CanonicalQuad, n: int = 256) -> OracleReport:
    """Trace the ellipse ``g`` at theta_k = k (2 pi / n), k < n; pass means
    no sample pokes outside by more than 1e-9 diameter (the residual).  For
    center (x0, y0), semi-axes a, b and axis (ca, sa), sample k's signed
    distance from the side line (nx, ny, c) is exactly c0 - rad cos(theta_k
    - theta*): c0 = nx x0 + ny y0 + c, p = a (nx ca + ny sa), q = b (ny ca -
    nx sa), rad = hypot(p, q), theta* = atan2(-q, -p).  The samples within
    w = 2 of the nearest to theta* are traced; w doubles until all others,
    (w + 1/2) steps - dtheta off or more, are above the least (ties to the
    lowest k).  dtheta = 32 eps (1 + a/b) covers rounding theta* (p, q off
    by 6 eps (a + b), rad >= b), its index and theta_k; slack = 32 eps (|c|
    + |nx| (|x0| + a + b) + |ny| (|y0| + a + b)) a sample (cos and sin are
    within 1 ulp), c0, rad and the test.
    """
    ang = g.major_axis_angle or 0.0
    ca, sa = math.cos(ang), math.sin(ang)
    x0, y0, a, b, step, eps = g.center.x, g.center.y, g.a, g.b, 2.0 * math.pi / n, 2.0 ** -53
    dtheta = 32.0 * eps * (1.0 + a / b) if b > 0.0 else math.inf

    def dist(k: int, nx: float, ny: float, c: float) -> float:
        ex, ey = a * math.cos(k * step), b * math.sin(k * step)
        return nx * (x0 + ex * ca - ey * sa) + ny * (y0 + ex * sa + ey * ca) + c

    worst, where = math.inf, ""
    for j, (nx, ny, c) in enumerate(side_distance_lines(cq)):
        p, q = a * (nx * ca + ny * sa), b * (ny * ca - nx * sa)
        c0, rad, k0 = nx * x0 + ny * y0 + c, math.hypot(p, q), round(math.atan2(-q, -p) / step)
        slack = 32.0 * eps * (abs(c) + abs(nx) * (abs(x0) + a + b) + abs(ny) * (abs(y0) + a + b))
        for w in (2 ** e for e in range(1, 64)):
            d, i = min((dist(k % n, nx, ny, c), k % n) for k in range(k0 - w, k0 + w + 1))
            alpha = min((w + 0.5) * step - dtheta, math.pi)
            if 2 * w + 1 >= n or (alpha > 0.0 and c0 - rad * math.cos(alpha) - slack > d):
                break
        if d < worst:
            worst, where = d, f"side S{j + 1}, sample {i} of {n}"
    tol_abs = 1e-9 * cq.diameter
    residual = max(0.0, -worst)
    return OracleReport("containment", residual <= tol_abs, residual,
                        f"min signed distance {worst:.3e} at {where}", tol_abs)


def incircle(cq: CanonicalQuad) -> tuple[Point2, float]:
    """Center and radius of the inscribed circle of a tangential quad.

    Constructed as the intersection of the internal angle bisectors at two
    adjacent vertices (bisectors at opposite vertices can coincide, e.g. on
    a kite's symmetry axis); the radius is the distance to a side line.
    Raises :class:`NotTangential` when the quad is not tangential or the
    four side distances fail to agree.
    """
    if not classify(cq).tangential:
        raise NotTangential("quadrilateral fails the side-length test for an incircle")
    verts = cq.vertices

    def unit(p: Point2, q: Point2) -> tuple[float, float]:
        dx, dy = q.x - p.x, q.y - p.y
        norm = math.hypot(dx, dy)
        return dx / norm, dy / norm

    # Bisector at the origin, between sides toward (v, w) and (0, u).
    o = verts[0]
    d1 = unit(o, verts[3])
    d2 = unit(o, verts[1])
    ba = (d1[0] + d2[0], d1[1] + d2[1])
    # Bisector at (0, u), between sides toward the origin and (s, t).
    p1 = verts[1]
    e1 = unit(p1, verts[0])
    e2 = unit(p1, verts[2])
    bb = (e1[0] + e2[0], e1[1] + e2[1])

    det = ba[0] * (-bb[1]) - ba[1] * (-bb[0])
    if det == 0.0:
        raise NotTangential("angle bisectors do not intersect")
    rx, ry = p1.x - o.x, p1.y - o.y
    tau = (rx * (-bb[1]) - ry * (-bb[0])) / det
    center = Point2(o.x + tau * ba[0], o.y + tau * ba[1])

    dists = [nx * center.x + ny * center.y + c
             for nx, ny, c in side_distance_lines(cq)]
    radius = dists[0]
    if radius <= 0.0 or max(dists) - min(dists) > 1e-6 * cq.diameter:
        raise NotTangential("bisector intersection is not equidistant from the sides")
    return center, radius


def side_tangency(cq: CanonicalQuad, res: MinEccResult) -> OracleReport:
    """The side lines tangent to ``res.conic`` (normalized, so it must be
    finite and not zero), and the tangency points at h* on it and inside
    their sides; the residual is the largest |conic(point)| over its term
    scale, which is at most 1."""
    conic_n = res.conic.normalized()
    if not (any(conic_n) and all(map(math.isfinite, conic_n))):
        return OracleReport("side_tangency", False, 1.0,
                            "normalized conic is zero or not finite", 1e-9)
    terms = Conic._make(map(abs, conic_n))
    all_tangent, worst, where = True, 0.0, ""
    for j, side in enumerate(cq.sides):
        relation, _ = line_tangency(conic_n, Line2.through(*side))
        if relation is not LineConicRelation.TANGENT:
            all_tangent = False
            where = f"side S{j + 1} is {relation.value}"
    for tp in family.tangency_points(cq, res.h_star):
        x, y = tp.zeta
        worst = max(worst, abs(conic_n(x, y)) / (terms(abs(x), abs(y)) or 1.0))
        if not (0.0 < tp.lam < 1.0):
            all_tangent = False
            where = f"tangency parameter {tp.lam!r} outside (0, 1)"
    return OracleReport("side_tangency", all_tangent and worst <= 1e-9, worst,
                        where or "all side lines tangent", 1e-9)


def _slope_sign(cq: CanonicalQuad, h: float) -> int:
    """The sign (-1, 0 or 1) of d(b/a)^2/dh at h for the float pose, exact.

    Floats are dyadic: s, t, u, v, w and h are integers over one power of
    two, lam = m/q with m = 2h - v, q = s - v, n = q - m.  A triple (x0, x1,
    x2) of ``family._model`` on the integer pose gives q^2 X = x0 n^2 + 2 x1
    m n + x2 m^2 and q X'/2 = (x1 - x0) n + (x2 - x1) m (X = A, B, C; ' =
    d/dlam).  So q^5 p/4, p = 2 T' G - T G' (T = A + C, G = (A - C)^2 + B^2)
    of sign d(b/a)^2/dlam, is an ``int`` whose q^5 has the sign of dlam/dh.
    """
    ratios = [x.as_integer_ratio() for x in (*cq.params, h)]
    e = max(d.bit_length() for _, d in ratios)
    s, t, u, v, w, x = [k << e - d.bit_length() for k, d in ratios]
    m, q = 2 * x - v, s - v
    n = q - m
    nn, mn, mm = n * n, m * n, m * m
    (a, da), (b, db), (c, dc) = [(x0 * nn + 2 * x1 * mn + x2 * mm, (x1 - x0) * n + (x2 - x1) * m)
                                 for x0, x1, x2 in family._model(s, t, u, v, w)[:3]]
    p = (da + dc) * ((a - c) ** 2 + b * b) - (a + c) * ((a - c) * (da - dc) + b * db)
    return (p > 0) - (p < 0)


def optimum(cq: CanonicalQuad, h: float) -> OracleReport:
    """Certify that the exact maximizer of (b/a)^2 for the float pose lies
    within d of h, d the residual.

    The slope of (b/a)^2 changes sign once on the interval (the paper's
    [H1]; the ``minecc`` docstring), so an exact slope >= 0 at h - d and
    <= 0 at h + d (:func:`_slope_sign`) puts the maximizer between them.
    Per side, d starts at 2^-52 of the interval width (or one ulp of h, if
    more) and doubles until the sign holds or d passes limit = max(1e-9
    width, 2 ulp(h)): one ulp of h is up to 1.1e-8 of a near-trapezoid's
    interval.  d is the larger distance from h to the two probes.
    """
    width = cq.interval[1] - cq.interval[0]
    limit = max(1e-9 * width, 2.0 * math.ulp(h))
    probes = []
    for side in (1, -1):
        d = max(2.0 ** -52 * width, math.ulp(h))
        while True:
            x = h - side * d
            holds = side * _slope_sign(cq, x) >= 0
            if holds or d > limit:
                break
            d *= 2.0
        probes.append((x, holds))
    (xl, left), (xr, right) = probes
    d = max(h - xl, xr - h)
    return OracleReport("optimum", left and right and d <= limit, d,
                        f"slope {'>=' if left else '<'} 0 at {xl!r}, "
                        f"{'<=' if right else '>'} 0 at {xr!r}", limit)


def verify(cq: CanonicalQuad, res: MinEccResult) -> list[OracleReport]:
    """The oracle battery on ``res = minecc.solve(cq)``, in report order:
    ``containment`` (of the reported ellipse ``res.geom``);
    ``side_tangency`` (of the reported conic ``res.conic``); ``optimum``
    (h* within a certified half-width of the exact maximizer); and
    ``incircle`` when ``res.qclass``, the classification ``solve`` made,
    is a tangential midpoint-diagonal quad.
    """
    reports = [containment(res.geom, cq, 256), side_tangency(cq, res), optimum(cq, res.h_star)]
    qc = res.qclass
    if qc.tangential and qc.kind is not QuadKind.GENERAL:
        center, radius = incircle(cq)
        dev = math.hypot(center.x - res.geom.center.x, center.y - res.geom.center.y)
        tol = 1e-6 * cq.diameter
        reports.append(OracleReport("incircle", dev <= tol, dev,
                                    f"bisector center {tuple(center)!r}, radius {radius!r}", tol))
    return reports
