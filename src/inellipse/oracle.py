"""Verifiers and the battery that runs them on a solution.

Every oracle is independent of what it checks: :func:`optimum` takes the
model's slope in exact ``int`` arithmetic, without the float stationarity
quartic, its root search or a closed form; the tangency points come from
the side linears; the support distances from the side lines alone.
:func:`verify` runs the battery on a ``minecc.solve`` result:
``containment`` checks that the reported ellipse (center, semi-axes, axis
angle) is inscribed, ``side_tangency`` checks its conic and ``optimum``
its h*.  Plain ``math`` and ``int``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import family
from .conic import Conic, EllipseGeometry, Line2, LineConicRelation, line_tangency
from .minecc import MinEccResult
from .quad import CanonicalQuad


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


def containment(g: EllipseGeometry, cq: CanonicalQuad) -> OracleReport:
    """The ellipse ``g`` inscribed in the quad: inside it and tangent to
    every side line, to 1e-9 of the diameter.  For center (x0, y0),
    semi-axes a, b and axis (ca, sa), the least signed distance of the
    ellipse from the side line (nx, ny, c) is its support distance d = nx
    x0 + ny y0 + c - hypot(a (nx ca + ny sa), b (ny ca - nx sa)).  Pass
    means every |d| is at most the tolerance (a NaN fails); the residual
    is the largest |d|, located at its side (ties to the lowest).
    """
    ang = g.major_axis_angle or 0.0
    ca, sa = math.cos(ang), math.sin(ang)
    x0, y0, a, b = g.center.x, g.center.y, g.a, g.b
    dists = [nx * x0 + ny * y0 + c - math.hypot(a * (nx * ca + ny * sa), b * (ny * ca - nx * sa))
             for nx, ny, c in side_distance_lines(cq)]
    j = max(range(4), key=lambda k: math.inf if math.isnan(dists[k]) else abs(dists[k]))
    d, tol_abs = dists[j], 1e-9 * cq.diameter
    return OracleReport("containment", abs(d) <= tol_abs, abs(d),
                        f"support distance {d:.3e} from side S{j + 1}", tol_abs)


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
    ``containment`` (the reported ellipse ``res.geom`` inscribed);
    ``side_tangency`` (of the reported conic ``res.conic``); ``optimum``
    (h* within a certified half-width of the exact maximizer).
    """
    return [containment(res.geom, cq), side_tangency(cq, res), optimum(cq, res.h_star)]
