"""Verifiers and the battery that runs them on a solution.

Every oracle is independent of what it checks: :func:`optimum` takes the
model's slope in exact ``int`` arithmetic, without the float stationarity
quartic or its root search; the tangency points come from the family's
closed forms in 1 - lam* and lam*, not from the conic; the support
distances and the line residual l^T adj(M) l from the side lines alone.
:func:`verify` runs the battery on a ``minecc.solve`` result:
``containment`` checks that the reported ellipse (center, semi-axes, axis
angle) is inscribed, ``side_tangency`` its conic at the tangency points of
lam*, and ``optimum`` lam* itself, as ``solve`` found it: no oracle
converts back from h*.  Plain ``math`` and ``int``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import family
from .conic import Conic, EllipseGeometry
from .minecc import MinEccResult
from .quad import CanonicalQuad, Point2

TANGENCY_TOL = 1e-12    # band of both side_tangency residuals, each at most 1


class OracleReport(NamedTuple):
    name: str
    passed: bool
    worst_residual: float
    location: str
    tolerance: float


def side_distance_lines(cq: CanonicalQuad) -> list[tuple[float, float, float]]:
    """Unit normal forms (nx, ny, c) of the side lines S1..S4, oriented so
    the quadrilateral's interior has positive signed distance.  S2..S4 run
    with the clockwise labeling, so (q.y - p.y, p.x - q.x) points inward;
    S1 = (origin, (v, w)) runs against it, so its line is negated."""
    lines = []
    for j, (p, q) in enumerate(cq.sides):
        nx, ny = q.y - p.y, p.x - q.x
        norm = math.hypot(nx, ny)
        nx, ny = nx / norm, ny / norm
        c = -(nx * p.x + ny * p.y)
        lines.append((-nx, -ny, -c) if j == 0 else (nx, ny, c))
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
    j = max(range(4), key=lambda k: abs(dists[k]) if math.isfinite(dists[k]) else math.inf)
    d, tol_abs = dists[j], 1e-9 * cq.diameter
    return OracleReport("containment", abs(d) <= tol_abs, abs(d),
                        f"support distance {d:.3e} from side S{j + 1}", tol_abs)


def _line_residual(conic: Conic, p: Point2, q: Point2) -> float:
    """|l^T adj(2M) l| over the sum of its 12 monomials' magnitudes: 0 when
    the line l = (a, b, c) through p and q is tangent to the conic of
    symmetric matrix M, and at most 1.  It takes no parametrization of the
    line, and (q, p), which negates l, gives the same bits."""
    A, B, C, D, E, F = conic
    a, b, c = q.y - p.y, p.x - q.x, q.x * p.y - p.x * q.y
    aa, bb, cc, ab, ac, bc = a * a, b * b, c * c, 2.0 * a * b, 2.0 * a * c, 2.0 * b * c
    terms = (4.0 * aa * C * F, -aa * E * E, 4.0 * bb * A * F, -bb * D * D,
             4.0 * cc * A * C, -cc * B * B, ab * D * E, -2.0 * ab * B * F,
             ac * B * E, -2.0 * ac * C * D, bc * B * D, -2.0 * bc * A * E)
    return abs(sum(terms)) / (sum(map(abs, terms)) or 1.0)


def side_tangency(cq: CanonicalQuad, res: MinEccResult) -> OracleReport:
    """The side lines tangent to ``res.conic`` (normalized, so it must be
    finite and not zero), and the tangency points at lam* on it and inside
    their sides.  Each side's :func:`_line_residual` and its point's
    |conic(point)| over its term scale, both at most 1, must be within
    ``TANGENCY_TOL``.  The residual is the largest of the eight, located at
    its side and half (ties to the first line, then the first point)."""
    conic_n = res.conic.normalized()
    if not (any(conic_n) and all(map(math.isfinite, conic_n))):
        return OracleReport("side_tangency", False, 1.0,
                            "normalized conic is zero or not finite", TANGENCY_TOL)
    terms = Conic._make(map(abs, conic_n))
    points = family._tangency(cq, 1.0 - res.lam_star, res.lam_star)
    outside = [tp.lam for tp in points if not 0.0 < tp.lam < 1.0]
    residuals = [(_line_residual(conic_n, p, q), j, "line") for j, (p, q) in enumerate(cq.sides)]
    residuals += [(abs(conic_n(x, y)) / (terms(abs(x), abs(y)) or 1.0), j, "tangency point")
                  for j, ((x, y), _) in enumerate(points)]
    worst, j, half = max(residuals, key=lambda r: r[0])
    passed = worst <= TANGENCY_TOL and not outside
    where = ("all side lines tangent" if passed else
             f"tangency parameter {outside[0]!r} outside (0, 1)" if outside else
             f"{half} residual {worst:.3e} on side S{j + 1}")
    return OracleReport("side_tangency", passed, worst, where, TANGENCY_TOL)


def _slope_sign(cq: CanonicalQuad) -> Callable[[float], int]:
    """lam -> the sign (-1, 0 or 1) of d(b/a)^2/dlam at lam for the float pose, exact.

    Floats are dyadic: s, t, u, v, w are integers over one power of two, so
    the triples (x0, x1, x2) of ``family._model`` on the integer pose are
    taken once.  With lam = m/q, q > 0 a power of two, and n = q - m, a
    triple gives q^2 X = x0 n^2 + 2 x1 m n + x2 m^2 and q X'/2 = (x1 - x0) n
    + (x2 - x1) m (X = A, B, C; ' = d/dlam).  So q^5 p/4, p = 2 T' G - T G'
    (T = A + C, G = (A - C)^2 + B^2) of sign d(b/a)^2/dlam, is an ``int``
    of the sign of p, as q > 0.
    """
    ratios = [x.as_integer_ratio() for x in cq.params]
    e = max(d.bit_length() for _, d in ratios)
    s, t, u, v, w = [k << e - d.bit_length() for k, d in ratios]
    triples = [(x0, 2 * x1, x2, x1 - x0, x2 - x1)
               for x0, x1, x2 in family._model(s, t, u, v, w)[:3]]

    def sign(lam: float) -> int:
        m, q = lam.as_integer_ratio()
        n = q - m
        nn, mn, mm = n * n, m * n, m * m
        (a, da), (b, db), (c, dc) = [(x0 * nn + x1 * mn + x2 * mm, d0 * n + d1 * m)
                                     for x0, x1, x2, d0, d1 in triples]
        ac = a - c
        p = (da + dc) * (ac * ac + b * b) - (a + c) * (ac * (da - dc) + b * db)
        return (p > 0) - (p < 0)

    return sign


def optimum(cq: CanonicalQuad, lam: float) -> OracleReport:
    """Certify that the exact maximizer of (b/a)^2 for the float pose lies
    within d of lam, d the residual, in the segment coordinate.

    The slope of (b/a)^2 changes sign once on (0, 1) (the paper's [H1];
    the ``minecc`` docstring), so an exact slope >= 0 at lam - d and <= 0
    at lam + d (:func:`_slope_sign`) puts the maximizer between them.  Per
    side, d starts at 2^-52 and doubles until the sign holds or d passes
    1e-9 of the interval, the limit.  d is the larger distance from lam to
    the two probes.
    """
    limit = 1e-9
    slope_sign = _slope_sign(cq)
    probes = []
    for side in (1, -1):
        d = 2.0 ** -52
        while True:
            x = lam - side * d
            holds = side * slope_sign(x) >= 0
            if holds or d > limit:
                break
            d *= 2.0
        probes.append((x, holds))
    (xl, left), (xr, right) = probes
    d = max(lam - xl, xr - lam)
    return OracleReport("optimum", left and right and d <= limit, d,
                        f"slope {'>=' if left else '<'} 0 at {xl!r}, "
                        f"{'<=' if right else '>'} 0 at {xr!r}", limit)


def verify(cq: CanonicalQuad, res: MinEccResult) -> list[OracleReport]:
    """The oracle battery on ``res = minecc.solve(cq)``, in report order:
    ``containment`` (the reported ellipse ``res.geom`` inscribed);
    ``side_tangency`` (the reported conic ``res.conic`` tangent to the side
    lines at its tangency points); ``optimum`` (lam* within a certified
    half-width of the exact maximizer).
    """
    return [containment(res.geom, cq), side_tangency(cq, res), optimum(cq, res.lam_star)]
