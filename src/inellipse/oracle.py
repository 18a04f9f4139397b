"""Independent brute-force verifiers.

Every oracle here is implementation-independent of the machinery it
checks: the finite-difference slope never calls the analytic derivative,
the grid argmax never calls the closed form, and the incircle is built
from angle bisectors rather than family coefficients.  Oracle tolerances
are deliberately looser than the claims they validate, so a failing oracle
indicates a real defect rather than noise.  The sampling oracles import
numpy when called, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .conic import Conic, geometry
from .errors import NotTangential
from .quad import CanonicalQuad, Point2, classify


@dataclass(frozen=True)
class OracleReport:
    name: str
    passed: bool
    worst_residual: float
    location: str
    tolerance: float


def fd_gradient(f: Callable[[float], float], h: float, step: float) -> float:
    """Central difference (f(h+step) - f(h-step)) / (2 step)."""
    return (f(h + step) - f(h - step)) / (2.0 * step)


def grid_argmax(f: Callable, interval: tuple[float, float], n: int = 100_000
                ) -> tuple[float, float]:
    """Argmax of f over n uniform interior samples; ties pick the lowest h.

    Vectorizes through f when it accepts numpy arrays, otherwise falls back
    to a scalar loop.
    """
    import numpy as np

    if n < 3:
        raise ValueError("need at least 3 samples")
    lo, hi = interval
    hs = lo + (hi - lo) * (np.arange(1, n + 1) / (n + 1.0))
    try:
        vals = np.asarray(f(hs), dtype=float)
        if vals.shape != hs.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([f(float(h)) for h in hs])
    i = int(np.argmax(vals))
    return float(hs[i]), float(vals[i])


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


def containment(conic: Conic, cq: CanonicalQuad, n: int = 256, *,
                tol: float = 1e-9) -> OracleReport:
    """Trace the ellipse parametrically and check every sample stays inside.

    The residual is how far the worst sample pokes outside (zero when the
    whole trace is inside); pass means residual <= tol * diameter.
    """
    import numpy as np

    g = geometry(conic)
    ang = g.major_axis_angle or 0.0
    ca, sa = math.cos(ang), math.sin(ang)
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ex = g.a * np.cos(th)
    ey = g.b * np.sin(th)
    xs = g.center.x + ex * ca - ey * sa
    ys = g.center.y + ex * sa + ey * ca

    worst = math.inf
    where = ""
    for j, (nx, ny, c) in enumerate(side_distance_lines(cq)):
        d = nx * xs + ny * ys + c
        i = int(np.argmin(d))
        if d[i] < worst:
            worst = float(d[i])
            where = f"side S{j + 1}, sample {i} of {n}"
    tol_abs = tol * cq.diameter
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
