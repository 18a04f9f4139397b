"""Brute-force verifiers and the battery that runs them on a solution.

Every oracle here is implementation-independent of the machinery it
checks: the finite-difference slope never calls the analytic derivative,
the grid argmax uses neither the stationarity quartic nor a closed form
(it prunes the grid by bounds and returns what a full sweep returns, bit
for bit), and the incircle is built from angle bisectors rather than
family coefficients.  Oracle tolerances are deliberately looser than the
claims they validate, so a failing oracle indicates a real defect rather
than noise.  :func:`verify` runs the battery on a ``minecc.solve``
result; its ``solver_agreement`` report is a cross-check between the two
solver paths, not an independent oracle.  The sampling oracles import
numpy when called, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import family
from .conic import Conic, Line2, LineConicRelation, geometry, line_tangency
from .errors import NotTangential
from .minecc import CLOSED_FORM, MinEccResult, maximize_ratio_sq
from .quad import CanonicalQuad, Point2, QuadKind, classify


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


CELL = 100          # grid points per cell of ratio_argmax's branch and bound


def ratio_argmax(cq: CanonicalQuad, n: int = 100_000) -> tuple[float, float]:
    """Argmax of (b/a)^2 over the n uniform interior samples
    h_i = lo + (hi - lo) (i / (n + 1)), i = 1..n, of the center interval.

    Returns exactly what evaluating ``family.ratio_sq_function`` at every
    sample returns, bit for bit: the largest value and its sample, ties
    to the lowest i.  Branch and bound in one level: the samples fall into
    cells of CELL consecutive indices; the first sample of every cell sets
    a floor, and only cells whose upper bound (``family.ratio_sq_bound``) is
    not below it are evaluated in full.  Every other cell holds values
    below the floor, so it holds neither the maximum nor a tie with it.
    A bound that is not finite never prunes, nor does a NaN floor.  Each
    sample is computed by the same elementwise float operations as in a
    full sweep, so its value does not depend on which samples are
    evaluated with it.  Uses neither the stationarity quartic nor a
    closed form.
    """
    import numpy as np

    if n < 3:
        raise ValueError("need at least 3 samples")
    f = family.ratio_sq_function(cq)
    lo, hi = cq.interval

    def samples(i):
        return lo + (hi - lo) * (i / (n + 1.0))

    first = np.arange(1, n + 1, CELL)
    h_first = samples(first)
    bound = family.ratio_sq_bound(cq, h_first, samples(np.minimum(first + (CELL - 1), n)))
    cells = first[~(bound < np.max(f(h_first)))]
    idx = (cells[:, None] + np.arange(CELL)).ravel()
    hs = samples(idx[idx <= n])
    vals = f(hs)
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


def verify(cq: CanonicalQuad, res: MinEccResult) -> list[OracleReport]:
    """The oracle battery on ``res = minecc.solve(cq)``, in report order:
    ``containment``; ``side_tangency`` (the side lines tangent, the
    tangency points on the conic and inside their sides); ``grid_argmax``
    (within two steps of h*); ``stationarity`` (a central difference
    vanishing at h*, or changing sign across a circular optimum);
    ``solver_agreement`` for a closed-form result; and ``incircle`` for a
    tangential midpoint-diagonal quad, classified at the default tolerance
    so that the incircle's own test holds.
    """
    lo, hi = cq.interval
    width = hi - lo
    reports = [containment(res.conic, cq, 256)]

    # Tangency of the four side lines, plus the tangency points themselves.
    conic_n = res.conic.normalized()
    a_, b_, c_, d_, e_, f_ = conic_n
    all_tangent = True
    worst = 0.0
    where = ""
    for j, side in enumerate(cq.sides):
        relation, _ = line_tangency(conic_n, Line2.through(*side))
        if relation is not LineConicRelation.TANGENT:
            all_tangent = False
            where = f"side S{j + 1} is {relation.value}"
    for tp in family.tangency_points(cq, res.h_star):
        x, y = tp.zeta
        scale = (abs(a_ * x * x) + abs(b_ * x * y) + abs(c_ * y * y)
                 + abs(d_ * x) + abs(e_ * y) + abs(f_)) or 1.0
        worst = max(worst, abs(conic_n(x, y)) / scale)
        if not (0.0 < tp.lam < 1.0):
            all_tangent = False
            where = f"tangency parameter {tp.lam!r} outside (0, 1)"
    reports.append(OracleReport("side_tangency", all_tangent and worst <= 1e-9,
                                worst, where or "all side lines tangent", 1e-9))

    # Grid argmax against the solver result.
    n = 100_000
    hg, _ = ratio_argmax(cq, n)
    gap, tol = abs(hg - res.h_star), 2.0 * width / n
    reports.append(OracleReport("grid_argmax", gap <= tol, gap, f"grid argmax at {hg!r}", tol))

    # Finite-difference stationarity at the solution.  A circle member sits
    # at a corner of the ratio curve where a centered difference measures
    # the kink asymmetry, so there the oracle checks the slope sign change
    # across the optimum instead.
    f = family.ratio_sq_function(cq)
    step = 1e-6 * width
    if res.ratio_sq >= 1.0 - 1e-9:
        probe = 1e-4 * width
        left = fd_gradient(f, res.h_star - probe, step)
        right = fd_gradient(f, res.h_star + probe, step)
        ok = left > 0.0 > right
        reports.append(OracleReport("stationarity", ok, 0.0 if ok else max(-left, right),
                                    "slope sign change across a circular optimum", 0.0))
    else:
        fd = fd_gradient(f, res.h_star, step)
        scale = max(abs(fd_gradient(f, min(max(p, lo + 0.01 * width), hi - 0.01 * width), step))
                    for p in (res.h_star - width / 8.0, res.h_star + width / 8.0))
        tol = 1e-6 * max(scale, 1e-12)
        reports.append(OracleReport("stationarity", abs(fd) <= tol, abs(fd),
                                    "central difference at h_star", tol))

    # Closed form vs numeric maximizer: a cross-check of the solver paths.
    if res.method == CLOSED_FORM:
        h_num, _ = maximize_ratio_sq(cq)
        gap, tol = abs(h_num - res.h_star), 1e-9 * width
        reports.append(OracleReport("solver_agreement", gap <= tol, gap,
                                    f"numeric maximizer at {h_num!r}", tol))

    # Incircle consistency for tangential MDQs.
    qc = classify(cq)
    if qc.tangential and qc.kind is not QuadKind.GENERAL:
        center, radius = incircle(cq)
        dev = math.hypot(center.x - res.geom.center.x, center.y - res.geom.center.y)
        tol = 1e-6 * cq.diameter
        reports.append(OracleReport("incircle", dev <= tol, dev,
                                    f"bisector center {tuple(center)!r}, radius {radius!r}", tol))
    return reports
