"""Brute-force verifiers and the battery that runs them on a solution.

Every oracle here is implementation-independent of the machinery it
checks: the finite-difference slope never calls the analytic derivative,
the grid argmax uses neither the stationarity quartic nor a closed form
(it prunes the grid by a level-set bound and returns what a full sweep
returns, bit for bit), and the incircle is built from angle bisectors
rather than family coefficients.  Oracle tolerances are deliberately
looser than the claims they validate, so a failing oracle indicates a
real defect rather than noise.  :func:`verify` runs the battery on a
``minecc.solve`` result: ``containment`` traces the ellipse it reports
(center, semi-axes, axis angle) and ``side_tangency`` checks its conic, so
both forms of the answer are checked; its ``solver_agreement`` report is a
cross-check between the two solver paths, not an independent oracle.
Plain ``math``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import family
from .conic import EllipseGeometry, Line2, LineConicRelation, line_tangency
from .errors import NotTangential
from .minecc import CLOSED_FORM, MinEccResult, maximize_ratio_sq
from .quad import CanonicalQuad, Point2, QuadKind, classify


class OracleReport(NamedTuple):
    name: str
    passed: bool
    worst_residual: float
    location: str
    tolerance: float


def fd_gradient(f: Callable[[float], float], h: float, step: float) -> float:
    """Central difference (f(h+step) - f(h-step)) / (2 step)."""
    return (f(h + step) - f(h - step)) / (2.0 * step)


def ratio_argmax(cq: CanonicalQuad, n: int = 100_000) -> tuple[float, float]:
    """Argmax of (b/a)^2 over the samples h_i = lo + (hi - lo) (i / (n + 1)),
    i = 1..n, of the center interval: what ``family.ratio_sq_function`` at
    every sample gives, bit for bit, ties to the lowest i.  A golden-section
    walk over i sets a floor (any sample's value is one); a depth-first
    bisection of [1, n], nearer half first, evaluates ranges of at most 8
    samples and skips those ``family._ratio_sq_below`` shows are below it.
    """
    if n < 3:
        raise ValueError("need at least 3 samples")
    f, level = family.ratio_sq_function(cq), family._ratio_sq_below(cq)
    (lo, hi), vals = cq.interval, {}

    def h(i):
        return lo + (hi - lo) * (i / (n + 1.0))

    def at(i):
        return vals[i] if i in vals else vals.setdefault(i, f(h(i)))

    a, b, golden = 1, n, (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > 3:
        c, d = b - round(golden * (b - a)), a + round(golden * (b - a))
        a, b = (c, b) if at(c) < at(d) else (a, d)
    best = min([*vals, *range(a, b + 1)], key=lambda i: (-at(i), i))
    below, stack, top = level(vals[best]), [(1, n)], vals[best]
    while stack:
        i, j = stack.pop()
        if not i <= best <= j and below(h(i), h(j)):
            continue
        if j - i < 8:
            for k in range(i, j + 1):
                if at(k) > top or (vals[k] == top and k < best):
                    best, top, below = k, vals[k], level(vals[k])
            continue
        m = (i + j) // 2
        stack += [(m + 1, j), (i, m)] if best <= m else [(i, m), (m + 1, j)]
    return h(best), top


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


def containment(g: EllipseGeometry, cq: CanonicalQuad, n: int = 256, *,
                tol: float = 1e-9) -> OracleReport:
    """Trace the ellipse ``g`` at theta_k = k (2 pi / n), k < n; pass means
    no sample pokes outside by more than tol * diameter (the residual).  For
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
    ``containment`` (of the reported ellipse ``res.geom``); ``side_tangency``
    (the side lines tangent to ``res.conic``, the tangency points on it and
    inside their sides); ``grid_argmax`` (within two steps of h*);
    ``stationarity`` (a central difference vanishing at h*, or changing
    sign across a circular optimum); ``solver_agreement`` for a
    closed-form result; and ``incircle`` for a tangential
    midpoint-diagonal quad, classified at the default tolerance so that
    the incircle's own test holds.
    """
    lo, hi = cq.interval
    width = hi - lo
    reports = [containment(res.geom, cq, 256)]

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
        h_num = family._abscissa(cq, maximize_ratio_sq(cq)[0])
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
