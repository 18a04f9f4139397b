"""Convex quadrilateral validation, canonical pose, and classification.

Every quadrilateral accepted by this package is moved by a plane isometry
into a standard pose: one vertex at the origin, its clockwise neighbour on
the positive y axis at (0, u), and the remaining two vertices (s, t) and
(v, w) in the open right half plane, so that the boundary cycle

    (0, 0) -> (0, u) -> (s, t) -> (v, w)

runs clockwise.  The five pose parameters must satisfy

    (R0)  s > 0, v > 0, u > 0, t > w
    (R1)  v(t - u) + (u - w) s > 0  and  v t - w s > 0      (convexity)
    (R2)  w s - v(t - u) != 0       and  s != v             (no parallel sides)

Quadrilaterals with a parallel side pair (including parallelograms) are
rejected outright: the inscribed-ellipse family divides by s - v, and the
segment of admissible centers collapses to a single point for
parallelograms.

Side and diagonal conventions, in clockwise order from the origin:

    S1 = (0,0)-(v,w)   S2 = (0,0)-(0,u)   S3 = (0,u)-(s,t)   S4 = (s,t)-(v,w)
    D1 = (0,0)-(s,t)   D2 = (0,u)-(v,w)

A quadrilateral is a *midpoint-diagonal* quadrilateral (MDQ) when the
diagonal intersection coincides with the midpoint of at least one diagonal;
type 1 puts D1 on the line through the diagonal midpoints, type 2 puts D2
there.  Which type is reported depends on the labeling, and relabeling the
starting vertex swaps the two types; see :func:`diagonal_swapped_labelings`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import Degenerate, NoValidLabeling, NotConvex, Trapezoid

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9

PointLike = Sequence[float]


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Isometry2:
    """Plane isometry: optional reflection about the x axis, then rotation,
    then translation.

    apply(p) = R(angle) @ F(p) + translation, with F(x, y) = (x, -y) when
    ``reflect`` is set.
    """

    angle: float
    translation: Point2
    reflect: bool = False

    @classmethod
    def identity(cls) -> "Isometry2":
        return cls(0.0, Point2(0.0, 0.0), False)

    def apply(self, p: PointLike) -> Point2:
        x, y = float(p[0]), float(p[1])
        if self.reflect:
            y = -y
        c, s = math.cos(self.angle), math.sin(self.angle)
        return Point2(c * x - s * y + self.translation.x,
                      s * x + c * y + self.translation.y)

    def inverse(self) -> "Isometry2":
        c, s = math.cos(self.angle), math.sin(self.angle)
        tx, ty = self.translation
        if not self.reflect:
            # q -> R(-angle) (q - T)
            return Isometry2(-self.angle,
                             Point2(-(c * tx + s * ty), -(-s * tx + c * ty)),
                             False)
        # q -> F R(-angle) (q - T) = R(angle) F (q - T)
        fx, fy = tx, -ty
        return Isometry2(self.angle,
                         Point2(-(c * fx - s * fy), -(s * fx + c * fy)),
                         True)


@dataclass(frozen=True)
class CanonicalQuad:
    """Quadrilateral in canonical pose plus the isometry that produced it.

    ``iso`` maps raw input coordinates onto the canonical coordinates; its
    inverse takes canonical-frame results back to the input frame.
    """

    s: float
    t: float
    u: float
    v: float
    w: float
    iso: Isometry2

    def __post_init__(self) -> None:
        s, t, u, v, w = self.s, self.t, self.u, self.v, self.w
        if not (s > 0 and v > 0 and u > 0 and t > w):
            raise ValueError("canonical parameters violate the pose constraints")
        if not (v * (t - u) + (u - w) * s > 0 and v * t - w * s > 0):
            raise ValueError("canonical parameters describe a non-convex cycle")
        if s == v or w * s - v * (t - u) == 0:
            raise ValueError("parallel side pair: quadrilateral unsupported")

    @classmethod
    def from_params(cls, s: float, t: float, u: float, v: float, w: float) -> "CanonicalQuad":
        """Canonical quad whose raw frame *is* the canonical frame."""
        return cls(float(s), float(t), float(u), float(v), float(w), Isometry2.identity())

    @property
    def params(self) -> tuple[float, float, float, float, float]:
        return (self.s, self.t, self.u, self.v, self.w)

    @property
    def vertices(self) -> list[Point2]:
        """Canonical vertices in clockwise boundary order."""
        return [Point2(0.0, 0.0), Point2(0.0, self.u),
                Point2(self.s, self.t), Point2(self.v, self.w)]

    @property
    def sides(self) -> list[tuple[Point2, Point2]]:
        """Sides S1..S4 as point pairs (clockwise labeling)."""
        o, a, b, c = self.vertices
        return [(o, c), (o, a), (a, b), (b, c)]

    @property
    def side_lengths(self) -> list[float]:
        return [math.hypot(q.x - p.x, q.y - p.y) for p, q in self.sides]

    @property
    def perimeter(self) -> float:
        return sum(self.side_lengths)

    @property
    def diameter(self) -> float:
        pts = self.vertices
        return max(math.hypot(q.x - p.x, q.y - p.y)
                   for i, p in enumerate(pts) for q in pts[i + 1:])

    @property
    def interval(self) -> tuple[float, float]:
        """Open interval of admissible center abscissas."""
        return (min(self.v, self.s) / 2.0, max(self.v, self.s) / 2.0)

    @property
    def diagonal_slopes(self) -> tuple[float, float]:
        """Slopes of D1 and D2 (never vertical in canonical pose)."""
        return (self.t / self.s, (self.w - self.u) / self.v)


class QuadKind(str, Enum):
    GENERAL = "general"
    MDQ_TYPE1 = "mdq_type1"
    MDQ_TYPE2 = "mdq_type2"


@dataclass(frozen=True)
class QuadClass:
    kind: QuadKind
    tangential: bool
    orthodiagonal: bool
    residuals: dict[str, float]


@dataclass(frozen=True)
class NewtonSegment:
    """Open segment joining the diagonal midpoints: the locus of centers of
    inscribed ellipses."""

    m1: Point2
    m2: Point2
    interval: tuple[float, float]
    slope: float
    intercept: float

    def y_at(self, x: float) -> float:
        return self.slope * x + self.intercept


class TangentialResiduals(NamedTuple):
    z: float
    pitot: float
    cond27: float
    cond36: float


# ---------------------------------------------------------------------------
# validation and canonical pose
# ---------------------------------------------------------------------------


def _cross(o: Point2, a: Point2, b: Point2) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _signed_area(pts: Sequence[Point2]) -> float:
    acc = 0.0
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        acc += p.x * q.y - q.x * p.y
    return 0.5 * acc


def _strictly_inside_triangle(p: Point2, tri: Sequence[Point2], eps: float) -> bool:
    a, b, c = tri
    d1 = _cross(a, b, p)
    d2 = _cross(b, c, p)
    d3 = _cross(c, a, p)
    return (d1 > eps and d2 > eps and d3 > eps) or (d1 < -eps and d2 < -eps and d3 < -eps)


def validate(vertices: Sequence[PointLike]) -> list[Point2]:
    """Check convexity and return the vertices in strict clockwise order.

    The returned cycle starts at the first input vertex.  Raises
    :class:`Degenerate` for repeated/collinear/non-finite input and
    :class:`NotConvex` when one vertex falls inside the triangle of the
    other three.  Every test runs on coordinates relative to the first
    vertex, so a quad far from the origin is judged by its shape alone.
    """
    if len(vertices) != 4:
        raise Degenerate("exactly four vertices are required")
    pts = []
    for p in vertices:
        x, y = float(p[0]), float(p[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise Degenerate("non-finite vertex coordinate")
        pts.append(Point2(x, y))
    x0, y0 = pts[0]
    rel = [Point2(p.x - x0, p.y - y0) for p in pts]

    diam = max(math.hypot(q.x - p.x, q.y - p.y)
               for i, p in enumerate(rel) for q in rel[i + 1:])
    if diam == 0.0:
        raise Degenerate("all vertices coincide")
    for i in range(4):
        for j in range(i + 1, 4):
            if math.hypot(rel[j].x - rel[i].x, rel[j].y - rel[i].y) <= 1e-12 * diam:
                raise Degenerate("repeated vertex")
    area_eps = 1e-12 * diam * diam
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                if abs(_cross(rel[i], rel[j], rel[k])) <= area_eps:
                    raise Degenerate("three vertices are collinear")
    for i in range(4):
        others = [rel[j] for j in range(4) if j != i]
        if _strictly_inside_triangle(rel[i], others, area_eps):
            raise NotConvex("a vertex lies inside the triangle of the other three")

    # Order around the centroid (counterclockwise), then flip to clockwise and
    # anchor at the original first vertex.
    cx = sum(p.x for p in rel) / 4.0
    cy = sum(p.y for p in rel) / 4.0
    order = sorted(range(4), key=lambda i: math.atan2(rel[i].y - cy, rel[i].x - cx))
    order.reverse()
    k = order.index(0)
    order = order[k:] + order[:k]
    cycle = [rel[i] for i in order]

    if _signed_area(cycle) >= 0.0:
        raise NotConvex("vertices do not bound a clockwise convex cycle")
    for i in range(4):
        c = _cross(cycle[i], cycle[(i + 1) % 4], cycle[(i + 2) % 4])
        if c >= -area_eps:
            raise NotConvex("boundary turns are not uniformly clockwise")
    return [pts[i] for i in order]


def _reject_trapezoid(cw: Sequence[Point2], tol: float) -> None:
    edges = []
    for i in range(4):
        p, q = cw[i], cw[(i + 1) % 4]
        edges.append((q.x - p.x, q.y - p.y))
    for i in (0, 1):
        ax, ay = edges[i]
        bx, by = edges[i + 2]
        cross = ax * by - ay * bx
        if abs(cross) <= tol * math.hypot(ax, ay) * math.hypot(bx, by):
            raise Trapezoid("opposite sides are parallel within tolerance; "
                            "trapezoids and parallelograms are unsupported")


def _labeling(points: Sequence[Point2], start: int, reflect: bool
              ) -> tuple[tuple[float, float, float, float, float], Isometry2]:
    """Pose parameters for one dihedral labeling of a clockwise 4-cycle.

    ``reflect`` walks the cycle backwards and mirrors the plane, so the
    mapped cycle is clockwise again.
    """
    if reflect:
        order = [points[(start - i) % 4] for i in range(4)]
    else:
        order = [points[(start + i) % 4] for i in range(4)]
    p0, p1, p2, p3 = order

    def flip(p: Point2) -> Point2:
        return Point2(p.x, -p.y) if reflect else p

    q0, q1 = flip(p0), flip(p1)
    dx, dy = q1.x - q0.x, q1.y - q0.y
    theta = 0.5 * math.pi - math.atan2(dy, dx)
    c, sn = math.cos(theta), math.sin(theta)
    # + 0.0 normalizes a signed zero from negating an origin coordinate
    iso = Isometry2(theta,
                    Point2(-(c * q0.x - sn * q0.y) + 0.0,
                           -(sn * q0.x + c * q0.y) + 0.0),
                    reflect)
    u = math.hypot(dx, dy)
    st = iso.apply(p2)
    vw = iso.apply(p3)
    return (st.x, st.y, u, vw.x, vw.y), iso


def canonicalize(vertices: Sequence[PointLike], *, tol: float = DEFAULT_TOL) -> CanonicalQuad:
    """Move a convex quadrilateral into canonical pose by an isometry.

    All eight dihedral labelings are tried; among those satisfying (R0)
    strictly, the one anchoring the shortest side on the y axis wins
    (smallest u; ties: larger s, then larger t - w, then lowest labeling
    index).  Raises :class:`Trapezoid` when a pair of opposite sides is
    parallel within ``tol`` and :class:`NoValidLabeling` when no labeling
    admits the canonical pose.
    """
    cw = validate(vertices)
    _reject_trapezoid(cw, tol)

    best = None
    best_key = None
    for reflect in (False, True):
        for start in range(4):
            params, iso = _labeling(cw, start, reflect)
            s, t, u, v, w = params
            if not (s > 0 and v > 0 and u > 0 and t > w):
                continue
            key = (-u, s, t - w, -start, -int(reflect))
            if best_key is None or key > best_key:
                best_key = key
                best = (params, iso)
    if best is None:
        raise NoValidLabeling("no dihedral labeling satisfies the pose constraints")
    (s, t, u, v, w), iso = best
    if not (v * (t - u) + (u - w) * s > 0 and v * t - w * s > 0):
        raise NoValidLabeling("convexity constraints fail in the selected pose")
    return CanonicalQuad(s, t, u, v, w, iso)


def diagonal_swapped_labelings(cq: CanonicalQuad) -> list[CanonicalQuad]:
    """Valid relabelings of ``cq`` that exchange the roles of D1 and D2.

    The returned quads use the canonical frame of ``cq`` as their raw frame
    (so ``alt.iso`` maps cq-frame coordinates to alt-frame coordinates) and
    are sorted by decreasing t - w.  The list may be empty.
    """
    pts = cq.vertices
    out = []
    for reflect in (False, True):
        for start in (1, 3):
            (s, t, u, v, w), iso = _labeling(pts, start, reflect)
            if not (s > 0 and v > 0 and u > 0 and t > w):
                continue
            if not (v * (t - u) + (u - w) * s > 0 and v * t - w * s > 0):
                continue
            out.append(CanonicalQuad(s, t, u, v, w, iso))
    out.sort(key=lambda q: (q.t - q.w, q.s), reverse=True)
    return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _z_terms(s: float, t: float, u: float, v: float, w: float
             ) -> tuple[float, float, float]:
    """The two top-level terms of the tangentiality polynomial plus the
    magnitude scale of the first term's addends (the addends can cancel
    exactly, e.g. on kites, so the term value itself is no scale)."""
    a1 = (v * v + w * w) * (s * s + (t - u) ** 2)
    a2 = (t * u - v * s - w * t) ** 2
    a3 = u * u * ((s - v) ** 2 + (t - w) ** 2)
    t1 = a1 - a2 - a3
    t2 = 4.0 * (u * (t * u - v * s - w * t)) ** 2 * ((s - v) ** 2 + (t - w) ** 2)
    return t1, t2, a1 + a2 + a3


def tangential_residuals(cq: CanonicalQuad) -> TangentialResiduals:
    """Raw residuals of the tangentiality tests.

    ``z`` is the polynomial tangentiality quantity (a difference of two
    large squares, so it is numerically delicate), ``pitot`` the difference
    of opposite side-length sums, and ``cond27``/``cond36`` the reduced
    tangentiality conditions for type-1 and type-2 MDQs respectively.
    """
    s, t, u, v, w = cq.params
    t1, t2, _ = _z_terms(s, t, u, v, w)
    sides = cq.side_lengths
    pitot = (sides[0] + sides[2]) - (sides[1] + sides[3])
    cond27 = v * (t * t - s * s) - 2.0 * w * s * t
    cond36 = 2.0 * (v * s + w * t) - (s * s + t * t)
    return TangentialResiduals(t1 * t1 - t2, pitot, cond27, cond36)


def classify(cq: CanonicalQuad, *, tol: float = DEFAULT_TOL) -> QuadClass:
    """Classify a canonical quad: MDQ type, tangential, orthodiagonal.

    All comparisons are relative to the natural scale of the compared
    expression.  The Pitot side-length test decides tangentiality (the
    polynomial quantity ``z`` is only a cross-check because it subtracts
    huge squares); the residuals map reports every test.
    """
    s, t, u, v, w = cq.params
    vtws = v * t - w * s

    r1 = u * s - vtws
    scale1 = max(abs(u * s), abs(v * t), abs(w * s))
    r2 = u * (2.0 * v - s) - vtws
    scale2 = max(abs(u * (2.0 * v - s)), abs(v * t), abs(w * s))
    is1 = abs(r1) <= tol * scale1
    is2 = abs(r2) <= tol * scale2
    if is1 and is2:
        # Simultaneous fit needs s = v, which (R2) excludes: keep the better.
        if abs(r1) * scale2 <= abs(r2) * scale1:
            is2 = False
        else:
            is1 = False
    kind = QuadKind.MDQ_TYPE1 if is1 else QuadKind.MDQ_TYPE2 if is2 else QuadKind.GENERAL

    residuals_raw = tangential_residuals(cq)
    perimeter = cq.perimeter
    pitot_rel = abs(residuals_raw.pitot) / perimeter
    tangential = pitot_rel <= tol

    _, t2, t1_scale = _z_terms(s, t, u, v, w)
    z_scale = t1_scale * t1_scale + abs(t2)
    z_rel = abs(residuals_raw.z) / z_scale if z_scale > 0 else 0.0
    if tangential and z_rel > math.sqrt(tol):
        log.warning("Pitot test says tangential but the polynomial residual "
                    "disagrees (%.3e); trusting Pitot", z_rel)

    m1, m2 = cq.diagonal_slopes
    ortho_res = abs(m1 * m2 + 1.0)

    residuals = {
        "type1": abs(r1) / scale1,
        "type2": abs(r2) / scale2,
        "pitot": pitot_rel,
        "z": z_rel,
        "orthodiagonal": ortho_res,
    }
    return QuadClass(kind, tangential, ortho_res <= tol, residuals)


def newton_segment(cq: CanonicalQuad) -> NewtonSegment:
    """Segment of admissible inscribed-ellipse centers."""
    s, t, u, v, w = cq.params
    m1 = Point2(v / 2.0, (w + u) / 2.0)
    m2 = Point2(s / 2.0, t / 2.0)
    slope = (w + u - t) / (v - s)
    intercept = t / 2.0 - slope * s / 2.0
    return NewtonSegment(m1, m2, cq.interval, slope, intercept)


def diagonal_angle(cq: CanonicalQuad) -> float:
    """Smallest non-negative angle between the diagonals, in [0, pi/2].

    Computed with a two-argument arctangent so perpendicular diagonals give
    exactly pi/2.
    """
    m1, m2 = cq.diagonal_slopes
    return math.atan2(abs(m2 - m1), abs(1.0 + m1 * m2))
