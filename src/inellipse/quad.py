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
rejected outright.  The family's model, its tangency points and the
solved conic (at the model's scale) divide by no s - v, and the solved
member is named by lam*; but ``family_point`` takes the center abscissa
h, whose interval is a point when s = v.

Side and diagonal conventions, in clockwise order from the origin:

    S1 = (0,0)-(v,w)   S2 = (0,0)-(0,u)   S3 = (0,u)-(s,t)   S4 = (s,t)-(v,w)
    D1 = (0,0)-(s,t)   D2 = (0,u)-(v,w)

A quadrilateral is a *midpoint-diagonal* quadrilateral (MDQ) when the
diagonal intersection coincides with the midpoint of at least one diagonal;
type 1 puts D1 on the line through the diagonal midpoints, type 2 puts D2
there.  Which type is reported depends on the labeling: the labelings
starting at (0, u) or (v, w) swap D1 and D2, and so the two types.

Of the eight dihedral labelings satisfying (R0), :func:`canonicalize` keeps
the one anchoring the shortest side on the y axis (ties: larger s, then
larger t - w, then lowest labeling index).  Each side has two labelings,
forward from its first vertex and mirrored from its second, and both have
u = its length.  So the distinct side lengths are tried shortest first:
both labelings of every side of that length are mapped, and the largest
key (s, t - w, -start, -reflect) among those that satisfy (R0) wins.  Only
mapped values are compared, so no rounding of another formula can pick
the labeling.

One tolerance, ``DEFAULT_TOL`` = 1e-9, relative to the scale of each
test, decides every classification: parallel sides in
:func:`canonicalize`, and the MDQ types, tangency and orthodiagonality in
:func:`classify`.  No caller can set another.  The class is a report:
``minecc.solve`` never classifies, so no tolerance picks its answer, and
only the parallel-side test, which rejects, changes an outcome.
``classify`` reports each test's value in ``residuals`` for callers who
want a threshold of their own.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import Degenerate, NoValidLabeling, NotConvex, Trapezoid

DEFAULT_TOL = 1e-9

# Accepted diameters, 2^-56 to 2^56.  ``solve`` and ``verify`` hold far
# wider: built without this check, [(0,0),(0,3),(4,6),(2,1)] scaled by 2^k
# passes every oracle for k in [-176, 167], where the degree-6 stationarity
# quartic under- or overflows.  Widening the range is a behaviour change.
DIAMETER_RANGE = (2.0 ** -56, 2.0 ** 56)

PointLike = Sequence[float]


class Point2(NamedTuple):
    x: float
    y: float


class Isometry2(NamedTuple):
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
        # q -> R(-angle) (q - T); reflected, F R(-angle) (q - T) = R(angle) F (q - T)
        a = self.angle if self.reflect else -self.angle
        c, s = math.cos(a), math.sin(a)
        tx, ty = self.translation
        if self.reflect:
            ty = -ty
        return Isometry2(a, Point2(-(c * tx - s * ty), -(s * tx + c * ty)), self.reflect)


class _Pose(NamedTuple):
    s: float
    t: float
    u: float
    v: float
    w: float
    iso: Isometry2


class CanonicalQuad(_Pose):
    """Quadrilateral in canonical pose plus the isometry that produced it.

    ``iso`` maps raw input coordinates onto the canonical coordinates; its
    inverse takes canonical-frame results back to the input frame.  Every
    construction, ``_make``, ``_replace`` and unpickling included, checks
    (R0)-(R2) and raises ValueError when they fail.
    """

    __slots__ = ()

    def __new__(cls, s: float, t: float, u: float, v: float, w: float,
                iso: Isometry2) -> "CanonicalQuad":
        if not _pose_ok(s, t, u, v, w):
            raise ValueError("canonical parameters violate the pose constraints")
        p, q = _r1(s, t, u, v, w)
        if not (p > 0 and q > 0):
            raise ValueError("canonical parameters describe a non-convex cycle")
        if s == v or w * s - v * (t - u) == 0:
            raise ValueError("parallel side pair: quadrilateral unsupported")
        return super().__new__(cls, s, t, u, v, w, iso)

    @classmethod
    def _make(cls, iterable) -> "CanonicalQuad":
        return cls(*iterable)

    @classmethod
    def from_params(cls, s: float, t: float, u: float, v: float, w: float) -> "CanonicalQuad":
        """Canonical quad whose raw frame *is* the canonical frame.  Raises
        :class:`Degenerate` first for a diameter outside ``DIAMETER_RANGE``."""
        pts = [(0.0, 0.0), (0.0, float(u)), (float(s), float(t)), (float(v), float(w))]
        d = _diameter(pts)
        _check_diameter(d * d, pts)
        return cls(float(s), float(t), float(u), float(v), float(w), Isometry2.identity())

    @property
    def params(self) -> tuple[float, float, float, float, float]:
        return self[:5]

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
    def diameter(self) -> float:
        return _diameter(self.vertices)

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


class QuadClass(NamedTuple):
    kind: QuadKind
    tangential: bool
    orthodiagonal: bool
    residuals: dict[str, float]


class NewtonSegment(NamedTuple):
    """Open segment joining the diagonal midpoints: the locus of centers of
    inscribed ellipses."""

    m1: Point2
    m2: Point2
    interval: tuple[float, float]
    slope: float
    intercept: float

    def y_at(self, x: float) -> float:
        # point-slope form through m2
        return self.m2.y + self.slope * (x - self.m2.x)


# ---------------------------------------------------------------------------
# validation and canonical pose
# ---------------------------------------------------------------------------


def _diameter(p: Sequence[PointLike]) -> float:
    """Largest distance between two of the points p, each by ``hypot``."""
    return max(math.hypot(c - a, d - b) for i, (a, b) in enumerate(p) for c, d in p[i + 1:])


def _check_diameter(diam2: float, pts: Sequence[PointLike]) -> None:
    """Raise :class:`Degenerate` unless diam2, the squared diameter of pts,
    lies in the square of ``DIAMETER_RANGE``; the message takes the diameter
    by :func:`_diameter`, which does not over- or underflow where diam2 does."""
    lo, hi = DIAMETER_RANGE
    if not lo * lo <= diam2 <= hi * hi:
        raise Degenerate(f"diameter {_diameter(pts):.3e} outside the accepted range "
                         f"[2^{math.frexp(lo)[1] - 1}, 2^{math.frexp(hi)[1] - 1}] = "
                         f"[{lo:.3e}, {hi:.3e}]")


def validate(vertices: Sequence[PointLike]) -> list[Point2]:
    """Check convexity and return the vertices in strict clockwise order.

    The returned cycle starts at the first input vertex.  Raises
    :class:`Degenerate` for repeated/collinear/non-finite input or a
    diameter outside ``DIAMETER_RANGE``, and
    :class:`NotConvex` when one vertex falls inside the triangle of the
    other three.  Every test runs on coordinates relative to the first
    vertex, so a quad far from the origin is judged by its shape alone.
    The signs of the four triangle orientations give both convexity and
    the cyclic order (one sign pattern per vertex opposite the first).
    """
    if len(vertices) != 4:
        raise Degenerate("exactly four vertices are required")
    pts = []
    for p in vertices:
        x, y = float(p[0]), float(p[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise Degenerate("non-finite vertex coordinate")
        pts.append(Point2(x, y))
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    x1, y1, x2, y2, x3, y3 = x1 - x0, y1 - y0, x2 - x0, y2 - y0, x3 - x0, y3 - y0
    x21, y21, x31, y31, x32, y32 = x2 - x1, y2 - y1, x3 - x1, y3 - y1, x3 - x2, y3 - y2
    dist2 = (x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3,
             x21 * x21 + y21 * y21, x31 * x31 + y31 * y31, x32 * x32 + y32 * y32)
    if not (x1 or y1 or x2 or y2 or x3 or y3):
        raise Degenerate("all vertices coincide")
    diam2 = max(dist2)
    _check_diameter(diam2, pts)
    if min(dist2) <= 1e-24 * diam2:
        raise Degenerate("repeated vertex")
    o012 = x1 * y2 - y1 * x2
    o013 = x1 * y3 - y1 * x3
    o023 = x2 * y3 - y2 * x3
    o123 = x21 * y31 - y21 * x31
    if min(abs(o012), abs(o013), abs(o023), abs(o123)) <= 1e-12 * diam2:
        raise Degenerate("three vertices are collinear")
    a, b, c, d = o012 > 0.0, o013 > 0.0, o023 > 0.0, o123 > 0.0
    if a == b == c == d:
        order = [0, 1, 2, 3]
    elif a == b != c == d:
        order = [0, 1, 3, 2]
    elif b == c != a == d:
        order = [0, 2, 1, 3]
    else:
        raise NotConvex("a vertex lies inside the triangle of the other three")
    if a == (order[1] == 1):      # first turn counterclockwise: reverse
        order[1:] = order[:0:-1]
    return [pts[i] for i in order]


def _labeling(points: list[Point2], start: int, reflect: bool, u: float
              ) -> tuple[tuple[float, float, float, float, float], Isometry2]:
    """Pose parameters for one dihedral labeling of a clockwise 4-cycle of
    ``validate``'s points.  u is the length of its first side: hypot of
    that edge has the same bits whichever way the edge is walked.

    ``reflect`` walks the cycle backwards and mirrors the plane, so the
    mapped cycle is clockwise again.
    """
    if reflect:
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = points[start::-1] + points[:start:-1]
        y0, y1, y2, y3 = -y0, -y1, -y2, -y3
    else:
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = points[start:] + points[:start]
    theta = 0.5 * math.pi - math.atan2(y1 - y0, x1 - x0)
    c, sn = math.cos(theta), math.sin(theta)
    # + 0.0 normalizes a signed zero from negating an origin coordinate
    tx, ty = -(c * x0 - sn * y0) + 0.0, -(sn * x0 + c * y0) + 0.0
    return ((c * x2 - sn * y2 + tx, sn * x2 + c * y2 + ty, u,
             c * x3 - sn * y3 + tx, sn * x3 + c * y3 + ty),
            Isometry2(theta, Point2(tx, ty), reflect))


def _pose_ok(s: float, t: float, u: float, v: float, w: float) -> bool:
    """(R0) holds: the labeling admits the canonical pose."""
    return s > 0 and v > 0 and u > 0 and t > w


def _r1(s: float, t: float, u: float, v: float, w: float) -> tuple[float, float]:
    """The (R1) convexity forms P = v(t - u) + (u - w) s and Q = v t - w s."""
    return v * (t - u) + (u - w) * s, v * t - w * s


def canonicalize(vertices: Sequence[PointLike]) -> CanonicalQuad:
    """Move a convex quadrilateral into canonical pose by an isometry.

    The labeling follows the anchor rule of the module docstring.  Raises
    :class:`Trapezoid` when a pair of opposite sides is parallel within
    ``DEFAULT_TOL`` and :class:`NoValidLabeling` when no labeling admits
    the canonical pose.
    """
    cw = validate(vertices)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = cw
    edges = ((x1 - x0, y1 - y0), (x2 - x1, y2 - y1), (x3 - x2, y3 - y2), (x0 - x3, y0 - y3))
    lengths = [math.hypot(ex, ey) for ex, ey in edges]
    for i in (0, 1):
        (ax, ay), (bx, by) = edges[i], edges[i + 2]
        if abs(ax * by - ay * bx) <= DEFAULT_TOL * lengths[i] * lengths[i + 2]:
            raise Trapezoid("opposite sides are parallel within tolerance; "
                            "trapezoids and parallelograms are unsupported")
    for length in sorted(set(lengths)):
        best = None
        for k in range(4):
            if lengths[k] == length:
                for start, reflect in ((k, False), ((k + 1) % 4, True)):
                    params, iso = _labeling(cw, start, reflect, length)
                    if _pose_ok(*params):
                        key = (params[0], params[1] - params[4], -start, -reflect)
                        if best is None or key > best[0]:
                            best = key, params, iso
        if best:
            _, params, iso = best
            break
    else:
        raise NoValidLabeling("no dihedral labeling satisfies the pose constraints")
    try:        # rounding can break (R1) or (R2) in the pose picked
        return CanonicalQuad(*params, iso)
    except ValueError as exc:
        raise NoValidLabeling(f"the selected pose fails: {exc}") from None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _z_terms(s: float, t: float, u: float, v: float, w: float) -> tuple[float, float]:
    """z = t1^2 - t2, the polynomial tangentiality quantity, and a magnitude scale
    for it (t1's addends can cancel exactly, e.g. on kites), on the pose scaled by a
    power of two into [-1, 1]: z (degree 8) stays finite, and z / scale keeps its bits."""
    k = math.ldexp(1.0, -math.frexp(max(abs(s), abs(t), u, abs(v), abs(w)))[1])
    s, t, u, v, w = s * k, t * k, u * k, v * k, w * k
    m, d2 = t * u - v * s - w * t, (s - v) * (s - v) + (t - w) * (t - w)
    a1 = (v * v + w * w) * (s * s + (t - u) * (t - u))
    a2, a3 = m * m, u * u * d2
    t1, scale = a1 - a2 - a3, a1 + a2 + a3
    t2 = 4.0 * (u * m) * (u * m) * d2
    return t1 * t1 - t2, scale * scale + abs(t2)


def classify(cq: CanonicalQuad) -> QuadClass:
    """Classify a canonical quad: MDQ type, tangential, orthodiagonal.

    Each test compares its expression with ``DEFAULT_TOL`` times the
    expression's natural scale.  The Pitot side-length test decides
    tangentiality; the polynomial quantity ``z``, which subtracts huge
    squares, is only reported.  The residuals map reports every test, in
    sorted key order.
    """
    s, t, u, v, w = cq.params
    _, vtws = _r1(s, t, u, v, w)

    r1 = u * s - vtws
    scale1 = max(abs(u * s), abs(v * t), abs(w * s))
    r2 = u * (2.0 * v - s) - vtws
    scale2 = max(abs(u * (2.0 * v - s)), abs(v * t), abs(w * s))
    is1 = abs(r1) <= DEFAULT_TOL * scale1
    is2 = abs(r2) <= DEFAULT_TOL * scale2
    if is1 and is2:
        # Simultaneous fit needs s = v, which (R2) excludes: keep the better.
        if abs(r1) * scale2 <= abs(r2) * scale1:
            is2 = False
        else:
            is1 = False
    kind = QuadKind.MDQ_TYPE1 if is1 else QuadKind.MDQ_TYPE2 if is2 else QuadKind.GENERAL

    sides = [math.hypot(v, w), u, math.hypot(s, t - u), math.hypot(v - s, w - t)]   # S1..S4
    pitot_rel = abs((sides[0] + sides[2]) - (sides[1] + sides[3])) / sum(sides)
    z, z_scale = _z_terms(s, t, u, v, w)

    m1, m2 = cq.diagonal_slopes
    ortho_res = abs(m1 * m2 + 1.0)

    residuals = {
        "orthodiagonal": ortho_res,
        "pitot": pitot_rel,
        "type1": abs(r1) / scale1,
        "type2": abs(r2) / scale2,
        "z": abs(z) / z_scale if z_scale > 0 else 0.0,
    }
    return QuadClass(kind, pitot_rel <= DEFAULT_TOL, ortho_res <= DEFAULT_TOL, residuals)


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
