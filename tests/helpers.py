"""Shared deterministic generators for the test suite.

All generators take a numpy Generator seeded by the caller, so every test
run sees the same quadrilaterals.  Parameters are drawn uniformly from
[0.5, 10] and rejection-sampled against the canonical-pose constraints,
with a small floor on |s - v| (and on 2v - s for the type-2 family) so the
drawn quads stay numerically well-conditioned: on near-trapezoids the
abscissa h and the segment coordinate, which divides by s - v, lose digits
(``sv_pool`` draws below that floor on purpose).
The module also holds a brute-force canonical pose (every labeling mapped
and compared) that ``canonicalize`` must reproduce exactly, the
brute-force grid argmax, a global check of ``solve``'s h* that needs no
theorem (run on ``numpy_ratio_sq``, the numpy twin of
:func:`ratio_sq_function`), the sampled trace and the 50-digit support
distances that bracket ``oracle.containment``, the angle-bisector
incircle, 50-digit references built from the
defining coefficient formulas, the side linears that gave the tangency
parameters before they were written in s - 2h and 2h - v, float references that the package does
not need (the conic coefficients of the member
at h, the squared axis ratio as a function of h and its central
difference ``fd_gradient``, the conic scaling, sign orientation and
coefficient norm that ``Conic.normalized`` folds into one step, the general
conic-to-shape route ``geometry`` with its ``is_ellipse`` test and its copy
of ``solve``'s axis-angle rule, the tangent slope of a conic, the
slope-intercept ``Line2`` with the discriminant test ``line_tangency`` as
a reference for ``oracle._line_residual``, the analytic
derivative of the squared axis ratio, the trace, A - C and B quadratics
of the model, the end values of its factor l5, the numeric root as a
center abscissa), the sign of the slope of (b/a)^2 in exact rationals
from the defining formulas (``exact_slope_sign``), the paper's closed
forms (the type-1 center quadratic, the type-1 and type-2 roots and the
type-1 ratio), which ``solve`` no longer takes and is checked against,
seeded quads next to the MDQ locus and next to kites, named quads shared
by several test modules, the input pools of the benchmark
(``bench/``, imported, never edited), and a recursive JSON printer that
lays out each report independently of the CLI's ``%`` templates.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from inellipse import (CanonicalQuad, Conic, Degenerate, EllipseGeometry, Isometry2,
                       NotAnEllipse, NotConvex, NoValidLabeling, Point2,
                       QuadKind, Trapezoid, canonicalize, classify, maximize_ratio_sq)
from inellipse import family
from inellipse.cli import _scalar
from inellipse.oracle import side_distance_lines
from inellipse.quad import _r1

LO, HI = 0.5, 10.0
SV_MARGIN = 0.05

Q5_VERTICES = [(0.0, 0.0), (0.0, 2.0), (4.0, 6.0), (2.0, 1.0)]
KITE_VERTICES = [(0, 0), (0, 2), (3, 3), (2, 0)]

# Quads whose minimal member has (b/a)^2 near 1e-5 (cli_verify pools).
THIN_OPTIMA = [
    [(-8.217929138545804, -16.919672832578552), (-3.64189980652165, -19.925107357374493),
     (-3.650858566578352, -19.929631255792305), (-10.90796386040008, -15.16941150968211)],
    [(2.022854291048981, 2.8828995385693053), (-5.823906703907173, 4.1624560500265115),
     (-5.023432940125692, 4.060551571317096), (2.030812566257694, 2.9134488536780907)],
    [(-17.838429416917094, 3.3694747497702444), (-12.584073795627008, 4.9566544372300205),
     (-13.866967269643457, 4.584435825964986), (-17.85617448039283, 3.384293964226856)],
]

# |s - v| / diameter about 1e-8 (the solve_illcond benchmark, seed 1)
NEAR_TRAPEZOIDS = [
    [(18.426898543454257, 0.7137505309083356), (10.655425389833326, -2.122503233771191),
     (10.924446429642272, -2.5743976541380658), (19.509107133119205, -1.104115173859133)],
    [(0.3606632395591518, 6.660943774847809), (6.188929829835843, 9.383982175264052),
     (4.022984841904415, 11.717887606454621), (-3.7293375692540582, 11.068108088718475)],
    [(8.064518214135303, 12.22901547981737), (1.9505378776269957, 11.536086845578481),
     (-0.7720850838773217, 19.317211744831567), (1.886164781680999, 19.618484714196825)],
]

# A near-trapezoid 9.5e7 from the origin: it passes the 1e-9 Trapezoid test,
# but rounding makes the pose canonicalize picks exactly parallel (s == v)
PARALLEL_BY_ROUNDING = [(73140463.28885953, 60237535.22579613),
                        (73140462.47541164, 60237534.617051095),
                        (73140460.61270885, 60237536.751129046),
                        (73140461.12188001, 60237537.13216811)]

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def bench_module(name: str):
    """A module of the benchmark harness under ``bench/``, imported as is."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    return importlib.import_module(name)


def bench_pool(name: str, seed: int) -> list[tuple[str, CanonicalQuad]]:
    """The input pool of the benchmark's mixed workload ``name``
    (solve_mixed or cli_verify), canonicalized, with each quad's tag:
    general, mdq_type1, mdq_type2 or kite."""
    workloads = bench_module("workloads")
    items = workloads.mixed_items(random.Random(seed), workloads.POOL[name])
    return [(it.tag, canonicalize(it.vertices)) for it in items]


def cli_verify_pool(seed: int) -> list[CanonicalQuad]:
    """The input pool of the benchmark's cli_verify workload, canonicalized."""
    return [cq for _, cq in bench_pool("cli_verify", seed)]


def cli_verify_inputs(seed: int) -> list[list[tuple[float, float]]]:
    """The vertices of ``cli_verify_pool(seed)`` as its CLI input files hold them."""
    workloads = bench_module("workloads")
    return [it.vertices for it in workloads.mixed_items(random.Random(seed),
                                                        workloads.POOL["cli_verify"])]


def make_quad(s, t, u, v, w) -> CanonicalQuad:
    return CanonicalQuad.from_params(s, t, u, v, w)


def try_params(s, t, u, v, w):
    try:
        return CanonicalQuad.from_params(s, t, u, v, w)
    except ValueError:
        return None


def random_general(rng) -> CanonicalQuad:
    while True:
        s, t, u, v, w = rng.uniform(LO, HI, 5)
        if t <= w or abs(s - v) < SV_MARGIN:
            continue
        cq = try_params(s, t, u, v, w)
        if cq is not None:
            return cq


def random_type1(rng) -> CanonicalQuad:
    """Quad whose lower-left/upper-right diagonal carries the center line."""
    while True:
        s, t, v, w = rng.uniform(LO, HI, 4)
        if t <= w or v * t - w * s <= 0 or abs(s - v) < SV_MARGIN:
            continue
        u = (v * t - w * s) / s
        cq = try_params(s, t, u, v, w)
        if cq is not None:
            return cq


def random_type2(rng) -> CanonicalQuad:
    """Quad whose other diagonal carries the center line."""
    while True:
        s, t, v, w = rng.uniform(LO, HI, 4)
        if t <= w or v * t - w * s <= 0 or abs(s - v) < SV_MARGIN:
            continue
        if 2.0 * v - s < SV_MARGIN:
            continue
        u = (v * t - w * s) / (2.0 * v - s)
        cq = try_params(s, t, u, v, w)
        if cq is not None:
            return cq


def random_kite(rng) -> CanonicalQuad:
    """Tangential type-1 quad: s = t, v = u, w = 0."""
    while True:
        s = rng.uniform(1.0, HI)
        v = rng.uniform(LO, min(1.9 * s, HI))
        if abs(s - v) < SV_MARGIN:
            continue
        cq = try_params(s, s, v, v, 0.0)
        if cq is not None:
            return cq


def sv_pool(count: int = 32, seed: int = 1301) -> list[CanonicalQuad]:
    """Quads below SV_MARGIN: ``count`` drawn with |s - v| / diameter
    log-uniform in [1e-8, 5e-2] (of either sign), then THIN_OPTIMA and
    NEAR_TRAPEZOIDS, canonicalized."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < count:
        s, t, u, w = rng.uniform(LO, HI, 4)
        gap = 10.0 ** rng.uniform(-8.0, math.log10(5e-2))
        diameter = max(math.hypot(s, t), math.hypot(s, t - u), math.hypot(s, w),
                       math.hypot(s, w - u), u, t - w)
        v = s + (gap if rng.integers(0, 2) else -gap) * diameter
        cq = try_params(s, t, u, v, w)
        if cq is not None and 1e-8 <= abs(s - v) / cq.diameter <= 5e-2:
            quads.append(cq)
    return quads + [canonicalize(q) for q in THIN_OPTIMA + NEAR_TRAPEZOIDS]


def near_parallel_poses(count: int, k: int, seed: int) -> list[CanonicalQuad]:
    """``count`` poses with s - v = +-10^-k s, the signs alternating, built
    by ``CanonicalQuad.from_params``, which skips the parallel-side test of
    ``canonicalize``: S4 is within about 10^-k of parallel to S2, as in
    every labeling of a parallelogram, and the center segment is about
    10^-k s long."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < count:
        s, t, u, w = rng.uniform(LO, HI, 4)
        cq = try_params(s, t, u, s * (1.0 + (-1) ** len(quads) * 10.0 ** -k), w)
        if cq is not None:
            quads.append(cq)
    return quads


def random_isometry(rng) -> Isometry2:
    return Isometry2(float(rng.uniform(-math.pi, math.pi)),
                     Point2(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20))),
                     bool(rng.integers(0, 2)))


def canonical_vertices(cq: CanonicalQuad) -> list[tuple[float, float]]:
    return [tuple(p) for p in cq.vertices]


def moved_vertices(cq: CanonicalQuad, iso: Isometry2) -> list[Point2]:
    return [iso.apply(p) for p in cq.vertices]


def interior_points(cq: CanonicalQuad, n: int, trim: float = 0.05) -> list[float]:
    """n evenly spaced abscissas in the trimmed interior of the interval."""
    lo, hi = cq.interval
    width = hi - lo
    a = lo + trim * width
    b = hi - trim * width
    return [a + (b - a) * (i + 0.5) / n for i in range(n)]


def random_h(cq: CanonicalQuad, rng, trim: float = 0.05) -> float:
    lo, hi = cq.interval
    return float(lo + (hi - lo) * rng.uniform(trim, 1.0 - trim))


def mp_conic(cq: CanonicalQuad, num=mpmath.mpf):
    """mpmath callable h -> the six coefficients (A, B, C, D, E, F) of the
    family member at h, by the defining formulas in the pose parameters
    (at the defining scale).  Evaluate it inside ``mpmath.workdps``; with
    ``num=Fraction`` it is exact in rationals."""
    s, t, u, v, w = (num(x) for x in cq.params)
    sv = s - v

    def conic(h):
        y = t / 2 + (w + u - t) / (v - s) * (h - s / 2)
        return (4 * sv * sv * (y * y + w * u * (2 * h - s) / sv),
                4 * sv * (2 * (u + w - t) * h * h + (v * (t - 2 * u) - s * (u + w)) * h
                          + u * v * s),
                4 * sv * sv * h * h,
                2 * u * (2 * h - s) * (2 * (v * (w + t - u) - 2 * w * s) * h
                                       + v * (s * (u + w) - v * t)),
                4 * u * v * sv * h * (2 * h - s),
                u * u * v * v * (2 * h - s) ** 2)

    return conic


def mp_family(cq: CanonicalQuad):
    """mpmath callables h -> (b/a)^2 and h -> y(h) of the inscribed family,
    built from the defining coefficient formulas (:func:`mp_conic`).
    Evaluate them inside ``mpmath.workdps``."""
    s, t, u, v, w = (mpmath.mpf(x) for x in cq.params)
    conic = mp_conic(cq)

    def y(h):
        return t / 2 + (w + u - t) / (v - s) * (h - s / 2)

    def ratio(h):
        a, b, c = conic(h)[:3]
        gap = mpmath.sqrt((a - c) ** 2 + b * b)
        return (a + c - gap) / (a + c + gap)

    return ratio, y


def exact_slope_sign(cq: CanonicalQuad):
    """Callable lam -> the sign (-1, 0 or 1) of d(b/a)^2/dlam at lam, in
    ``Fraction``s from the defining formulas (:func:`mp_conic`): the sign
    of p = 2 T' G - T G' (T = A + C, G = (A - C)^2 + B^2).  A, B and C are
    quadratics in lam (h = (v + (s - v) lam) / 2), each interpolated
    exactly from its values at lam = -1, 0 and 1."""
    conic = mp_conic(cq, Fraction)
    s, v = Fraction(cq.s), Fraction(cq.v)
    ends = [conic((v + (s - v) * y) / 2)[:3] for y in (-1, 0, 1)]
    quadratics = [(f0, (f1 - fm) / 2, (f1 - 2 * f0 + fm) / 2) for fm, f0, f1 in zip(*ends)]

    def sign(lam: float) -> int:
        x = Fraction(lam)
        (a, da), (b, db), (c, dc) = [(c0 + (c1 + c2 * x) * x, c1 + 2 * c2 * x)
                                     for c0, c1, c2 in quadratics]
        p = 2 * (da + dc) * ((a - c) ** 2 + b * b) - (a + c) * 2 * ((a - c) * (da - dc) + b * db)
        return (p > 0) - (p < 0)

    return sign


class SideLinears(NamedTuple):
    """Linear functions of h that gave the tangency parameters before they
    were written in n = s - 2h and m = 2h - v (``family._side_parameters``).

    (s - v) * l1..l3 > 0 and l4, l5 > 0 everywhere on the center interval.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    l5: float


def side_linears(params, h) -> SideLinears:
    """The side linears of the pose ``params`` = (s, t, u, v, w) at h.
    Integer literals only, so sympy symbols and mpmath numbers go through."""
    s, t, u, v, w = params
    return SideLinears(
        2 * (v * (t - u) - w * s) * h + v * (s * (u + w) - v * t),
        2 * (v * (u - t) + w * s) * h + s * (v * (t - 2 * u) + s * (u - w)),
        (v * (t - u) + (u - w) * s) * (s - 2 * h),
        -2 * u * h + v * t + s * (u - w),
        2 * (v * (t - u) - w * s) * h + u * v * s,
    )


def side_linear_parameters(params, h) -> tuple:
    """lam1..lam4 of the tangency points from the side linears; lam2 and
    lam4 divide by s - v.  Evaluated in 50 digits, the reference for
    ``family._side_parameters``."""
    s, t, u, v, w = params
    lin = side_linears(params, h)
    return ((s - 2 * h) * u * v / lin.l1, (s - 2 * h) * v / (2 * h * (s - v)),
            (2 * h - v) * s * u / lin.l2, lin.l3 / ((s - v) * lin.l4))


def mp_semi_axes(cq: CanonicalQuad, h):
    """Semi-axes (a, b) of the member at h from the general conic formulas,
    determinant and all.  Evaluate it inside ``mpmath.workdps``."""
    a_, b_, c_, d_, e_, f_ = mp_conic(cq)(h)
    disc = 4 * a_ * c_ - b_ * b_
    delta = 4 * (c_ * d_ * d_ + a_ * e_ * e_ - b_ * d_ * e_ - f_ * disc) / disc ** 2
    gap = mpmath.sqrt((a_ - c_) ** 2 + b_ * b_)
    return mpmath.sqrt(delta * (a_ + c_ + gap) / 2), mpmath.sqrt(delta * (a_ + c_ - gap) / 2)


def grid_argmax(f, interval: tuple[float, float], n: int = 100_000
                ) -> tuple[float, float]:
    """Argmax of f over n uniform interior samples; ties pick the lowest h.

    Vectorizes through f when it accepts numpy arrays, otherwise falls
    back to a scalar loop.
    """
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


def l5_ends(cq: CanonicalQuad) -> tuple[float, float]:
    """The end values v P and s Q of l5, the linear factor of the family's
    ``cubic``, with the (R1) forms P and Q of ``quad._r1``."""
    p, q = _r1(*cq.params)
    return cq.v * p, cq.s * q


def ratio_sq_function(cq: CanonicalQuad):
    """Callable h -> squared axis ratio (b/a)^2 of the member at h.

    Evaluated in the segment coordinate as 16 u lam (1-lam) l5 /
    (trace + gap)^2 of the model: the identity trace^2 - gap_sq =
    16 u lam (1-lam) l5 turns (trace - gap) / (trace + gap) into a quotient
    of products, so a thin member ((b/a)^2 near 0) keeps full relative
    precision instead of the cancellation of trace - gap.  Scalar; the gap
    is ``math.sqrt``, correctly rounded.  No interval validation.
    """
    (t2, t1, t0), (d2, d1, d0), (b2, b1, b0) = spectral_quadratics(cq)
    e0, e1 = l5_ends(cq)
    v, sv, k, sqrt = cq.v, cq.s - cq.v, 16.0 * cq.u, math.sqrt

    def ratio_sq(h: float) -> float:
        lam = (2.0 * h - v) / sv
        trace = (t2 * lam + t1) * lam + t0
        diff, b = (d2 * lam + d1) * lam + d0, (b2 * lam + b1) * lam + b0     # A - C, B
        den = trace + sqrt(diff * diff + b * b)                               # trace + gap
        return ((1.0 - lam) * e0 + lam * e1) * lam * (1.0 - lam) * k / (den * den)

    return ratio_sq


def fd_gradient(f, h: float, step: float) -> float:
    """Central difference (f(h+step) - f(h-step)) / (2 step)."""
    return (f(h + step) - f(h - step)) / (2.0 * step)


def numpy_ratio_sq(cq: CanonicalQuad):
    """The numpy twin of :func:`ratio_sq_function`: callable h (an array)
    -> (b/a)^2, with the same float operations in the same order and the
    gap from ``np.sqrt``, which rounds correctly as ``math.sqrt`` does, so
    each entry has the scalar function's bits.  The brute force
    (:func:`grid_argmax`) runs on it."""
    (t2, t1, t0), (d2, d1, d0), (b2, b1, b0) = spectral_quadratics(cq)
    e0, e1 = l5_ends(cq)
    v, sv, k = cq.v, cq.s - cq.v, 16.0 * cq.u

    def ratio_sq(h):
        lam = (2.0 * np.asarray(h, dtype=float) - v) / sv
        trace = (t2 * lam + t1) * lam + t0
        diff = (d2 * lam + d1) * lam + d0
        b = (b2 * lam + b1) * lam + b0
        den = trace + np.sqrt(diff * diff + b * b)
        return ((1.0 - lam) * e0 + lam * e1) * lam * (1.0 - lam) * k / (den * den)

    return ratio_sq


def numpy_containment(g: EllipseGeometry, cq: CanonicalQuad, n: int = 256) -> list[float]:
    """The sampled twin of ``oracle.containment``: per side line, the least
    signed distance of the n points at theta_k = k (2 pi / n) of the
    ellipse ``g``, traced in numpy.  The exact support distance is at most
    this, and at least this minus rad (1 - cos(pi / n)) (rad of
    :func:`mp_support_distances`), up to rounding."""
    ang = g.major_axis_angle or 0.0
    ca, sa = math.cos(ang), math.sin(ang)
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ex = g.a * np.cos(th)
    ey = g.b * np.sin(th)
    xs = g.center.x + ex * ca - ey * sa
    ys = g.center.y + ex * sa + ey * ca
    return [float(np.min(nx * xs + ny * ys + c)) for nx, ny, c in side_distance_lines(cq)]


def mp_support_distances(g: EllipseGeometry, cq: CanonicalQuad) -> list[tuple]:
    """(d, rad) per side line at 50 digits: d is the least signed distance
    of the ellipse ``g`` (its floats taken exactly) from the line through
    the side's float end points, positive toward the quad, and rad the
    half-width of the ellipse across that line, so the farthest point is
    at d + 2 rad."""
    with mpmath.workdps(50):
        cx = sum(mpmath.mpf(p.x) for p in cq.vertices) / 4
        cy = sum(mpmath.mpf(p.y) for p in cq.vertices) / 4
        ang = mpmath.mpf(g.major_axis_angle or 0.0)
        ca, sa = mpmath.cos(ang), mpmath.sin(ang)
        x0, y0, a, b = (mpmath.mpf(x) for x in (*g.center, g.a, g.b))
        out = []
        for px, py, qx, qy in (map(mpmath.mpf, (*p, *q)) for p, q in cq.sides):
            nx, ny = qy - py, px - qx
            norm = mpmath.sqrt(nx * nx + ny * ny)
            nx, ny = nx / norm, ny / norm
            c = -(nx * px + ny * py)
            if nx * cx + ny * cy + c < 0:
                nx, ny, c = -nx, -ny, -c
            rad = mpmath.sqrt((a * (nx * ca + ny * sa)) ** 2 + (b * (ny * ca - nx * sa)) ** 2)
            out.append((nx * x0 + ny * y0 + c - rad, rad))
        return out


def support_rounding(g: EllipseGeometry, cq: CanonicalQuad) -> float:
    """A bound on the float error of a support distance of ``g`` or of a
    traced point's signed distance, from the side lines' rounding (their
    normals within 2 eps, c within 3 eps of |p|, p a vertex) and from the
    center, semi-axes and axis terms: 16 eps (|x0| + |y0| + max |p| + a + b)."""
    reach = max(abs(p.x) + abs(p.y) for p in cq.vertices)
    return 16.0 * 2.0 ** -53 * (abs(g.center.x) + abs(g.center.y) + reach + g.a + g.b)


def incircle(cq: CanonicalQuad) -> tuple[Point2, float]:
    """Center and radius of the inscribed circle of a tangential quad, by
    angle bisectors: a reference for the circle ``solve`` reports.

    Constructed as the intersection of the internal angle bisectors at two
    adjacent vertices (bisectors at opposite vertices can coincide, e.g. on
    a kite's symmetry axis); the radius is the distance to a side line.
    Raises ValueError when the quad is not tangential or the four side
    distances fail to agree to 1e-6 of the diameter.
    """
    if not classify(cq).tangential:
        raise ValueError("quadrilateral fails the side-length test for an incircle")
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
        raise ValueError("angle bisectors do not intersect")
    rx, ry = p1.x - o.x, p1.y - o.y
    tau = (rx * (-bb[1]) - ry * (-bb[0])) / det
    center = Point2(o.x + tau * ba[0], o.y + tau * ba[1])

    dists = [nx * center.x + ny * center.y + c
             for nx, ny, c in side_distance_lines(cq)]
    radius = dists[0]
    if radius <= 0.0 or max(dists) - min(dists) > 1e-6 * cq.diameter:
        raise ValueError("bisector intersection is not equidistant from the sides")
    return center, radius


def near_tangential_kites(count: int, seed: int) -> list[CanonicalQuad]:
    """Type-1 midpoint-diagonal quads next to a kite (s, s, v, v, 0), with
    v / s log-uniform in [1e-3, 2] and a signed Pitot residual drawn
    uniformly in +-1e-9, so ``classify`` calls each tangential.  The kite
    moves along a random direction of (t, w), with u = (vt - ws)/s keeping
    it on the type-1 locus; the step is the drawn residual over the
    Pitot residual per unit step in that direction, taken at 1e-6."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < count:
        s = float(rng.uniform(LO, HI))
        v = s * 10.0 ** float(rng.uniform(-3.0, math.log10(2.0)))
        phi = float(rng.uniform(-math.pi, math.pi))

        def pose(eps):
            t, w = s * (1.0 + eps * math.cos(phi)), s * eps * math.sin(phi)
            return try_params(s, t, (v * t - w * s) / s, v, w)

        probe = pose(1e-6)
        if probe is None:
            continue
        cq = pose(float(rng.uniform(-1e-9, 1e-9)) * 1e-6 / classify(probe).residuals["pitot"])
        if cq is not None:
            qc = classify(cq)
            if qc.tangential and qc.kind is QuadKind.MDQ_TYPE1:
                quads.append(cq)
    return quads


def near_mdqs(count: int, seed: int) -> list[CanonicalQuad]:
    """Quads next to the midpoint-diagonal locus, types 1 and 2 in turn,
    with the MDQ residual that ``classify`` reports drawn uniformly in
    +-1e-9, so it calls each an MDQ of that type.  s, t, v are drawn as
    for :func:`random_type1` and :func:`random_type2`, the side on the y
    axis log-uniform in [1e-4, 10], and w puts the pose on the locus for
    that u; then u moves by the drawn residual times the test's scale."""
    rng = np.random.default_rng(seed)
    quads = []
    while len(quads) < count:
        s, t, v = rng.uniform(LO, HI, 3)
        u = 10.0 ** rng.uniform(-4.0, 1.0)
        den = s if len(quads) % 2 == 0 else 2.0 * v - s      # u den = vt - ws
        if abs(s - v) < SV_MARGIN or den < SV_MARGIN:
            continue
        w = (v * t - u * den) / s
        scale = max(u * den, abs(v * t), abs(w * s))
        cq = try_params(s, t, u + rng.uniform(-1e-9, 1e-9) * scale / den, v, w)
        if cq is not None:
            quads.append(cq)
    return quads


def type1_factored_quartic(cq: CanonicalQuad, lam: float) -> float:
    """The type-1 factorization of the stationarity quartic,
    256 h ((s-v)/s)^4 (vt - ws)^2 (s - h) o(h) in the abscissa h, taken to
    the segment coordinate lam and to the scale of ``family.stationarity``:
    d/dh = (2/(s-v)) d/dlam and the model is the family over (s-v)^2, so
    p_h = 2 (s-v)^5 p_lam."""
    s, t, u, v, w = cq.params
    h = (v + (s - v) * lam) / 2.0
    p_h = 256.0 * h * ((s - v) / s) ** 4 * (v * t - w * s) ** 2 * (s - h) * center_quadratic(cq)(h)
    return p_h / (2.0 * (s - v) ** 5)


# ---------------------------------------------------------------------------
# float references
# ---------------------------------------------------------------------------


def scaled(c, k: float) -> Conic:
    """c with each coefficient multiplied by k."""
    return Conic(*(k * x for x in c))


def oriented(c) -> Conic:
    """c sign-flipped if necessary so that A + C > 0 (no rescaling)."""
    return scaled(c, -1.0) if c.A + c.C < 0 else c


def norm(c) -> float:
    """Euclidean norm of the six coefficients."""
    return math.sqrt(sum(x * x for x in c))


def major_axis_angle(c, trace: float, gap_sq: float):
    """Major-axis angle of an ellipse with A + C = trace > 0 and
    (A - C)^2 + B^2 = gap_sq, by the rule of ``minecc.solve``: the
    eigenvector of the larger eigenvalue is at 1/2 atan2(B, A - C), the
    major axis perpendicular to it, reported in (-pi/2, pi/2]; None when
    the ellipse is a circle to machine precision."""
    if gap_sq <= 1e-24 * trace * trace:
        return None
    angle = 0.5 * math.atan2(c.B, c.A - c.C) + math.pi / 2.0
    return angle - math.pi if angle > math.pi / 2.0 else angle


class EllipseCheck(NamedTuple):
    """Result of the two-part ellipse test; truthy iff both parts pass."""

    ok: bool
    ellipse_disc: float       # 4AC - B^2
    nondegeneracy: float      # CD^2 + AE^2 - BDE - F(4AC - B^2)

    def __bool__(self) -> bool:
        return self.ok


def is_ellipse(c) -> EllipseCheck:
    """True iff the conic is a nondegenerate real ellipse.

    Requires 4AC - B^2 > 0 (elliptic type) and a positive nondegeneracy
    quantity, both evaluated after orienting the sign so A + C > 0.
    """
    A, B, C, D, E, F = oriented(c)
    disc = 4.0 * A * C - B * B
    ndg = C * D * D + A * E * E - B * D * E - F * disc
    return EllipseCheck(disc > 0.0 and ndg > 0.0, disc, ndg)


def geometry(c) -> EllipseGeometry:
    """Center, semi-axes, eccentricity and axis angle of an ellipse from its
    six coefficients, at any scale or sign: the general conic route, a
    reference for the shape ``minecc.solve`` reads from the family model.
    Its (4AC - B^2)^2 is of degree 16 in the diameter of a family member."""
    check = is_ellipse(c)
    if not check:
        raise NotAnEllipse("coefficients do not describe a nondegenerate ellipse")
    c = oriented(c)
    A, B, C, D, E, F = c
    disc, ndg = check.ellipse_disc, check.nondegeneracy
    delta = 4.0 * ndg / (disc * disc)
    trace = A + C
    gap = math.hypot(A - C, B)
    a_sq = delta * (trace + gap) / 2.0
    b_sq = delta * disc / (2.0 * (trace + gap))   # = delta (trace - gap) / 2, stable
    ecc = math.sqrt(2.0 * gap / (trace + gap))
    cx = (B * E - 2.0 * C * D) / disc
    cy = (B * D - 2.0 * A * E) / disc
    return EllipseGeometry(Point2(cx, cy), math.sqrt(a_sq), math.sqrt(b_sq),
                           ecc, major_axis_angle(c, trace, gap * gap))


def ellipse_delta(c) -> float:
    """delta = 4 nondegeneracy / (4AC - B^2)^2 of an ellipse, from the same
    floats as :func:`geometry`; 1-homogeneous in the coefficients."""
    check = is_ellipse(c)
    return 4.0 * check.nondegeneracy / (check.ellipse_disc * check.ellipse_disc)


def tangent_slope(c, p, *, tol: float = 1e-9):
    """Slope of the conic at a point on it; None marks a vertical tangent.

    Raises ValueError when the point misses the conic relative to the local
    term scale or when both partial derivatives vanish there.
    """
    x, y = float(p[0]), float(p[1])
    A, B, C, D, E, F = c
    value = c(x, y)
    scale = (abs(A * x * x) + abs(B * x * y) + abs(C * y * y)
             + abs(D * x) + abs(E * y) + abs(F)) or 1.0
    if abs(value) > tol * scale:
        raise ValueError(f"residual {value!r} exceeds {tol!r} of term scale {scale!r}")
    gx, gy = 2.0 * A * x + B * y + D, B * x + 2.0 * C * y + E
    gnorm = math.hypot(gx, gy)
    gscale = (abs(2.0 * A * x) + abs(B * y) + abs(D)
              + abs(B * x) + abs(2.0 * C * y) + abs(E)) or 1.0
    if gnorm <= tol * gscale:
        raise ValueError("conic gradient vanishes at the point")
    if abs(gy) <= tol * gnorm:
        return None
    return -gx / gy


class Line2(NamedTuple):
    """Line in slope-intercept form; ``slope is None`` marks a vertical
    line whose ``intercept`` is then the x offset."""

    slope: float | None
    intercept: float

    @classmethod
    def through(cls, p, q) -> "Line2":
        dx = q[0] - p[0]
        dy = q[1] - p[1]
        if abs(dx) <= 1e-15 * (abs(dx) + abs(dy)):
            return cls(None, p[0])
        m = dy / dx
        return cls(m, p[1] - m * p[0])

    @property
    def is_vertical(self) -> bool:
        return self.slope is None


def line_tangency(c, line: Line2) -> tuple[str, float]:
    """"disjoint", "tangent" or "secant" for a line against an ellipse,
    with the discriminant of the conic restricted to the line; "tangent"
    means |disc| at most 1e-9 of the squared coefficient scale of that
    quadratic.  A reference for ``oracle._line_residual``; unlike that
    residual, its scale depends on how the line is parametrized."""
    A, B, C, D, E, F = c
    if line.is_vertical:
        x0 = line.intercept
        q2, q1, q0 = C, B * x0 + E, (A * x0 + D) * x0 + F
    else:
        m, b0 = line.slope, line.intercept
        q2 = A + B * m + C * m * m
        q1 = B * b0 + 2.0 * C * m * b0 + D + E * m
        q0 = C * b0 * b0 + E * b0 + F
    disc = q1 * q1 - 4.0 * q2 * q0
    scale = max(q1 * q1, abs(4.0 * q2 * q0)) or 1.0
    if abs(disc) <= 1e-9 * scale:
        return "tangent", disc
    return ("secant" if disc > 0.0 else "disjoint"), disc


def coefficients(cq: CanonicalQuad, h: float) -> Conic:
    """Unnormalized conic coefficients of the family member at h, at the
    defining scale: ``family_point(cq, h).conic`` without its tangency
    points."""
    family._require_h(cq, h)
    return family._at(cq, family._segment_coordinate(cq, h))[0]


def tangency_points(cq: CanonicalQuad, h: float) -> list[family.TangentPoint]:
    """Tangency points of the family member at h with sides S1..S4, with
    their barycentric parameters: ``family_point(cq, h).tangency`` without
    the conic."""
    family._require_h(cq, h)
    return list(family._tangency(cq, cq.s - 2.0 * h, 2.0 * h - cq.v))


def spectral(cq: CanonicalQuad, h: float) -> family.FamilyPoint:
    """The family member at h, read for its spectral quantities (trace,
    gap_sq, ratio_sq in the product form, cubic): ``family_point(cq, h)``."""
    return family.family_point(cq, h)


def maximize_h(cq: CanonicalQuad, **kwargs) -> tuple[float, int]:
    """``minecc.maximize_ratio_sq`` with its root taken to the center
    abscissa: (h, steps)."""
    lam, steps = maximize_ratio_sq(cq, **kwargs)
    return family._abscissa(cq, lam), steps


def ratio_sq_prime(cq: CanonicalQuad, h: float) -> float:
    """Analytic derivative of the squared axis ratio at h.

    d(b/a)^2/dlam = p / (gap (trace + gap)^2) with p the stationarity
    quartic of the model, and dlam/dh = 2 / (s - v).  Raises ValueError
    when the member is circular to machine precision (gap <= 1e-12 trace),
    where the formula divides by the eigenvalue gap.
    """
    family._require_h(cq, h)
    lam = family._segment_coordinate(cq, h)
    mu = 1.0 - lam
    m2, lm, l2 = mu * mu, 2.0 * lam * mu, lam * lam
    a, b, c = (b0 * m2 + b1 * lm + b2 * l2 for b0, b1, b2 in family._model(*cq.params)[:3])
    trace, gap = a + c, math.hypot(a - c, b)        # of the model
    if gap <= 1e-12 * trace:
        raise ValueError("family member is circular at this abscissa")
    return 2.0 / (cq.s - cq.v) * family.stationarity(cq)(lam)[0] / (gap * (trace + gap) ** 2)


def spectral_quadratics(cq: CanonicalQuad):
    """Monomial lam-coefficients (c2, c1, c0) of trace = A + C, A - C and B
    of the model (``family._model``); ``family.stationarity`` builds the
    trace row alone, with the same bits."""
    (a0, a1, a2), b, (c0, c1, c2) = family._model(*cq.params)[:3]
    return [(x0 - 2.0 * x1 + x2, 2.0 * (x1 - x0), x0)
            for x0, x1, x2 in ((a0 + c0, a1 + c1, a2 + c2), (a0 - c0, a1 - c1, a2 - c2), b)]


# ---------------------------------------------------------------------------
# the paper's closed forms: references for the one root path of ``solve``
# ---------------------------------------------------------------------------


class CenterQuadratic(NamedTuple):
    """Quadratic in the center abscissa whose root inside the center
    interval locates the minimal-eccentricity member (type-1 case).

    o(h) = c2 h^2 + c1 h + c0 with c2 = -2(s^2+t^2)(s-v), c1 = -2k,
    c0 = s k.  k and p1 are always positive, and o changes sign across the
    interval, so the bracketed root exists and is unique.
    """

    c2: float
    c1: float
    c0: float
    k: float
    p1: float

    def __call__(self, h: float) -> float:
        return (self.c2 * h + self.c1) * h + self.c0


def center_quadratic(cq: CanonicalQuad) -> CenterQuadratic:
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    st2 = s * s + t * t
    vs, ws, vtws = v * s, w * s, v * t - w * s
    k = vs * vs + vtws * vtws + ws * ws             # (s^2+t^2) v^2 - 2ws(vt - ws)
    p1 = vs * vs + (vtws - ws) ** 2                 # (s^2+t^2) v^2 - 4ws(vt - ws)
    return CenterQuadratic(-2.0 * st2 * (s - v), -2.0 * k, s * k, k, p1)


def type1_root(cq: CanonicalQuad) -> float:
    """Segment coordinate of the type-1 optimum, the root of o(h) in the
    interval:

        lam = 2 s p1 / (((2s - v) sqrt(k) + v sqrt(K)) (sqrt(k) + sqrt(K)))

    with K = k + 2(s^2+t^2) s (s-v).  k and p1 are sums of squares
    (:func:`center_quadratic`); k K is the quarter discriminant of o,
    positive because o has opposite signs at the ends of the interval, so
    K > 0 too.  2s - v > 0 because D1 bisects D2 at abscissa v/2 inside
    (0, s).  So the denominator is positive termwise: the form takes no
    difference of the two roots and no division by s - v.  It is the root
    for the exact type-1 quad with these s, t, v, w, whatever the pose's u.
    """
    s, t, v = cq.s, cq.t, cq.v
    o = center_quadratic(cq)
    rk = math.sqrt(o.k)
    rbig = math.sqrt(o.k + 2.0 * (s * s + t * t) * s * (s - v))
    return 2.0 * s * o.p1 / (((2.0 * s - v) * rk + v * rbig) * (rk + rbig))


def type2_root(cq: CanonicalQuad) -> float:
    """Segment coordinate of the type-2 optimum, u = (vt - ws)/(2v - s).

    There p has the factor q2(h) = 2(s-v) M h^2 - 2 K2 h + v K2 with
    M = (s-2v)^2 + (t-2w)^2 and 2 K2 = s^2 M + (s^2+t^2)(s-2v)^2.  Its
    root in the interval is

        lam = 4 v^2 M / (sqrt(2 K2) + |s - 2v| sqrt(M + s^2 + t^2))^2.

    M > 0 because 2v > s on the locus (u > 0), so both radicands and the
    denominator are sums of squares with a positive term: the root takes
    no difference.
    """
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    d = s - 2.0 * v
    st2 = s * s + t * t
    m = d * d + (t - 2.0 * w) ** 2
    den = math.sqrt(s * s * m + st2 * d * d) + abs(d) * math.sqrt(m + st2)
    return 4.0 * v * v * m / (den * den)


def _require_type1(cq: CanonicalQuad) -> None:
    if classify(cq).kind is not QuadKind.MDQ_TYPE1:
        raise ValueError("closed form requires a type-1 midpoint-diagonal quadrilateral")


def closed_form_h(cq: CanonicalQuad) -> float:
    """Maximizing abscissa of a type-1 midpoint-diagonal quad, from the
    paper's closed-form root (:func:`type1_root`)."""
    _require_type1(cq)
    return family._abscissa(cq, type1_root(cq))


def ratio_sq_closed_form(cq: CanonicalQuad) -> float:
    """Closed-form maximal squared axis ratio for a type-1 MDQ.

    (major - minor) / (major + minor) with major = sqrt((s^2+t^2) p1) and
    minor = |2wst - (t^2 - s^2) v|, taken as the quotient
    (major^2 - minor^2) / (major + minor)^2 with the numerator factored,
    major^2 - minor^2 = 4 s^2 (vt - ws)^2, so a thin optimum loses no
    digits to the difference.  At most 1: above it only by rounding, on
    a circle.
    """
    _require_type1(cq)
    s, t, v, w = cq.s, cq.t, cq.v, cq.w
    st2 = s * s + t * t
    p1 = center_quadratic(cq).p1
    major = math.sqrt(st2) * math.sqrt(p1)
    minor = abs(2.0 * w * s * t - (t * t - s * s) * v)
    return min((2.0 * s * (v * t - w * s) / (major + minor)) ** 2, 1.0)


# ---------------------------------------------------------------------------
# brute-force canonical pose: every dihedral labeling mapped and compared
# ---------------------------------------------------------------------------


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def validate_oracle(vertices) -> list[Point2]:
    """Clockwise cycle from the first vertex, by brute force: every triple
    tested for collinearity, every vertex for lying inside the triangle of
    the other three, the order sorted by angle about the centroid."""
    if len(vertices) != 4:
        raise Degenerate("exactly four vertices are required")
    pts = [Point2(float(p[0]), float(p[1])) for p in vertices]
    if not all(math.isfinite(c) for p in pts for c in p):
        raise Degenerate("non-finite vertex coordinate")
    rel = [Point2(p.x - pts[0].x, p.y - pts[0].y) for p in pts]
    pairs = [(p, q) for i, p in enumerate(rel) for q in rel[i + 1:]]
    diam = max(math.hypot(q.x - p.x, q.y - p.y) for p, q in pairs)
    if diam == 0.0:
        raise Degenerate("all vertices coincide")
    if min(math.hypot(q.x - p.x, q.y - p.y) for p, q in pairs) <= 1e-12 * diam:
        raise Degenerate("repeated vertex")
    eps = 1e-12 * diam * diam
    for i, j, k in itertools.combinations(range(4), 3):
        if abs(_cross(rel[i], rel[j], rel[k])) <= eps:
            raise Degenerate("three vertices are collinear")
    for i in range(4):
        a, b, c = [rel[j] for j in range(4) if j != i]
        d = (_cross(a, b, rel[i]), _cross(b, c, rel[i]), _cross(c, a, rel[i]))
        if all(x > eps for x in d) or all(x < -eps for x in d):
            raise NotConvex("a vertex lies inside the triangle of the other three")
    cx, cy = sum(p.x for p in rel) / 4.0, sum(p.y for p in rel) / 4.0
    order = sorted(range(4), key=lambda i: -math.atan2(rel[i].y - cy, rel[i].x - cx))
    k = order.index(0)
    return [pts[i] for i in order[k:] + order[:k]]


def labeling_oracle(points, start: int, reflect: bool):
    """Pose parameters and isometry of one labeling, mapped point by point
    through :meth:`Isometry2.apply`."""
    step = -1 if reflect else 1
    p0, p1, p2, p3 = [points[(start + step * i) % 4] for i in range(4)]
    sign = -1.0 if reflect else 1.0
    dx, dy = p1[0] - p0[0], sign * p1[1] - sign * p0[1]
    theta = 0.5 * math.pi - math.atan2(dy, dx)
    c, sn = math.cos(theta), math.sin(theta)
    x0, y0 = p0[0], sign * p0[1]
    iso = Isometry2(theta, Point2(-(c * x0 - sn * y0) + 0.0, -(sn * x0 + c * y0) + 0.0),
                    reflect)
    st, vw = iso.apply(p2), iso.apply(p3)
    return (st.x, st.y, math.hypot(dx, dy), vw.x, vw.y), iso


def _pose_and_convex(s, t, u, v, w):
    return (s > 0 and v > 0 and u > 0 and t > w
            and v * (t - u) + (u - w) * s > 0 and v * t - w * s > 0)


def canonicalize_oracle(vertices, tol: float = 1e-9) -> CanonicalQuad:
    """All eight labelings mapped; the largest key (-u, s, t - w, -start,
    -reflect) among those with s, v, u > 0 and t > w wins."""
    cw = validate_oracle(vertices)
    edges = [(q.x - p.x, q.y - p.y) for p, q in zip(cw, cw[1:] + cw[:1])]
    for (ax, ay), (bx, by) in ((edges[0], edges[2]), (edges[1], edges[3])):
        if abs(ax * by - ay * bx) <= tol * math.hypot(ax, ay) * math.hypot(bx, by):
            raise Trapezoid("opposite sides are parallel within tolerance; "
                            "trapezoids and parallelograms are unsupported")
    best = None
    for reflect in (False, True):
        for start in range(4):
            (s, t, u, v, w), iso = labeling_oracle(cw, start, reflect)
            if s > 0 and v > 0 and u > 0 and t > w:
                key = (-u, s, t - w, -start, -int(reflect))
                if best is None or key > best[0]:
                    best = (key, (s, t, u, v, w), iso)
    if best is None:
        raise NoValidLabeling("no dihedral labeling satisfies the pose constraints")
    try:
        return CanonicalQuad(*best[1], best[2])
    except ValueError as exc:
        raise NoValidLabeling(f"the selected pose fails: {exc}") from None


def diagonal_swaps_oracle(cq: CanonicalQuad) -> list[CanonicalQuad]:
    """The four diagonal-swapping labelings mapped, filtered and sorted by
    decreasing (t - w, s)."""
    out = []
    for reflect in (False, True):
        for start in (1, 3):
            params, iso = labeling_oracle(cq.vertices, start, reflect)
            if _pose_and_convex(*params):
                out.append(CanonicalQuad(*params, iso))
    return sorted(out, key=lambda q: (q.t - q.w, q.s), reverse=True)


def placed(cq: CanonicalQuad, rng) -> list[tuple[float, float]]:
    """The quad's vertices moved by a random isometry, from a random start
    vertex, in either orientation."""
    pts = [tuple(p) for p in moved_vertices(cq, random_isometry(rng))]
    k = int(rng.integers(0, 4))
    pts = pts[k:] + pts[:k]
    return pts[::-1] if rng.integers(0, 2) else pts


def to_json_reference(obj, indent: int = 0, pretty: bool = True) -> str:
    """``cli.to_json`` by recursion: leaves by ``cli._scalar``, a list of leaves
    on one line, and pretty, every other non-empty container one item a line."""
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {to_json_reference(v, indent + 1, pretty)}"
                 for k, v in obj.items()]
    elif not isinstance(obj, (list, tuple)):
        return _scalar(obj)
    elif all(isinstance(v, (int, float, str, bool, type(None))) for v in obj):
        return "[" + ", ".join(map(_scalar, obj)) + "]"
    else:
        items = [to_json_reference(v, indent + 1, pretty) for v in obj]
    ends = "{}" if isinstance(obj, dict) else "[]"
    if not (items and pretty):
        return ends[0] + ", ".join(items) + ends[1]
    pad = "\n" + "  " * indent
    return ends[0] + pad + "  " + ("," + pad + "  ").join(items) + pad + ends[1]
