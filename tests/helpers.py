"""Shared deterministic generators for the test suite.

All generators take a numpy Generator seeded by the caller, so every test
run sees the same quadrilaterals.  Parameters are drawn uniformly from
[0.5, 10] and rejection-sampled against the canonical-pose constraints,
with a small floor on |s - v| (and on 2v - s for the type-2 family) so the
drawn quads stay numerically well-conditioned: near-trapezoids make the
inscribed-family coefficients cancel catastrophically.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from inellipse import CanonicalQuad, Isometry2, Point2

LO, HI = 0.5, 10.0
SV_MARGIN = 0.05

Q5_VERTICES = [(0.0, 0.0), (0.0, 2.0), (4.0, 6.0), (2.0, 1.0)]


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


def mp_family(cq: CanonicalQuad):
    """mpmath callables h -> (b/a)^2 and h -> y(h) of the inscribed family,
    built from the defining coefficient formulas in the pose parameters.
    Evaluate them inside ``mpmath.workdps``."""
    s, t, u, v, w = (mpmath.mpf(x) for x in cq.params)
    sv = s - v

    def y(h):
        return t / 2 + (w + u - t) / (v - s) * (h - s / 2)

    def ratio(h):
        a = 4 * sv * sv * (y(h) ** 2 + w * u * (2 * h - s) / sv)
        b = 4 * sv * (2 * (u + w - t) * h * h + (v * (t - 2 * u) - s * (u + w)) * h + u * v * s)
        c = 4 * sv * sv * h * h
        gap = mpmath.sqrt((a - c) ** 2 + b * b)
        return (a + c - gap) / (a + c + gap)

    return ratio, y
