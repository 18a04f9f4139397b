"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np

from helpers import (Q5_VERTICES, Line2, canonical_vertices, center_quadratic, closed_form_h,
                     coefficients, ellipse_delta, fd_gradient, grid_argmax, interior_points,
                     line_tangency, maximize_h, moved_vertices, numpy_ratio_sq,
                     random_general, random_isometry, random_kite, random_type1,
                     random_type2, ratio_sq_closed_form, ratio_sq_function,
                     ratio_sq_prime, spectral, tangent_slope, type1_factored_quartic)
from inellipse import (Conic, canonicalize, classify, diagonal_angle, solve,
                       tangency_points)
from inellipse.family import stationarity
from inellipse.oracle import TANGENCY_TOL, _line_residual
from inellipse.quad import QuadKind, _r1

SQRT61 = math.sqrt(61.0)
SQRT65 = math.sqrt(65.0)


def report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_golden_example():
    t0 = time.perf_counter()

    cq = canonicalize(Q5_VERTICES)
    assert cq.interval == (1.0, 2.0)

    o = center_quadratic(cq)
    for got, want in zip((o.c2, o.c1, o.c0), (16 * -13.0, 16 * -18.0, 16 * 36.0)):
        assert abs(got - want) <= 1e-12 * abs(want)

    hp = closed_form_h(cq)
    hp_want = 3.0 / 13.0 * (-3.0 + SQRT61)
    assert abs(hp - hp_want) <= 1e-12 * hp_want

    g = ratio_sq_closed_form(cq)
    g_want = (33.0 - SQRT65) / 32.0
    assert abs(g - g_want) <= 1e-12 * g_want

    assert abs(4.0 * g / (1.0 - g) ** 2 - 64.0) <= 1e-9
    assert abs(math.tan(diagonal_angle(cq)) - 8.0) <= 1e-10

    ours = coefficients(cq, hp).normalized()
    expected = Conic((35 - 3 * SQRT61) * 29, (35 - 3 * SQRT61) * (-4),
                  (35 - 3 * SQRT61) * 36, 48 * (72 - 11 * SQRT61),
                  96 * (72 - 11 * SQRT61), 16 * (887 - 105 * SQRT61)).normalized()
    for a, b in zip(ours, expected):
        assert abs(a - b) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"golden example took {elapsed:.3f}s"
    report(1, "golden example")


def test_criterion_2_angle_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for gen in (random_type1, random_type2):
        for _ in range(500):
            res = solve(gen(rng))
            worst = max(worst, res.residual)
            assert res.residual <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"angle sweep took {elapsed:.1f}s"
    report(2, f"conjugate-diameter angle property, worst residual {worst:.2e}")


def test_criterion_3_discriminant_identities():
    rng = np.random.default_rng(2027)
    n = 1000
    for _ in range(n):
        cq = random_general(rng)
        lo, hi = cq.interval
        h = float(lo + (hi - lo) * rng.uniform(0.05, 0.95))
        c = coefficients(cq, h)
        sp = spectral(cq, h)
        s, _, u, v, _ = cq.params
        rhs = 16.0 * u * (s - v) ** 2 * sp.cubic

        disc = 4.0 * c.A * c.C - c.B ** 2
        scale = max(abs(4.0 * c.A * c.C), c.B ** 2, abs(rhs))
        assert abs(disc - rhs) <= 1e-9 * scale

        scale2 = max(sp.trace ** 2, sp.gap_sq, abs(rhs))
        assert abs(sp.trace ** 2 - sp.gap_sq - rhs) <= 1e-9 * scale2

        delta = ellipse_delta(c)
        want = 1.0 / (4.0 * (s - v) ** 2)
        assert abs(delta - want) <= 1e-10 * want
    report(3, f"discriminant identities on {n} pairs")


def test_criterion_4_tangency():
    rng = np.random.default_rng(2028)
    for _ in range(200):
        cq = random_general(rng)
        lo, hi = cq.interval
        h = float(lo + (hi - lo) * rng.uniform(0.05, 0.95))
        c = coefficients(cq, h)
        s, t, u, v, w = cq.params
        term_scale = max(abs(x) for x in c)

        tps = tangency_points(cq, h)
        side_slopes = [w / v, None, (t - u) / s, (t - w) / (s - v)]
        for tp, m_want in zip(tps, side_slopes):
            assert 0.0 < tp.lam < 1.0
            x, y = tp.zeta
            assert abs(c(x, y)) <= 1e-9 * term_scale * (1 + x * x + y * y)
            m_got = tangent_slope(c, tp.zeta, tol=1e-7)
            if m_want is None:
                assert m_got is None
            else:
                assert abs(m_got - m_want) <= 1e-7 * (1 + abs(m_want))

        cn = c.normalized()
        for p, q in cq.sides:
            assert line_tangency(cn, Line2.through(p, q))[0] == "tangent"
            assert _line_residual(cn, p, q) <= TANGENCY_TOL
    report(4, "tangency on 200 pairs")


def test_criterion_5_derivative_correctness():
    rng = np.random.default_rng(2029)
    for _ in range(100):
        cq = random_general(rng)
        f = ratio_sq_function(cq)
        pts = interior_points(cq, 20)
        pairs = [(ratio_sq_prime(cq, h), fd_gradient(f, h, 1e-6)) for h in pts]
        scale = max(max(abs(a), abs(b)) for a, b in pairs)
        for analytic, fd in pairs:
            assert abs(analytic - fd) <= 1e-6 * scale

    for _ in range(50):
        cq = random_type1(rng)
        lam = float(rng.uniform(0.05, 0.95))
        p = stationarity(cq)(lam)[0]
        factored = type1_factored_quartic(cq, lam)
        assert abs(p - factored) <= 1e-9 * max(abs(p), abs(factored))
    report(5, "derivative correctness")


def test_criterion_6_solver_cross_validation():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for _ in range(500):
        cq = random_type1(rng)
        lo, hi = cq.interval
        h_closed = closed_form_h(cq)
        h_num, _ = maximize_h(cq)
        gap = abs(h_closed - h_num) / (hi - lo)
        worst = max(worst, gap)
        assert gap <= 1e-9

    n = 100_000
    for _ in range(100):
        cq = random_general(rng)
        lo, hi = cq.interval
        h_num, _ = maximize_h(cq)
        h_grid, _ = grid_argmax(numpy_ratio_sq(cq), cq.interval, n)
        assert abs(h_num - h_grid) <= 2.0 * (hi - lo) / n
    report(6, f"solver cross-validation, worst closed-vs-numeric {worst:.2e} of |I|")


def test_criterion_7_positivity_suite():
    rng = np.random.default_rng(2031)
    for _ in range(1000):
        cq = random_general(rng)
        s, t, u, v, w = cq.params
        o = center_quadratic(cq)
        assert o.k > 0.0
        assert o.p1 > 0.0
        assert o(v / 2.0) * o(s / 2.0) < 0.0
        p, q = _r1(s, t, u, v, w)
        assert p > 0.0 and q > 0.0
        for h in interior_points(cq, 100, trim=0.005):
            sp = spectral(cq, h)
            assert sp.cubic > 0.0
            assert sp.trace > 0.0
            assert all(0.0 < tp.lam < 1.0 for tp in tangency_points(cq, h))
    report(7, "positivity suite on 1000 quads x 100 samples")


def test_criterion_8_tangential_implies_orthodiagonal():
    rng = np.random.default_rng(2032)
    for _ in range(200):
        cq = random_kite(rng)
        qc = classify(cq)
        assert qc.tangential
        assert qc.kind is not QuadKind.GENERAL
        assert qc.residuals["orthodiagonal"] <= 1e-8
        assert qc.residuals["pitot"] <= 1e-9
        assert qc.residuals["z"] <= 1e-9

        res = solve(cq)
        assert res.geom.eccentricity <= 1e-8
        assert abs(res.gamma - math.pi / 2.0) <= 1e-9
        assert abs(res.alpha - math.pi / 2.0) <= 1e-9
        assert res.residual <= 1e-8
    report(8, "tangential MDQs collapse to the incircle")


def test_criterion_9_isometry_invariance():
    rng = np.random.default_rng(2033)
    gens = [random_type1, random_type2, random_general]
    for i in range(50):
        src = gens[i % 3](rng)
        base_cq = canonicalize(canonical_vertices(src))
        base_res = solve(base_cq)
        base_cls = classify(base_cq)
        for _ in range(20):
            iso = random_isometry(rng)
            cq = canonicalize(moved_vertices(src, iso))
            qc = classify(cq)
            assert qc.kind is base_cls.kind
            assert qc.tangential == base_cls.tangential
            assert qc.orthodiagonal == base_cls.orthodiagonal
            res = solve(cq)
            assert abs(res.geom.eccentricity - base_res.geom.eccentricity) <= 1e-9
            assert abs(res.gamma - base_res.gamma) <= 1e-9
            assert abs(res.alpha - base_res.alpha) <= 1e-9
    report(9, "isometry invariance, 50 quads x 20 isometries")


def test_criterion_10_negative_control():
    rng = np.random.default_rng(2034)
    found = 0
    tried = 0
    worst = 0.0
    for _ in range(200):
        cq = random_general(rng)
        if classify(cq).kind is not QuadKind.GENERAL:
            continue
        tried += 1
        res = solve(cq)
        worst = max(worst, res.residual)
        if res.residual > 0.01:
            found += 1
    assert tried >= 100
    assert found >= 1, "no non-MDQ quadrilateral with |gamma - alpha| > 0.01 found"
    report(10, f"negative control: {found}/{tried} non-MDQs exceed 0.01 "
               f"(max {worst:.3f})")
