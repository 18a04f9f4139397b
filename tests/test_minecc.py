import math

import mpmath
import numpy as np
import pytest

from helpers import (canonical_vertices, make_quad, moved_vertices, mp_family,
                     random_general, random_isometry, random_kite,
                     random_type1, random_type2)
from inellipse import (NotType1, QuadKind, canonicalize, classify,
                       diagonal_angle, geometry, grid_argmax, incircle,
                       maximize_ratio_sq, newton_segment, ratio_sq_closed_form,
                       ratio_sq_function, solve, spectral)
from inellipse.family import RELATIVE_ENDPOINT_GUARD
from inellipse.minecc import (CLOSED_FORM, NUMERIC, center_quadratic, closed_form_h,
                              stationarity)

SQRT61 = math.sqrt(61.0)
SQRT65 = math.sqrt(65.0)
H_PLUS_GOLDEN = 3.0 / 13.0 * (-3.0 + SQRT61)


@pytest.fixture
def q5():
    return make_quad(4, 6, 2, 2, 1)


@pytest.fixture
def kite():
    return make_quad(3, 3, 2, 2, 0)


class TestCenterQuadratic:
    def test_golden_quad(self, q5):
        o = center_quadratic(q5)
        assert (o.c2, o.c1, o.c0) == (16.0 * -13.0, 16.0 * -18.0, 16.0 * 36.0)
        assert o.k == 144.0 and o.p1 == 80.0

    def test_endpoint_values(self):
        rng = np.random.default_rng(401)
        for _ in range(200):
            cq = random_general(rng)
            s, t, u, v, w = cq.params
            o = center_quadratic(cq)
            lhs_v = o(v / 2.0)
            lhs_s = o(s / 2.0)
            exp_v = 0.5 * (s - v) * o.p1
            exp_s = -0.5 * s * s * (s - v) * (s * s + t * t)
            assert abs(lhs_v - exp_v) <= 1e-10 * max(abs(lhs_v), abs(exp_v))
            assert abs(lhs_s - exp_s) <= 1e-10 * max(abs(lhs_s), abs(exp_s))
            assert lhs_v * lhs_s < 0

    def test_positivity(self):
        rng = np.random.default_rng(402)
        for _ in range(200):
            o = center_quadratic(random_general(rng))
            assert o.k > 0 and o.p1 > 0


class TestClosedFormH:
    def test_golden_quad(self, q5):
        hp = closed_form_h(q5)
        assert abs(hp - H_PLUS_GOLDEN) <= 1e-12 * H_PLUS_GOLDEN

    def test_kite(self, kite):
        hp = closed_form_h(kite)
        assert abs(hp - (math.sqrt(10.0) - 2.0)) <= 1e-14

    def test_root_property(self):
        rng = np.random.default_rng(403)
        for _ in range(100):
            cq = random_type1(rng)
            o = center_quadratic(cq)
            hp = closed_form_h(cq)
            scale = max(abs(o.c2) * hp * hp, abs(o.c1) * hp, abs(o.c0))
            assert abs(o(hp)) <= 1e-11 * scale
            lo, hi = cq.interval
            assert lo < hp < hi

    def test_other_root_outside_interval(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            cq = random_type1(rng)
            s, t, v = cq.s, cq.t, cq.v
            st2 = s * s + t * t
            k = center_quadratic(cq).k
            rk = math.sqrt(k)
            h_minus = rk * (-rk - math.sqrt(2 * st2 * s * (s - v) + k)) \
                / (2 * st2 * (s - v))
            lo, hi = cq.interval
            assert not (lo < h_minus < hi)

    def test_requires_type1(self):
        with pytest.raises(NotType1):
            closed_form_h(make_quad(4, 6, 3, 2, 1))


class TestRatioSqClosedForm:
    def test_golden_quad(self, q5):
        expected = (33.0 - SQRT65) / 32.0
        assert abs(ratio_sq_closed_form(q5) - expected) <= 1e-12 * expected

    def test_kite_is_circle(self, kite):
        assert ratio_sq_closed_form(kite) == 1.0

    def test_agrees_with_spectral(self):
        rng = np.random.default_rng(405)
        for _ in range(100):
            cq = random_type1(rng)
            g1 = ratio_sq_closed_form(cq)
            g2 = spectral(cq, closed_form_h(cq)).ratio_sq
            assert abs(g1 - g2) <= 1e-10 * g1

    def test_angle_identity(self):
        rng = np.random.default_rng(406)
        for _ in range(500):
            cq = random_type1(rng)
            g = ratio_sq_closed_form(cq)
            lhs = 4.0 * g / (1.0 - g) ** 2
            rhs = math.tan(diagonal_angle(cq)) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)


class TestMaximize:
    def test_matches_closed_form_golden(self, q5):
        h, iters = maximize_ratio_sq(q5)
        lo, hi = q5.interval
        assert abs(h - H_PLUS_GOLDEN) <= 1e-9 * (hi - lo)
        assert 0 < iters < 200

    def test_kite_reaches_the_circle(self, kite):
        h, _ = maximize_ratio_sq(kite)
        lo, hi = kite.interval
        assert abs(h - (math.sqrt(10.0) - 2.0)) <= 1e-9 * (hi - lo)
        assert ratio_sq_function(kite)(h) >= 1.0 - 1e-8

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(407)
        for _ in range(100):
            cq = random_type1(rng)
            lo, hi = cq.interval
            h, _ = maximize_ratio_sq(cq)
            assert abs(h - closed_form_h(cq)) <= 1e-9 * (hi - lo)

    def test_brackets_grid_argmax_on_general_quads(self):
        rng = np.random.default_rng(408)
        n = 100_000
        for _ in range(20):
            cq = random_general(rng)
            lo, hi = cq.interval
            h, _ = maximize_ratio_sq(cq)
            hg, _ = grid_argmax(ratio_sq_function(cq), cq.interval, n)
            assert abs(h - hg) <= 2.0 * (hi - lo) / n

    def test_budget_exhaustion_flags_max_iterations(self, q5, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="inellipse.minecc"):
            h, iters = maximize_ratio_sq(q5, max_iter=3)
        assert iters == 3
        assert any("did not converge" in rec.message for rec in caplog.records)
        lo, hi = q5.interval
        assert lo < h < hi   # still returns the best point seen

    def test_derivative_changes_sign_once_for_mdqs(self):
        from inellipse import ratio_sq_prime
        rng = np.random.default_rng(409)
        for _ in range(50):
            cq = random_type1(rng) if rng.integers(0, 2) else random_type2(rng)
            lo, hi = cq.interval
            width = hi - lo
            hs = np.linspace(lo + 1e-6 * width, hi - 1e-6 * width, 1000)
            signs = np.sign([ratio_sq_prime(cq, float(h)) for h in hs])
            changes = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert changes == 1


class TestSolve:
    def test_golden_quad(self, q5):
        res = solve(q5)
        assert res.method == CLOSED_FORM and res.iterations == 0
        assert abs(res.h_star - H_PLUS_GOLDEN) <= 1e-12
        assert abs(math.tan(res.gamma) ** 2 - 64.0) <= 1e-9
        assert abs(math.tan(res.alpha) ** 2 - 64.0) <= 1e-9
        assert res.residual <= 1e-9
        g = res.ratio_sq
        assert abs(4 * g / (1 - g) ** 2 - 64.0) <= 1e-9

    def test_golden_quad_geometry(self, q5):
        res = solve(q5)
        geo = geometry(res.conic)
        assert abs(geo.center.x - res.h_star) <= 1e-12
        assert abs(geo.center.y - 1.5 * res.h_star) <= 1e-12
        assert abs((geo.b / geo.a) ** 2 - res.ratio_sq) <= 1e-12

    def test_kite_is_incircle(self, kite):
        res = solve(kite)
        assert res.geom.eccentricity == 0.0
        assert res.gamma == math.pi / 2 and abs(res.alpha - math.pi / 2) <= 1e-12
        assert res.geom.a == res.geom.b
        expected = math.sqrt(10.0) - 2.0
        assert abs(res.h_star - expected) <= 1e-12
        assert abs(res.geom.a - expected) <= 1e-12

    def test_type2_is_relabeled_to_closed_form(self):
        rng = np.random.default_rng(410)
        for _ in range(50):
            cq = random_type2(rng)
            res = solve(cq)
            assert res.method == CLOSED_FORM
            assert res.residual <= 1e-8
            lo, hi = cq.interval
            assert lo < res.h_star < hi
            geo = geometry(res.conic)
            assert abs(geo.center.x - res.h_star) <= 1e-9 * cq.diameter

    def test_general_quad_is_numeric(self):
        res = solve(make_quad(4, 6, 3, 2, 1))
        assert res.method == NUMERIC and res.iterations > 0
        # the angle identity is specific to MDQs; this quad misses it widely
        assert res.residual > 0.01

    def test_near_mdq_falls_back_to_numeric(self):
        cq = make_quad(4, 6, 2 * (1 + 1e-6), 2, 1)
        assert classify(cq).kind is QuadKind.GENERAL
        res = solve(cq)
        assert res.method == NUMERIC

    def test_tangential_type2_labeling(self):
        # a kite relabeled so its mirror diagonal is D1: tangential + type 2
        cq = make_quad(2, 2, 2, 3, -1)
        qc = classify(cq)
        assert qc.kind is QuadKind.MDQ_TYPE2 and qc.tangential
        res = solve(cq)
        assert res.method == CLOSED_FORM
        assert res.geom.eccentricity == 0.0
        assert res.gamma == math.pi / 2 and res.residual <= 1e-12
        assert abs(res.h_star - (math.sqrt(10.0) - 2.0)) <= 1e-12

    def test_conjugate_angle_matches_ratio_identity(self):
        # tan^2 of the conjugate-diameter angle of the solved geometry
        # equals 4 G / (1 - G)^2 with G the solved squared axis ratio
        rng = np.random.default_rng(413)
        for _ in range(100):
            cq = random_type1(rng) if rng.integers(0, 2) else random_type2(rng)
            res = solve(cq)
            g = res.ratio_sq
            if g >= 1.0 - 1e-6:
                continue
            lhs = math.tan(res.gamma) ** 2
            rhs = 4.0 * g / (1.0 - g) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)

    def test_maximality_against_samples(self):
        rng = np.random.default_rng(411)
        for _ in range(20):
            cq = random_general(rng)
            res = solve(cq)
            f = ratio_sq_function(cq)
            lo, hi = cq.interval
            for x in np.linspace(lo + 1e-3, hi - 1e-3, 50):
                assert f(float(x)) <= res.ratio_sq + 1e-9

    def test_isometry_invariance(self):
        rng = np.random.default_rng(412)
        for _ in range(20):
            src = [random_type1, random_type2, random_general][int(rng.integers(0, 3))](rng)
            base = solve(canonicalize(canonical_vertices(src)))
            for _ in range(3):
                moved = moved_vertices(src, random_isometry(rng))
                res = solve(canonicalize(moved))
                assert abs(res.geom.eccentricity - base.geom.eccentricity) <= 1e-9
                assert abs(res.gamma - base.gamma) <= 1e-9
                assert abs(res.alpha - base.alpha) <= 1e-9


def mp_argmax(cq, dps=50):
    """dps-digit maximizer of the squared axis ratio and its center ordinate.

    The ratio is maximized by bisecting the sign of its numerical
    derivative, so the reference shares neither the stationarity quartic
    nor the closed form.
    """
    with mpmath.workdps(dps):
        ratio, y = mp_family(cq)
        lo, hi = sorted((mpmath.mpf(cq.s) / 2, mpmath.mpf(cq.v) / 2))
        for _ in range(3 * dps + 10):
            mid = (lo + hi) / 2
            if mpmath.diff(ratio, mid) > 0:
                lo = mid
            else:
                hi = mid
        h = (lo + hi) / 2
        return h, y(h)


def tangential_general_quad():
    """Convex quad circumscribing the unit circle, neither a kite nor an MDQ."""
    normals = [0.3, 1.9, 3.2, 4.6]
    pts = []
    for f, g in zip(normals, normals[1:] + normals[:1]):
        # intersection of x cos f + y sin f = 1 and x cos g + y sin g = 1
        det = math.sin(g - f)
        pts.append(((math.sin(g) - math.sin(f)) / det, (math.cos(f) - math.cos(g)) / det))
    return canonicalize(pts)


class TestStationarityRoot:
    def test_matches_closed_form_on_type1(self):
        rng = np.random.default_rng(420)
        for _ in range(500):
            cq = random_type1(rng)
            lo, hi = cq.interval
            h, _ = maximize_ratio_sq(cq)
            assert abs(h - closed_form_h(cq)) <= 1e-9 * (hi - lo)

    def test_matches_grid_argmax_on_general_quads(self):
        rng = np.random.default_rng(421)
        n = 100_000
        for _ in range(20):
            cq = random_general(rng)
            lo, hi = cq.interval
            h, iters = maximize_ratio_sq(cq)
            hg, _ = grid_argmax(ratio_sq_function(cq), cq.interval, n)
            assert abs(h - hg) <= 2.0 * (hi - lo) / n
            assert 0 < iters < 200

    def test_tangential_general_quad_lands_on_the_circle(self):
        cq = tangential_general_quad()
        qc = classify(cq)
        assert qc.kind is QuadKind.GENERAL and qc.tangential
        lo, hi = cq.interval
        h, _ = maximize_ratio_sq(cq)
        center, radius = incircle(cq)
        assert abs(radius - 1.0) <= 1e-12
        assert abs(h - center.x) <= 1e-9 * (hi - lo)
        assert ratio_sq_function(cq)(h) >= 1.0 - 1e-9
        res = solve(cq)
        assert res.method == NUMERIC
        assert math.hypot(res.geom.center.x - center.x,
                          res.geom.center.y - center.y) <= 1e-9 * cq.diameter

    def test_sign_change_at_the_guarded_ends(self):
        rng = np.random.default_rng(422)
        gens = [random_general, random_type1, random_type2, random_kite]
        for i in range(400):
            cq = gens[i % 4](rng)
            lo, hi = cq.interval
            guard = RELATIVE_ENDPOINT_GUARD * (hi - lo)
            p = stationarity(cq)
            assert p(lo + guard)[0] > 0.0 > p(hi - guard)[0]

    def test_derivative_is_exact(self):
        rng = np.random.default_rng(423)
        for _ in range(50):
            cq = random_general(rng)
            p = stationarity(cq)
            lo, hi = cq.interval
            step = 1e-6 * (hi - lo)
            for h in np.linspace(lo, hi, 7)[1:-1]:
                fd = (p(h + step)[0] - p(h - step)[0]) / (2.0 * step)
                scale = max(abs(p(x)[1]) for x in np.linspace(lo, hi, 7))
                assert abs(p(h)[1] - fd) <= 1e-6 * scale

    def test_circular_member_is_a_simple_root(self, kite):
        h = math.sqrt(10.0) - 2.0
        value, slope = stationarity(kite)(h)
        assert abs(value) <= 1e-12 * abs(slope) and slope < 0.0

    def test_thin_type1_center_on_the_newton_segment(self):
        # A type-1 quad with a very thin optimum ((b/a)^2 about 9e-6): the
        # center recovered from the conic coefficients was 1.7e-8 of the
        # diameter off, although h* was accurate to 2e-14.
        cq = canonicalize([(-4.905561219346353, -5.503782224884441),
                           (-11.869614076376918, -15.603911846179672),
                           (-11.818564359499646, -15.594717595119516),
                           (-4.6744117533887035, -5.2350498311383316)])
        res = solve(cq)
        assert res.method == CLOSED_FORM and res.ratio_sq < 1e-5
        h_ref, y_ref = mp_argmax(cq)
        err = float(mpmath.hypot(res.geom.center.x - h_ref, res.geom.center.y - y_ref))
        assert err <= 1e-12 * cq.diameter

    def test_type2_center_maps_back_onto_the_newton_segment(self):
        rng = np.random.default_rng(424)
        for _ in range(50):
            cq = random_type2(rng)
            res = solve(cq)
            assert res.method == CLOSED_FORM
            cx, cy = res.geom.center
            assert cx == res.h_star
            assert abs(cy - newton_segment(cq).y_at(cx)) <= 1e-12 * cq.diameter
            h_ref, y_ref = mp_argmax(cq, dps=30)
            assert abs(cx - float(h_ref)) <= 1e-12 * cq.diameter
