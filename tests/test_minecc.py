import math

import mpmath
import numpy as np
import pytest

from helpers import (NEAR_TRAPEZOIDS, bench_module, bench_pool, canonical_vertices,
                     center_quadratic, cli_verify_pool, closed_form_h, geometry, grid_argmax,
                     incircle, make_quad, maximize_h, moved_vertices, mp_family, near_mdqs,
                     near_tangential_kites, numpy_ratio_sq, mp_semi_axes, random_general,
                     random_isometry, random_kite, random_type1, random_type2,
                     ratio_sq_closed_form, ratio_sq_function, ratio_sq_prime, spectral,
                     sv_pool, type1_root, type2_root)
from inellipse import (QuadKind, canonicalize, classify, diagonal_angle,
                       newton_segment, quad, solve)
from inellipse.family import RELATIVE_ENDPOINT_GUARD, _abscissa, stationarity
from inellipse.minecc import NUMERIC

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
        with pytest.raises(ValueError):
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
        h, iters = maximize_h(q5)
        lo, hi = q5.interval
        assert abs(h - H_PLUS_GOLDEN) <= 1e-9 * (hi - lo)
        assert 0 < iters < 200

    def test_kite_reaches_the_circle(self, kite):
        h, _ = maximize_h(kite)
        lo, hi = kite.interval
        assert abs(h - (math.sqrt(10.0) - 2.0)) <= 1e-9 * (hi - lo)
        assert ratio_sq_function(kite)(h) >= 1.0 - 1e-8

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(407)
        for _ in range(100):
            cq = random_type1(rng)
            lo, hi = cq.interval
            h, _ = maximize_h(cq)
            assert abs(h - closed_form_h(cq)) <= 1e-9 * (hi - lo)

    def test_brackets_grid_argmax_on_general_quads(self):
        rng = np.random.default_rng(408)
        n = 100_000
        for _ in range(20):
            cq = random_general(rng)
            lo, hi = cq.interval
            h, _ = maximize_h(cq)
            hg, _ = grid_argmax(numpy_ratio_sq(cq), cq.interval, n)
            assert abs(h - hg) <= 2.0 * (hi - lo) / n

    def test_budget_exhaustion_flags_max_iterations(self, q5, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="inellipse.minecc"):
            h, iters = maximize_h(q5, max_iter=3)
        assert iters == 3
        assert any("did not converge" in rec.message for rec in caplog.records)
        lo, hi = q5.interval
        assert lo < h < hi   # still returns the best point seen

    def test_derivative_changes_sign_once_for_mdqs(self):
        rng = np.random.default_rng(409)
        for _ in range(50):
            cq = random_type1(rng) if rng.integers(0, 2) else random_type2(rng)
            lo, hi = cq.interval
            width = hi - lo
            hs = np.linspace(lo + 1e-6 * width, hi - 1e-6 * width, 1000)
            signs = np.sign([ratio_sq_prime(cq, float(h)) for h in hs])
            changes = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert changes == 1

    def test_derivative_changes_sign_once_for_general_quads(self):
        # exactly: the quartic p of the float pose has one root in [0, 1],
        # on the seed-1 cli_verify pool's general quads and below SV_MARGIN;
        # ``oracle.optimum``'s two signs prove the optimum's place by it
        sp = pytest.importorskip("sympy")
        lam = sp.symbols("lam")
        quads = [cq for cq in cli_verify_pool(1) if classify(cq).kind is QuadKind.GENERAL]
        for cq in quads + sv_pool():
            params = (sp.Rational(x) for x in cq.params)
            p = TestCenterQuadraticDividesStationarity.quartic(sp, *params, lam)
            assert sp.Poly(p, lam).count_roots(0, 1) == 1


class TestSolve:
    def test_golden_quad(self, q5):
        res = solve(q5)
        assert res.method == NUMERIC and res.iterations > 0
        assert abs(res.geom.center.x - H_PLUS_GOLDEN) <= 1e-12
        assert abs(math.tan(res.gamma) ** 2 - 64.0) <= 1e-9
        assert abs(math.tan(res.alpha) ** 2 - 64.0) <= 1e-9
        assert res.residual <= 1e-9
        g = res.ratio_sq
        assert abs(4 * g / (1 - g) ** 2 - 64.0) <= 1e-9

    def test_golden_quad_geometry(self, q5):
        res = solve(q5)
        geo = geometry(res.conic)
        assert abs(geo.center.x - res.geom.center.x) <= 1e-12
        assert abs(geo.center.y - 1.5 * res.geom.center.x) <= 1e-12
        assert abs((geo.b / geo.a) ** 2 - res.ratio_sq) <= 1e-12

    def test_kite_is_incircle(self, kite):
        res = solve(kite)
        assert res.geom.eccentricity == 0.0
        assert res.gamma == math.pi / 2 and abs(res.alpha - math.pi / 2) <= 1e-12
        assert res.geom.a == res.geom.b
        expected = math.sqrt(10.0) - 2.0
        assert abs(res.geom.center.x - expected) <= 1e-12
        assert abs(res.geom.a - expected) <= 1e-12

    def test_type2_is_closed_form(self):
        # the root of p is the paper's type-2 closed form, to rounding
        rng = np.random.default_rng(410)
        for _ in range(50):
            cq = random_type2(rng)
            res = solve(cq)
            assert abs(res.geom.center.x - _abscissa(cq, type2_root(cq))) <= 1e-12 * cq.diameter
            assert res.residual <= 1e-8
            lo, hi = cq.interval
            assert lo < res.geom.center.x < hi
            geo = geometry(res.conic)
            assert abs(geo.center.x - res.geom.center.x) <= 1e-9 * cq.diameter

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
        assert res.geom.eccentricity == 0.0
        assert res.gamma == math.pi / 2 and res.residual <= 1e-12
        assert abs(res.geom.center.x - (math.sqrt(10.0) - 2.0)) <= 1e-12

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

    @pytest.mark.parametrize("make", [random_general, random_type1, random_type2, random_kite])
    def test_axis_angle_is_the_geometry_angle(self, make):
        # solve takes the angle from the model's trace and gap, not from
        # the general conic route (helpers.geometry): the bits agree.  Every
        # kite's optimum is a circle, reported with angle None.
        rng = np.random.default_rng(414)
        for _ in range(200):
            res = solve(make(rng))
            got = res.geom.major_axis_angle
            if make is random_kite:
                assert got is None
                continue
            assert repr(got) == repr(geometry(res.conic).major_axis_angle)


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


def tangential_general_quad(normals=(0.3, 1.9, 3.2, 4.6)):
    """Convex quad circumscribing the unit circle, neither a kite nor an
    MDQ, with sides on the tangents of outer normal angles ``normals``."""
    normals = list(normals)
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
            h, _ = maximize_h(cq)
            assert abs(h - closed_form_h(cq)) <= 1e-9 * (hi - lo)

    def test_matches_grid_argmax_on_general_quads(self):
        rng = np.random.default_rng(421)
        n = 100_000
        for _ in range(20):
            cq = random_general(rng)
            lo, hi = cq.interval
            h, iters = maximize_h(cq)
            hg, _ = grid_argmax(numpy_ratio_sq(cq), cq.interval, n)
            assert abs(h - hg) <= 2.0 * (hi - lo) / n
            assert 0 < iters < 200

    def test_tangential_general_quad_lands_on_the_circle(self):
        cq = tangential_general_quad()
        qc = classify(cq)
        assert qc.kind is QuadKind.GENERAL and qc.tangential
        lo, hi = cq.interval
        h, _ = maximize_h(cq)
        center, radius = incircle(cq)
        assert abs(radius - 1.0) <= 1e-12
        assert abs(h - center.x) <= 1e-9 * (hi - lo)
        assert ratio_sq_function(cq)(h) >= 1.0 - 1e-9
        res = solve(cq)
        assert res.method == NUMERIC
        assert math.hypot(res.geom.center.x - center.x,
                          res.geom.center.y - center.y) <= 1e-9 * cq.diameter

    # the last two came out with (b/a)^2 one ulp above 1, which made the
    # eccentricity sqrt(1 - (b/a)^2) raise
    @pytest.mark.parametrize("normals", [(0.3, 1.9, 3.2, 4.6), (1.8, 3.4, 4.3, 6.0),
                                         (0.9, 1.9, 2.8, 5.3), (0.2, 1.5, 3.3, 4.4),
                                         (2.1, 3.1, 3.9, 6.0),
                                         (1.8177579792786140, 3.3880409768954864,
                                          4.258934495419449, 6.041144373347741)])
    def test_tangential_general_quad_is_reported_as_a_circle(self, normals):
        cq = tangential_general_quad(normals)
        qc = classify(cq)
        assert qc.kind is QuadKind.GENERAL and qc.tangential
        res = solve(cq)
        g = res.geom
        assert 0.0 <= g.eccentricity <= 1e-6
        assert g.b <= g.a and res.ratio_sq <= 1.0
        assert abs(g.a - 1.0) <= 1e-9 and abs(g.b - 1.0) <= 1e-9

    def test_sign_change_at_the_guarded_ends(self):
        rng = np.random.default_rng(422)
        gens = [random_general, random_type1, random_type2, random_kite]
        guard = RELATIVE_ENDPOINT_GUARD
        for i in range(400):
            cq = gens[i % 4](rng)
            p = stationarity(cq)
            assert p(guard)[0] > 0.0 > p(1.0 - guard)[0]

    def test_derivative_is_exact(self):
        rng = np.random.default_rng(423)
        for _ in range(50):
            cq = random_general(rng)
            p = stationarity(cq)
            step = 1e-6
            for lam in np.linspace(0.0, 1.0, 7)[1:-1]:
                fd = (p(lam + step)[0] - p(lam - step)[0]) / (2.0 * step)
                scale = max(abs(p(x)[1]) for x in np.linspace(0.0, 1.0, 7))
                assert abs(p(lam)[1] - fd) <= 1e-6 * scale

    def test_circular_member_is_a_simple_root(self, kite):
        lam = 2.0 * math.sqrt(10.0) - 6.0      # h = sqrt(10) - 2 on (1, 1.5)
        value, slope = stationarity(kite)(lam)
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
        assert res.ratio_sq < 1e-5
        h_ref, y_ref = mp_argmax(cq)
        err = float(mpmath.hypot(res.geom.center.x - h_ref, res.geom.center.y - y_ref))
        assert err <= 1e-12 * cq.diameter

    def test_type2_center_maps_back_onto_the_newton_segment(self):
        rng = np.random.default_rng(424)
        for _ in range(50):
            cq = random_type2(rng)
            res = solve(cq)
            cx, cy = res.geom.center
            assert cx == _abscissa(cq, res.lam_star)
            assert abs(cy - newton_segment(cq).y_at(cx)) <= 1e-12 * cq.diameter
            h_ref, y_ref = mp_argmax(cq, dps=30)
            assert abs(cx - float(h_ref)) <= 1e-12 * cq.diameter


THIN_TYPE1 = [
    # thin type-1 optima, (b/a)^2 between 2e-6 and 5e-5
    [(-4.905561219346353, -5.503782224884441), (-11.869614076376918, -15.603911846179672),
     (-11.818564359499646, -15.594717595119516), (-4.6744117533887035, -5.2350498311383316)],
    [(-1.66422086446478, 14.723364540905136), (7.7398820629114855, 11.116121263205285),
     (4.183884380431715, 12.466591885043414), (-1.6708639789473168, 14.716076839264943)],
    [(-8.217929138545804, -16.919672832578552), (-3.64189980652165, -19.925107357374493),
     (-3.650858566578352, -19.929631255792305), (-10.90796386040008, -15.16941150968211)],
    [(-8.794379929140256, -4.317759054347508), (-8.83443401575998, -4.30524772465138),
     (-13.6706745182606, -12.59021793397371), (-11.81012536452388, -9.51432467529889)],
]


class TestNearTrapezoids:
    # An abscissa in an interval 1e-8 of the diameter wide is rounded to
    # 1e-8 of that interval: solving for h put these centers 7.6e-10 to
    # 9.9e-10 of the diameter off.  The segment coordinate carries full
    # precision.
    @pytest.mark.parametrize("vertices", NEAR_TRAPEZOIDS)
    def test_center_matches_50_digits(self, vertices):
        cq = canonicalize(vertices)
        assert abs(cq.s - cq.v) <= 1e-7 * cq.diameter
        res = solve(cq)
        # 50 digits leave 42 across the interval after the formulas'
        # division by s - v
        h_ref, y_ref = mp_argmax(cq, dps=50)
        err = float(mpmath.hypot(res.geom.center.x - h_ref, res.geom.center.y - y_ref))
        assert err <= 1e-12 * cq.diameter


class TestThinRatio:
    # (trace - gap) / (trace + gap) cancels on thin members: it missed the
    # 50-digit ratio of these quads by 1.6e-12 to 4e-10 relative.
    @pytest.mark.parametrize("vertices", THIN_TYPE1)
    def test_ratio_matches_50_digits(self, vertices):
        cq = canonicalize(vertices)
        res = solve(cq)
        assert res.ratio_sq < 1e-4
        with mpmath.workdps(50):
            ratio, _ = mp_family(cq)
            ref = ratio(mpmath.mpf(res.geom.center.x))
            for value in (res.ratio_sq, spectral(cq, res.geom.center.x).ratio_sq):
                assert abs(value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("vertices", THIN_TYPE1)
    def test_closed_form_ratio_matches_50_digits(self, vertices):
        # (major - minor) / (major + minor) cancels on thin optima: it
        # missed its own 50-digit value on these quads by 3.6e-13 to
        # 9.1e-12 relative
        cq = canonicalize(vertices)
        with mpmath.workdps(50):
            s, t, u, v, w = (mpmath.mpf(x) for x in cq.params)
            major = mpmath.sqrt((s * s + t * t) * ((v * s) ** 2 + (v * t - 2 * w * s) ** 2))
            minor = abs(2 * w * s * t - (t * t - s * s) * v)
            ref = (major - minor) / (major + minor)
            assert abs(ratio_sq_closed_form(cq) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("vertices", THIN_TYPE1)
    def test_semi_axes_match_50_digits(self, vertices):
        # a and b from helpers.geometry's 4AC - B^2 and determinant missed the
        # 50-digit semi-axes of these quads by 4e-13 to 4e-10 relative
        cq = canonicalize(vertices)
        res = solve(cq)
        with mpmath.workdps(50):
            a_ref, b_ref = mp_semi_axes(cq, mpmath.mpf(res.geom.center.x))
            assert abs(res.geom.a - a_ref) <= 1e-13 * a_ref
            assert abs(res.geom.b - b_ref) <= 1e-13 * b_ref

    def test_solve_ratio_matches_50_digits(self):
        # solve evaluates the product form at its segment coordinate; the
        # ratio is stationary there, so its value at h* is the reference
        rng = np.random.default_rng(425)
        for gen in (random_general, random_type1, random_type2, random_kite):
            for _ in range(20):
                cq = gen(rng)
                res = solve(cq)
                with mpmath.workdps(50):
                    ref = mp_family(cq)[0](mpmath.mpf(res.geom.center.x))
                    assert abs(res.ratio_sq - ref) <= 1e-13 * ref


class TestOneRootPath:
    """Every quad takes the root of p; a circle is found by its value, the
    vanishing gap of the conic at that root, never by a classification."""

    def test_exact_kites_are_circles(self, kite):
        rng = np.random.default_rng(426)
        for cq in [kite] + [random_kite(rng) for _ in range(200)]:
            res = solve(cq)
            g = res.geom
            assert g.eccentricity == 0.0 and g.a == g.b and g.major_axis_angle is None
            assert res.gamma == math.pi / 2

    def test_the_circles_of_the_solve_mixed_pools_are_its_kites(self):
        circles = 0
        for seed in range(1, 11):
            for tag, cq in bench_pool("solve_mixed", seed):
                circle = solve(cq).geom.eccentricity == 0.0
                assert circle == (tag == "kite")
                circles += circle
        assert circles == 1280

    def test_circles_report_an_axis_ratio_of_1(self):
        # the product form of the ratio at the root sits up to 1e-14 below 1
        # on a circle; the circle itself is reported, so the ratio is 1
        circles = [res for _, cq in bench_pool("cli_verify", 1)
                   if (res := solve(cq)).geom.major_axis_angle is None]
        assert len(circles) == 32
        assert [res.ratio_sq for res in circles] == [1.0] * 32

    def test_near_tangential_kites_are_their_own_ellipses(self):
        # Pitot residuals in +-1e-9, which classify calls tangential: each
        # gets its own optimum, e from 1.7e-6 to 1.5e-3 (median 1.4e-4),
        # not the circle of the kite next to it (e = 0)
        tol_l = bench_module("checks").TOL_L
        quads = near_tangential_kites(3000, seed=1)
        assert min(solve(cq).geom.eccentricity for cq in quads) > 1e-6
        for cq in quads[:40]:
            res = solve(cq)
            h, y = mp_argmax(cq)
            with mpmath.workdps(50):
                e = mpmath.sqrt(1 - mp_family(cq)[0](h))
                err = mpmath.hypot(res.geom.center.x - h, res.geom.center.y - y)
            seg = math.hypot((cq.s - cq.v) / 2.0, (cq.t - cq.u - cq.w) / 2.0)
            assert err <= tol_l * seg
            assert abs(res.geom.eccentricity - e) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-3, 0.0])
    def test_the_classification_tolerance_picks_nothing(self, tol, monkeypatch):
        # the tolerance moves the classes of these quads, and no answer bit
        quads = (near_mdqs(20, seed=2202) + near_tangential_kites(20, seed=2203)
                 + [make_quad(4, 6, 2 * (1 + 1e-6), 2, 1)])
        classes, answers = [classify(cq) for cq in quads], [repr(solve(cq)) for cq in quads]
        monkeypatch.setattr(quad, "DEFAULT_TOL", tol)
        assert [classify(cq) for cq in quads] != classes
        assert [repr(solve(cq)) for cq in quads] == answers


class TestCenterQuadraticDividesStationarity:
    """On the type-1 locus u = (vt - ws)/s the paper's center quadratic
    o(h) divides the stationarity quartic p exactly; on the type-2 locus
    u = (vt - ws)/(2v - s) the quadratic q2(h) does.  p is taken in the
    segment coordinate lam, the quadratics at h = (v + (s-v) lam) / 2."""

    @staticmethod
    def quartic(sp, s, t, u, v, w, lam):
        # A, B, C of the family over (s-v)^2, in monomials of lam
        d, k = s - v, t - u - w
        a = (u + w + k * lam) ** 2 - 4 * u * w * (1 - lam)
        b = (-2 * d * k * lam**2 + (4 * v * w - 2 * s * (u + w) - 2 * t * v) * lam
             + 2 * v * (u - w))
        c = (v + d * lam) ** 2
        big_t, big_g = a + c, (a - c) ** 2 + b**2
        return 2 * sp.diff(big_t, lam) * big_g - big_t * sp.diff(big_g, lam)

    @staticmethod
    def abscissa(s, v, lam):
        return (v + (s - v) * lam) / 2

    @staticmethod
    def center_quadratic(s, t, v, w, h):
        st2 = s**2 + t**2
        k = st2 * v**2 - 2 * w * s * (v * t - w * s)
        return -2 * st2 * (s - v) * h**2 - 2 * k * h + s * k

    @staticmethod
    def type2_terms(s, t, v, w):
        """M and K2 of q2(h) = 2(s-v) M h^2 - 2 K2 h + v K2, expanded."""
        m = (s - 2 * v) ** 2 + (t - 2 * w) ** 2
        k2 = s**2 * (s - 2 * v) ** 2 + t**2 * ((s - v) ** 2 + v**2) + 2 * s**2 * w * (w - t)
        return m, k2

    def type2_quadratic(self, s, t, v, w, h):
        m, k2 = self.type2_terms(s, t, v, w)
        return 2 * (s - v) * m * h**2 - 2 * k2 * h + v * k2

    @staticmethod
    def rational_type2(sp, rng):
        """Rational (s, t, v, w) with 2v > s, t > w and vt > ws: on the
        type-2 locus u = (vt - ws)/(2v - s) is then positive."""
        while True:
            s, t, v, w = (sp.Rational(int(rng.integers(1, 80)), int(rng.integers(1, 9)))
                          for _ in range(4))
            if 2 * v > s and s != v and t > w and v * t > w * s:
                return s, t, v, w

    def test_exact_division(self):
        sp = pytest.importorskip("sympy")
        s, t, v, w, lam = sp.symbols("s t v w lam")
        p = self.quartic(sp, s, t, (v * t - w * s) / s, v, w, lam)
        num = sp.expand(sp.numer(sp.together(p)))
        o = sp.expand(self.center_quadratic(s, t, v, w, self.abscissa(s, v, lam)))
        assert sp.prem(num, o, lam) == 0

    def test_off_the_locus_it_does_not_divide(self):
        sp = pytest.importorskip("sympy")
        lam = sp.symbols("lam")
        s, t, v, w = (sp.Integer(x) for x in (4, 6, 2, 1))
        p = self.quartic(sp, s, t, sp.Integer(3), v, w, lam)     # type 1 needs u = 2
        o = self.center_quadratic(s, t, v, w, self.abscissa(s, v, lam))
        assert sp.rem(sp.expand(p), sp.expand(o), lam) != 0

    def test_quartic_is_the_solver_quartic(self):
        sp = pytest.importorskip("sympy")
        lam = sp.symbols("lam")
        params = (4.0, 6.0, 3.0, 2.0, 1.0)
        p = self.quartic(sp, *(sp.Rational(x) for x in params), lam)
        code = stationarity(make_quad(*params))
        scale = math.ldexp(1.0, -math.frexp(params[0] ** 2 + params[1] ** 2)[1])
        for x in (0.2, 0.5, 0.9):
            exact = float(p.subs(lam, sp.Rational(x))) * scale**3
            assert abs(code(x)[0] - exact) <= 1e-12 * abs(exact)

    def test_type2_exact_division(self):
        sp = pytest.importorskip("sympy")
        lam = sp.symbols("lam")
        rng = np.random.default_rng(430)
        for _ in range(8):
            s, t, v, w = self.rational_type2(sp, rng)
            h = self.abscissa(s, v, lam)
            p = sp.expand(self.quartic(sp, s, t, (v * t - w * s) / (2 * v - s), v, w, lam))
            q2 = sp.expand(self.type2_quadratic(s, t, v, w, h))
            assert sp.rem(p, q2, lam) == 0
            # off the locus q2 is no factor of p
            p_off = sp.expand(self.quartic(sp, s, t, (v * t - w * s) / (2 * v - s) + 1, v, w,
                                           lam))
            assert sp.rem(p_off, q2, lam) != 0

    @pytest.mark.parametrize("kind", ["type1", "type2"])
    def test_root_is_the_root_of_the_factor(self, kind):
        # one exact Newton step from the float root reaches the root of the
        # sympy o (type 1) or q2 (type 2) of the float parameters, in lam:
        # it must be a few ulp, and the root must lie inside (0, 1)
        sp = pytest.importorskip("sympy")
        lam = sp.symbols("lam")
        gen, root_of, factor = {
            "type1": (random_type1, type1_root, self.center_quadratic),
            "type2": (random_type2, type2_root, self.type2_quadratic)}[kind]
        rng = np.random.default_rng(431)
        for _ in range(20):
            cq = gen(rng)
            s, t, v, w = (sp.Rational(x) for x in (cq.s, cq.t, cq.v, cq.w))
            q = sp.Poly(factor(s, t, v, w, self.abscissa(s, v, lam)), lam)
            root = root_of(cq)
            x = sp.Rational(root)
            step = q.eval(x) / q.diff(lam).eval(x)
            assert abs(step) <= 4 * sp.Rational(math.ulp(root))
            assert 0 < x - step < 1

    def test_type2_root_terms_are_positive(self):
        # K2 and K2 - 2(s-v) M v, in the expanded form of q2, and M, the
        # numerator of the root in lam
        rng = np.random.default_rng(432)
        for _ in range(500):
            s, t, _, v, w = random_type2(rng).params
            m, k2 = self.type2_terms(s, t, v, w)
            assert k2 > 0 and k2 - 2 * (s - v) * m * v > 0 and m > 0

    def test_type1_root_terms_are_positive(self):
        # k, K and 2s - v: the closed form divides by
        # ((2s - v) sqrt(k) + v sqrt(K)) (sqrt(k) + sqrt(K))
        rng = np.random.default_rng(433)
        for _ in range(500):
            cq = random_type1(rng)
            s, t, v = cq.s, cq.t, cq.v
            o = center_quadratic(cq)
            assert o.k > 0 and o.p1 > 0 and 2 * s - v > 0
            assert o.k + 2 * (s * s + t * t) * s * (s - v) > 0

    def test_type1_root_terms(self):
        sp = pytest.importorskip("sympy")
        s, t, v, w = sp.symbols("s t v w")
        st2 = s**2 + t**2
        k = st2 * v**2 - 2 * w * s * (v * t - w * s)
        p1 = v**2 * st2 - 4 * w * s * (v * t - w * s)
        # the sums of squares center_quadratic evaluates
        assert sp.expand(k - (v**2 * s**2 + (v * t - w * s) ** 2 + w**2 * s**2)) == 0
        assert sp.expand(p1 - (v**2 * s**2 + (v * t - 2 * w * s) ** 2)) == 0
        # the root in lam is the root of o in the interval, taken to lam
        big_k = k + 2 * st2 * s * (s - v)
        rk, rbig = sp.sqrt(k), sp.sqrt(big_k)
        h_root = rk * (rbig - rk) / (2 * st2 * (s - v))
        lam = 2 * s * p1 / (((2 * s - v) * rk + v * rbig) * (rk + rbig))
        for point in ({s: 4, t: 6, v: 2, w: 1}, {s: 3, t: 5, v: 4, w: -1}):
            assert sp.simplify((lam - (2 * h_root - v) / (s - v)).subs(point)) == 0

    def test_type2_root_terms_are_sums_of_squares(self):
        sp = pytest.importorskip("sympy")
        # the forms helpers.type2_root evaluates
        s, t, v, w = sp.symbols("s t v w")
        m, k2 = self.type2_terms(s, t, v, w)
        assert sp.expand(2 * k2 - s**2 * m - (s**2 + t**2) * (s - 2 * v) ** 2) == 0
        assert sp.expand(2 * (k2 - 2 * (s - v) * m * v)
                         - (s - 2 * v) ** 2 * (m + s**2 + t**2)) == 0
