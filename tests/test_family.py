import math

import mpmath
import numpy as np
import pytest

from helpers import (Line2, closed_form_h, coefficients, ellipse_delta, geometry,
                     interior_points, is_ellipse, line_tangency, make_quad, mp_conic, mp_family,
                     random_general, random_h, random_type1, ratio_sq_function,
                     ratio_sq_prime, side_linear_parameters, side_linears,
                     spectral, tangency_points, tangent_slope, type1_factored_quartic)
from inellipse import Conic, HOutOfRange, containment, family_point
from inellipse import canonicalize, newton_segment
from inellipse.family import _l5, _side_parameters, stationarity
from inellipse.oracle import TANGENCY_TOL, _line_residual
from inellipse.quad import _r1


@pytest.fixture
def q5():
    return make_quad(4, 6, 2, 2, 1)


@pytest.fixture
def kite():
    return make_quad(3, 3, 2, 2, 0)


class TestCoefficients:
    def test_golden_quad_at_midpointish(self, q5):
        c = coefficients(q5, 1.5)
        assert c == Conic(65.0, -76.0, 36.0, -24.0, -48.0, 16.0)

    def test_endpoint_rejected(self, q5):
        with pytest.raises(HOutOfRange):
            coefficients(q5, 1.0)
        with pytest.raises(HOutOfRange):
            coefficients(q5, 2.0 - 1e-14)
        with pytest.raises(HOutOfRange):
            coefficients(q5, 2.5)

    def test_always_an_ellipse(self):
        rng = np.random.default_rng(301)
        for _ in range(200):
            cq = random_general(rng)
            assert is_ellipse(coefficients(cq, random_h(cq, rng)))

    def test_center_rides_the_midpoint_line(self):
        rng = np.random.default_rng(302)
        for _ in range(100):
            cq = random_general(rng)
            h = random_h(cq, rng)
            g = geometry(coefficients(cq, h))
            scale = cq.diameter
            assert abs(g.center.x - h) <= 1e-9 * scale
            assert abs(g.center.y - newton_segment(cq).y_at(h)) <= 1e-9 * scale

    def test_matches_golden_minimal_conic(self, q5):
        hp = closed_form_h(q5)
        ours = coefficients(q5, hp).normalized()
        r61 = math.sqrt(61.0)
        expected = Conic((35 - 3 * r61) * 29, (35 - 3 * r61) * (-4),
                      (35 - 3 * r61) * 36, 48 * (72 - 11 * r61),
                      96 * (72 - 11 * r61), 16 * (887 - 105 * r61)).normalized()
        assert max(abs(a - b) for a, b in zip(ours, expected)) <= 1e-12

    @pytest.mark.parametrize("sv_margin", [0.05, 1e-8])
    def test_model_matches_the_defining_formulas(self, sv_margin):
        # the lam model, scaled back by (s-v)^2, against the defining
        # formulas in h at 50 digits, also on near-trapezoids where the
        # formulas divide by a tiny s - v
        rng = np.random.default_rng(303)
        for _ in range(100):
            cq = random_general(rng)
            if sv_margin < 0.05:
                cq = make_quad(cq.s, cq.t, cq.u, cq.s * (1.0 + sv_margin), cq.w)
            h = random_h(cq, rng)
            c = coefficients(cq, h)
            with mpmath.workdps(50):
                exact = mp_conic(cq)(mpmath.mpf(h))
            scale = max(abs(x) for x in exact)
            for got, want in zip(c, exact):
                assert abs(got - want) <= 1e-14 * scale


class TestTangencyPoints:
    def test_golden_quad_side2(self, q5):
        tps = tangency_points(q5, 1.5)
        assert abs(tps[1].lam - 1.0 / 3.0) <= 1e-15
        assert tps[1].zeta.x == 0.0
        assert abs(tps[1].zeta.y - 2.0 / 3.0) <= 1e-15
        # side S2 is the y axis: the conic must be tangent to it there
        c = coefficients(q5, 1.5).normalized()
        assert line_tangency(c, Line2(None, 0.0))[0] == "tangent"
        assert _line_residual(c, *q5.sides[1]) <= TANGENCY_TOL

    def test_points_lie_on_conic_and_sides(self):
        rng = np.random.default_rng(304)
        for _ in range(100):
            cq = random_general(rng)
            h = random_h(cq, rng)
            c = coefficients(cq, h)
            scale = max(abs(x) for x in c)
            for tp, (p, q) in zip(tangency_points(cq, h), cq.sides):
                assert 0.0 < tp.lam < 1.0
                x, y = tp.zeta
                assert abs(c(x, y)) <= 1e-9 * scale * (1 + x * x + y * y)
                # on the side segment: collinear with its endpoints
                cross = (q.x - p.x) * (y - p.y) - (q.y - p.y) * (x - p.x)
                assert abs(cross) <= 1e-9 * cq.diameter ** 2

    def test_tangent_slopes_match_sides(self):
        rng = np.random.default_rng(305)
        for _ in range(50):
            cq = random_general(rng)
            h = random_h(cq, rng)
            c = coefficients(cq, h)
            s, t, u, v, w = cq.params
            tps = tangency_points(cq, h)
            slopes = [w / v, None, (t - u) / s, (t - w) / (s - v)]
            for tp, expected in zip(tps, slopes):
                got = tangent_slope(c, tp.zeta, tol=1e-7)
                if expected is None:
                    assert got is None
                else:
                    assert abs(got - expected) <= 1e-7 * (1 + abs(expected))

    def test_kite_circle_member_is_equidistant(self, kite):
        # at the closed-form optimum the kite's member is its incircle
        h = closed_form_h(kite)
        tps = tangency_points(kite, h)
        cx, cy = h, newton_segment(kite).y_at(h)
        dists = [math.hypot(tp.zeta.x - cx, tp.zeta.y - cy) for tp in tps]
        assert max(dists) - min(dists) <= 1e-12 * kite.diameter

    def test_lambda1_collapses_at_upper_end(self, q5):
        lo, hi = q5.interval
        lam1 = tangency_points(q5, hi - 1e-9 * (hi - lo))[0].lam
        assert 0.0 < lam1 < 1e-8


class TestSpectral:
    def test_golden_quad_values(self, q5):
        sp = spectral(q5, 1.5)
        assert sp.cubic == 28.0
        assert abs(sp.trace ** 2 - sp.gap_sq - 3584.0) <= 1e-9

    def test_cubic_identity(self):
        rng = np.random.default_rng(306)
        for _ in range(200):
            cq = random_general(rng)
            h = random_h(cq, rng)
            sp = spectral(cq, h)
            c = coefficients(cq, h)
            s, _, u, v, _ = cq.params
            rhs = 16.0 * u * (s - v) ** 2 * sp.cubic
            disc = 4.0 * c.A * c.C - c.B ** 2
            scale = max(abs(4 * c.A * c.C), c.B ** 2, abs(rhs))
            assert abs(disc - rhs) <= 1e-11 * scale
            assert abs(sp.trace ** 2 - sp.gap_sq - rhs) <= 1e-11 * scale

    def test_nondegeneracy_identity(self):
        rng = np.random.default_rng(307)
        for _ in range(200):
            cq = random_general(rng)
            h = random_h(cq, rng)
            c = coefficients(cq, h)
            sp = spectral(cq, h)
            s, _, u, v, _ = cq.params
            ndg = (c.C * c.D ** 2 + c.A * c.E ** 2 - c.B * c.D * c.E
                   - c.F * (4 * c.A * c.C - c.B ** 2))
            rhs = 16.0 * (s - v) ** 2 * u ** 2 * sp.cubic ** 2
            scale = max(abs(c.C * c.D ** 2), abs(c.A * c.E ** 2),
                        abs(c.B * c.D * c.E), abs(rhs))
            assert abs(ndg - rhs) <= 1e-10 * scale

    def test_delta_constancy(self):
        rng = np.random.default_rng(308)
        for _ in range(200):
            cq = random_general(rng)
            delta = ellipse_delta(coefficients(cq, random_h(cq, rng)))
            expected = 1.0 / (4.0 * (cq.s - cq.v) ** 2)
            assert abs(delta - expected) <= 1e-10 * expected

    def test_ratio_vanishes_toward_endpoints(self, q5):
        f = ratio_sq_function(q5)
        lo, hi = q5.interval
        width = hi - lo
        assert f(lo + 1e-9 * width) <= 1e-6
        assert f(hi - 1e-9 * width) <= 1e-6
        assert spectral(q5, 1.5).ratio_sq > 0.05

    def test_ratio_at_optimum(self, q5):
        hp = closed_form_h(q5)
        expected = (33.0 - math.sqrt(65.0)) / 32.0
        assert abs(spectral(q5, hp).ratio_sq - expected) <= 1e-12 * expected

    def test_ratio_function_keeps_precision_on_thin_members(self):
        # (trace - gap) / (trace + gap) loses about 1e-11 relative for a
        # member with (b/a)^2 near 1e-5; the product form loses nothing.
        cq = canonicalize([(-8.217929138545804, -16.919672832578552),
                           (-3.64189980652165, -19.925107357374493),
                           (-3.650858566578352, -19.929631255792305),
                           (-10.90796386040008, -15.16941150968211)])
        f = ratio_sq_function(cq)
        for h in interior_points(cq, 9):
            with mpmath.workdps(50):
                exact = mp_family(cq)[0](mpmath.mpf(h))
            assert abs(f(h) - exact) <= 1e-13 * exact
        assert f(closed_form_h(cq)) < 1e-4

    def test_positivity(self):
        rng = np.random.default_rng(309)
        for _ in range(100):
            cq = random_general(rng)
            for h in interior_points(cq, 20):
                sp = spectral(cq, h)
                assert sp.trace > 0 and sp.cubic > 0 and sp.gap_sq >= 0
                assert 0.0 < sp.ratio_sq <= 1.0

    def test_center_abscissa_is_injective(self, q5):
        hs = interior_points(q5, 50)
        xs = [geometry(coefficients(q5, h)).center.x for h in hs]
        assert all(b > a for a, b in zip(xs, xs[1:]))


class TestRatioSqPrime:
    def test_zero_at_optimum(self, q5):
        hp = closed_form_h(q5)
        scale = max(abs(ratio_sq_prime(q5, h)) for h in (1.05, 1.2, 1.5))
        assert abs(ratio_sq_prime(q5, hp)) <= 1e-9 * scale

    def test_signs_bracket_the_optimum(self, q5):
        assert ratio_sq_prime(q5, 1.05) > 0
        assert ratio_sq_prime(q5, 1.2) < 0

    def test_circular_point_raises(self, kite):
        with pytest.raises(ValueError):
            ratio_sq_prime(kite, closed_form_h(kite))

    def test_factored_form_for_type1(self):
        rng = np.random.default_rng(310)
        for _ in range(50):
            cq = random_type1(rng)
            lam = float(rng.uniform(0.05, 0.95))
            p = stationarity(cq)(lam)[0]
            factored = type1_factored_quartic(cq, lam)
            assert abs(p - factored) <= 1e-9 * max(abs(p), abs(factored))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(311)
        for _ in range(30):
            cq = random_general(rng)
            f = ratio_sq_function(cq)
            pts = interior_points(cq, 20)
            pairs = [(ratio_sq_prime(cq, h),
                      (f(h + 1e-6) - f(h - 1e-6)) / 2e-6) for h in pts]
            scale = max(max(abs(a), abs(b)) for a, b in pairs)
            for a, b in pairs:
                assert abs(a - b) <= 1e-6 * scale


class TestSideLinears:
    """The tangency parameters as ratios of the (R1) forms in n = s - 2h and
    m = 2h - v, against the side linears they replace (``helpers``)."""

    def test_golden_quad_value(self, q5):
        assert _r1(*q5.params) == (12.0, 8.0)
        assert side_linears(q5.params, 1.5).l5 == 28.0 == _l5(q5, 0.5)

    def test_l3_vanishes_at_upper_midpoint(self):
        rng = np.random.default_rng(312)
        for _ in range(50):
            cq = random_general(rng)
            lin = side_linears(cq.params, cq.s / 2.0)
            assert abs(lin.l3) <= 1e-12 * (1 + abs(lin.l1))
            # the members close down to the doubled diagonals D1 (n = 0)
            # and D2 (m = 0), touching each side at an end
            assert _side_parameters(*cq.params, 0.0, cq.s - cq.v) == (0.0, 0.0, 1.0, 0.0)
            assert _side_parameters(*cq.params, cq.s - cq.v, 0.0) == (1.0, 1.0, 0.0, 1.0)

    def test_sign_constraints(self):
        rng = np.random.default_rng(313)
        for _ in range(100):
            cq = random_general(rng)
            p, q = _r1(*cq.params)
            assert p > 0.0 and q > 0.0
            for h in interior_points(cq, 10):
                assert all(0.0 < tp.lam < 1.0 for tp in tangency_points(cq, h))

    def test_forms_equal_side_linear_forms(self):
        sp = pytest.importorskip("sympy")
        s, t, u, v, w, h = sp.symbols("s t u v w h")
        new = _side_parameters(s, t, u, v, w, s - 2 * h, 2 * h - v)
        old = side_linear_parameters((s, t, u, v, w), h)
        assert [sp.simplify(a - b) for a, b in zip(new, old)] == [0, 0, 0, 0]

    def test_lambda_error_against_50_digits(self):
        """Every lam within 4e-15 of its 50-digit value, down to 1e-9 of the
        interval from either end, times kappa >= 1, the condition number of
        the rounded (R1) forms P and Q, whose cancellation the forms inherit.
        The side-linear forms reached 1.6e-14 kappa here."""
        rng = np.random.default_rng(2404)
        fracs = [1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9]
        with mpmath.workdps(50):
            for _ in range(500):
                cq = random_general(rng)
                s, t, u, v, w = cq.params
                p, q = _r1(s, t, u, v, w)
                kappa = max(1.0, (abs(v * (t - u)) + abs((u - w) * s)) / p,
                            (abs(v * t) + abs(w * s)) / q)
                lo, hi = cq.interval
                exact = [mpmath.mpf(x) for x in cq.params]
                for f in fracs:
                    h = lo + (hi - lo) * f
                    want = side_linear_parameters(exact, mpmath.mpf(h))
                    for tp, lam in zip(tangency_points(cq, h), want):
                        assert abs(tp.lam - lam) <= 4e-15 * kappa, (cq.params, f)


class TestFamilyPoint:
    def test_assembles_consistently(self, q5):
        fp = family_point(q5, 1.5)
        assert fp.h == 1.5
        assert fp.conic == coefficients(q5, 1.5)
        assert fp.cubic == 28.0
        assert len(fp.tangency) == 4

    def test_contained_in_quad(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            cq = random_general(rng)
            fp = family_point(cq, random_h(cq, rng))
            report = containment(geometry(fp.conic), cq)
            assert report.passed, report

    def test_all_sides_tangent(self):
        rng = np.random.default_rng(315)
        for _ in range(20):
            cq = random_general(rng)
            c = coefficients(cq, random_h(cq, rng)).normalized()
            for p, q in cq.sides:
                assert line_tangency(c, Line2.through(p, q))[0] == "tangent"
                assert _line_residual(c, p, q) <= TANGENCY_TOL
