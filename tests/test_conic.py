import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Line2, closed_form_h, coefficients, ellipse_delta, geometry,
                     is_ellipse, line_tangency, make_quad, norm, oriented, random_general,
                     random_h, scaled, tangency_points, tangent_slope)
from inellipse import (Conic, EllipseGeometry, Isometry2, NotAnEllipse, Point2,
                       conjugate_diameter_angle)

UNIT_CIRCLE = Conic(1, 0, 1, 0, 0, -1)


def golden_minimal_conic():
    r61 = math.sqrt(61.0)
    return Conic((35 - 3 * r61) * 29, (35 - 3 * r61) * (-4), (35 - 3 * r61) * 36,
                 48 * (72 - 11 * r61), 96 * (72 - 11 * r61),
                 16 * (887 - 105 * r61))


class TestIsEllipse:
    def test_unit_circle(self):
        check = is_ellipse(UNIT_CIRCLE)
        assert check
        assert check.ellipse_disc == 4.0 and check.nondegeneracy == 4.0

    def test_hyperbola(self):
        check = is_ellipse(Conic(0, 1, 0, 0, 0, -1))
        assert not check
        assert check.ellipse_disc == -1.0

    def test_degenerate_point(self):
        check = is_ellipse(Conic(1, 0, 1, 0, 0, 0))
        assert not check
        assert check.ellipse_disc == 4.0 and check.nondegeneracy == 0.0

    def test_sign_flip_is_oriented_away(self):
        assert is_ellipse(scaled(UNIT_CIRCLE, -3.0))


class TestGeometry:
    def test_unit_circle(self):
        g = geometry(UNIT_CIRCLE)
        assert g.a == 1.0 and g.b == 1.0 and g.eccentricity == 0.0
        assert g.center == Point2(0.0, 0.0)
        assert g.major_axis_angle is None
        assert ellipse_delta(UNIT_CIRCLE) == 1.0

    def test_axis_aligned_ellipse(self):
        c = Conic(0.25, 0, 1, 0, 0, -1)
        g = geometry(c)
        assert abs(g.a - 2.0) <= 1e-15 and abs(g.b - 1.0) <= 1e-15
        assert abs(g.eccentricity - math.sqrt(3) / 2) <= 1e-15
        assert abs(ellipse_delta(c) - 4.0) <= 1e-15
        assert g.major_axis_angle == 0.0

    def test_rotated_axis_angle(self):
        # ellipse with major axis along y=x: x^2 + y^2 - xy = const
        g = geometry(Conic(1, -1, 1, 0, 0, -1))
        assert abs(g.major_axis_angle - math.pi / 4) <= 1e-12

    def test_golden_minimal_conic_center(self):
        hp = 3.0 / 13.0 * (-3.0 + math.sqrt(61.0))
        g = geometry(golden_minimal_conic())
        assert abs(g.center.x - hp) <= 1e-12
        assert abs(g.center.y - 1.5 * hp) <= 1e-12

    def test_rejects_hyperbola(self):
        with pytest.raises(NotAnEllipse):
            geometry(Conic(0, 1, 0, 0, 0, -1))

    @given(k=st.floats(min_value=1e-6, max_value=1e6).map(lambda x: x if x > 2e-6 else -x))
    @settings(max_examples=100, deadline=None)
    def test_scaling_invariance(self, k):
        c = Conic(2.0, 0.8, 1.5, -1.0, 0.5, -3.0)
        g0 = geometry(c)
        g1 = geometry(scaled(c, k))
        assert abs(g1.a - g0.a) <= 1e-10 * g0.a
        assert abs(g1.b - g0.b) <= 1e-10 * g0.b
        assert abs(g1.eccentricity - g0.eccentricity) <= 1e-10
        assert math.hypot(g1.center.x - g0.center.x, g1.center.y - g0.center.y) <= 1e-10
        # delta is 1-homogeneous (after sign orientation), not invariant
        d0, d1 = ellipse_delta(c), ellipse_delta(scaled(c, k))
        assert abs(d1 * abs(k) - d0) <= 1e-9 * abs(d0)

    def test_scaling_invariance_random_family(self):
        rng = np.random.default_rng(201)
        for _ in range(1000):
            cq = random_general(rng)
            c = coefficients(cq, random_h(cq, rng))
            k = float(rng.uniform(0.1, 10.0)) * (1 if rng.integers(0, 2) else -1)
            g0, g1 = geometry(c), geometry(scaled(c, k))
            assert abs(g1.a - g0.a) <= 1e-10 * g0.a
            assert abs(g1.b - g0.b) <= 1e-10 * g0.b
            assert abs(g1.eccentricity - g0.eccentricity) <= 1e-10

    def test_axis_ratio_formula_consistency(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            cq = random_general(rng)
            c = coefficients(cq, random_h(cq, rng))
            g = geometry(c)
            a_, b_, c_ = c.A, c.B, c.C
            root = math.hypot(a_ - c_, b_)
            expected = (a_ + c_ - root) / (a_ + c_ + root)
            assert abs((g.b / g.a) ** 2 - expected) <= 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(203)
        c = Conic(2.0, 0.8, 1.5, -1.0, 0.5, -3.0)
        g0 = geometry(c)
        for _ in range(100):
            phi = float(rng.uniform(-math.pi, math.pi))
            rot = Isometry2(phi, Point2(0.0, 0.0), False)
            g1 = geometry(numpy_pullback(c, rot.inverse()))
            assert abs(g1.a - g0.a) <= 1e-10 * g0.a
            assert abs(g1.b - g0.b) <= 1e-10 * g0.b
            diff = (g1.major_axis_angle - g0.major_axis_angle - phi) % math.pi
            assert min(diff, math.pi - diff) <= 1e-10

    def test_traced_points_satisfy_equation(self):
        rng = np.random.default_rng(204)
        for _ in range(50):
            cq = random_general(rng)
            c = coefficients(cq, random_h(cq, rng))
            g = geometry(c)
            ang = g.major_axis_angle or 0.0
            ca, sa = math.cos(ang), math.sin(ang)
            scale = max(abs(x) for x in c)
            for th in np.linspace(0, 2 * math.pi, 32, endpoint=False):
                x = g.center.x + g.a * math.cos(th) * ca - g.b * math.sin(th) * sa
                y = g.center.y + g.a * math.cos(th) * sa + g.b * math.sin(th) * ca
                assert abs(c(x, y)) <= 1e-9 * scale * (1 + x * x + y * y)


class TestConjugateDiameterAngle:
    def test_circle(self):
        assert conjugate_diameter_angle(geometry(UNIT_CIRCLE)) == math.pi / 2

    def test_two_to_one_ellipse(self):
        g = geometry(Conic(0.25, 0, 1, 0, 0, -1))
        gamma = conjugate_diameter_angle(g)
        assert abs(gamma - 2 * math.atan(0.5)) <= 1e-15
        # cross-check: build the two equal conjugate diameter directions at
        # parametric angles pi/4 and 3pi/4 and measure the angle between them
        d1 = (g.a * math.cos(math.pi / 4), g.b * math.sin(math.pi / 4))
        d2 = (g.a * math.cos(3 * math.pi / 4), g.b * math.sin(3 * math.pi / 4))
        cross = abs(d1[0] * d2[1] - d1[1] * d2[0])
        dot = abs(d1[0] * d2[0] + d1[1] * d2[1])
        assert abs(gamma - math.atan2(cross, dot)) <= 1e-12

    def test_golden_minimal_conic_tan_sq(self):
        gamma = conjugate_diameter_angle(geometry(golden_minimal_conic()))
        assert abs(math.tan(gamma) ** 2 - 64.0) <= 1e-9

    def test_near_circle_is_not_a_right_angle(self):
        # no snap to pi/2 below the circle: b/a = 1 - 1e-13 keeps its angle
        g = EllipseGeometry(Point2(0.0, 0.0), 1.0, 1.0 - 1e-13, 0.0, 0.0)
        gamma = conjugate_diameter_angle(g)
        assert gamma == 2 * math.atan2(g.b, g.a) < math.pi / 2

    def test_equal_axes_give_exactly_a_right_angle(self):
        # b = a, and 2 atan2(a, a) is pi/2 in doubles at every scale
        for radius in (1.0, 0.3, 7.25, 2.0 ** -300, 2.0 ** 300):
            g = EllipseGeometry(Point2(0.0, 0.0), radius, radius, 0.0, None)
            assert conjugate_diameter_angle(g) == math.pi / 2


class TestNormalized:
    @staticmethod
    def random_conics(rng, count):
        """Conics with magnitudes from 2^-300 to 2^300 (every fifth at one
        of the two ends), every third with A + C = 0, every third of the
        rest with A + C < 0, and each coefficient +0.0 or -0.0 with
        probability 1/5."""
        for i in range(count):
            exponent = int(rng.choice([-300, 300]) if i % 5 == 0 else rng.integers(-300, 301))
            c = [float(x) * 2.0 ** (exponent + int(rng.integers(-3, 4)))
                 for x in rng.standard_normal(6)]
            c = [(-0.0 if rng.integers(0, 2) else 0.0) if rng.random() < 0.2 else x
                 for x in c]
            if i % 3 == 0:
                c[2] = -c[0]
            elif i % 3 == 1:
                c[0], c[2] = -abs(c[0]) - 2.0 ** exponent, -abs(c[2])
            yield Conic(*c)

    def test_bits_of_the_oriented_conic_over_its_norm(self):
        # each coefficient divided once by the hypot of all six; the conic at
        # 2^600, whose sum of squares overflows, is no exception
        edges = [Conic(1.0, -0.0, -1.0, 0.0, -0.0, 2.0), Conic(-1.0, 0.0, -0.0, -0.0, 0.0, 0.0),
                 Conic(2.0 ** 300, 0.0, 2.0 ** 300, 0.0, 0.0, -(2.0 ** 300)),
                 Conic(-(2.0 ** -300), -0.0, 0.0, 2.0 ** -300, 0.0, 0.0),
                 scaled(Conic(3.0, -1.0, 2.0, -5.0, 7.0, 11.0), 2.0 ** 600)]
        signs = set()
        for c in [*edges, *self.random_conics(np.random.default_rng(209), 3000)]:
            if not any(c):
                continue
            ref = Conic(*(x / norm(c) for x in oriented(c)))
            assert struct.pack("6d", *c.normalized()) == struct.pack("6d", *ref), c
            assert abs(math.hypot(*ref) - 1.0) <= 4e-16 and ref.A + ref.C >= 0, c
            signs.add((c.A + c.C > 0) - (c.A + c.C < 0))
        assert signs == {-1, 0, 1}
        big = edges[-1].normalized()
        assert big == Conic(*(x / math.sqrt(209.0) for x in (3.0, -1.0, 2.0, -5.0, 7.0, 11.0)))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_conic_raises(self, zero):
        with pytest.raises(ValueError):
            Conic(zero, -zero, zero, zero, -zero, zero).normalized()


class TestTangentSlope:
    def test_circle_top_is_horizontal(self):
        assert tangent_slope(UNIT_CIRCLE, (0.0, 1.0)) == 0.0

    def test_circle_side_is_vertical(self):
        assert tangent_slope(UNIT_CIRCLE, (1.0, 0.0)) is None

    def test_family_tangency_slope(self):
        cq = make_quad(4, 6, 2, 2, 1)
        c = coefficients(cq, closed_form_h(cq))
        z1 = tangency_points(cq, closed_form_h(cq))[0].zeta
        assert abs(tangent_slope(c, z1) - 0.5) <= 1e-9

    def test_off_conic_rejected(self):
        with pytest.raises(ValueError):
            tangent_slope(UNIT_CIRCLE, (0.5, 0.5))

    def test_singular_point_rejected(self):
        with pytest.raises(ValueError):
            tangent_slope(Conic(1, 0, 1, 0, 0, 0), (0.0, 0.0))


class TestLineTangency:
    def test_tangent(self):
        relation, disc = line_tangency(UNIT_CIRCLE, Line2(0.0, 1.0))
        assert relation == "tangent"
        assert abs(disc) <= 1e-12

    def test_secant(self):
        relation, disc = line_tangency(UNIT_CIRCLE, Line2(0.0, 0.0))
        assert relation == "secant" and disc > 0

    def test_disjoint(self):
        relation, disc = line_tangency(UNIT_CIRCLE, Line2(0.0, 2.0))
        assert relation == "disjoint" and disc < 0

    def test_vertical_lines(self):
        assert line_tangency(UNIT_CIRCLE, Line2(None, 1.0))[0] == "tangent"
        assert line_tangency(UNIT_CIRCLE, Line2(None, 0.5))[0] == "secant"
        assert line_tangency(UNIT_CIRCLE, Line2(None, 2.0))[0] == "disjoint"


class TestLine2:
    def test_through_points(self):
        line = Line2.through((0, 1), (2, 2))
        assert not line.is_vertical
        assert abs(line.slope - 0.5) <= 1e-15 and abs(line.intercept - 1) <= 1e-15

    def test_vertical_through(self):
        assert Line2.through((3, 0), (3, 5)).is_vertical


class TestPullback:
    def test_zero_set_is_preserved(self):
        c = Conic(1, 0, 1, 0, 0, -1)
        iso = Isometry2(0.7, Point2(2.0, -1.0), True)
        moved = numpy_pullback(c, iso.inverse())
        for th in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            p = iso.apply((math.cos(th), math.sin(th)))
            assert abs(moved(p.x, p.y)) <= 1e-12 * norm(moved)


def numpy_pullback(c, iso):
    """Coefficients of the conic pre-composed with ``iso``, by 2x2 matrix
    products: the zero set of the result is the iso-preimage of that of c,
    so ``numpy_pullback(c, iso.inverse())`` moves c by ``iso``."""
    ct, st = math.cos(iso.angle), math.sin(iso.angle)
    n = np.array([[ct, -st], [st, ct]])
    if iso.reflect:
        n = n @ np.array([[1.0, 0.0], [0.0, -1.0]])
    tvec = np.array([iso.translation.x, iso.translation.y])
    m = np.array([[c.A, c.B / 2.0], [c.B / 2.0, c.C]])
    lin = np.array([c.D, c.E])
    mp = n.T @ m @ n
    lp = 2.0 * (n.T @ (m @ tvec)) + n.T @ lin
    fp = tvec @ m @ tvec + lin @ tvec + c.F
    return Conic(*map(float, (mp[0, 0], 2.0 * mp[0, 1], mp[1, 1], lp[0], lp[1], fp)))


def numpy_major_axis_angle(c):
    """Reference axis angle: eigenvector of the smaller eigenvalue, in (-pi/2, pi/2]."""
    A, B, C = oriented(c)[:3]
    _, vecs = np.linalg.eigh(np.array([[A, B / 2.0], [B / 2.0, C]]))
    angle = math.atan2(vecs[1, 0], vecs[0, 0])
    if angle <= -math.pi / 2.0:
        angle += math.pi
    elif angle > math.pi / 2.0:
        angle -= math.pi
    return angle


class TestAgainstNumpyReference:
    def test_axis_angle(self):
        rng = np.random.default_rng(208)
        checked = 0
        for _ in range(400):
            cq = random_general(rng)
            base = coefficients(cq, random_h(cq, rng))
            iso = Isometry2(float(rng.uniform(-math.pi, math.pi)), Point2(0.0, 0.0),
                            bool(rng.integers(0, 2)))
            c = numpy_pullback(base, iso)
            angle = geometry(c).major_axis_angle
            if angle is None:
                continue
            ref = numpy_major_axis_angle(c)
            # both lie in (-pi/2, pi/2]; compare as axis directions (mod pi)
            diff = (angle - ref + math.pi / 2.0) % math.pi - math.pi / 2.0
            assert abs(diff) <= 1e-12
            assert -math.pi / 2.0 < angle <= math.pi / 2.0
            checked += 1
        assert checked > 390
