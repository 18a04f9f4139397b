import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Q5_VERTICES, canonical_vertices, make_quad,
                     moved_vertices, random_general, random_isometry,
                     random_kite, random_type1, random_type2)
from inellipse import (CanonicalQuad, Degenerate, Isometry2, NotConvex,
                       Point2, QuadKind, Trapezoid, canonicalize, classify,
                       diagonal_angle, diagonal_swapped_labelings,
                       newton_segment, tangential_residuals, validate)


class TestValidate:
    def test_clockwise_input_unchanged(self):
        out = validate(Q5_VERTICES)
        assert out == [Point2(*p) for p in Q5_VERTICES]

    def test_counterclockwise_input_reversed(self):
        out = validate([(0, 0), (2, 1), (4, 6), (0, 2)])
        assert out == [Point2(*p) for p in Q5_VERTICES]

    def test_crossed_order_is_repaired(self):
        out = validate([(0, 0), (4, 6), (0, 2), (2, 1)])
        assert out == [Point2(*p) for p in Q5_VERTICES]

    def test_vertex_inside_triangle_rejected(self):
        with pytest.raises(NotConvex):
            validate([(0, 0), (0, 3), (1, 1), (3, 0)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(Degenerate):
            validate([(0, 0), (0, 2), (0, 2), (2, 1)])

    def test_collinear_rejected(self):
        with pytest.raises(Degenerate):
            validate([(0, 0), (0, 1), (0, 2), (2, 1)])

    def test_non_finite_rejected(self):
        with pytest.raises(Degenerate):
            validate([(0, 0), (0, math.nan), (4, 6), (2, 1)])

    def test_wrong_count_rejected(self):
        with pytest.raises(Degenerate):
            validate([(0, 0), (0, 2), (4, 6)])

    def test_far_from_origin(self):
        # Absolute-coordinate cross products cancel at a 1e9 offset; 111 of
        # these 200 quads used to be rejected as NotConvex.
        rng = np.random.default_rng(130)
        for _ in range(200):
            cq = random_general(rng)
            near = [Point2(p.x + 1.0, p.y - 1.0) for p in cq.vertices]
            far = [Point2(p.x + 1e9, p.y - 1e9) for p in cq.vertices]
            order = [near.index(p) for p in validate(near)]
            assert [far.index(p) for p in validate(far)] == order


class TestIsometry:
    @given(angle=st.floats(-math.pi, math.pi),
           tx=st.floats(-50, 50), ty=st.floats(-50, 50),
           reflect=st.booleans(),
           px=st.floats(-30, 30), py=st.floats(-30, 30))
    @settings(max_examples=200, deadline=None)
    def test_inverse_round_trip(self, angle, tx, ty, reflect, px, py):
        iso = Isometry2(angle, Point2(tx, ty), reflect)
        p = Point2(px, py)
        q = iso.inverse().apply(iso.apply(p))
        assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-12 * (1 + math.hypot(px, py))

    def test_identity(self):
        iso = Isometry2.identity()
        assert iso.apply((3.5, -2.0)) == Point2(3.5, -2.0)


class TestCanonicalize:
    def test_translated_example(self):
        cq = canonicalize([(1, 1), (1, 3), (5, 7), (3, 2)])
        assert cq.params == (4.0, 6.0, 2.0, 2.0, 1.0)
        assert cq.iso.angle == 0.0 and not cq.iso.reflect
        assert cq.iso.translation == Point2(-1.0, -1.0)
        for raw, canon in zip([(1, 1), (1, 3), (5, 7), (3, 2)], cq.vertices):
            mapped = cq.iso.apply(raw)
            assert math.hypot(mapped.x - canon.x, mapped.y - canon.y) < 1e-12

    def test_already_canonical_is_identity(self):
        cq = canonicalize(Q5_VERTICES)
        assert cq.params == (4.0, 6.0, 2.0, 2.0, 1.0)
        assert cq.iso.angle == 0.0 and not cq.iso.reflect
        assert cq.iso.translation.x == 0.0 and cq.iso.translation.y == 0.0

    def test_square_rejected_as_trapezoid(self):
        with pytest.raises(Trapezoid):
            canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_parallelogram_rejected(self):
        with pytest.raises(Trapezoid):
            canonicalize([(0, 0), (1, 2), (4, 3), (3, 1)])

    def test_single_parallel_pair_rejected(self):
        # sides (0,0)-(4,0) and (3,2)-(1,2) are parallel
        with pytest.raises(Trapezoid):
            canonicalize([(0, 0), (4, 0), (3, 2), (1, 2)])

    def test_round_trip_random(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            src = random_general(rng)
            iso = random_isometry(rng)
            raw = moved_vertices(src, iso)
            cq = canonicalize(raw)
            diam = cq.diameter
            # every input vertex lands on a canonical vertex
            for p in raw:
                q = cq.iso.apply(p)
                assert min(math.hypot(q.x - c.x, q.y - c.y) for c in cq.vertices) \
                    <= 1e-10 * diam
            # and the inverse reproduces the input
            inv = cq.iso.inverse()
            for c, back in zip(cq.vertices, map(inv.apply, cq.vertices)):
                assert min(math.hypot(back.x - p.x, back.y - p.y) for p in raw) \
                    <= 1e-10 * diam

    def test_convexity_constraints_hold_automatically(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            src = random_general(rng)
            cq = canonicalize(moved_vertices(src, random_isometry(rng)))
            s, t, u, v, w = cq.params
            assert v * (t - u) + (u - w) * s > 0
            assert v * t - w * s > 0


class TestClassify:
    def test_golden_quad_is_type1(self):
        qc = classify(make_quad(4, 6, 2, 2, 1))
        assert qc.kind is QuadKind.MDQ_TYPE1
        assert not qc.tangential and not qc.orthodiagonal
        assert qc.residuals["type1"] <= 1e-15

    def test_kite(self):
        qc = classify(make_quad(3, 3, 2, 2, 0))
        assert qc.kind is QuadKind.MDQ_TYPE1
        assert qc.tangential and qc.orthodiagonal

    def test_general_quad(self):
        # u = 3 but the type-1 condition wants u = 2, and the type-2
        # denominator 2v - s vanishes while vt - ws = 8 does not
        qc = classify(make_quad(4, 6, 3, 2, 1))
        assert qc.kind is QuadKind.GENERAL
        assert qc.residuals["type1"] > 1e-3 and qc.residuals["type2"] > 1e-3

    def test_tolerance_knob(self):
        cq = make_quad(4, 6, 2 * (1 + 1e-7), 2, 1)
        assert classify(cq).kind is QuadKind.GENERAL
        assert classify(cq, tol=1e-5).kind is QuadKind.MDQ_TYPE1

    def test_tangential_and_mdq_implies_orthodiagonal(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            qc = classify(random_kite(rng))
            assert qc.tangential
            assert qc.kind is QuadKind.MDQ_TYPE1
            assert qc.residuals["orthodiagonal"] <= 1e-8

    def test_relabeling_duality(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            cq = random_type2(rng)
            assert classify(cq).kind is QuadKind.MDQ_TYPE2
            alts = diagonal_swapped_labelings(cq)
            assert alts, "no valid diagonal-swapped labeling found"
            assert any(classify(a).kind is QuadKind.MDQ_TYPE1 for a in alts)

    def test_classification_isometry_invariant(self):
        rng = np.random.default_rng(105)
        for _ in range(30):
            src = random_type1(rng) if rng.integers(0, 2) else random_general(rng)
            base = classify(canonicalize(canonical_vertices(src)))
            for _ in range(5):
                moved = moved_vertices(src, random_isometry(rng))
                qc = classify(canonicalize(moved))
                assert qc.kind is base.kind
                assert qc.tangential == base.tangential
                assert qc.orthodiagonal == base.orthodiagonal


class TestNewtonSegment:
    def test_golden_quad(self):
        ns = newton_segment(make_quad(4, 6, 2, 2, 1))
        assert ns.m1 == Point2(1.0, 1.5)
        assert ns.m2 == Point2(2.0, 3.0)
        assert ns.interval == (1.0, 2.0)
        assert abs(ns.slope - 1.5) < 1e-15 and abs(ns.intercept) < 1e-15

    def test_kite(self):
        ns = newton_segment(make_quad(3, 3, 2, 2, 0))
        assert ns.m1 == Point2(1.0, 1.0)
        assert ns.m2 == Point2(1.5, 1.5)
        assert ns.interval == (1.0, 1.5)
        assert abs(ns.y_at(1.2) - 1.2) < 1e-15

    def test_line_passes_through_both_midpoints(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            cq = random_general(rng)
            ns = newton_segment(cq)
            assert abs(ns.y_at(cq.s / 2) - cq.t / 2) <= 1e-12 * (1 + abs(cq.t))
            assert abs(ns.y_at(cq.v / 2) - (cq.w + cq.u) / 2) \
                <= 1e-12 * (1 + abs(cq.w + cq.u))


class TestDiagonalAngle:
    def test_golden_quad(self):
        alpha = diagonal_angle(make_quad(4, 6, 2, 2, 1))
        assert abs(alpha - math.atan(8.0)) <= 1e-12

    def test_kite_is_perpendicular(self):
        assert diagonal_angle(make_quad(3, 3, 2, 2, 0)) == math.pi / 2

    def test_general_quad(self):
        alpha = diagonal_angle(make_quad(4, 6, 3, 2, 1))
        assert abs(alpha - math.atan(5.0)) <= 1e-12

    def test_matches_direction_vector_angle(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            cq = random_general(rng)
            d1 = (cq.s, cq.t)
            d2 = (cq.v, cq.w - cq.u)
            cross = abs(d1[0] * d2[1] - d1[1] * d2[0])
            dot = abs(d1[0] * d2[0] + d1[1] * d2[1])
            assert abs(diagonal_angle(cq) - math.atan2(cross, dot)) <= 1e-9


class TestTangentialResiduals:
    def test_kite_all_zero(self):
        res = tangential_residuals(make_quad(3, 3, 2, 2, 0))
        assert res.z == 0.0 and res.pitot == 0.0 and res.cond27 == 0.0

    def test_golden_quad_not_tangential(self):
        res = tangential_residuals(make_quad(4, 6, 2, 2, 1))
        expected = (math.sqrt(5) + math.sqrt(32)) - (2 + math.sqrt(29))
        assert abs(res.pitot - expected) <= 1e-12
        assert res.pitot > 0.5 and res.z != 0.0

    def test_pitot_and_z_vanish_together_on_kites(self):
        rng = np.random.default_rng(108)
        for _ in range(100):
            cq = random_kite(rng)
            qc = classify(cq)
            assert qc.residuals["pitot"] <= 1e-9
            assert qc.residuals["z"] <= 1e-9


class TestCanonicalQuadValidation:
    def test_r0_violation_rejected(self):
        with pytest.raises(ValueError):
            CanonicalQuad.from_params(4, 1, 2, 2, 3)   # t < w

    def test_exact_parallel_pair_rejected(self):
        with pytest.raises(ValueError):
            CanonicalQuad.from_params(2, 6, 2, 2, 1)   # s == v

    def test_interval_orientation(self):
        assert make_quad(2, 5, 3.25, 3, 1).interval == (1.0, 1.5)
