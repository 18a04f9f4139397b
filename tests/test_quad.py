import inspect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (PARALLEL_BY_ROUNDING, Q5_VERTICES, bench_module, canonical_vertices, canonicalize_oracle,
                     diagonal_swaps_oracle, make_quad, moved_vertices, placed,
                     random_general, random_isometry, random_kite, random_type1,
                     random_type2, validate_oracle)
from inellipse import (CanonicalQuad, Degenerate, Isometry2, NotConvex, NoValidLabeling,
                       Point2, QuadKind, Trapezoid, canonicalize, classify,
                       diagonal_angle, newton_segment, solve, validate)
from inellipse.family import _at, _segment_coordinate
from inellipse.quad import DEFAULT_TOL

REJECTED = [
    ([(0, 0), (0, 3), (1, 1), (3, 0)], NotConvex),
    ([(0, 0), (0, 2), (0, 2), (2, 1)], Degenerate),
    ([(0, 0), (0, 1), (0, 2), (2, 1)], Degenerate),
    ([(0, 0), (0, math.nan), (4, 6), (2, 1)], Degenerate),
    ([(0, 0), (0, 2), (4, 6)], Degenerate),
    ([(1, 1), (1, 1), (1, 1), (1, 1)], Degenerate),
    ([(0, 0), (1, 0), (1, 1), (0, 1)], Trapezoid),
    ([(0, 0), (1, 2), (4, 3), (3, 1)], Trapezoid),
    ([(0, 0), (4, 0), (3, 2), (1, 2)], Trapezoid),
    (PARALLEL_BY_ROUNDING, NoValidLabeling),
]


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


class TestAgainstBruteForce:
    """canonicalize maps both labelings of each side of the shortest length
    that has a labeling in pose; the brute force maps all eight.  The
    results must be equal bit for bit, isometry included."""

    @pytest.mark.parametrize("gen", [random_general, random_type1, random_type2, random_kite])
    def test_random_placements(self, gen):
        rng = np.random.default_rng(140)
        for _ in range(300):
            raw = placed(gen(rng), rng)
            assert canonicalize(raw) == canonicalize_oracle(raw)

    def test_far_from_origin(self):
        rng = np.random.default_rng(141)
        for _ in range(200):
            off = 10.0 ** rng.uniform(0, 9)
            raw = [(x + off, y - off) for x, y in placed(random_general(rng), rng)]
            assert canonicalize(raw) == canonicalize_oracle(raw)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solve_illcond_inputs(self, seed):
        # near-trapezoids down to |s - v| = 1e-8 of the diameter, where the
        # two labelings of the y-axis side have nearly equal s and v, and
        # offsets up to 1e9 diameters; rejections must match as well
        workloads = bench_module("workloads")
        for item in workloads.illcond_items(random.Random(seed), 512):
            try:
                expected = canonicalize_oracle(item.vertices)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    canonicalize(item.vertices)
                continue
            assert canonicalize(item.vertices) == expected

    def test_integer_kites_with_tied_sides(self):
        # two pairs of adjacent sides of exactly equal length, in every
        # start vertex and orientation
        for a, b, c in itertools.product(range(1, 5), repeat=3):
            kite = [(0, 0), (a, b), (a + c, 0), (a, -b)]
            for k in range(4):
                for raw in (kite[k:] + kite[:k], (kite[k:] + kite[:k])[::-1]):
                    try:
                        expected = canonicalize_oracle(raw)
                    except Trapezoid:
                        with pytest.raises(Trapezoid):
                            canonicalize(raw)
                        continue
                    assert canonicalize(raw) == expected

    @pytest.mark.parametrize("rotated", [False, True])
    def test_integer_grid(self, rotated):
        # perpendicular opposite sides (t = w in some labeling) and equal
        # side lengths are common on a small grid; rotated, they are equal
        # or perpendicular only up to rounding.  Each input also runs with
        # its zero coordinates written as -0.0, and the poses are compared
        # by repr, so a signed zero in a pose or translation shows
        rng = np.random.default_rng(142)
        for _ in range(3000):
            raw = [tuple(int(c) for c in rng.integers(-3, 4, 2)) for _ in range(4)]
            if rotated:
                iso = random_isometry(rng)
                raw = [iso.apply(p) for p in raw]
            for vertices in (raw, [tuple(c or -0.0 for c in p) for p in raw]):
                try:
                    expected = canonicalize_oracle(vertices)
                except Exception as exc:
                    with pytest.raises(type(exc)):
                        canonicalize(vertices)
                    continue
                assert repr(canonicalize(vertices)) == repr(expected)

    @pytest.mark.parametrize("raw, error", REJECTED)
    def test_rejections(self, raw, error):
        with pytest.raises(error):
            canonicalize_oracle(raw)
        with pytest.raises(error):
            canonicalize(raw)

    def test_validate_order(self):
        rng = np.random.default_rng(143)
        for _ in range(500):
            raw = placed(random_general(rng), rng)
            assert validate(raw) == validate_oracle(raw)


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

    def test_one_tolerance_and_no_knob(self):
        # 1e-7 off the type-1 locus is a general quad; only the residual
        # tells how near it is, and no argument sets another threshold
        qc = classify(make_quad(4, 6, 2 * (1 + 1e-7), 2, 1))
        assert qc.kind is QuadKind.GENERAL
        assert DEFAULT_TOL < qc.residuals["type1"] < 2e-7
        for f in (canonicalize, classify, solve):
            assert "tol" not in inspect.signature(f).parameters

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
            alts = diagonal_swaps_oracle(cq)
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

    def test_residuals_are_in_sorted_key_order(self):
        # the CLI prints the map as it is, so its order is the report's
        rng = np.random.default_rng(106)
        for draw in (random_general, random_type1, random_type2, random_kite):
            keys = list(classify(draw(rng)).residuals)
            assert keys == sorted(keys) == ["orthodiagonal", "pitot", "type1", "type2", "z"]


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

    def test_same_center_line_as_the_family(self):
        rng = np.random.default_rng(107)
        gens = [random_general, random_type1, random_type2, random_kite]
        for i in range(200):
            cq = canonicalize(placed(gens[i % 4](rng), rng))
            ns = newton_segment(cq)
            lo, hi = cq.interval
            for k in range(1, 10):
                center = _at(cq, _segment_coordinate(cq, lo + (hi - lo) * k / 10))[1]
                assert abs(ns.y_at(center.x) - center.y) <= 1e-12 * cq.diameter


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
    """The tangentiality residuals that ``classify`` reports, relative to
    their scales: the Pitot side-length test and the polynomial ``z``."""

    def test_kite_all_zero(self):
        qc = classify(make_quad(3, 3, 2, 2, 0))
        assert qc.residuals["z"] == 0.0 and qc.residuals["pitot"] == 0.0
        assert qc.tangential

    def test_golden_quad_not_tangential(self):
        qc = classify(make_quad(4, 6, 2, 2, 1))
        sides = (math.sqrt(5), 2, math.sqrt(32), math.sqrt(29))
        expected = ((sides[0] + sides[2]) - (sides[1] + sides[3])) / sum(sides)
        assert abs(qc.residuals["pitot"] - expected) <= 1e-12
        assert qc.residuals["pitot"] > 0.03 and qc.residuals["z"] != 0.0
        assert not qc.tangential

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

    @pytest.mark.parametrize("field, source", [("s", "v"), ("w", "t")])
    def test_replace_cannot_make_a_parallel_side_pair(self, field, source):
        cq = canonicalize(Q5_VERTICES)
        with pytest.raises(ValueError):
            cq._replace(**{field: getattr(cq, source)})

    def test_make_checks_the_pose(self):
        cq = canonicalize(Q5_VERTICES)
        with pytest.raises(ValueError):
            CanonicalQuad._make([cq.s, cq.t, cq.u, cq.s, cq.w, cq.iso])
        assert CanonicalQuad._make(cq) == cq
        same = cq._replace(w=cq.w)
        assert type(same) is CanonicalQuad and same == cq

    def test_tiny_params_rejected_before_solve(self):
        # solve() of this quad used to raise ZeroDivisionError
        with pytest.raises(Degenerate, match="accepted range"):
            solve(CanonicalQuad.from_params(4e-60, 6e-60, 3e-60, 2e-60, 1e-60))

    @pytest.mark.parametrize("end", [-56, 56])
    def test_diameter_range_ends(self, end):
        # the general quad (4, 6, 3, 2, 1) has diameter sqrt(52)
        params = (4.0, 6.0, 3.0, 2.0, 1.0)
        unit = solve(CanonicalQuad.from_params(*params))
        k = 2.0 ** end / math.sqrt(52.0)
        inside, outside = k * (1 - math.copysign(1e-6, end)), k * (1 + math.copysign(1e-6, end))
        res = solve(CanonicalQuad.from_params(*(inside * x for x in params)))
        h, unit_h = res.geom.center.x, unit.geom.center.x
        assert abs(h - inside * unit_h) <= 1e-12 * inside * unit_h
        assert abs(res.ratio_sq - unit.ratio_sq) <= 1e-12
        with pytest.raises(Degenerate, match="accepted range"):
            CanonicalQuad.from_params(*(outside * x for x in params))

    def test_interval_orientation(self):
        assert make_quad(2, 5, 3.25, 3, 1).interval == (1.0, 1.5)
