import collections
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from helpers import (KITE_VERTICES, NEAR_TRAPEZOIDS, Q5_VERTICES, THIN_OPTIMA,
                     Line2, bench_module, cli_verify_pool, closed_form_h, coefficients,
                     exact_slope_sign, fd_gradient, geometry, grid_argmax,
                     incircle, make_quad, mp_family, mp_support_distances, near_parallel_poses,
                     near_mdqs, near_tangential_kites, numpy_containment, numpy_ratio_sq, random_general,
                     line_tangency, random_kite, random_type1, random_type2, ratio_sq_function,
                     ratio_sq_prime, scaled, spectral_quadratics, support_rounding, sv_pool)
from inellipse import (CanonicalQuad, Conic, Point2, QuadKind, canonicalize,
                       classify, containment, solve, verify)
from inellipse import family, minecc, quad
from inellipse.oracle import (TANGENCY_TOL, _line_residual, _slope_sign, optimum,
                              side_distance_lines, side_tangency)

H_PLUS_GOLDEN = 3.0 / 13.0 * (-3.0 + math.sqrt(61.0))


@pytest.fixture
def q5():
    return make_quad(4, 6, 2, 2, 1)


@pytest.fixture
def kite():
    return make_quad(3, 3, 2, 2, 0)


class TestFdGradient:
    def test_exact_on_quadratics(self):
        assert fd_gradient(lambda x: x * x, 3.0, 0.5) == 6.0

    def test_vanishes_at_the_optimum(self, q5):
        f = ratio_sq_function(q5)
        scale = max(abs(fd_gradient(f, h, 1e-6)) for h in (1.05, 1.2, 1.5))
        assert abs(fd_gradient(f, H_PLUS_GOLDEN, 1e-6)) <= 1e-6 * scale

    def test_matches_analytic_derivative(self, q5):
        f = ratio_sq_function(q5)
        fd = fd_gradient(f, 1.05, 1e-6)
        an = ratio_sq_prime(q5, 1.05)
        assert abs(fd - an) <= 1e-6 * abs(an)


class TestGridArgmax:
    def test_golden_quad(self, q5):
        n = 100_000
        lo, hi = q5.interval
        h, val = grid_argmax(numpy_ratio_sq(q5), q5.interval, n)
        assert abs(h - H_PLUS_GOLDEN) <= 2.0 * (hi - lo) / n
        assert 0.7 < val < 0.8

    def test_kite(self, kite):
        n = 100_000
        lo, hi = kite.interval
        h, val = grid_argmax(numpy_ratio_sq(kite), kite.interval, n)
        assert abs(h - (math.sqrt(10.0) - 2.0)) <= 2.0 * (hi - lo) / n
        # the ratio curve has a corner at a circle member, so the grid value
        # approaches 1 only linearly in the grid spacing
        assert val > 1.0 - 1e-4

    def test_constant_function_picks_lowest_h(self):
        h, val = grid_argmax(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                             (0.0, 1.0), 9)
        assert h == 0.1 and val == 0.0

    def test_scalar_only_callable(self):
        h, val = grid_argmax(lambda x: -(float(x) - 0.25) ** 2, (0.0, 1.0), 999)
        assert abs(h - 0.25) <= 2.0 / 999

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            grid_argmax(lambda x: x, (0.0, 1.0), 2)


# The README quad, a kite (a circular member puts a corner in the ratio
# curve), thin optima and a near-trapezoid.
SPECIAL_QUADS = {"readme": Q5_VERTICES, "kite": KITE_VERTICES,
                 **{f"thin_optimum_{i}": v for i, v in enumerate(THIN_OPTIMA)},
                 "near_trapezoid": NEAR_TRAPEZOIDS[0]}


def special_quads():
    return [canonicalize(v) for v in SPECIAL_QUADS.values()]


def grid(cq, n=100_000):
    """The n interior samples of ``grid_argmax``."""
    lo, hi = cq.interval
    return lo + (hi - lo) * (np.arange(1, n + 1) / (n + 1.0))


class TestRatioSqFunction:
    @pytest.mark.parametrize("index", [0, 1, 2, 4])
    def test_numpy_twin_has_the_scalar_bits(self, index):
        # on grids where the power x ** 0.5 and the square root round apart
        cq = cli_verify_pool(1)[index]
        hs = grid(cq)
        f = ratio_sq_function(cq)
        assert [f(h) for h in hs.tolist()] == numpy_ratio_sq(cq)(hs).tolist()
        lam = (2.0 * hs - cq.v) / (cq.s - cq.v)
        _, (d2, d1, d0), (b2, b1, b0) = spectral_quadratics(cq)
        diff, b = (d2 * lam + d1) * lam + d0, (b2 * lam + b1) * lam + b0
        radicands = (diff * diff + b * b).tolist()
        assert any(x ** 0.5 != math.sqrt(x) for x in radicands)


def brackets_the_trace(g, cq, n):
    """The exact support distance of each side (50 digits) is never above
    the sampled minimum of the n-point trace, and at most rad (1 - cos(pi
    / n)) below it, up to float rounding."""
    gap = 1.0 - math.cos(math.pi / n)
    bound = support_rounding(g, cq)
    for (d, rad), sampled in zip(mp_support_distances(g, cq), numpy_containment(g, cq, n)):
        assert d <= sampled + bound
        assert sampled <= d + rad * gap + bound


def matches_50_digits(g, cq):
    """The report's residual is the largest 50-digit |d| up to rounding,
    and the verdict follows it unless that |d| is within rounding of the
    tolerance."""
    rep = containment(g, cq)
    exact = max(abs(d) for d, _ in mp_support_distances(g, cq))
    bound = support_rounding(g, cq)
    assert abs(rep.worst_residual - exact) <= bound
    if abs(exact - rep.tolerance) > bound:
        assert rep.passed == (exact <= rep.tolerance)
    return rep


def reported(quads):
    return [(solve(cq).geom, cq) for cq in quads]


MUTATIONS = {
    "a_up": lambda g, L: g._replace(a=g.a * (1.0 + 1e-8)),
    "a_down": lambda g, L: g._replace(a=g.a * (1.0 - 1e-8)),
    "b_up": lambda g, L: g._replace(b=g.b * (1.0 + 1e-8)),
    "b_down": lambda g, L: g._replace(b=g.b * (1.0 - 1e-8)),
    "center_x": lambda g, L: g._replace(center=Point2(g.center.x + 1e-7 * L, g.center.y)),
    "center_y": lambda g, L: g._replace(center=Point2(g.center.x, g.center.y + 1e-7 * L)),
    "axis": lambda g, L: g._replace(major_axis_angle=(g.major_axis_angle or 0.0) + 1e-6),
}

MUTATION_QUADS = {
    "type1": (lambda: canonicalize(Q5_VERTICES), QuadKind.MDQ_TYPE1),
    # b/a = 0.41: on thinner optima 1e-8 of b is below the tolerance
    "type2": (lambda: random_type2(np.random.default_rng(509)), QuadKind.MDQ_TYPE2),
    "general": (lambda: canonicalize([(0, 0), (0, 3), (4, 6), (2, 1)]), QuadKind.GENERAL),
    "kite": (lambda: canonicalize(KITE_VERTICES), QuadKind.MDQ_TYPE1),
}


class TestContainment:
    """``containment`` is exact: each side's support distance of the
    ellipse, against 50 digits and bracketing the sampled trace."""

    def test_minimal_ellipse_is_inside(self, q5):
        rep = containment(geometry(coefficients(q5, closed_form_h(q5))), q5)
        assert rep.passed and rep.worst_residual <= rep.tolerance

    def test_unit_circle_pokes_outside(self, q5):
        rep = containment(geometry(Conic(1, 0, 1, 0, 0, -1)), q5)
        assert not rep.passed
        assert rep.worst_residual > 0.1

    def test_kite_incircle_touches(self, kite):
        rep = containment(geometry(coefficients(kite, closed_form_h(kite))), kite)
        assert rep.passed
        assert rep.worst_residual <= 1e-9 * kite.diameter

    def test_side_lines_face_the_interior(self):
        # the normals come from the clockwise labeling, not from a centroid
        # test: the centroid and both vertices off each side lie on its
        # positive side, on every kind of pose
        rng = np.random.default_rng(503)
        quads = [gen(rng) for gen in (random_general, random_type1, random_type2, random_kite)
                 for _ in range(100)]
        quads += [cq for k in (6, 10, 14) for cq in near_parallel_poses(40, k, seed=503 + k)]
        for cq in quads:
            verts = cq.vertices
            centroid = Point2(sum(p.x for p in verts) / 4.0, sum(p.y for p in verts) / 4.0)
            for (nx, ny, c), side in zip(side_distance_lines(cq), cq.sides):
                for p in [centroid] + [p for p in verts if p not in side]:
                    assert nx * p.x + ny * p.y + c > 0.0, (cq, side, p)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_support_distances_match_50_digits_on_cli_verify_pool(self, seed):
        for g, cq in reported(cli_verify_pool(seed)):
            assert matches_50_digits(g, cq).passed

    def test_support_distances_match_50_digits_on_special_cases(self, q5):
        quads = special_quads() + [canonicalize(v) for v in NEAR_TRAPEZOIDS[1:]]
        for g, cq in reported(quads):
            assert matches_50_digits(g, cq).passed
        assert not matches_50_digits(geometry(Conic(1, 0, 1, 0, 0, -1)), q5).passed

    @pytest.mark.parametrize("n", [3, 4, 7, 256, 1000])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_matches_the_full_trace_on_cli_verify_pool(self, seed, n):
        for g, cq in reported(cli_verify_pool(seed)):
            brackets_the_trace(g, cq, n)

    @pytest.mark.parametrize("n", [3, 4, 7, 256, 1000])
    def test_matches_the_full_trace_on_special_cases(self, n, q5, kite):
        cases = [*reported(special_quads()), (geometry(Conic(1, 0, 1, 0, 0, -1)), q5),
                 (geometry(coefficients(kite, closed_form_h(kite))), kite)]
        assert cases[-1][0].major_axis_angle is None      # a circle
        for g, cq in cases:
            brackets_the_trace(g, cq, n)

    @pytest.mark.parametrize("n", [256, 1_000_000])
    def test_matches_the_full_trace_next_to_a_thin_ellipse(self, n, q5):
        # semi-axes 0.4 and 1e-7 along the side x = 0 (S2), 1.5e-7 from it:
        # its support distance there is 5e-8, which no sample undercuts
        b, x0, y0, a = 1e-7, 1.5e-7, 1.0, 0.4
        conic = Conic(1.0, 0.0, (b / a) ** 2, -2.0 * x0, -2.0 * y0 * (b / a) ** 2,
                      x0 * x0 + (y0 * b / a) ** 2 - b * b)
        g = geometry(conic)
        brackets_the_trace(g, q5, n)
        d, rad = mp_support_distances(g, q5)[1]
        assert abs(d - (x0 - b)) <= 1e-20 and abs(rad - b) <= 1e-20
        assert not containment(g, q5).passed

    @pytest.mark.parametrize("field", ["a", "b"])
    def test_a_nan_semi_axis_fails(self, field, q5):
        g = solve(q5).geom
        assert containment(g, q5).passed
        rep = containment(g._replace(**{field: math.nan}), q5)
        assert not rep.passed and math.isnan(rep.worst_residual)

    # the kite's ellipse is a circle, which no turn of its axis moves
    @pytest.mark.parametrize("kind, mutation", [(k, m) for k in MUTATION_QUADS for m in MUTATIONS
                                                if (k, m) != ("kite", "axis")])
    def test_a_mutated_ellipse_fails(self, kind, mutation):
        # 1e-8 of a semi-axis, 1e-7 of the diameter or 1e-6 of a turn: far
        # above rounding, yet (but for the kite's a or b up) inside what a
        # 256-point trace of the ellipse lets through
        make, qkind = MUTATION_QUADS[kind]
        cq = make()
        res = solve(cq)
        assert classify(cq).kind is qkind
        assert all(r.passed for r in verify(cq, res))
        moved = res._replace(geom=MUTATIONS[mutation](res.geom, cq.diameter))
        reports = {r.name: r for r in verify(cq, moved)}
        assert not reports["containment"].passed
        assert reports["side_tangency"].passed and reports["optimum"].passed


class TestIncircle:
    """``helpers.incircle``, the bisector construction, is the reference
    for the circle ``solve`` reports on tangential midpoint-diagonal quads."""

    def test_kite_center_and_radius(self, kite):
        center, radius = incircle(kite)
        expected = math.sqrt(10.0) - 2.0
        assert abs(center.x - expected) <= 1e-12
        assert abs(center.y - expected) <= 1e-12
        assert abs(radius - expected) <= 1e-12

    def test_side_distances_agree(self):
        rng = np.random.default_rng(501)
        for _ in range(100):
            cq = random_kite(rng)
            center, radius = incircle(cq)
            dists = [nx * center.x + ny * center.y + c
                     for nx, ny, c in side_distance_lines(cq)]
            assert max(dists) - min(dists) <= 1e-9 * cq.diameter

    def test_matches_closed_form_abscissa(self):
        rng = np.random.default_rng(502)
        for _ in range(100):
            cq = random_kite(rng)
            center, _ = incircle(cq)
            assert abs(center.x - closed_form_h(cq)) <= 1e-9 * cq.diameter

    def test_rejects_non_tangential(self, q5):
        with pytest.raises(ValueError):
            incircle(q5)

    @staticmethod
    def on_the_incenter(cq):
        res = solve(cq)
        assert all(r.passed for r in verify(cq, res))
        center, _ = incircle(cq)
        return math.hypot(center.x - res.geom.center.x,
                          center.y - res.geom.center.y) <= 1e-6 * cq.diameter

    def test_tangential_mdqs_of_the_pools_sit_on_the_incenter(self):
        quads = [cq for seed in range(1, 11) for cq in cli_verify_pool(seed)
                 if classify(cq).tangential and classify(cq).kind is not QuadKind.GENERAL]
        assert len(quads) > 100
        assert all(self.on_the_incenter(cq) for cq in quads)

    def test_near_tangential_mdqs_sit_on_the_incenter(self):
        # Pitot residuals in +-1e-9: each gets its own ellipse, centered
        # within 7.2e-10 of the diameter of the bisector incenter; on 12,000
        # quads of seeds 1 and 2 those not reported as circles touch every
        # side to 2.7e-16 of the diameter
        quads = near_tangential_kites(1000, seed=505)
        assert all(self.on_the_incenter(cq) for cq in quads)


def mp_slope(cq, lam):
    """d(b/a)^2/dlam at lam, at 50 digits, from the defining coefficient
    formulas at h = (v + (s - v) lam) / 2, exact at that precision."""
    s, v = mpmath.mpf(cq.s), mpmath.mpf(cq.v)
    with mpmath.workdps(50):
        ratio = mp_family(cq)[0]
        return mpmath.diff(lambda x: ratio((v + (s - v) * x) / 2), mpmath.mpf(lam))


def moved_solve(monkeypatch, shift):
    """Make ``solve``'s root land ``shift`` off in lam, the share of the
    interval; ``solve`` still recomputes every reported quantity at that
    lam (``family._at``)."""
    numeric = minecc.maximize_ratio_sq

    def moved(cq):
        lam, steps = numeric(cq)
        return lam + shift, steps

    monkeypatch.setattr(minecc, "maximize_ratio_sq", moved)


def member_tangency(cq, res, lam):
    """``side_tangency`` of the family member at lam, reported as if solved."""
    return side_tangency(cq, res._replace(conic=family._at(cq, lam)[0], lam_star=lam))


def mutated_conics(cq, res, rel):
    """``res.conic`` with one of A..F times 1 + rel and 1 - rel, normalized
    as ``side_tangency`` takes it: 12 conics."""
    return [res.conic._make(c * (1.0 + sign * rel) if i == k else c
                            for i, c in enumerate(res.conic)).normalized()
            for k in range(6) for sign in (1.0, -1.0)]


class TestSideTangency:
    """The line half of ``side_tangency`` is the parametrization-free
    residual of l^T adj(M) l; both halves share the band ``TANGENCY_TOL``."""

    HONEST = 1e-3 * TANGENCY_TOL

    def test_honest_reports_on_cli_verify_pools(self):
        worst = max(side_tangency(cq, solve(cq)).worst_residual
                    for seed in range(1, 11) for cq in cli_verify_pool(seed))
        assert worst <= self.HONEST

    def test_honest_reports_on_special_cases(self):
        for vertices in THIN_OPTIMA + NEAR_TRAPEZOIDS + [Q5_VERTICES, KITE_VERTICES]:
            cq = canonicalize(vertices)
            rep = side_tangency(cq, solve(cq))
            assert rep.passed and rep.worst_residual <= self.HONEST, rep

    def test_honest_family_members(self):
        # 294 quads, each at 8 segment coordinates from 0.001 to 0.999
        fractions = (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999)
        for cq in sv_pool() + cli_verify_pool(1) + cli_verify_pool(2):
            res = solve(cq)
            for f in fractions:
                rep = member_tangency(cq, res, f)
                assert rep.passed and rep.worst_residual <= self.HONEST, (cq, f, rep)

    def test_honest_at_the_scale_edges(self, monkeypatch):
        # the range of TestScaleRange::test_verify_edges_beyond_the_accepted_range
        monkeypatch.setattr(quad, "_check_diameter", lambda diam2: None)
        for k in range(-131, 85):
            cq = canonicalize([(math.ldexp(x, k), math.ldexp(y, k))
                               for x, y in [(0, 0), (0, 3), (4, 6), (2, 1)]])
            rep = side_tangency(cq, solve(cq))
            assert rep.passed and rep.worst_residual <= self.HONEST, (k, rep)

    def test_the_same_bits_for_either_vertex_order(self):
        for cq in cli_verify_pool(1):
            res = solve(cq)
            for conic in [res.conic.normalized()] + mutated_conics(cq, res, 1e-9):
                for p, q in cq.sides:
                    assert _line_residual(conic, p, q) == _line_residual(conic, q, p)

    @pytest.mark.parametrize("p, q, tangent", [
        ((1.0, -3.0), (1.0, 5.0), True), ((-2.0, 1.0), (7.0, 1.0), True),
        ((0.5, 0.0), (0.5, 1.0), False), ((2.0, 0.0), (2.0, 1.0), False)],
        ids=["x=1", "y=1", "x=0.5", "x=2"])
    def test_unit_circle(self, p, q, tangent):
        residual = _line_residual(Conic(1, 0, 1, 0, 0, -1), Point2(*p), Point2(*q))
        assert (residual <= TANGENCY_TOL) is tangent and 0.0 <= residual <= 1.0

    def test_a_nan_conic_fails(self):
        p, q = Point2(1.0, -3.0), Point2(1.0, 5.0)
        assert not _line_residual(Conic(1, 0, 1, 0, math.nan, -1), p, q) <= TANGENCY_TOL

    # per rel: cases flagged by line_tangency's 1e-9 discriminant band (the
    # old line test) and by _line_residual at TANGENCY_TOL, of 1536; taken
    # on the conics of the one root path (the MDQ closed forms gave 1217
    # old at 1e-9 and 1356 new at 1e-11)
    MUTATION_TABLE = {1e-8: (1448, 1470), 1e-9: (1222, 1468),
                      1e-10: (202, 1454), 1e-11: (22, 1355)}

    @pytest.mark.parametrize("rel", sorted(MUTATION_TABLE, reverse=True))
    def test_mutation_table(self, rel):
        # 128 seed-1 pool conics with one of A..F times 1 +- rel; the old
        # test alone flags D (1 +- rel) on S1 of a thin type-2 quad (u =
        # 0.146), where its discriminant reads 5.6e-13 of its scale honestly
        old = new = 0
        only_old = []
        for cq in cli_verify_pool(1):
            for i, conic in enumerate(mutated_conics(cq, solve(cq), rel)):
                by_old = any(line_tangency(conic, Line2.through(p, q))[0] != "tangent"
                             for p, q in cq.sides)
                by_new = any(_line_residual(conic, p, q) > TANGENCY_TOL for p, q in cq.sides)
                old, new = old + by_old, new + by_new
                if by_old and not by_new:
                    only_old.append(("ABCDEF"[i // 2], round(cq.u, 3)))
        assert (old, new) == self.MUTATION_TABLE[rel] and new >= old
        assert only_old == ([] if rel > 1e-10 else [("D", 0.146)] * 2)

    def test_a_failure_names_its_side_and_half(self, q5):
        res = solve(q5)
        bad_line = res._replace(conic=res.conic._replace(F=res.conic.F * (1.0 + 1e-9)))
        rep = side_tangency(q5, bad_line)
        assert not rep.passed and rep.tolerance == TANGENCY_TOL
        assert rep.location == f"line residual {rep.worst_residual:.3e} on side S2"
        rep = side_tangency(q5, res._replace(lam_star=res.lam_star + 1e-6))
        assert not rep.passed
        assert rep.location.startswith("tangency point residual")
        assert side_tangency(q5, res).location == "all side lines tangent"


class TestOptimum:
    """The exact sign certificate of lam* (``oracle.optimum``)."""

    def test_slope_sign_matches_50_digits(self):
        # both orientations of the segment, below SV_MARGIN down to |s - v|
        # = 1e-14 s; points at least 2e-6 from the optimum
        quads = sv_pool() + near_parallel_poses(8, 14, seed=2601)
        assert {cq.s > cq.v for cq in quads} == {True, False}
        for cq in quads:
            lam, sign = solve(cq).lam_star, _slope_sign(cq)
            points = [lam + k for k in (-1e-2, -1e-4, -2e-6, 2e-6, 1e-4, 1e-2)]
            points += [x for x in (0.14, 0.32, 0.5, 0.68, 0.86) if abs(x - lam) >= 2e-6]
            for x in points:
                slope = mp_slope(cq, x)
                assert sign(x) == (slope > 0) - (slope < 0)

    def test_slope_sign_matches_exact_rationals_next_to_the_optimum(self):
        # at lam* and lam* +- k 2^-52 (k = 1, 2, 4), where the sign is
        # hardest to get, on the seed-1 cli_verify pool: the same signs as
        # the defining formulas in Fractions, and both signs occur
        signs = collections.Counter()
        for cq in cli_verify_pool(1):
            lam, sign, exact = solve(cq).lam_star, _slope_sign(cq), exact_slope_sign(cq)
            for x in [lam + k * 2.0 ** -52 for k in (-4, -2, -1, 0, 1, 2, 4)]:
                signs[sign(x)] += 1
                assert sign(x) == exact(x)
        assert signs[1] > 0 and signs[-1] > 0

    @pytest.mark.parametrize("shift", [1e-8, -1e-8])
    @pytest.mark.parametrize("kind", ["type1", "type2", "general", "kite"])
    def test_a_moved_optimum_fails(self, kind, shift, monkeypatch):
        cq, qkind = {"type1": (canonicalize(Q5_VERTICES), QuadKind.MDQ_TYPE1),
                     "type2": (random_type2(np.random.default_rng(504)), QuadKind.MDQ_TYPE2),
                     "general": (canonicalize([(0, 0), (0, 3), (4, 6), (2, 1)]),
                                 QuadKind.GENERAL),
                     "kite": (canonicalize(KITE_VERTICES), QuadKind.MDQ_TYPE1)}[kind]
        res = solve(cq)
        assert classify(cq).kind is qkind
        assert {r.name: r.passed for r in verify(cq, res)}["optimum"]
        moved_solve(monkeypatch, shift)
        moved = solve(cq)
        lo, hi = cq.interval
        moved_by = abs(moved.geom.center.x - res.geom.center.x)
        assert moved_by == pytest.approx(1e-8 * (hi - lo), rel=1e-6)
        reports = {r.name: r for r in verify(cq, moved)}
        assert not reports["optimum"].passed
        assert reports["side_tangency"].passed

    def test_an_offset_quartic_fails(self, monkeypatch):
        # the root of p + 1e-9 |p'| is 1e-9 of the interval off, on every
        # quad, the kites' circles included; the containment and tangency of
        # the moved member still pass
        quads = cli_verify_pool(1)
        stationarity = family.stationarity

        def offset(cq):
            p = stationarity(cq)

            def q(lam):
                value, slope = p(lam)
                return value + 1e-9 * abs(slope), slope
            return q

        monkeypatch.setattr(family, "stationarity", offset)
        for cq in quads:
            reports = {r.name: r for r in verify(cq, solve(cq))}
            assert not reports["optimum"].passed
            assert reports["containment"].passed and reports["side_tangency"].passed

    @pytest.mark.parametrize("vertices", NEAR_TRAPEZOIDS)
    def test_near_trapezoids_pass(self, vertices):
        # one ulp of h is about 1e-8 of their interval; lam resolves 1e-9
        cq = canonicalize(vertices)
        rep = {r.name: r for r in verify(cq, solve(cq))}["optimum"]
        assert rep.passed and rep.tolerance == 1e-9

    # A type-1 residual of 6.4e-10, inside the classification tolerance:
    # the closed form of the exact MDQ next to this pose, which ``solve``
    # once took, failed ``optimum`` here (4.66e-10 against a limit of
    # 3.91e-10).  One of 2850 type-1 quads with residuals uniform in
    # +-0.99e-9; ``solve`` now takes the root of p for every quad.
    EDGE = (1.070782426010505, 3.215676550905802, 3.580214990229722,
            1.8535669556211998, 1.9862489768191058)

    def test_closed_form_at_the_tolerance_edge_is_within_tol_l(self):
        checks, reference = bench_module("checks"), bench_module("reference")
        cq = CanonicalQuad.from_params(*self.EDGE)
        qc = classify(cq)
        assert qc.kind is QuadKind.MDQ_TYPE1 and 6e-10 < qc.residuals["type1"] < 7e-10
        res = solve(cq)
        error = reference.center_error(reference.reference(cq.vertices), list(res.geom.center))
        assert error <= checks.TOL_L

    def test_closed_form_at_the_tolerance_edge_passes_optimum(self):
        cq = CanonicalQuad.from_params(*self.EDGE)
        assert optimum(cq, solve(cq).lam_star).passed

    # type-1 residual 2.6e-10 with u = 9.7e-5: the closed form of the exact
    # MDQ next to it was 1.17e-7 L off, the root of p is 3.2e-13 L off
    SHORT_SIDE = (8.856545510315483, 5.821201664370912, 9.703980618962552e-05,
                  8.238606689687675, 5.414947788421461)

    def test_closed_form_inside_the_tolerance_is_within_tol_l(self):
        checks, reference = bench_module("checks"), bench_module("reference")
        cq = CanonicalQuad.from_params(*self.SHORT_SIDE)
        res = solve(cq)
        error = reference.center_error(reference.reference(cq.vertices), list(res.geom.center))
        assert error <= checks.TOL_L

    def test_near_mdqs_pass_optimum_and_are_within_tol_l(self):
        # MDQ residuals uniform in +-1e-9, all inside the classification
        # tolerance, u down to 1e-4, and the two quads above.  The closed
        # forms that ``solve`` once took here failed ``optimum`` on 154 and
        # TOL_L on 145 of these 402, the worst 2.7e-6 L off; the root of p
        # is 4.8e-13 L off at worst.
        checks, reference = bench_module("checks"), bench_module("reference")
        quads = near_mdqs(400, seed=2201) + [CanonicalQuad.from_params(*params)
                                             for params in (self.EDGE, self.SHORT_SIDE)]
        kinds = [classify(cq).kind for cq in quads]
        assert kinds.count(QuadKind.MDQ_TYPE1) == 202 and kinds.count(QuadKind.MDQ_TYPE2) == 200
        assert min(cq.u for cq in quads[:-2]) < 1.1e-4
        for cq in quads:
            res = solve(cq)
            assert optimum(cq, res.lam_star).passed
            error = reference.center_error(reference.reference(cq.vertices),
                                           list(res.geom.center))
            assert error <= checks.TOL_L


class TestIndependence:
    """The oracles must not share code paths with what they check."""

    def test_fd_gradient_accepts_any_callable(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(x)

        fd_gradient(f, 0.3, 1e-5)
        assert calls == [0.3 + 1e-5, 0.3 - 1e-5]

    def test_grid_is_close_to_brute_force_scan(self):
        rng = np.random.default_rng(503)
        cq = random_general(rng)
        f = ratio_sq_function(cq)
        lo, hi = cq.interval
        n = 1001
        hs = [lo + (hi - lo) * (i + 1) / (n + 1) for i in range(n)]
        best = max(hs, key=lambda h: float(f(h)))
        h, _ = grid_argmax(f, cq.interval, n)
        assert h == pytest.approx(best, abs=0)


PINNED_VERIFY = [case for case in json.loads(
    (Path(__file__).parent / "data" / "reports.json").read_text())["cases"]
    if case["command"] == "verify"]


def battery(vertices):
    cq = canonicalize(vertices)
    return verify(cq, solve(cq))


class TestVerify:
    @pytest.mark.parametrize("case", PINNED_VERIFY, ids=lambda c: c["name"])
    def test_matches_the_pinned_cli_oracles(self, case):
        # JSON floats at 17 digits re-parse exactly, so the comparison is exact
        pinned = json.loads(case["stdout"])["oracles"]
        assert [r._asdict() for r in battery(case["vertices"])] == pinned

    @pytest.mark.parametrize("k", [6, 8, 10, 12, 14])
    def test_near_parallel_poses_pass_every_oracle(self, k):
        # |s - v| = 1e-k s, both signs.  Oracles that took the member back
        # from h*, at lam = (2h - v) / (s - v), lost ulp(h) / |s - v| of lam:
        # side_tangency failed 5, 198 and 200 of 200 such poses at k = 10,
        # 12 and 14, and optimum passed at k = 14 only by a floor of 2 ulp(h)
        for cq in near_parallel_poses(40, k, seed=2600 + k):
            reports = verify(cq, solve(cq))
            assert all(r.passed for r in reports), (cq, reports)
            assert reports[2].name == "optimum" and reports[2].worst_residual <= 1e-9

    def test_report_order(self):
        type1 = [r.name for r in battery(Q5_VERTICES)]
        general = [r.name for r in battery([(0, 0), (0, 3), (4, 6), (2, 1)])]
        kite = [r.name for r in battery(KITE_VERTICES)]
        assert type1 == general == kite == ["containment", "side_tangency", "optimum"]

    def test_side_tangency_fails_on_a_conic_whose_norm_overflows(self):
        # normalized() of that conic is all zeros, which every line touches
        cq = canonicalize(Q5_VERTICES)
        res = solve(cq)
        bad = res._replace(conic=scaled(res.conic._replace(A=-res.conic.A), 2.0 ** 600))
        assert not any(bad.conic.normalized())
        reports = {r.name: r for r in verify(cq, bad)}
        assert not reports["side_tangency"].passed
        assert reports["side_tangency"].location == "normalized conic is zero or not finite"
        nan = res._replace(conic=res.conic._replace(B=math.nan))
        assert not {r.name: r for r in verify(cq, nan)}["side_tangency"].passed

    @pytest.mark.parametrize("vertices", [Q5_VERTICES, [(0, 0), (0, 3), (4, 6), (2, 1)],
                                          KITE_VERTICES], ids=["type1", "general", "kite"])
    def test_containment_checks_the_reported_ellipse(self, vertices):
        # the conic is untouched, so only the traced res.geom can fail
        cq = canonicalize(vertices)
        res = solve(cq)
        assert all(r.passed for r in verify(cq, res))
        inflated = res._replace(geom=res.geom._replace(a=1.01 * res.geom.a))
        reports = {r.name: r for r in verify(cq, inflated)}
        assert not reports["containment"].passed
        assert reports["side_tangency"].passed

    def test_kite_circle_touches_s1_and_s2_exactly(self):
        # the reported circle, center (r, r) and radius r, has support
        # distance exactly 0 from the side lines S1 (y = 0) and S2 (x = 0)
        cq = canonicalize(KITE_VERTICES)
        g = solve(cq).geom
        assert g.center.x == g.center.y == g.a == g.b and g.major_axis_angle is None
        assert side_distance_lines(cq)[:2] == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
        assert [d for d, _ in mp_support_distances(g, cq)[:2]] == [0, 0]
        rep = containment(g, cq)
        assert rep.passed and rep.location.endswith(("side S3", "side S4"))
