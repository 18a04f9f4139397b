import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from helpers import (KITE_VERTICES, NEAR_TRAPEZOIDS, Q5_VERTICES, THIN_OPTIMA,
                     bench_module, cli_verify_pool, closed_form_h, fd_gradient, geometry, grid_argmax,
                     incircle, interior_points, make_quad, mp_family, mp_support_distances,
                     near_tangential_kites, numpy_containment, numpy_ratio_sq, random_general,
                     random_kite, random_type2, ratio_sq_function, ratio_sq_prime,
                     support_rounding, sv_pool)
from inellipse import (CanonicalQuad, Conic, Point2, QuadKind, canonicalize,
                       classify, coefficients, containment, solve, verify)
from inellipse import family, minecc
from inellipse.oracle import _slope_sign, optimum, side_distance_lines

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
        _, (d2, d1, d0), (b2, b1, b0) = family._spectral_quadratics(cq)
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
        assert res.qclass.kind is qkind
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
        # Pitot residuals in +-1e-9: the reported circle touches S2 exactly
        # and the other sides to 7.0e-10 of the diameter (12,000 quads)
        quads = near_tangential_kites(1000, seed=505)
        assert all(self.on_the_incenter(cq) for cq in quads)


def mp_slope(cq, h):
    """d(b/a)^2/dh at h, at 50 digits, from the defining coefficient formulas."""
    with mpmath.workdps(50):
        return mpmath.diff(mp_family(cq)[0], mpmath.mpf(h))


def moved_solve(monkeypatch, shift):
    """Make ``solve``'s root, closed form or numeric, land ``shift`` off in
    lam, the share of the interval; ``solve`` still recomputes every
    reported quantity at that lam (``family._at``)."""
    for name in ("_type1_root", "_type2_root"):
        root = getattr(minecc, name)
        monkeypatch.setattr(minecc, name, lambda cq, root=root: root(cq) + shift)
    numeric = minecc.maximize_ratio_sq

    def moved(cq):
        lam, steps = numeric(cq)
        return lam + shift, steps

    monkeypatch.setattr(minecc, "maximize_ratio_sq", moved)


class TestOptimum:
    """The exact sign certificate of h* (``oracle.optimum``)."""

    def test_slope_sign_matches_50_digits(self):
        # both orientations of the segment, below SV_MARGIN; points at least
        # 1e-6 of the interval from the optimum
        quads = sv_pool()
        assert {cq.s > cq.v for cq in quads} == {True, False}
        for cq in quads:
            lo, hi = cq.interval
            width, h = hi - lo, solve(cq).h_star
            points = [h + k * width for k in (-1e-2, -1e-4, -2e-6, 2e-6, 1e-4, 1e-2)]
            points += [x for x in interior_points(cq, 5) if abs(x - h) >= 2e-6 * width]
            for x in points:
                slope = mp_slope(cq, x)
                assert _slope_sign(cq, x) == (slope > 0) - (slope < 0)

    @pytest.mark.parametrize("shift", [1e-8, -1e-8])
    @pytest.mark.parametrize("kind", ["type1", "type2", "general", "kite"])
    def test_a_moved_optimum_fails(self, kind, shift, monkeypatch):
        cq, qkind = {"type1": (canonicalize(Q5_VERTICES), QuadKind.MDQ_TYPE1),
                     "type2": (random_type2(np.random.default_rng(504)), QuadKind.MDQ_TYPE2),
                     "general": (canonicalize([(0, 0), (0, 3), (4, 6), (2, 1)]),
                                 QuadKind.GENERAL),
                     "kite": (canonicalize(KITE_VERTICES), QuadKind.MDQ_TYPE1)}[kind]
        res = solve(cq)
        assert res.qclass.kind is qkind
        assert {r.name: r.passed for r in verify(cq, res)}["optimum"]
        moved_solve(monkeypatch, shift)
        moved = solve(cq)
        lo, hi = cq.interval
        assert abs(moved.h_star - res.h_star) == pytest.approx(1e-8 * (hi - lo), rel=1e-6)
        reports = {r.name: r for r in verify(cq, moved)}
        assert not reports["optimum"].passed
        assert reports["side_tangency"].passed

    def test_an_offset_quartic_fails(self, monkeypatch):
        # the numeric root of p + 1e-9 |p'| is 1e-9 of the interval off;
        # the containment and tangency of the moved member still pass
        quads = [cq for cq in cli_verify_pool(1) if solve(cq).method == minecc.NUMERIC]
        assert len(quads) == 32
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
        # one ulp of h is about 1e-8 of their interval: the limit is 2 ulp
        cq = canonicalize(vertices)
        res = solve(cq)
        rep = {r.name: r for r in verify(cq, res)}["optimum"]
        lo, hi = cq.interval
        assert rep.passed and rep.tolerance == 2.0 * math.ulp(res.h_star) > 1e-9 * (hi - lo)

    # A type-1 residual of 6.4e-10, inside the classification tolerance, so
    # ``solve`` takes the closed form of the exact MDQ next to this pose.
    # One of 2850 type-1 quads with residuals uniform in +-0.99e-9.
    EDGE = (1.070782426010505, 3.215676550905802, 3.580214990229722,
            1.8535669556211998, 1.9862489768191058)

    def test_closed_form_at_the_tolerance_edge_is_within_tol_l(self):
        checks, reference = bench_module("checks"), bench_module("reference")
        cq = CanonicalQuad.from_params(*self.EDGE)
        qc = classify(cq)
        assert qc.kind is QuadKind.MDQ_TYPE1 and 6e-10 < qc.residuals["type1"] < 7e-10
        res = solve(cq)
        assert res.method == minecc.CLOSED_FORM
        error = reference.center_error(reference.reference(cq.vertices), list(res.geom.center))
        assert error <= checks.TOL_L

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="Known defect: the closed form at the 1e-9 classification "
                              "edge is farther from the float pose's maximizer than "
                              "optimum's limit (4.66e-10 against 3.91e-10)")
    def test_closed_form_at_the_tolerance_edge_passes_optimum(self):
        cq = CanonicalQuad.from_params(*self.EDGE)
        assert optimum(cq, solve(cq).h_star).passed

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="Known defect: on a short y-axis side the closed form of a "
                              "quad inside the classification tolerance misses TOL_L "
                              "(1.2e-7 L); the numeric root is 3.2e-13 L off")
    def test_closed_form_inside_the_tolerance_is_within_tol_l(self):
        # type-1 residual 2.6e-10 with u = 9.7e-5
        checks, reference = bench_module("checks"), bench_module("reference")
        cq = CanonicalQuad.from_params(8.856545510315483, 5.821201664370912,
                                       9.703980618962552e-05, 8.238606689687675,
                                       5.414947788421461)
        res = solve(cq)
        assert res.method == minecc.CLOSED_FORM
        error = reference.center_error(reference.reference(cq.vertices), list(res.geom.center))
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

    def test_report_order(self):
        type1 = [r.name for r in battery(Q5_VERTICES)]
        general = [r.name for r in battery([(0, 0), (0, 3), (4, 6), (2, 1)])]
        kite = [r.name for r in battery(KITE_VERTICES)]
        assert type1 == general == kite == ["containment", "side_tangency", "optimum"]

    def test_side_tangency_fails_on_a_conic_whose_norm_overflows(self):
        # normalized() of that conic is all zeros, which every line touches
        cq = canonicalize(Q5_VERTICES)
        res = solve(cq)
        bad = res._replace(conic=res.conic._replace(A=-res.conic.A).scaled(2.0 ** 600))
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
