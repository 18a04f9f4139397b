import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (KITE_VERTICES, NEAR_TRAPEZOIDS, Q5_VERTICES, THIN_OPTIMA,
                     cli_verify_pool, closed_form_h, grid_argmax, make_quad,
                     random_general, random_kite, ratio_sq_prime)
from inellipse import (Conic, NotTangential, canonicalize, coefficients,
                       containment, fd_gradient, incircle, ratio_argmax,
                       ratio_sq_function, solve, verify)
from inellipse import family
from inellipse.family import ratio_sq_bound
from inellipse.oracle import CELL

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
        h, val = grid_argmax(ratio_sq_function(q5), q5.interval, n)
        assert abs(h - H_PLUS_GOLDEN) <= 2.0 * (hi - lo) / n
        assert 0.7 < val < 0.8

    def test_kite(self, kite):
        n = 100_000
        lo, hi = kite.interval
        h, val = grid_argmax(ratio_sq_function(kite), kite.interval, n)
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


def cell_bounds_hold(cq, n=100_000) -> bool:
    """Every value of the full grid is at most the bound of its cell."""
    lo, hi = cq.interval
    i = np.arange(1, n + 1)
    hs = lo + (hi - lo) * (i / (n + 1.0))
    first = np.arange(1, n + 1, CELL)
    bound = ratio_sq_bound(cq, hs[first - 1], hs[np.minimum(first + CELL - 1, n) - 1])
    return bool(np.all(ratio_sq_function(cq)(hs) <= bound[(i - 1) // CELL]))


class TestRatioArgmax:
    """Branch and bound returns the brute-force grid argmax, bit for bit."""

    @staticmethod
    def brute_force(cq, n=100_000):
        return grid_argmax(ratio_sq_function(cq), cq.interval, n)

    @pytest.mark.parametrize("name", sorted(SPECIAL_QUADS))
    def test_matches_brute_force(self, name):
        cq = canonicalize(SPECIAL_QUADS[name])
        assert ratio_argmax(cq) == self.brute_force(cq)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_brute_force_on_cli_verify_pool(self, seed):
        for cq in cli_verify_pool(seed):
            assert ratio_argmax(cq) == self.brute_force(cq)

    @pytest.mark.parametrize("n", [3, 99, 100, 101, 1001, 12345])
    def test_matches_brute_force_at_any_grid_size(self, n):
        # the last cell is partial unless CELL divides n
        for cq in special_quads():
            assert ratio_argmax(cq, n) == self.brute_force(cq, n)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ratio_argmax(canonicalize(Q5_VERTICES), 2)

    @pytest.mark.parametrize("n", [100_000, 1000, 250])
    def test_bounds_hold_on_special_quads(self, n):
        # on coarse grids a cell spans a good share of the interval, so it
        # holds the vertex of a quadratic, or lam = 1/2, well inside
        for cq in special_quads():
            assert cell_bounds_hold(cq, n)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bounds_hold_on_cli_verify_pool(self, seed):
        for cq in cli_verify_pool(seed):
            assert cell_bounds_hold(cq)

    def test_evaluates_a_few_cells(self, monkeypatch):
        # about 1000 cell heads plus the cells near the maximum
        counts = []
        make = family.ratio_sq_function

        def counting(cq):
            f = make(cq)

            def g(h):
                counts.append(np.size(h))
                return f(h)
            return g

        monkeypatch.setattr(family, "ratio_sq_function", counting)
        for cq in special_quads():
            counts.clear()
            ratio_argmax(cq)
            assert sum(counts) < 10_000


class TestContainment:
    def test_minimal_ellipse_is_inside(self, q5):
        rep = containment(coefficients(q5, closed_form_h(q5)), q5, 256)
        assert rep.passed and rep.worst_residual <= rep.tolerance

    def test_unit_circle_pokes_outside(self, q5):
        rep = containment(Conic(1, 0, 1, 0, 0, -1), q5, 256)
        assert not rep.passed
        assert rep.worst_residual > 0.1

    def test_kite_incircle_touches(self, kite):
        rep = containment(coefficients(kite, closed_form_h(kite)), kite, 256)
        assert rep.passed
        assert rep.worst_residual <= 1e-9 * kite.diameter


class TestIncircle:
    def test_kite_center_and_radius(self, kite):
        center, radius = incircle(kite)
        expected = math.sqrt(10.0) - 2.0
        assert abs(center.x - expected) <= 1e-12
        assert abs(center.y - expected) <= 1e-12
        assert abs(radius - expected) <= 1e-12

    def test_side_distances_agree(self):
        from inellipse.oracle import side_distance_lines
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
        with pytest.raises(NotTangential):
            incircle(q5)


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
        assert [vars(r) for r in battery(case["vertices"])] == pinned

    def test_kite_runs_the_incircle_oracle(self):
        reports = battery(KITE_VERTICES)
        assert any(r.name == "incircle" and r.passed for r in reports)

    def test_solver_agreement_only_for_closed_forms(self):
        type1 = [r.name for r in battery(Q5_VERTICES)]
        general = [r.name for r in battery([(0, 0), (0, 3), (4, 6), (2, 1)])]
        assert "solver_agreement" in type1 and "solver_agreement" not in general
        assert type1[:4] == general == ["containment", "side_tangency",
                                        "grid_argmax", "stationarity"]
