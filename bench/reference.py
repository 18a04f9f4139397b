"""Independent 50-digit reference for the minimal-eccentricity inscribed ellipse.

Nothing here imports ``inellipse``.  The reference starts from the float
vertices exactly as handed to the program, moves them rigidly into a
standard pose in mpmath arithmetic (one vertex at the origin, its clockwise
neighbour on the positive y axis), and describes the inscribed family by
its dual conics: an ellipse with center c and shape matrix S (the ellipse
is {c + S^(1/2) z : |z| = 1}) is tangent to the line n.x = d exactly when
(d - n.c)^2 = n^T S n.  That is linear in the dual matrix

    [[S - c c^T, -c], [-c^T, -1]],

so the four side lines leave a one-parameter pencil.  Fixing the center
abscissa h pins the member; its S entries are quadratics in h, the squared
axis ratio (b/a)^2 = lmin/lmax of S, and maximizing it is maximizing
g = det S / (tr S)^2, a rational function that stays smooth through
circular members.  The maximizer is the root of the polynomial
det(S)' tr(S) - 2 det(S) tr(S)' in the center interval.

The pose, the dual-conic derivation and the root finder share no code or
formula with the package: its family coefficients come from the paper's
closed forms in the canonical pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

# Working precision; results are quoted to 50 digits.  The margin absorbs
# the cancellation of near-trapezoid pencils, whose center interval can be
# 1e-8 of the quad's diameter.
WORK_DPS = 90
DIGITS = 50


@dataclass(frozen=True)
class Reference:
    """Reference optimum of one quadrilateral, in the input frame."""

    center: tuple          # (mpf, mpf)
    ratio_sq: mpf          # (b/a)^2 of the optimal member
    seg_len: mpf           # L: distance between the diagonal midpoints
    h_star: mpf            # optimal center abscissa in the reference pose


def _poly_mul(p, q):
    out = [mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q, k=1):
    n = max(len(p), len(q))
    p = list(p) + [mpf(0)] * (n - len(p))
    q = list(q) + [mpf(0)] * (n - len(q))
    return [a + k * b for a, b in zip(p, q)]


def _poly_der(p):
    return [i * c for i, c in enumerate(p)][1:] or [mpf(0)]


def _poly_eval(p, x):
    acc = mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _solve2(rows, rhs0, rhs1):
    """Gaussian elimination with partial pivoting, two right-hand sides."""
    a = [list(r) + [b0, b1] for r, b0, b1 in zip(rows, rhs0, rhs1)]
    n = len(a)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0:
            raise ZeroDivisionError("singular tangency system")
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n + 2):
                a[r][k] -= f * a[c][k]
    out = []
    for col in (n, n + 1):
        x = [mpf(0)] * n
        for r in reversed(range(n)):
            acc = a[r][col] - sum(a[r][k] * x[k] for k in range(r + 1, n))
            x[r] = acc / a[r][r]
        out.append(x)
    return out


def _clockwise(pts):
    cx = sum(p[0] for p in pts) / 4
    cy = sum(p[1] for p in pts) / 4
    cyc = sorted(pts, key=lambda p: mpmath.atan2(p[1] - cy, p[0] - cx), reverse=True)
    area = sum(cyc[i][0] * cyc[(i + 1) % 4][1] - cyc[(i + 1) % 4][0] * cyc[i][1]
               for i in range(4))
    if not area < 0:
        raise ValueError("vertices do not bound a convex quadrilateral")
    return cyc


def _pose(cyc, k):
    """Rigid map taking cyc[k] to the origin and cyc[k+1] to (0, u)."""
    o, a = cyc[k], cyc[(k + 1) % 4]
    u = mpmath.hypot(a[0] - o[0], a[1] - o[1])
    dx, dy = (a[0] - o[0]) / u, (a[1] - o[1]) / u

    def fwd(q):
        rx, ry = q[0] - o[0], q[1] - o[1]
        return (rx * dy - ry * dx, rx * dx + ry * dy)

    def back(p):
        return (o[0] + p[0] * dy + p[1] * dx, o[1] - p[0] * dx + p[1] * dy)

    return [fwd(cyc[(k + i) % 4]) for i in range(4)], back


def _line(p, q):
    """Homogeneous side line (n1, n2, l3) with unit normal."""
    n1, n2 = p[1] - q[1], q[0] - p[0]
    l3 = p[0] * q[1] - q[0] * p[1]
    nrm = mpmath.hypot(n1, n2)
    return n1 / nrm, n2 / nrm, l3 / nrm


def reference(vertices) -> Reference:
    """50-digit optimum for a strictly convex quad given as 4 float pairs."""
    with mp.workdps(WORK_DPS):
        pts = [(mpf(float(x)), mpf(float(y))) for x, y in vertices]
        cyc = _clockwise(pts)
        # The pose whose diagonal midpoints are furthest apart in x keeps
        # the center abscissa best conditioned.
        best = None
        for k in range(4):
            pose, back = _pose(cyc, k)
            spread = abs(pose[2][0] - pose[3][0])
            if best is None or spread > best[0]:
                best = (spread, pose, back)
        _, pose, back = best
        (_, _), (_, u), (s, t), (v, w) = pose
        m_a, m_b = (s / 2, t / 2), (v / 2, (u + w) / 2)
        lo, hi = sorted((s / 2, v / 2))
        width = hi - lo
        seg_len = mpmath.hypot(m_a[0] - m_b[0], m_a[1] - m_b[1])

        # Dual-conic entries a11, a12, a22, a23 with a33 = -1 and
        # a13 = -h, h = lo + width * x:  n1^2 a11 + 2 n1 n2 a12 + n2^2 a22
        # + 2 n2 l3 a23 = l3^2 + 2 n1 l3 h for each side line.
        rows, rhs0, rhs1 = [], [], []
        for i in range(4):
            n1, n2, l3 = _line(pose[i], pose[(i + 1) % 4])
            rows.append([n1 * n1, 2 * n1 * n2, n2 * n2, 2 * n2 * l3])
            rhs0.append(l3 * l3 + 2 * n1 * l3 * lo)
            rhs1.append(2 * n1 * l3 * width)
        y0, y1 = _solve2(rows, rhs0, rhs1)

        cx = [lo, width]                       # center abscissa in x
        cy = [-y0[3], -y1[3]]                  # center ordinate (a23 = -cy)
        s11 = _poly_add([y0[0], y1[0]], _poly_mul(cx, cx))
        s12 = _poly_add([y0[1], y1[1]], _poly_mul(cx, cy))
        s22 = _poly_add([y0[2], y1[2]], _poly_mul(cy, cy))
        tr = _poly_add(s11, s22)
        det = _poly_add(_poly_mul(s11, s22), _poly_mul(s12, s12), -1)
        q = _poly_add(_poly_mul(_poly_der(det), tr), _poly_mul(det, _poly_der(tr)), -2)
        dq = _poly_der(q)

        def g(x):
            tv = _poly_eval(tr, x)
            return _poly_eval(det, x) / (tv * tv)

        # det S vanishes at both ends (the members degenerate to the
        # diagonals) and is positive inside, so q goes from + to -.  Bracket
        # the global maximum on a grid, bisect the sign change of q, then
        # polish with Newton on the exact polynomial.
        n_grid = 16
        grid = [mpf(i) / n_grid for i in range(1, n_grid)]
        vals = [g(x) for x in grid]
        i = max(range(len(grid)), key=vals.__getitem__)
        a = grid[i - 1] if i > 0 else mpf(0)
        b = grid[i + 1] if i + 1 < len(grid) else mpf(1)
        if not (_poly_eval(q, a) > 0 > _poly_eval(q, b)):
            raise ArithmeticError("no stationary sign change around the grid maximum")
        while b - a > mpf(10) ** -6:
            mid = (a + b) / 2
            if _poly_eval(q, mid) > 0:
                a = mid
            else:
                b = mid
        x = (a + b) / 2
        eps = mpf(10) ** -(WORK_DPS - 10)
        for _ in range(12):
            step = _poly_eval(q, x) / _poly_eval(dq, x)
            x -= step
            if not a <= x <= b:
                raise ArithmeticError("Newton polish left the bracket")
            if abs(step) <= eps:
                break
        else:
            raise ArithmeticError("Newton polish did not converge")

        tv, dv = _poly_eval(tr, x), _poly_eval(det, x)
        gap = mpmath.sqrt(max(tv * tv - 4 * dv, mpf(0)))
        ratio_sq = (tv - gap) / (tv + gap)
        center = back((_poly_eval(cx, x), _poly_eval(cy, x)))
        return Reference(center, ratio_sq, seg_len, lo + width * x)


def to_input_frame(center, angle, translation, reflect):
    """Map a point from a program-reported canonical frame back to the input.

    The program's pose is q = R(angle) F(p) + translation with F the
    reflection y -> -y when ``reflect`` is set; the inverse is applied
    exactly, so it adds no error of its own.
    """
    with mp.workdps(40):
        c, s = mpmath.cos(mpf(angle)), mpmath.sin(mpf(angle))
        qx = mpf(center[0]) - mpf(translation[0])
        qy = mpf(center[1]) - mpf(translation[1])
        x, y = c * qx + s * qy, -s * qx + c * qy
        return (x, -y) if reflect else (x, y)


def center_error(ref: Reference, point) -> float:
    """Distance from ``point`` (input frame) to the reference center, in L."""
    with mp.workdps(40):
        d = mpmath.hypot(mpf(point[0]) - ref.center[0], mpf(point[1]) - ref.center[1])
        return float(d / ref.seg_len)


def _incenter(pts):
    """Intersection of the angle bisectors at two adjacent vertices."""
    def unit(p, q):
        d = mpmath.hypot(q[0] - p[0], q[1] - p[1])
        return (q[0] - p[0]) / d, (q[1] - p[1]) / d

    o, a, _, z = pts
    d1, d2 = unit(o, z), unit(o, a)
    e1, e2 = unit(a, o), unit(a, pts[2])
    ba = (d1[0] + d2[0], d1[1] + d2[1])
    bb = (e1[0] + e2[0], e1[1] + e2[1])
    det = -ba[0] * bb[1] + ba[1] * bb[0]
    rx, ry = a[0] - o[0], a[1] - o[1]
    tau = (-rx * bb[1] + ry * bb[0]) / det
    return o[0] + tau * ba[0], o[1] + tau * ba[1]


def self_check() -> list[str]:
    """Check the reference against two known answers; return the failures."""
    failures = []
    with mp.workdps(WORK_DPS):
        tol = mpf(10) ** -DIGITS
        # The paper's worked example, already in the paper's pose.
        ref = reference([(0.0, 0.0), (0.0, 2.0), (4.0, 6.0), (2.0, 1.0)])
        h_star = 3 * (-3 + mpmath.sqrt(61)) / 13
        ratio = (33 - mpmath.sqrt(65)) / 32
        if abs(ref.center[0] - h_star) > tol:
            failures.append(f"worked example: h* off by {mpmath.nstr(ref.center[0] - h_star, 3)}")
        if abs(ref.center[1] - 3 * h_star / 2) > tol:
            failures.append("worked example: center is off the diagonal-midpoint line")
        if abs(ref.ratio_sq - ratio) > tol:
            failures.append(f"worked example: (b/a)^2 off by {mpmath.nstr(ref.ratio_sq - ratio, 3)}")
        # A kite (s = t, u = v, w = 0) moved off its pose by a similarity
        # that is exact in binary floats: the optimum is the incircle,
        # centered where the angle bisectors meet.
        kite = [(0.0, 0.0), (0.0, 3.0), (5.0, 5.0), (3.0, 0.0)]
        moved = [(3.0 * x - 4.0 * y + 7.25, 4.0 * x + 3.0 * y - 3.5) for x, y in kite]
        ref = reference(moved)
        inc = _incenter([(mpf(x), mpf(y)) for x, y in moved])
        if mpmath.hypot(ref.center[0] - inc[0], ref.center[1] - inc[1]) > tol * ref.seg_len:
            failures.append("kite: center is not the angle-bisector incenter")
        if abs(ref.ratio_sq - 1) > tol:
            failures.append("kite: optimum is not a circle")
    return failures
