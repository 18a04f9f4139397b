"""Seeded inputs and operations for the four workloads.

Inputs are made here from a ``random.Random(seed)``; the program only ever
sees the generated vertex lists (or JSON files holding them).  Every op
reaches the library through a public name looked up at call time
(``inellipse.solve``, ``inellipse.family_point``, ``inellipse.cli.main``),
so the traced run's rebinding of those names takes effect.  The process
that runs the timed loop imports this module only; the answers are judged
elsewhere (``checks.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import NamedTuple

import inellipse
from inellipse import cli

LO, HI = 0.5, 10.0
SV_MARGIN = 0.05            # |s - v| floor of the well-conditioned generators
MOVE_SPAN = 20.0            # translation range of the random placement
TRAPEZOID_MARGIN = 2e-9     # generated inputs keep opposite sides this far
                            # (sine of their angle) from parallel, above the
                            # package's 1e-9 rejection threshold
FAMILY_TRIM = 1e-3          # abscissas stay this share of the interval
                            # away from its ends
FAMILY_POINTS = 64          # abscissas per quad in family_sweep

OK, RAISED, REJECTED, INACCURATE = "ok", "raised", "rejected", "inaccurate"


class Failure(NamedTuple):
    """An op that did not return an answer: ``kind`` is REJECTED for the
    package's typed errors and RAISED for anything else."""

    kind: str
    name: str


class Item(NamedTuple):
    vertices: list            # four (x, y) float pairs, as handed over
    tag: str                  # input family, for the failure breakdown


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _pose_ok(s, t, u, v, w, margin=SV_MARGIN):
    """Canonical-pose constraints (R0)-(R2) plus the |s - v| floor."""
    return (s > 0 and v > 0 and u > 0 and t > w
            and v * (t - u) + (u - w) * s > 0 and v * t - w * s > 0
            and abs(s - v) >= margin and w * s - v * (t - u) != 0)


def _general(rng):
    while True:
        p = [rng.uniform(LO, HI) for _ in range(5)]
        if _pose_ok(*p):
            return p


def _type1(rng):
    while True:
        s, t, v, w = (rng.uniform(LO, HI) for _ in range(4))
        if v * t - w * s <= 0:
            continue
        u = (v * t - w * s) / s
        if _pose_ok(s, t, u, v, w):
            return [s, t, u, v, w]


def _type2(rng):
    while True:
        s, t, v, w = (rng.uniform(LO, HI) for _ in range(4))
        if v * t - w * s <= 0 or 2.0 * v - s < SV_MARGIN:
            continue
        u = (v * t - w * s) / (2.0 * v - s)
        if _pose_ok(s, t, u, v, w):
            return [s, t, u, v, w]


def _kite(rng):
    """Tangential type-1 quad: s = t, v = u, w = 0."""
    while True:
        s = rng.uniform(1.0, HI)
        v = rng.uniform(LO, min(1.9 * s, HI))
        if _pose_ok(s, s, v, v, 0.0):
            return [s, s, v, v, 0.0]


MIXED_CLASSES = (("general", _general), ("mdq_type1", _type1),
                 ("mdq_type2", _type2), ("kite", _kite))


def _pose_vertices(s, t, u, v, w):
    return [(0.0, 0.0), (0.0, u), (s, t), (v, w)]


def diameter(pts):
    return max(math.hypot(q[0] - p[0], q[1] - p[1])
               for i, p in enumerate(pts) for q in pts[i + 1:])


def _place(rng, pts, offset=(0.0, 0.0)):
    """Random reflection, rotation and translation (plus ``offset``), and a
    random starting vertex of the boundary cycle."""
    ang = rng.uniform(-math.pi, math.pi)
    c, s = math.cos(ang), math.sin(ang)
    flip = rng.random() < 0.5
    tx = rng.uniform(-MOVE_SPAN, MOVE_SPAN) + offset[0]
    ty = rng.uniform(-MOVE_SPAN, MOVE_SPAN) + offset[1]
    out = []
    for x, y in pts:
        if flip:
            y = -y
        out.append((c * x - s * y + tx, s * x + c * y + ty))
    k = rng.randrange(4)
    return out[k:] + out[:k]


def _exactly_valid(pts):
    """The float vertices, taken exactly, bound a strictly convex quad whose
    opposite sides are further from parallel than TRAPEZOID_MARGIN."""
    p = [(Fraction(x), Fraction(y)) for x, y in pts]
    e = [(p[(i + 1) % 4][0] - p[i][0], p[(i + 1) % 4][1] - p[i][1]) for i in range(4)]
    turns = [e[i][0] * e[(i + 1) % 4][1] - e[i][1] * e[(i + 1) % 4][0] for i in range(4)]
    if not (all(z > 0 for z in turns) or all(z < 0 for z in turns)):
        return False
    m2 = Fraction(TRAPEZOID_MARGIN) ** 2
    for a, b in ((e[0], e[2]), (e[1], e[3])):
        cross = a[0] * b[1] - a[1] * b[0]
        if cross * cross <= m2 * (a[0] ** 2 + a[1] ** 2) * (b[0] ** 2 + b[1] ** 2):
            return False
    return True


def mixed_items(rng, n):
    """Equal shares of general, MDQ type 1, MDQ type 2 and kite quads,
    randomly placed within +-MOVE_SPAN."""
    items = []
    while len(items) < n:
        tag, gen = MIXED_CLASSES[len(items) % 4]
        pts = _place(rng, _pose_vertices(*gen(rng)))
        if _exactly_valid(pts):
            items.append(Item(pts, tag))
    return items


def _near_trapezoid(rng):
    """Quad whose shortest side S2 is within |s - v| / diameter = delta of
    parallel to S4, with delta log-uniform in [1e-8, 1e-1].  S2 is made the
    strictly shortest side so the package's canonical labeling keeps it on
    the y axis and the small |s - v| reaches the family model."""
    while True:
        s, t, u, w = (rng.uniform(LO, HI) for _ in range(4))
        delta = 10.0 ** rng.uniform(-8.0, -1.0)
        sign = rng.choice((-1.0, 1.0))
        v = s
        for _ in range(3):
            v = s + sign * delta * diameter(_pose_vertices(s, t, u, v, w))
        pts = _pose_vertices(s, t, u, v, w)
        others = [math.hypot(v, w), math.hypot(s, t - u), math.hypot(s - v, t - w)]
        if _pose_ok(s, t, u, v, w, margin=0.0) and u < 0.9 * min(others):
            return pts


def illcond_items(rng, n):
    """Half near-trapezoids, half well-conditioned quads translated by
    offsets log-uniform in [1, 1e9] diameters."""
    items = []
    while len(items) < n:
        if len(items) % 2 == 0:
            pts = _place(rng, _near_trapezoid(rng))
            tag = "near_trapezoid"
        else:
            _, gen = MIXED_CLASSES[(len(items) // 2) % 4]
            base = _pose_vertices(*gen(rng))
            dist = diameter(base) * 10.0 ** rng.uniform(0.0, 9.0)
            ang = rng.uniform(-math.pi, math.pi)
            pts = _place(rng, base, (dist * math.cos(ang), dist * math.sin(ang)))
            tag = "far_offset"
        if _exactly_valid(pts):
            items.append(Item(pts, tag))
    return items


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _failure(exc):
    kind = REJECTED if isinstance(exc, inellipse.InscribedEllipseError) else RAISED
    return Failure(kind, type(exc).__name__)


def _reported_end(proc):
    """End time a library set-up child printed after its first op."""
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited with {proc.returncode}:\n{proc.stderr}")
    return int(proc.stdout.split()[-1])


class SolveWorkload:
    """op = solve(canonicalize(vertices)) on one quad."""

    def __init__(self, items):
        self.items = items

    def tag(self, i):
        return self.items[i].tag

    def op(self, i):
        try:
            cq = inellipse.canonicalize(self.items[i].vertices)
            return cq, inellipse.solve(cq)
        except Exception as exc:          # every failure is an accounted verdict
            return _failure(exc)

    def setup_argv(self, python):
        code = ("import json, sys, time\n"
                "import inellipse\n"
                "try:\n"
                "    inellipse.solve(inellipse.canonicalize(json.loads(sys.argv[1])))\n"
                "except Exception:\n"
                "    pass\n"
                "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n")
        return [python, "-c", code, json.dumps(self.items[0].vertices)]

    def setup_end(self, proc, exit_ns):
        return _reported_end(proc)


def _family_abscissas(cq):
    lo, hi = sorted((cq.s / 2.0, cq.v / 2.0))
    a = lo + FAMILY_TRIM * (hi - lo)
    b = hi - FAMILY_TRIM * (hi - lo)
    return [a + (b - a) * k / (FAMILY_POINTS - 1) for k in range(FAMILY_POINTS)]


class FamilyWorkload:
    """op = one family_point(cq, h); quads canonicalized during set-up."""

    def __init__(self, quads):
        self.quads = quads
        cqs = [inellipse.canonicalize(it.vertices) for it in quads]
        self.items = [(cq, h) for cq in cqs for h in _family_abscissas(cq)]

    def tag(self, i):
        return self.quads[i // FAMILY_POINTS].tag

    def op(self, i):
        cq, h = self.items[i]
        try:
            return inellipse.family_point(cq, h)
        except Exception as exc:
            return _failure(exc)

    def setup_argv(self, python):
        code = ("import json, sys, time\n"
                "import inellipse\n"
                "cq = inellipse.canonicalize(json.loads(sys.argv[1]))\n"
                "lo, hi = sorted((cq.s / 2.0, cq.v / 2.0))\n"
                f"inellipse.family_point(cq, lo + {FAMILY_TRIM!r} * (hi - lo))\n"
                "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n")
        return [python, "-c", code, json.dumps(self.quads[0].vertices)]

    def setup_end(self, proc, exit_ns):
        return _reported_end(proc)


class CliWorkload:
    """op = in-process cli.main(["verify", "--input", path]), stdout in memory."""

    def __init__(self, items, workdir):
        self.items = items
        self.paths = []
        for k, it in enumerate(items):
            path = os.path.join(workdir, f"quad{k:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"vertices": [list(p) for p in it.vertices]}, fh)
            self.paths.append(path)

    def tag(self, i):
        return self.items[i].tag

    def op(self, i):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify", "--input", self.paths[i]])
        except (Exception, SystemExit) as exc:
            return _failure(exc)
        return code, buf.getvalue()

    def setup_argv(self, python):
        return [python, "-m", "inellipse.cli", "verify", "--input", self.paths[0]]

    def setup_end(self, proc, exit_ns):
        """A cold CLI is done at exit; it must have exited 0 (verified) or
        4 (a check failed) and printed a JSON document."""
        if proc.returncode not in (0, 4):
            raise RuntimeError(f"cold CLI exited with {proc.returncode}:\n{proc.stderr}")
        json.loads(proc.stdout)
        return exit_ns


POOL = {"solve_mixed": 512, "solve_illcond": 512, "family_sweep": 128, "cli_verify": 128}


def build(name, seed, workdir):
    rng = random.Random(seed)
    n = POOL[name]
    if name == "solve_mixed":
        return SolveWorkload(mixed_items(rng, n))
    if name == "solve_illcond":
        return SolveWorkload(illcond_items(rng, n))
    if name == "family_sweep":
        return FamilyWorkload(mixed_items(rng, n))
    if name == "cli_verify":
        return CliWorkload(mixed_items(rng, n), workdir)
    raise KeyError(name)
