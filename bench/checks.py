"""Verdicts on the answers of the four workloads.

Solve and CLI answers are compared with the 50-digit reference of
``reference.py``; family points are checked for the four conditions of
``FamilyCheck.check``.  This module is kept apart from ``workloads.py`` so
the process that runs the timed loop never imports mpmath or holds the
references: only the harness does, after that process has ended.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import reference
from workloads import (INACCURATE, OK, RAISED, REJECTED, CliWorkload, Failure,
                       FamilyWorkload, SolveWorkload, diameter)

TOL_L = 1e-9                # accepted center error, in units of L
TOL_REL = 1e-9              # family-point residual tolerance (relative)


class Verdict(NamedTuple):
    kind: str                 # OK, RAISED, REJECTED or INACCURATE
    name: str                 # exception name for RAISED / REJECTED
    center_err: float         # center error in units of L (nan if none)


def _failed(result):
    return Verdict(result.kind, result.name, math.nan)


def _center_verdict(ref, center, iso):
    """Compare a canonical-frame center, mapped back through the program's
    reported isometry, with the reference center."""
    angle, translation, reflect = iso
    if not all(math.isfinite(x) for x in (*center, angle, *translation)):
        return Verdict(INACCURATE, "", math.inf)
    err = reference.center_error(
        ref, reference.to_input_frame(center, angle, translation, reflect))
    return Verdict(OK if err <= TOL_L else INACCURATE, "", err)


def _family_center_error(conic, cq, h, approx):
    """Distance, in L, from the conic's center to (h, y(h)) on the segment
    joining the diagonal midpoints.  Near the tolerance the float estimate
    from ``approx`` is replaced by an exact evaluation from the returned
    float coefficients, so the check adds no rounding of its own."""
    def dist(cx, cy, s, t, u, v, w, h, hypot):
        m1, m2 = (s / 2, t / 2), (v / 2, (u + w) / 2)
        yh = m1[1] + (m2[1] - m1[1]) * (h - m1[0]) / (m2[0] - m1[0])
        return hypot(cx - h, cy - yh) / hypot(m1[0] - m2[0], m1[1] - m2[1])

    err = dist(*approx, *cq.params, h, math.hypot)
    if err < 0.1 * TOL_L:
        return err
    mpf = reference.mpf
    with reference.mp.workdps(40):
        a_, b_, c_, d_, e_, _ = (mpf(float(x)) for x in conic)
        disc = 4 * a_ * c_ - b_ * b_
        cx = (b_ * e_ - 2 * c_ * d_) / disc
        cy = (b_ * d_ - 2 * a_ * e_) / disc
        return float(dist(cx, cy, *(mpf(x) for x in (*cq.params, h)),
                          reference.mpmath.hypot))


class SolveCheck:
    def __init__(self, wl):
        self.refs = [reference.reference(it.vertices) for it in wl.items]

    def check(self, i, result):
        if isinstance(result, Failure):
            return _failed(result)
        cq, res = result
        iso = (cq.iso.angle, tuple(cq.iso.translation), cq.iso.reflect)
        return _center_verdict(self.refs[i], tuple(res.geom.center), iso)


class FamilyCheck:
    def __init__(self, wl):
        self.items = wl.items

    def check(self, i, fp):
        """Ellipse, tangency parameters in (0, 1), tangency points on the
        conic and on their side lines, center at (h, y(h)) on the segment
        joining the diagonal midpoints."""
        if isinstance(fp, Failure):
            return _failed(fp)
        cq, h = self.items[i]
        s, t, u, v, w = cq.s, cq.t, cq.u, cq.v, cq.w
        a_, b_, c_, d_, e_, f_ = (float(x) for x in fp.conic)
        disc = 4.0 * a_ * c_ - b_ * b_
        if not disc > 0.0:
            return Verdict(INACCURATE, "", math.inf)
        cx = (b_ * e_ - 2.0 * c_ * d_) / disc
        cy = (b_ * d_ - 2.0 * a_ * e_) / disc
        at_center = a_ * cx * cx + b_ * cx * cy + c_ * cy * cy + d_ * cx + e_ * cy + f_
        ok = at_center * (a_ + c_) < 0.0          # real, non-empty ellipse

        verts = [(0.0, 0.0), (0.0, u), (s, t), (v, w)]
        sides = [(verts[0], verts[3]), (verts[0], verts[1]),
                 (verts[1], verts[2]), (verts[2], verts[3])]
        diam = diameter(verts)
        for (p, q), tp in zip(sides, fp.tangency):
            x, y = tp.zeta
            terms = (a_ * x * x, b_ * x * y, c_ * y * y, d_ * x, e_ * y, f_)
            on_conic = abs(math.fsum(terms)) <= TOL_REL * sum(abs(z) for z in terms)
            dx, dy = q[0] - p[0], q[1] - p[1]
            off_line = abs(dx * (y - p[1]) - dy * (x - p[0])) / math.hypot(dx, dy)
            ok = ok and 0.0 < tp.lam < 1.0 and on_conic and off_line <= TOL_REL * diam

        err = _family_center_error(fp.conic, cq, h, (cx, cy))
        ok = ok and err <= TOL_L
        return Verdict(OK if ok else INACCURATE, "", err)


class CliCheck:
    def __init__(self, wl):
        self.refs = [reference.reference(it.vertices) for it in wl.items]

    def check(self, i, result):
        if isinstance(result, Failure):
            return _failed(result)
        code, text = result
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return Verdict(RAISED, "UnparsableOutput", math.nan)
        if code == 4:
            return Verdict(REJECTED, "VerificationFailed", math.nan)
        if code != 0:
            return Verdict(REJECTED, doc.get("error", {}).get("code", f"exit{code}"), math.nan)
        iso = doc["canonical"]["iso"]
        return _center_verdict(self.refs[i], doc["result"]["center"],
                               (iso["angle"], iso["translation"], iso["reflect"]))


def checker(wl):
    """The checks for workload ``wl``; references are computed here."""
    return {SolveWorkload: SolveCheck, FamilyWorkload: FamilyCheck,
            CliWorkload: CliCheck}[type(wl)](wl)
