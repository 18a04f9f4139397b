"""Command-line front end.

Subcommands:

    classify   classification report only
    family     one inscribed-family member (--h) or a sweep (--sweep)
    minimal    minimal-eccentricity ellipse report (--verify, --svg)
    verify     minimal + full oracle battery; exit 4 unless all pass

Input is a JSON document with a top-level "vertices" array of four [x, y]
pairs (file via --input, or standard input).  Output is JSON on standard
output with floats at 17 significant digits, so reports re-parse
losslessly and identical inputs produce byte-identical reports.

Exit codes: 0 ok, 2 parse error, 3 geometry rejection, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import math
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import family, minecc, oracle
from .conic import LineConicRelation, Line2, geometry, line_tangency
from .errors import (Degenerate, HOutOfRange, InscribedEllipseError,
                     NoValidLabeling, NotConvex, Trapezoid)
from .minecc import CLOSED_FORM, MinEccResult
from .oracle import OracleReport
from .quad import (CanonicalQuad, Point2, QuadKind, canonicalize, classify,
                   diagonal_angle, newton_segment, validate)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_VERIFY = 4


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    text = format(float(x), ".17g")
    # keep a decimal point so the value re-parses as a float ("-0" would
    # otherwise come back as int 0 and drop the sign)
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def to_json(obj, indent: int = 0, pretty: bool = True) -> str:
    pad = "  " * indent if pretty else ""
    pad_in = "  " * (indent + 1) if pretty else ""
    nl = "\n" if pretty else ""
    sep = ("," + nl) if pretty else ", "
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad_in}{json.dumps(str(k))}: {to_json(v, indent + 1, pretty)}"
                 for k, v in obj.items()]
        return "{" + nl + sep.join(items) + nl + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool, type(None))) for v in obj)
        if flat:
            return "[" + ", ".join(to_json(v, 0, False) for v in obj) + "]"
        items = [pad_in + to_json(v, indent + 1, pretty) for v in obj]
        return "[" + nl + sep.join(items) + nl + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _load_input(path: Optional[str]) -> dict:
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise ParseError('input must be an object with a "vertices" array')
    verts = data["vertices"]
    if not isinstance(verts, list) or len(verts) != 4:
        raise ParseError("vertices must be an array of exactly 4 [x, y] pairs")
    clean = []
    for item in verts:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParseError("each vertex must be an [x, y] pair")
        try:
            x, y = float(item[0]), float(item[1])
        except (TypeError, ValueError) as exc:
            raise ParseError("vertex coordinates must be numbers") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("vertex coordinates must be finite")
        clean.append((x, y))
    tol = data.get("tol")
    if tol is not None:
        try:
            tol = float(tol)
        except (TypeError, ValueError) as exc:
            raise ParseError("tol must be a number") from exc
    return {"vertices": clean, "tol": tol}


def _tolerance(args, data: dict) -> float:
    """Classification tolerance: --tol, else the input's "tol", else 1e-9.

    Only an absent value means the default; a tolerance that is not a
    finite positive number is a parse error.
    """
    tol = args.tol if args.tol is not None else data["tol"]
    if tol is None:
        return 1e-9
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParseError(f"tol must be a finite positive number, got {tol!r}")
    return tol


# ---------------------------------------------------------------------------
# report blocks
# ---------------------------------------------------------------------------


def _point(p: Point2) -> list:
    return [p.x, p.y]


def _classification_block(qc) -> dict:
    return {
        "kind": qc.kind.value,
        "tangential": qc.tangential,
        "orthodiagonal": qc.orthodiagonal,
        "residuals": {k: qc.residuals[k] for k in sorted(qc.residuals)},
    }


def _canonical_block(cq: CanonicalQuad) -> dict:
    return {
        "s": cq.s, "t": cq.t, "u": cq.u, "v": cq.v, "w": cq.w,
        "iso": {
            "angle": cq.iso.angle,
            "translation": _point(cq.iso.translation),
            "reflect": cq.iso.reflect,
        },
    }


def _newton_block(cq: CanonicalQuad) -> dict:
    ns = newton_segment(cq)
    return {
        "m1": _point(ns.m1),
        "m2": _point(ns.m2),
        "interval": [ns.interval[0], ns.interval[1]],
        "slope": ns.slope,
        "intercept": ns.intercept,
    }


def _result_block(res: MinEccResult) -> dict:
    tan_sq = None
    if abs(res.gamma - math.pi / 2.0) > 1e-9:
        tan_sq = math.tan(res.gamma) ** 2
    return {
        "h_star": res.h_star,
        "method": res.method,
        "iterations": res.iterations,
        "conic": list(res.conic.normalized()),
        "center": _point(res.geom.center),
        "a": res.geom.a,
        "b": res.geom.b,
        "eccentricity": res.geom.eccentricity,
        "axis_ratio_sq": res.ratio_sq,
        "major_axis_angle": res.geom.major_axis_angle,
        "gamma_rad": res.gamma,
        "gamma_deg": math.degrees(res.gamma),
        "alpha_rad": res.alpha,
        "alpha_deg": math.degrees(res.alpha),
        "tan_sq_gamma": tan_sq,
        "residual": res.residual,
    }


def _oracle_block(rep: OracleReport) -> dict:
    return {
        "name": rep.name,
        "passed": rep.passed,
        "worst_residual": rep.worst_residual,
        "location": rep.location,
        "tolerance": rep.tolerance,
    }


# ---------------------------------------------------------------------------
# oracle battery for --verify / verify
# ---------------------------------------------------------------------------


def _side_line2(cq: CanonicalQuad, j: int) -> Line2:
    p, q = cq.sides[j]
    return Line2.through(p, q)


def _oracle_battery(cq: CanonicalQuad, res: MinEccResult) -> list[OracleReport]:
    lo, hi = cq.interval
    width = hi - lo
    reports = [oracle.containment(res.conic, cq, 256)]

    # Tangency of the four side lines, plus the tangency points themselves.
    conic_n = res.conic.normalized()
    all_tangent = True
    worst = 0.0
    where = ""
    for j in range(4):
        relation, _ = line_tangency(conic_n, _side_line2(cq, j))
        if relation is not LineConicRelation.TANGENT:
            all_tangent = False
            where = f"side S{j + 1} is {relation.value}"
    for tp in family.tangency_points(cq, res.h_star):
        x, y = tp.zeta
        a_, b_, c_, d_, e_, f_ = conic_n
        scale = (abs(a_ * x * x) + abs(b_ * x * y) + abs(c_ * y * y)
                 + abs(d_ * x) + abs(e_ * y) + abs(f_)) or 1.0
        rel = abs(conic_n(x, y)) / scale
        if rel > worst:
            worst = rel
        if not (0.0 < tp.lam < 1.0):
            all_tangent = False
            where = f"tangency parameter {tp.lam!r} outside (0, 1)"
    reports.append(OracleReport("side_tangency", all_tangent and worst <= 1e-9,
                                worst, where or "all side lines tangent", 1e-9))

    # Grid argmax against the solver result.
    n = 100_000
    hg, _ = oracle.grid_argmax(family.ratio_sq_function(cq), cq.interval, n)
    gap = abs(hg - res.h_star)
    reports.append(OracleReport("grid_argmax", gap <= 2.0 * width / n,
                                gap, f"grid argmax at {hg!r}", 2.0 * width / n))

    # Finite-difference stationarity at the solution.  A circle member sits
    # at a corner of the ratio curve where a centered difference measures
    # the kink asymmetry, so there the oracle checks the slope sign change
    # across the optimum instead.
    f = family.ratio_sq_function(cq)
    if res.ratio_sq >= 1.0 - 1e-9:
        probe = 1e-4 * width
        left = oracle.fd_gradient(f, res.h_star - probe, 1e-6 * width)
        right = oracle.fd_gradient(f, res.h_star + probe, 1e-6 * width)
        reports.append(OracleReport("stationarity", left > 0.0 > right,
                                    0.0 if left > 0.0 > right else max(-left, right),
                                    "slope sign change across a circular optimum",
                                    0.0))
    else:
        fd = oracle.fd_gradient(f, res.h_star, 1e-6 * width)
        probes = [res.h_star - width / 8.0, res.h_star + width / 8.0]
        scale = max(abs(oracle.fd_gradient(f, min(max(p, lo + 0.01 * width), hi - 0.01 * width),
                                           1e-6 * width)) for p in probes)
        reports.append(OracleReport("stationarity", abs(fd) <= 1e-6 * max(scale, 1e-12),
                                    abs(fd), "central difference at h_star",
                                    1e-6 * max(scale, 1e-12)))

    # Closed form vs numeric agreement.
    if res.method == CLOSED_FORM:
        h_num, _ = minecc.maximize_ratio_sq(cq)
        gap = abs(h_num - res.h_star)
        reports.append(OracleReport("solver_agreement", gap <= 1e-9 * width,
                                    gap, f"numeric maximizer at {h_num!r}",
                                    1e-9 * width))

    # Incircle consistency for tangential MDQs.
    qc = classify(cq)
    if qc.tangential and qc.kind is not QuadKind.GENERAL:
        center, radius = oracle.incircle(cq)
        dev = math.hypot(center.x - res.geom.center.x, center.y - res.geom.center.y)
        reports.append(OracleReport("incircle", dev <= 1e-6 * cq.diameter,
                                    dev, f"bisector center {tuple(center)!r}, radius {radius!r}",
                                    1e-6 * cq.diameter))
    return reports


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _render_svg(path: str, raw_cw: list[Point2], cq: CanonicalQuad,
                res: MinEccResult) -> None:
    inv = cq.iso.inverse()

    def flip(p) -> tuple[float, float]:
        return (p[0], -p[1])

    quad_pts = [flip(p) for p in raw_cw]
    xs = [p[0] for p in quad_pts]
    ys = [p[1] for p in quad_pts]
    wid, hei = max(xs) - min(xs), max(ys) - min(ys)
    pad = 0.10 * max(wid, hei)
    vb = (min(xs) - pad, min(ys) - pad, wid + 2 * pad, hei + 2 * pad)
    marker_r = 0.005 * max(vb[2], vb[3])
    stroke = 0.003 * max(vb[2], vb[3])

    def fmt(x: float) -> str:
        return format(x, ".6g")

    g = res.geom
    ang = g.major_axis_angle or 0.0
    ca, sa = math.cos(ang), math.sin(ang)
    trace = []
    n = 256
    for i in range(n + 1):
        th = 2.0 * math.pi * i / n
        ex, ey = g.a * math.cos(th), g.b * math.sin(th)
        p = inv.apply((g.center.x + ex * ca - ey * sa,
                       g.center.y + ex * sa + ey * ca))
        trace.append(flip(p))

    tang = [flip(inv.apply(tp.zeta)) for tp in family.tangency_points(cq, res.h_star)]
    ns = newton_segment(cq)
    n1, n2 = flip(inv.apply(ns.m1)), flip(inv.apply(ns.m2))
    d1 = (quad_pts[0], quad_pts[2])
    d2 = (quad_pts[1], quad_pts[3])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt(vb[0])} {fmt(vb[1])} {fmt(vb[2])} {fmt(vb[3])}">',
        f'<polygon class="quad" fill="none" stroke="black" stroke-width="{fmt(stroke)}" '
        f'points="{" ".join(f"{fmt(x)},{fmt(y)}" for x, y in quad_pts)}"/>',
    ]
    for (p, q), cls in ((d1, "diagonal"), (d2, "diagonal"), ((n1, n2), "newton")):
        dash = ' stroke-dasharray="0.02"' if cls == "newton" else ""
        lines.append(
            f'<line class="{cls}" stroke="{"#888" if cls == "diagonal" else "#c33"}" '
            f'stroke-width="{fmt(0.6 * stroke)}"{dash} '
            f'x1="{fmt(p[0])}" y1="{fmt(p[1])}" x2="{fmt(q[0])}" y2="{fmt(q[1])}"/>')
    d_attr = "M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in trace) + " Z"
    lines.append(f'<path class="ellipse" fill="none" stroke="#06c" '
                 f'stroke-width="{fmt(stroke)}" d="{d_attr}"/>')
    for x, y in tang:
        lines.append(f'<circle class="tangency" fill="#c33" '
                     f'cx="{fmt(x)}" cy="{fmt(y)}" r="{fmt(marker_r)}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _emit(obj) -> None:
    sys.stdout.write(to_json(obj) + "\n")


def _error_object(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


def _cmd_classify(args) -> int:
    data = _load_input(args.input)
    tol = _tolerance(args, data)
    cq = canonicalize(data["vertices"], tol=tol)
    report = {
        "input": {"vertices": [list(v) for v in data["vertices"]]},
        "classification": _classification_block(classify(cq, tol=tol)),
        "canonical": _canonical_block(cq),
        "newton": _newton_block(cq),
    }
    _emit(report)
    return EXIT_OK


def _cmd_family(args) -> int:
    data = _load_input(args.input)
    tol = _tolerance(args, data)
    cq = canonicalize(data["vertices"], tol=tol)
    lo, hi = cq.interval
    if args.h is not None:
        hs = [args.h]
    else:
        n = args.sweep
        hs = [lo + (hi - lo) * (i + 1) / (n + 1) for i in range(n)]
    for h in hs:
        fp = family.family_point(cq, h)
        record = {
            "h": fp.h,
            "center": [fp.h, newton_segment(cq).y_at(fp.h)],
            "conic": list(fp.conic),
            "axis_ratio_sq": fp.ratio_sq,
            "trace": fp.trace,
            "gap_sq": fp.gap_sq,
            "cubic": fp.cubic,
            "tangency": [{"point": _point(tp.zeta), "lambda": tp.lam}
                         for tp in fp.tangency],
        }
        sys.stdout.write(to_json(record, pretty=False) + "\n")
    return EXIT_OK


def _cmd_minimal(args, *, force_verify: bool = False) -> int:
    data = _load_input(args.input)
    tol = _tolerance(args, data)
    cq = canonicalize(data["vertices"], tol=tol)
    res = minecc.solve(cq, tol=tol)
    report = {
        "input": {"vertices": [list(v) for v in data["vertices"]]},
        "classification": _classification_block(classify(cq, tol=tol)),
        "canonical": _canonical_block(cq),
        "newton": _newton_block(cq),
        "result": _result_block(res),
    }
    verify = force_verify or getattr(args, "verify", False)
    failed = False
    if verify:
        battery = _oracle_battery(cq, res)
        report["oracles"] = [_oracle_block(r) for r in battery]
        failed = not all(r.passed for r in battery)
    svg = getattr(args, "svg", None)
    if svg:
        # the figure draws the input cycle; canonicalize keeps only the pose
        _render_svg(svg, validate(data["vertices"]), cq, res)
    _emit(report)
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_verify(args) -> int:
    return _cmd_minimal(args, force_verify=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inellipse",
        description="Inscribed ellipses of a convex quadrilateral and the "
                    "minimal-eccentricity inscribed ellipse.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", default=None, metavar="PATH",
                       help="JSON input file (default: standard input)")
        p.add_argument("--tol", type=float, default=None,
                       help="classification tolerance (default 1e-9)")

    p_cls = sub.add_parser("classify", help="classification report only")
    common(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_fam = sub.add_parser("family", help="inscribed-family members")
    common(p_fam)
    group = p_fam.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=float, default=None,
                       help="center abscissa of one family member")
    group.add_argument("--sweep", type=int, default=None, metavar="N",
                       help="emit N interior members")
    p_fam.set_defaults(func=_cmd_family)

    p_min = sub.add_parser("minimal", help="minimal-eccentricity ellipse")
    common(p_min)
    p_min.add_argument("--verify", action="store_true",
                       help="run the oracle battery; exit 4 unless all pass")
    p_min.add_argument("--svg", default=None, metavar="PATH",
                       help="write an SVG figure")
    p_min.set_defaults(func=_cmd_minimal)

    p_ver = sub.add_parser("verify", help="minimal + full oracle battery")
    common(p_ver)
    p_ver.add_argument("--svg", default=None, metavar="PATH",
                       help="write an SVG figure")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit(_error_object("parse", str(exc)))
        return EXIT_PARSE
    except (Degenerate, NotConvex, Trapezoid, NoValidLabeling, HOutOfRange) as exc:
        _emit(_error_object(type(exc).__name__, str(exc)))
        return EXIT_GEOMETRY
    except InscribedEllipseError as exc:
        _emit(_error_object(type(exc).__name__, str(exc)))
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
