"""Command-line front end.

Subcommands:

    classify   classification report only
    family     one inscribed-family member (--h) or a sweep (--sweep)
    minimal    minimal-eccentricity ellipse report (--svg)
    verify     the minimal report plus the battery of ``oracle.verify``
               (--svg); exit 4 unless all pass

Input is a JSON document with a top-level "vertices" array of four [x, y]
pairs (file via --input, or standard input); other keys are ignored.  The
classification tolerance is the package's one, ``quad.DEFAULT_TOL``, and
no option sets another.  Each report's "classification" block comes from
one ``classify`` call; the solver never reads it, so it describes the
quad and picks nothing.  The "classification", "canonical" and "newton"
blocks are the ``_asdict()`` of ``QuadClass``, ``CanonicalQuad`` (its
``iso`` too) and ``NewtonSegment``, and points and conics print as the
tuples they are: a field added to one of those records is a report
change.  Reports print by ``to_json``: one ``%`` template per shape, laid
out on the first report of that shape, filled with floats at 17
significant digits, so they re-parse losslessly and identical inputs
give identical bytes.  "tan_sq_gamma" is 4 r / e^4 (r = (b/a)^2 =
tan^2(gamma/2), e the eccentricity), null exactly for a circle.

Exit codes: 0 ok, 2 parse error (unreadable input included, and an
unwritable --svg path), 3 geometry rejection, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import json
import sys
from typing import Optional, Sequence

from . import family, minecc, oracle
from .errors import InscribedEllipseError
from .minecc import MinEccResult
from .quad import (CanonicalQuad, Point2, canonicalize, classify,
                   newton_segment, validate)

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
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    text = format(x, ".17g")
    # keep a decimal point so the value re-parses as a float ("-0" would
    # otherwise come back as int 0 and drop the sign)
    return text if "." in text or "e" in text else text + ".0"


_quote = json.encoder.encode_basestring_ascii    # json.dumps of a plain str


def _scalar(x) -> str:
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, float):
        return _fmt_float(float(x))
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, int):
        return str(int(x))
    raise TypeError(f"cannot serialize {type(x)!r}")


def _flatten(nodes, leaves: list, shape: list) -> None:
    """Append the leaves under ``nodes`` to ``leaves`` as they print, and a token
    per node, in pre-order, to ``shape``: dict keys as they print, list length or None."""
    for v in nodes:
        if type(v) is float or not isinstance(v, (dict, list, tuple)):   # most leaves are floats
            shape.append(None)
            leaves.append(_fmt_float(v) if type(v) is float else _scalar(v))
        elif isinstance(v, dict):
            shape.append(tuple(map(str, v)))
            _flatten(v.values(), leaves, shape)
        else:
            shape.append(len(v))
            _flatten(v, leaves, shape)


@functools.cache
def _template(shape: tuple, pretty: bool) -> str:
    """The layout of the document ``shape`` describes, each leaf ``%s`` and each
    ``%`` in a key doubled.  A list of leaves goes on one line; pretty, every
    other non-empty container puts each item on its own line, two spaces deeper."""
    tokens = iter(shape)

    def layout(tok, pad: str) -> str:
        if tok is None:
            return "%s"
        inner = pad + "  "
        if isinstance(tok, tuple):
            items = [_quote(k).replace("%", "%%") + ": " + layout(next(tokens), inner)
                     for k in tok]
        else:
            items = [layout(next(tokens), inner) for _ in range(tok)]
        ends = "{}" if isinstance(tok, tuple) else "[]"
        if pretty and items.count("%s") < len(items):      # a dict item is never a bare leaf
            return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]
        return ends[0] + ", ".join(items) + ends[1]

    return layout(next(tokens), "\n")


def to_json(obj, pretty: bool = True) -> str:
    """``obj`` as JSON through the template of its shape."""
    leaves, shape = [], []
    _flatten((obj,), leaves, shape)
    return _template(tuple(shape), pretty) % tuple(leaves)


def _emit(obj, pretty: bool = True) -> None:
    sys.stdout.write(to_json(obj, pretty) + "\n")


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _load_input(path: Optional[str]) -> list[tuple[float, float]]:
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:   # also an int past the 4300-digit limit
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
        # strings and booleans are no numbers, though float() takes them
        if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in item):
            raise ParseError("vertex coordinates must be numbers")
        try:
            x, y = float(item[0]), float(item[1])
        except OverflowError:   # an integer beyond the float range
            x = y = math.inf
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("vertex coordinates must be finite")
        clean.append((x, y))
    return clean


# ---------------------------------------------------------------------------
# report blocks
# ---------------------------------------------------------------------------


def _quad_report(vertices: list, cq: CanonicalQuad) -> dict:
    """The report header: the input and the quad's records as they are."""
    return {
        "input": {"vertices": vertices},
        "classification": classify(cq)._asdict(),
        "canonical": {**cq._asdict(), "iso": cq.iso._asdict()},
        "newton": newton_segment(cq)._asdict(),
    }


def _result_block(res: MinEccResult) -> dict:
    e2 = res.geom.eccentricity * res.geom.eccentricity     # 1 - (b/a)^2
    tan_sq = None if res.geom.major_axis_angle is None else 4.0 * res.ratio_sq / (e2 * e2)
    return {
        "h_star": res.geom.center.x,
        "method": res.method,
        "iterations": res.iterations,
        "conic": res.conic.normalized(),
        "center": res.geom.center,
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

    lam = res.lam_star
    tang = [flip(inv.apply(tp.zeta)) for tp in family._tangency(cq, 1.0 - lam, lam)]
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write SVG: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    vertices = _load_input(args.input)
    _emit(_quad_report(vertices, canonicalize(vertices)))
    return EXIT_OK


def _cmd_family(args) -> int:
    vertices = _load_input(args.input)
    n = args.sweep
    if n is not None and n < 1:
        raise ParseError(f"--sweep must be a positive integer, got {n}")
    cq = canonicalize(vertices)
    lo, hi = cq.interval
    hs = [args.h] if n is None else (lo + (hi - lo) * (i + 1) / (n + 1) for i in range(n))
    ns = newton_segment(cq)     # y_at(h): nearer the exact center at h than family._at's
    for h in hs:
        fp = family.family_point(cq, h)
        _emit({
            "h": fp.h,
            "center": [fp.h, ns.y_at(fp.h)],
            "conic": fp.conic,
            "axis_ratio_sq": fp.ratio_sq,
            "trace": fp.trace,
            "gap_sq": fp.gap_sq,
            "cubic": fp.cubic,
            "tangency": [{"point": tp.zeta, "lambda": tp.lam}
                         for tp in fp.tangency],
        }, pretty=False)
    return EXIT_OK


def _cmd_minimal(args) -> int:
    vertices = _load_input(args.input)
    cq = canonicalize(vertices)
    res = minecc.solve(cq)
    report = {**_quad_report(vertices, cq), "result": _result_block(res)}
    failed = False
    if args.verify:
        battery = oracle.verify(cq, res)
        report["oracles"] = [r._asdict() for r in battery]
        failed = not all(r.passed for r in battery)
    if args.svg:
        # the figure draws the input cycle; canonicalize keeps only the pose
        _render_svg(args.svg, validate(vertices), cq, res)
    _emit(report)
    return EXIT_VERIFY if failed else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use; parse_args returns a fresh namespace per call
    parser = argparse.ArgumentParser(
        prog="inellipse",
        description="Inscribed ellipses of a convex quadrilateral and the "
                    "minimal-eccentricity inscribed ellipse.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", default=None, metavar="PATH",
                       help="JSON input file (default: standard input)")

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

    for name, text in (("minimal", "minimal-eccentricity ellipse"),
                       ("verify", "minimal + full oracle battery")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--svg", default=None, metavar="PATH",
                       help="write an SVG figure")
        p.set_defaults(func=_cmd_minimal, verify=name == "verify")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit({"error": {"code": "parse", "message": str(exc)}})
        return EXIT_PARSE
    except InscribedEllipseError as exc:
        _emit({"error": {"code": type(exc).__name__, "message": str(exc)}})
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
