import argparse
import hashlib
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from helpers import (KITE_VERTICES, PARALLEL_BY_ROUNDING, Q5_VERTICES, THIN_OPTIMA,
                     bench_module, cli_verify_inputs, to_json_reference)
from inellipse import cli
from inellipse.cli import (EXIT_GEOMETRY, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main, to_json)

PINNED = json.loads((Path(__file__).parent / "data" / "reports.json").read_text())["cases"]


def write_input(tmp_path, vertices, name="quad.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": [list(v) for v in vertices]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_golden_quad(self, tmp_path, capsys):
        code, out = run_cli(capsys, "classify", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"]["kind"] == "mdq_type1"
        assert report["classification"]["tangential"] is False
        assert report["canonical"]["s"] == 4.0
        assert report["newton"]["interval"] == [1.0, 2.0]

    def test_kite(self, tmp_path, capsys):
        code, out = run_cli(capsys, "classify", "--input",
                            write_input(tmp_path, KITE_VERTICES))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["classification"]["kind"] == "mdq_type1"
        assert report["classification"]["tangential"] is True
        assert report["classification"]["orthodiagonal"] is True

    def test_square_rejected(self, tmp_path, capsys):
        code, out = run_cli(capsys, "classify", "--input",
                            write_input(tmp_path, [(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert code == EXIT_GEOMETRY
        err = json.loads(out)["error"]
        assert err["code"] == "Trapezoid"
        assert "parallel" in err["message"]
        # parallel only after rounding in the pose picked: rejected as typed
        code, out = run_cli(capsys, "verify", "--input",
                            write_input(tmp_path, PARALLEL_BY_ROUNDING))
        assert code == EXIT_GEOMETRY
        assert json.loads(out)["error"]["code"] == "NoValidLabeling"

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == EXIT_PARSE
        assert json.loads(out)["error"]["code"] == "parse"

    def test_wrong_vertex_count(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        path.write_text('{"vertices": [[0,0],[0,1],[1,0]]}')
        code, out = run_cli(capsys, "classify", "--input", str(path))
        assert code == EXIT_PARSE

    def test_stdin_input(self, capsys, monkeypatch):
        payload = json.dumps({"vertices": [list(v) for v in Q5_VERTICES]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out = run_cli(capsys, "classify")
        assert code == EXIT_OK
        assert json.loads(out)["classification"]["kind"] == "mdq_type1"


class TestUnreadableInput:
    """Bytes that are not UTF-8, JSON nested past the recursion limit and
    an integer past the int-from-string digit limit are parse errors (exit
    2 and an error object), not tracebacks."""

    NOT_UTF8 = b"\xff"
    TOO_DEEP = b'{"vertices": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
    TOO_LONG = b'{"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]], "x": ' + b"1" * 5000 + b"}"
    PAYLOADS = pytest.mark.parametrize("payload", [NOT_UTF8, TOO_DEEP, TOO_LONG],
                                       ids=["not_utf8", "too_deep", "too_many_digits"])

    @PAYLOADS
    @pytest.mark.parametrize("command", ["classify", "minimal", "verify"])
    def test_file(self, tmp_path, capsys, command, payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        code, out = run_cli(capsys, command, "--input", str(path))
        assert code == EXIT_PARSE and json.loads(out)["error"]["code"] == "parse"

    @PAYLOADS
    @pytest.mark.parametrize("command", ["classify", "minimal", "verify"])
    def test_stdin(self, capsys, monkeypatch, command, payload):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8"))
        code, out = run_cli(capsys, command)
        assert code == EXIT_PARSE and json.loads(out)["error"]["code"] == "parse"


class TestMinimal:
    def test_golden_quad_report(self, tmp_path, capsys):
        code, out = run_cli(capsys, "minimal", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert abs(result["h_star"] - 1.1100576175169201) <= 1e-9
        assert result["method"] == "numeric" and result["iterations"] > 0
        assert abs(result["tan_sq_gamma"] - 64.0) <= 1e-7
        assert abs(result["gamma_rad"] - result["alpha_rad"]) <= 1e-9
        assert abs(result["gamma_deg"] - math.degrees(result["gamma_rad"])) <= 1e-12
        assert len(result["conic"]) == 6
        norm = math.sqrt(sum(c * c for c in result["conic"]))
        assert abs(norm - 1.0) <= 1e-12

    def test_verify_passes(self, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        oracles = json.loads(out)["oracles"]
        assert [o["name"] for o in oracles] == ["containment", "side_tangency", "optimum"]
        assert all(o["passed"] for o in oracles)

    def test_kite_short_circuit(self, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--input",
                            write_input(tmp_path, KITE_VERTICES))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["eccentricity"] == 0.0
        assert report["result"]["axis_ratio_sq"] == 1.0
        assert report["result"]["method"] == "numeric"
        assert report["result"]["tan_sq_gamma"] is None
        assert [(o["name"], o["passed"]) for o in report["oracles"]] == [
            ("containment", True), ("side_tangency", True), ("optimum", True)]

    def test_svg_structure(self, tmp_path, capsys):
        svg_path = tmp_path / "figure.svg"
        code, _ = run_cli(capsys, "minimal", "--svg", str(svg_path), "--input",
                          write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        svg = svg_path.read_text()
        assert svg.count("<polygon") == 1
        assert svg.count('class="ellipse"') == 1
        assert svg.count('class="tangency"') == 4
        assert svg.count('class="diagonal"') == 2
        assert svg.count('class="newton"') == 1

    @pytest.mark.parametrize("command", ["minimal", "verify"])
    def test_unwritable_svg_is_a_parse_error(self, tmp_path, capsys, command):
        # it used to exit 1 with a FileNotFoundError traceback
        svg_path = tmp_path / "no such dir" / "figure.svg"
        code, out = run_cli(capsys, command, "--svg", str(svg_path), "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_PARSE
        err = json.loads(out)["error"]
        assert err["code"] == "parse" and err["message"].startswith("cannot write SVG: ")
        assert not svg_path.parent.exists()

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_input(tmp_path, Q5_VERTICES)
        _, out1 = run_cli(capsys, "verify", "--input", path)
        _, out2 = run_cli(capsys, "verify", "--input", path)
        assert out1 == out2

    def test_report_round_trips_losslessly(self, tmp_path, capsys):
        _, out = run_cli(capsys, "minimal", "--input",
                         write_input(tmp_path, Q5_VERTICES))
        parsed = json.loads(out)
        assert to_json(parsed) + "\n" == out


class TestFamily:
    def test_single_member(self, tmp_path, capsys):
        code, out = run_cli(capsys, "family", "--h", "1.5", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["center"] == [1.5, 2.25]
        assert record["axis_ratio_sq"] > 0
        assert len(record["tangency"]) == 4

    def test_h_outside_interval(self, tmp_path, capsys):
        code, out = run_cli(capsys, "family", "--h", "2.5", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_GEOMETRY
        assert json.loads(out)["error"]["code"] == "HOutOfRange"

    def test_sweep_is_strictly_increasing(self, tmp_path, capsys):
        path = write_input(tmp_path, Q5_VERTICES)
        # the records of the golden quad, byte for byte: n = 9 as pinned in
        # data/reports.json, n = 2000 by digest
        sweep9 = next(c["stdout"] for c in PINNED if c["command"] == "family --sweep 9")
        for n, digest in ((9, hashlib.sha256(sweep9.encode()).hexdigest()),
                          (2000, "c549afda066cf0dc57d3cf9124b2ddc2723ea10f19d9eb77cd3acab8e89c49e8")):
            code, out = run_cli(capsys, "family", "--sweep", str(n), "--input", path)
            assert code == EXIT_OK
            records = [json.loads(line) for line in out.strip().splitlines()]
            assert len(records) == n
            hs = [r["h"] for r in records]
            assert all(b > a for a, b in zip(hs, hs[1:]))
            assert all(1.0 < h < 2.0 for h in hs)
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_sweep_is_a_parse_error(self, tmp_path, capsys, n):
        code, out = run_cli(capsys, "family", "--sweep", n, "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_PARSE
        error = json.loads(out)["error"]
        assert error["code"] == "parse" and "--sweep" in error["message"]

    def test_h_and_sweep_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["family", "--h", "1.5", "--sweep", "3", "--input",
                  write_input(tmp_path, Q5_VERTICES)])
        capsys.readouterr()


class TestVerifySubcommand:
    def test_golden_quad(self, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        report = json.loads(out)
        assert all(o["passed"] for o in report["oracles"])

    def test_general_quad(self, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--input",
                            write_input(tmp_path, [(0, 0), (0, 3), (4, 6), (2, 1)]))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["method"] == "numeric"
        assert all(o["passed"] for o in report["oracles"])

    def test_minimal_has_no_verify_flag(self, tmp_path, capsys):
        # ``verify`` is the one route to the battery
        with pytest.raises(SystemExit) as exc:
            main(["minimal", "--verify", "--input", write_input(tmp_path, Q5_VERTICES)])
        assert exc.value.code == EXIT_PARSE
        capsys.readouterr()


class TestJsonNumbers:
    """A pair holding a string, boolean or null is no pair of numbers, even
    beside an integer past the float range; an integer past it and the
    JSON literals Infinity and NaN are numbers that are not finite."""

    @pytest.mark.parametrize("vertices, message", [
        ([["0", False], [0, "2"], [4, 6], [2, True]], "numbers"),
        ([[0, 0], [0, 2], [4, 6], [2, None]], "numbers"),
        ([[0, 0], [0, 2], [4, 6], [2, 10**400]], "finite"),
        ([[0, 0], [0, 2], [4, 6], [10**400, "x"]], "numbers"),
        ([[0, 0], [0, 2], [4, 6], [True, 0]], "numbers"),
        ([[0, 0], [0, 2], [4, 6], [math.inf, 1]], "finite"),
        ([[0, 0], [0, 2], [4, 6], [2, -math.inf]], "finite"),
        ([[0, 0], [0, 2], [4, 6], [2, math.nan]], "finite"),
    ])
    def test_coordinates_must_be_finite_numbers(self, tmp_path, capsys, vertices, message):
        # the first was solved as the README quad; json.dumps writes inf and
        # nan as the literals Infinity and NaN, which json.loads reads back
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, out = run_cli(capsys, "minimal", "--input", str(path))
        assert code == EXIT_PARSE
        assert json.loads(out)["error"]["message"] == f"vertex coordinates must be {message}"


class TestInputShape:
    """The two input-shape messages, pinned exactly."""

    @pytest.mark.parametrize("document, message", [
        ([[0, 0], [0, 2], [4, 6], [2, 1]], 'input must be an object with a "vertices" array'),
        ({"vertices": [[0, 0], [0, 2], [4, 6, 1], [2, 1]]}, "each vertex must be an [x, y] pair"),
    ], ids=["top_level_array", "three_element_vertex"])
    def test_message(self, tmp_path, capsys, document, message):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(document))
        code, out = run_cli(capsys, "verify", "--input", str(path))
        assert code == EXIT_PARSE
        assert json.loads(out) == {"error": {"code": "parse", "message": message}}


class TestUnreachableRejections:
    """Typed rejections that no accepted input reaches, forced by a
    monkeypatch: each still exits 3 with its error object, pinned exactly."""

    def run(self, tmp_path, capsys):
        code, out = run_cli(capsys, "verify", "--input", write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_GEOMETRY
        return json.loads(out)

    def test_no_dihedral_labeling(self, tmp_path, capsys, monkeypatch):
        # no real input reaches it: a convex quad has a pair of opposite
        # sides whose directions turn by more than pi/2 and less than 3 pi/2,
        # and both labelings of either side of that pair satisfy (R0)
        from inellipse import quad
        monkeypatch.setattr(quad, "_pose_ok", lambda *params: False)
        assert self.run(tmp_path, capsys) == {"error": {
            "code": "NoValidLabeling",
            "message": "no dihedral labeling satisfies the pose constraints"}}

    def test_not_an_ellipse(self, tmp_path, capsys, monkeypatch):
        # no accepted input reaches it: under (R0)-(R1) every member on (0, 1)
        # is a real ellipse, cubic = lam (1-lam) l5 with l5 > 0, so
        # only a member forced to cubic = 0 fails its certificate
        from inellipse import family
        at = family._at
        monkeypatch.setattr(family, "_at", lambda cq, lam: (*at(cq, lam)[:5], 0.0))
        assert self.run(tmp_path, capsys) == {"error": {
            "code": "NotAnEllipse",
            "message": "the optimal member is not a nondegenerate ellipse"}}


class TestTolerance:
    """The classification tolerance is the package's one: no flag sets
    another, and a JSON "tol" is ignored like any other extra key."""

    NEAR_MDQ = [(0, 0), (0, 2.0002), (4, 6), (2, 1)]

    def write(self, tmp_path, tol, vertices=Q5_VERTICES):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"vertices": [list(v) for v in vertices], "tol": tol}))
        return str(path)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e-3"])
    def test_bad_flag_tol_is_a_parse_error(self, tmp_path, capsys, tol):
        # there is no --tol, so argparse rejects every value with exit 2
        with pytest.raises(SystemExit) as exc:
            main(["minimal", "--tol", tol, "--input", write_input(tmp_path, Q5_VERTICES)])
        assert exc.value.code == EXIT_PARSE
        capsys.readouterr()

    def test_null_tol_means_the_default(self, tmp_path, capsys):
        _, default = run_cli(capsys, "classify", "--input",
                             write_input(tmp_path, Q5_VERTICES))
        code, out = run_cli(capsys, "classify", "--input", self.write(tmp_path, None))
        assert code == EXIT_OK and out == default

    @pytest.mark.parametrize("command", ["classify", "minimal", "verify"])
    def test_json_tol_is_ignored(self, tmp_path, capsys, command):
        # "tol": 1e-3 used to make this near-MDQ take the closed form of its
        # type-1 neighbour, h* = 1.1100576175169203 against 1.1100626490693792
        plain = run_cli(capsys, command, "--input", write_input(tmp_path, self.NEAR_MDQ))
        loose = run_cli(capsys, command, "--input", self.write(tmp_path, 1e-3, self.NEAR_MDQ))
        assert loose == plain and plain[0] == EXIT_OK
        report = json.loads(plain[1])
        assert report["classification"]["kind"] == "general"
        if command != "classify":
            assert report["result"]["method"] == "numeric"
            assert abs(report["result"]["h_star"] - 1.1100626490693792) <= 1e-15


class TestValidateOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        from inellipse import cli, quad
        seen = []

        def counting(vertices):
            seen.append(1)
            return quad.validate(vertices)
        monkeypatch.setattr(cli, "validate", counting)
        return seen

    def test_minimal_leaves_validation_to_canonicalize(self, tmp_path, capsys, calls):
        code, _ = run_cli(capsys, "verify", "--input", write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK and calls == []

    def test_svg_validates_the_input_cycle(self, tmp_path, capsys, calls):
        code, _ = run_cli(capsys, "minimal", "--svg", str(tmp_path / "f.svg"),
                          "--input", write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK and calls == [1]


class TestThinOptima:
    # Quads whose minimal member has (b/a)^2 near 1e-5: the stationarity
    # oracle's central difference used to drown in the rounding of the
    # ratio and fail (exit 4) depending on the last bits of h*.
    @pytest.mark.parametrize("vertices", THIN_OPTIMA)
    def test_verify_passes(self, tmp_path, capsys, vertices):
        code, out = run_cli(capsys, "verify", "--input", write_input(tmp_path, vertices))
        report = json.loads(out)
        assert report["result"]["axis_ratio_sq"] < 1e-4
        assert code == EXIT_OK, [o for o in report["oracles"] if not o["passed"]]


class TestJsonEmitter:
    def test_seventeen_digit_floats(self):
        x = 0.1 + 0.2
        assert to_json(x) == format(x, ".17g")
        assert float(to_json(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            to_json(math.inf)

    def test_nested_structures(self):
        doc = {"a": [1, 2.5, "x", None, True], "b": {"c": []}}
        assert json.loads(to_json(doc)) == doc

    def test_numpy_scalars_print_as_builtins(self):
        np = pytest.importorskip("numpy")
        x = 0.1 + 0.2
        assert to_json(np.float64(x)) == to_json(x)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            to_json(object())

    @pytest.mark.parametrize("x, text", [
        (-0.0, "-0.0"), (2.0, "2.0"), (1e16, "10000000000000000.0"), (1e17, "1e+17"),
        (5e-324, "4.9406564584124654e-324"), (-1.5e-300, "-1.5000000000000001e-300"),
    ])
    def test_float_text(self, x, text):
        assert to_json(x) == to_json(x, pretty=False) == text
        assert math.copysign(1.0, float(text)) == math.copysign(1.0, x)
        assert float(text) == x

    def test_float_subclass_prints_as_float(self):
        class Abscissa(float):
            __slots__ = ("lam",)

        h = Abscissa(1.1100576175169201)
        h.lam = 0.11005761751692
        assert to_json(h) == to_json(float(h)) == "1.1100576175169201"
        assert to_json({"h_star": h}) == '{\n  "h_star": 1.1100576175169201\n}'

    @pytest.mark.parametrize("s", ['say "hi"', "back\\slash", "tab\tnl\ncr\r\x00\x1f\x7f",
                                   "Ünïcödé π ≈ 3.14", "emoji \U0001f600", ""])
    def test_strings_match_json_dumps(self, s):
        assert to_json(s) == json.dumps(s)
        assert to_json({s: s}, pretty=False) == "{" + json.dumps(s) + ": " + json.dumps(s) + "}"

    def test_int_keys_print_as_strings(self):
        assert to_json({1: 2.0, 2: "a"}) == '{\n  "1": 2.0,\n  "2": "a"\n}'
        assert to_json({1: 2.0, 2: "a"}, pretty=False) == '{"1": 2.0, "2": "a"}'

    @pytest.mark.parametrize("pretty", [True, False])
    def test_containers(self, pretty):
        assert to_json({}, pretty=pretty) == "{}"
        assert to_json([], pretty=pretty) == "[]"
        assert to_json((), pretty=pretty) == "[]"
        assert to_json((1, 2.5), pretty=pretty) == "[1, 2.5]"
        assert to_json([True, 1, None, "x", 0.5], pretty=pretty) == '[true, 1, null, "x", 0.5]'

    def test_nested_lists(self):
        rows = [[1.0, 2.0], [3.0, -0.0]]
        assert to_json(rows, pretty=False) == "[[1.0, 2.0], [3.0, -0.0]]"
        assert to_json(rows) == "[\n  [1.0, 2.0],\n  [3.0, -0.0]\n]"
        assert to_json({"a": [[1.0], {"b": None}]}, pretty=False) == '{"a": [[1.0], {"b": null}]}'

    def test_numpy_scalars_in_a_list(self):
        np = pytest.importorskip("numpy")
        # np.float64 subclasses float, so a list of them is laid out flat
        assert to_json([np.float64(0.1), 2.0]) == "[0.10000000000000001, 2.0]"


class TestTemplateEmitter:
    """Every report prints through the ``%`` template of its shape, laid out
    once: the bytes are those of the recursive ``to_json_reference``, and a
    report of another shape never prints under a cached layout."""

    @pytest.fixture
    def expected(self, monkeypatch):
        """``to_json_reference`` of each report the CLI emits, as it emits it."""
        texts = []
        emit = cli._emit

        def recording(obj, pretty=True):
            texts.append(to_json_reference(obj, pretty=pretty) + "\n")
            emit(obj, pretty)
        monkeypatch.setattr(cli, "_emit", recording)
        return texts

    def emits_reference(self, capsys, report):
        for pretty in (True, False):
            cli._emit(report, pretty)
            assert capsys.readouterr().out == to_json_reference(report, pretty=pretty) + "\n"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pool_reports_are_to_json_bytes(self, tmp_path, capsys, expected, seed):
        commands = (("verify",), ("minimal",), ("classify",), ("family", "--sweep", "5"))
        for k, vertices in enumerate(cli_verify_inputs(seed)):
            path = write_input(tmp_path, vertices)
            for argv in commands:
                expected.clear()
                out = run_cli(capsys, *argv, "--input", path)[1]
                assert len(expected) == (5 if argv[0] == "family" else 1)
                assert out == "".join(expected), (seed, k, argv)

    def test_kite_circle_and_integral_vertices(self, tmp_path, capsys, expected):
        code, out = run_cli(capsys, "minimal", "--input", write_input(tmp_path, KITE_VERTICES))
        assert code == EXIT_OK and out == expected[0]
        result = json.loads(out)["result"]
        assert result["major_axis_angle"] is None and result["tan_sq_gamma"] is None
        assert '"tan_sq_gamma": null' in out and "[0.0, 0.0]," in out

    def test_negative_zero(self, tmp_path, capsys, expected):
        vertices = [(-0.0, 0.0), (0.0, 2.0), (4.0, 6.0), (2.0, 1.0)]
        code, out = run_cli(capsys, "classify", "--input", write_input(tmp_path, vertices))
        assert code == EXIT_OK and out == expected[0] and "[-0.0, 0.0]," in out
        self.emits_reference(capsys, {"x": -0.0, "xs": [-0.0, 0], "n": [[-0.0]]})

    def test_error_message_holding_nan(self, tmp_path, capsys, expected):
        path = write_input(tmp_path, Q5_VERTICES)
        code, out = run_cli(capsys, "family", "--h", "nan", "--input", path)
        assert code == EXIT_GEOMETRY and out == expected[0]
        err = json.loads(out)["error"]
        assert err["code"] == "HOutOfRange" and err["message"].startswith("h=nan ")

    @pytest.mark.parametrize("text", ['100% "quoted"', "%s %d %% %(x)s", "back\\slash",
                                      "tab\tnl\ncr\r\x00\x1f\x7f",
                                      "Ünïcödé π ≈ 3.14 \U0001f600", "", "\x01"])
    def test_string_leaves_and_keys(self, capsys, text):
        self.emits_reference(capsys, {"error": {"code": text, "message": text}})
        self.emits_reference(capsys, {text: [text, {text: [text, 1.5]}], "b": [True, None, 7]})

    def test_keys_that_compare_equal_print_as_themselves(self):
        # 1, 1.0 and True are one dict key, but each prints its own text: a
        # layout cached for one must not print another
        for key in (1, True, 1.0, "1", 1, True):
            assert to_json({key: 0.5}) == to_json_reference({key: 0.5})
            assert to_json({key: 0.5}, pretty=False) == to_json_reference({key: 0.5},
                                                                          pretty=False)
        assert to_json({True: 0.5}, pretty=False) == '{"True": 0.5}'

    def test_a_nul_key_prints_like_any_other(self, capsys):
        self.emits_reference(capsys, {"message": "\0", "x": ["\0"]})
        self.emits_reference(capsys, {"\0": 1.0, "%s": {"\0": ["\0", 2.0]}})

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_leaf_raises_and_prints_nothing(self, capsys, x):
        for report in ({"result": {"a": 1.0, "center": [0.5, x]}}, {"x": [x]}):
            with pytest.raises(ValueError, match=r"^non-finite value in report: "):
                cli._emit(report)
        assert capsys.readouterr().out == ""

    def test_verify_passes_at_2_127_past_the_accepted_range(self, tmp_path, capsys,
                                                             monkeypatch):
        # with the range check bypassed, the quad scaled by 2^127 prints a
        # finite report: classify takes z on the pose scaled into [-1, 1]
        # (it was NaN, and the CLI raised on it) and the conic is normalized
        # by hypot (it was all zeros).  The scale-free fields keep their
        # bits, and lengths scale by exactly 2^127
        from inellipse import quad
        monkeypatch.setattr(quad, "_check_diameter", lambda diam2, pts: None)
        docs = []
        for k in (0, 127):
            vertices = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in TestScaleRange.GENERAL]
            code, out = run_cli(capsys, "verify", "--input", write_input(tmp_path, vertices))
            assert code == EXIT_OK
            docs.append(json.loads(out))
        unit, big = docs
        assert all(r["passed"] for r in big["oracles"])
        assert big["classification"] == unit["classification"]
        for key in ("eccentricity", "axis_ratio_sq", "gamma_rad", "tan_sq_gamma", "residual"):
            assert big["result"][key] == unit["result"][key], key
        for key in ("h_star", "a", "b"):
            assert big["result"][key] == math.ldexp(unit["result"][key], 127), key
        assert big["result"]["conic"][5] == 1.0

    def test_a_drifted_shape_never_prints_under_a_cached_layout(self, tmp_path, capsys,
                                                                 monkeypatch):
        reports = []
        with monkeypatch.context() as m:
            m.setattr(cli, "_emit", lambda obj, pretty=True: reports.append(obj))
            assert main(["verify", "--input", write_input(tmp_path, Q5_VERTICES)]) == EXIT_OK
        base = reports[0]
        result, oracles = base["result"], base["oracles"]
        drifted = [
            {**base, "oracles": oracles + [dict(oracles[0], name="fourth")]},
            {k: v for k, v in base.items() if k != "newton"},
            {**base, "result": {k: v for k, v in result.items() if k != "method"}},
            {**base, "result": {**result, "center": None}},
            {**base, "result": {**result, "major_axis_angle": [result["a"]]}},
            # a list that nests, or a key renamed, keeps the leaf count
            {**base, "result": {**result, "center": [[result["center"][0]], result["center"][1]]}},
            {**base, "result": {("B" if k == "b" else k): v for k, v in result.items()}},
            {**base, "oracles": [oracles[0], oracles[1], [oracles[2]]]},
        ]
        for report in [base, *drifted, base]:
            self.emits_reference(capsys, report)
        before = cli._template.cache_info().currsize
        for report in drifted:
            self.emits_reference(capsys, report)
        assert cli._template.cache_info().currsize == before

    def test_a_wrong_leaf_count_does_not_fill_a_template(self):
        report = {"a": [1.0, 2.0], "b": "x", "c": None}
        leaves, shape = [], []
        cli._flatten((report,), leaves, shape)
        template = cli._template(tuple(shape), True)
        assert template % tuple(leaves) == to_json_reference(report)
        for wrong in (leaves[:-1], leaves + ["3.0"], []):
            with pytest.raises(TypeError):
                template % tuple(wrong)


class TestSharedParser:
    """``main`` builds its parser once per process; no call leaves state
    behind for the next."""

    def test_verify_then_minimal(self, tmp_path, capsys):
        path = write_input(tmp_path, Q5_VERTICES)
        assert run_cli(capsys, "verify", "--input", path)[0] == EXIT_OK
        code, out = run_cli(capsys, "minimal", "--input", path)
        assert code == EXIT_OK and "oracles" not in json.loads(out)

    def test_sweep_after_single_member(self, tmp_path, capsys):
        path = write_input(tmp_path, Q5_VERTICES)
        sweep = ("family", "--sweep", "3", "--input", path)
        first = run_cli(capsys, *sweep)
        assert run_cli(capsys, "family", "--h", "1.5", "--input", path)[0] == EXIT_OK
        assert run_cli(capsys, *sweep) == first

    def test_valid_call_after_an_argparse_error(self, tmp_path, capsys):
        path = write_input(tmp_path, Q5_VERTICES)
        first = run_cli(capsys, "minimal", "--input", path)
        with pytest.raises(SystemExit) as exc:
            main(["family", "--h", "1.5", "--sweep", "3", "--input", path])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, "minimal", "--input", path) == first

    def test_no_parser_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        path = write_input(tmp_path, Q5_VERTICES)
        run_cli(capsys, "classify", "--input", path)
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for argv in (("verify",), ("minimal",), ("family", "--h", "1.5"), ("classify",)):
            assert run_cli(capsys, *argv, "--input", path)[0] == EXIT_OK
        assert built == []
        argparse.ArgumentParser()
        assert built == [None]


class TestClassifiesOnce:
    """``solve`` never classifies, so no classification picks its answer;
    ``minimal`` and ``verify`` classify once, for the report."""

    @pytest.fixture
    def seen(self, monkeypatch):
        from inellipse import cli, quad
        calls, original = [], quad.classify

        def counting(cq):
            calls.append(cq)
            return original(cq)
        for module in (cli, quad):
            monkeypatch.setattr(module, "classify", counting)
        return calls

    def test_solve_never_classifies(self, seen):
        from inellipse import canonicalize, minecc, solve
        for vertices in (Q5_VERTICES, KITE_VERTICES, [(0, 0), (0, 3), (4, 6), (2, 1)]):
            solve(canonicalize(vertices))
        assert seen == [] and not hasattr(minecc, "classify")

    def test_minimal_classifies_once(self, tmp_path, capsys, seen):
        for vertices in (Q5_VERTICES, KITE_VERTICES):
            del seen[:]
            code, out = run_cli(capsys, "minimal", "--input", write_input(tmp_path, vertices))
            assert code == EXIT_OK and len(seen) == 1
            assert json.loads(out)["classification"]["kind"] == "mdq_type1"

    @pytest.mark.parametrize("vertices", [[(0, 0), (0, 3), (4, 6), (2, 1)], KITE_VERTICES],
                             ids=["general", "kite"])
    def test_verify_classifies_once(self, tmp_path, capsys, seen, vertices):
        # the battery runs the same oracles on every quad and never classifies
        from inellipse import oracle
        code, _ = run_cli(capsys, "verify", "--input", write_input(tmp_path, vertices))
        assert code == EXIT_OK and len(seen) == 1
        assert not hasattr(oracle, "classify")


class TestScaleRange:
    """Diameters outside 2^-56 .. 2^56 get a typed rejection; the general
    quad below used to crash at 1e-100 and 1e-60 (division by zero) and at
    1e60 (overflow)."""

    GENERAL = [(0.0, 0.0), (0.0, 3.0), (4.0, 6.0), (2.0, 1.0)]   # diameter sqrt(52)

    def scaled(self, k):
        return [(k * x, k * y) for x, y in self.GENERAL]

    @pytest.mark.parametrize("k", [1e-100, 1e-60, 1e60, 2.0 ** -56 / math.sqrt(52.0) * (1 - 1e-6),
                                   2.0 ** 56 / math.sqrt(52.0) * (1 + 1e-6)])
    def test_rejected_with_an_error_object(self, tmp_path, capsys, k):
        for command in ("minimal", "verify"):
            code, out = run_cli(capsys, command, "--input", write_input(tmp_path, self.scaled(k)))
            assert code == EXIT_GEOMETRY
            err = json.loads(out)["error"]
            assert err["code"] == "Degenerate" and "accepted range" in err["message"]

    @pytest.mark.parametrize("end", [-56, 56])
    def test_just_inside_solves_to_the_reference(self, tmp_path, capsys, end):
        checks, reference = bench_module("checks"), bench_module("reference")
        vertices = self.scaled(2.0 ** end / math.sqrt(52.0) * (1 - math.copysign(1e-6, end)))
        code, out = run_cli(capsys, "verify", "--input", write_input(tmp_path, vertices))
        assert code == EXIT_OK
        doc = json.loads(out)
        iso = doc["canonical"]["iso"]
        center = reference.to_input_frame(doc["result"]["center"], iso["angle"],
                                          iso["translation"], iso["reflect"])
        assert reference.center_error(reference.reference(vertices), center) <= checks.TOL_L

    @pytest.mark.parametrize("k, failing", [(-132, []), (-131, []), (84, []), (85, []),
                                            (-133, []), (127, []), (128, []),
                                            (-177, ["optimum"]), (-176, []), (167, []),
                                            (168, ["optimum"])])
    def test_verify_edges_beyond_the_accepted_range(self, monkeypatch, k, failing):
        # built without the range check: beyond -176 and 167 the degree-6
        # terms of the stationarity quartic under- or overflow, and optimum
        # no longer certifies the root.  -133 and 128 were the edges while
        # the conic carried the scale (s-v)^2, and 85 while its norm was the
        # sqrt of a sum of squares
        from inellipse import canonicalize, quad, solve, verify
        monkeypatch.setattr(quad, "_check_diameter", lambda diam2, pts: None)
        cq = canonicalize([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in self.GENERAL])
        assert [r.name for r in verify(cq, solve(cq)) if not r.passed] == failing

    def test_every_outcome_is_typed_beyond_the_accepted_range(self, tmp_path, capsys,
                                                              monkeypatch):
        # built without the range check, the library's verify passes from
        # 2^-176 to 2^167 and fails with named oracles out to 2^-271 and
        # 2^253, never raising; the CLI, run at the four edges (each input
        # file costs a write), exits 0 inside and 4 outside.  Beyond them
        # solve divides by zero (2^-272) and the report holds a NaN (2^254)
        from inellipse import canonicalize, quad, solve, verify
        monkeypatch.setattr(quad, "_check_diameter", lambda diam2, pts: None)
        for k in range(-271, 254):
            cq = canonicalize([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in self.GENERAL])
            failing = [r.name for r in verify(cq, solve(cq)) if not r.passed]
            assert bool(failing) == (not -176 <= k <= 167), (k, failing)
        for k, want in ((-271, EXIT_VERIFY), (-176, EXIT_OK), (167, EXIT_OK), (253, EXIT_VERIFY)):
            vertices = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in self.GENERAL]
            code, _ = run_cli(capsys, "verify", "--input", write_input(tmp_path, vertices))
            assert code == want, k

    def test_unit_quad_far_away(self, tmp_path, capsys):
        # at offset 1e200 the float vertices of a diameter-1 quad coincide
        vertices = [(1e200 + x, 1e200 + y) for x, y in self.scaled(1.0 / math.sqrt(52.0))]
        code, out = run_cli(capsys, "minimal", "--input", write_input(tmp_path, vertices))
        doc = json.loads(out)
        assert code == EXIT_OK or (code == EXIT_GEOMETRY
                                   and doc["error"]["code"] == "Degenerate")


class TestPinnedReports:
    """``classify``, ``minimal`` and ``verify`` reproduce the pinned reports
    of the README and test inputs, and ``family --sweep 9`` the golden
    quad's lines, byte for byte.  A change that moves a byte must show that
    the old bytes were wrong, and then update the pinned file
    (``data/regen_reports.py``)."""

    @pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c['name']}-{c['command']}")
    def test_report_bytes(self, tmp_path, capsys, case):
        path = write_input(tmp_path, case["vertices"])
        code, out = run_cli(capsys, *case["command"].split(), "--input", path)
        assert (code, out) == (case["exit"], case["stdout"])

    def test_pool_digests_of_seed_1(self):
        # ``python tests/data/pool_digests.py 1``: every output, figure and
        # exit code of the seed-1 cli_verify pool, and every solve and
        # family_point of the seed-1 library pools (about 1.5 s)
        spec = importlib.util.spec_from_file_location(
            "pool_digests", Path(__file__).parent / "data" / "pool_digests.py")
        pool_digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pool_digests)
        assert pool_digests.digest_lines([1]) == [
            "classify: 341ea937eaecdf3bdb57a25d9465d1d11aa88fedd397c1f1dc7e5fd2e81169ba",
            "minimal: 21ffa361ed02f51d9affed2e32480e52ed7a8ed5b3bfce1d02b1f2056b860df5",
            "verify: b60c2360a49f89f1e77d62b5c99989e9ebbc52fa39c803a839f127ed389bbd8a",
            "family --sweep 5: 0365d7627863814bd6a0ea3aa331a5abdfa3d35c824c8ad26e47377cd0174f57",
            "svg: 785b18874b691ec962be3a019c715e2296f4ae0f2a239c1ad363dafaec210445",
            "exit codes: {0: 512}",
            "solve: 02cbf095c9ec2eda86747ce936cac38f9f961a3eecbcde9f646d0298258b52a9",
            "family: ab14fa4521de7ae6b05bcdbdc60963aff50267ef0d91fc1438ee345e04efda58",
        ]
