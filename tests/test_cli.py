import argparse
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from helpers import KITE_VERTICES, Q5_VERTICES, THIN_OPTIMA, bench_module
from inellipse.cli import (EXIT_GEOMETRY, EXIT_OK, EXIT_PARSE, main, to_json)


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


class TestMinimal:
    def test_golden_quad_report(self, tmp_path, capsys):
        code, out = run_cli(capsys, "minimal", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert abs(result["h_star"] - 1.1100576175169201) <= 1e-9
        assert result["method"] == "closed_form_type1"
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
        assert report["result"]["method"] == "closed_form_type1"
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
        # the records of the golden quad, byte for byte
        for n, digest in ((9, "b7bdbc8c9cadc078f85c7d94a9f3df543f1c29d547ce01ceac5e60a42660a996"),
                          (2000, "759854f6704e755a4f0dc225229a3ccced09ae8f36ac9032cc4e11e3e4be4a5c")):
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
    @pytest.mark.parametrize("vertices", [
        [["0", False], [0, "2"], [4, 6], [2, True]],
        [[0, 0], [0, 2], [4, 6], [2, None]],
        [[0, 0], [0, 2], [4, 6], [2, 10**400]],
    ])
    def test_coordinates_must_be_finite_numbers(self, tmp_path, capsys, vertices):
        # the first was solved as the README quad
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, out = run_cli(capsys, "minimal", "--input", str(path))
        assert code == EXIT_PARSE
        assert json.loads(out)["error"]["message"].startswith("vertex coordinates must be")


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
    def test_minimal_reports_the_solver_classification(self, tmp_path, capsys, monkeypatch):
        from inellipse import cli
        calls = []
        monkeypatch.setattr(cli, "classify", lambda *a, **k: calls.append(1))
        for vertices in (Q5_VERTICES, KITE_VERTICES):
            code, out = run_cli(capsys, "minimal", "--input", write_input(tmp_path, vertices))
            assert code == EXIT_OK and calls == []
            assert json.loads(out)["classification"]["kind"] == "mdq_type1"

    @pytest.mark.parametrize("vertices", [[(0, 0), (0, 3), (4, 6), (2, 1)], KITE_VERTICES],
                             ids=["general", "kite"])
    def test_verify_reads_the_solver_classification(self, tmp_path, capsys, monkeypatch,
                                                    vertices):
        # the one classify call of a verify op is solve's; the battery runs
        # the same oracles on every quad and never classifies
        from inellipse import minecc, oracle, quad
        seen = []

        def counting(cq):
            seen.append(1)
            return quad.classify(cq)
        monkeypatch.setattr(minecc, "classify", counting)
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

    @pytest.mark.parametrize("k, failing", [(-132, ["containment"]), (-131, []), (84, []),
                                            (85, ["side_tangency"])])
    def test_verify_edges_beyond_the_accepted_range(self, monkeypatch, k, failing):
        # built without the range check: from 2^-132 the degree-8 model goes
        # subnormal and the reported b = a sqrt(ratio_sq) no longer touches
        # its sides; from 2^85 the conic's norm (degree 16) overflows
        from inellipse import canonicalize, quad, solve, verify
        monkeypatch.setattr(quad, "_check_diameter", lambda diam2: None)
        cq = canonicalize([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in self.GENERAL])
        assert [r.name for r in verify(cq, solve(cq)) if not r.passed] == failing

    def test_unit_quad_far_away(self, tmp_path, capsys):
        # at offset 1e200 the float vertices of a diameter-1 quad coincide
        vertices = [(1e200 + x, 1e200 + y) for x, y in self.scaled(1.0 / math.sqrt(52.0))]
        code, out = run_cli(capsys, "minimal", "--input", write_input(tmp_path, vertices))
        doc = json.loads(out)
        assert code == EXIT_OK or (code == EXIT_GEOMETRY
                                   and doc["error"]["code"] == "Degenerate")


PINNED = json.loads((Path(__file__).parent / "data" / "reports.json").read_text())["cases"]


class TestPinnedReports:
    """``minimal`` and ``verify`` reproduce the pinned reports of the README
    and test inputs byte for byte.  A change that moves a byte must show
    that the old bytes were wrong, and then update the pinned file."""

    @pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c['name']}-{c['command']}")
    def test_report_bytes(self, tmp_path, capsys, case):
        path = write_input(tmp_path, case["vertices"])
        code, out = run_cli(capsys, case["command"], "--input", path)
        assert (code, out) == (case["exit"], case["stdout"])
