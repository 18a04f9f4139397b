import io
import json
import math

import pytest

from helpers import Q5_VERTICES
from inellipse.cli import (EXIT_GEOMETRY, EXIT_OK, EXIT_PARSE, main, to_json)

KITE_VERTICES = [(0, 0), (0, 2), (3, 3), (2, 0)]


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
        code, out = run_cli(capsys, "minimal", "--verify", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        oracles = json.loads(out)["oracles"]
        assert {o["name"] for o in oracles} >= {"containment", "side_tangency",
                                                "grid_argmax", "stationarity",
                                                "solver_agreement"}
        assert all(o["passed"] for o in oracles)

    def test_kite_short_circuit(self, tmp_path, capsys):
        code, out = run_cli(capsys, "minimal", "--verify", "--input",
                            write_input(tmp_path, KITE_VERTICES))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["eccentricity"] == 0.0
        assert report["result"]["method"] == "closed_form_type1"
        assert report["result"]["tan_sq_gamma"] is None
        assert any(o["name"] == "incircle" and o["passed"]
                   for o in report["oracles"])

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

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_input(tmp_path, Q5_VERTICES)
        _, out1 = run_cli(capsys, "minimal", "--verify", "--input", path)
        _, out2 = run_cli(capsys, "minimal", "--verify", "--input", path)
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
        code, out = run_cli(capsys, "family", "--sweep", "9", "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 9
        hs = [r["h"] for r in records]
        assert all(b > a for a, b in zip(hs, hs[1:]))
        assert all(1.0 < h < 2.0 for h in hs)

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


class TestTolerance:
    def write(self, tmp_path, tol):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({"vertices": [list(v) for v in Q5_VERTICES],
                                    "tol": tol}))
        return str(path)

    @pytest.mark.parametrize("tol", [0, -1e-9])
    def test_non_positive_json_tol_is_a_parse_error(self, tmp_path, capsys, tol):
        code, out = run_cli(capsys, "classify", "--input", self.write(tmp_path, tol))
        assert code == EXIT_PARSE
        assert "tol" in json.loads(out)["error"]["message"]

    def test_nan_json_tol_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"vertices": [[0,0],[0,2],[4,6],[2,1]], "tol": NaN}')
        code, _ = run_cli(capsys, "minimal", "--input", str(path))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_flag_tol_is_a_parse_error(self, tmp_path, capsys, tol):
        code, out = run_cli(capsys, "minimal", "--tol", tol, "--input",
                            write_input(tmp_path, Q5_VERTICES))
        assert code == EXIT_PARSE
        assert json.loads(out)["error"]["code"] == "parse"

    def test_null_tol_means_the_default(self, tmp_path, capsys):
        _, default = run_cli(capsys, "classify", "--input",
                             write_input(tmp_path, Q5_VERTICES))
        code, out = run_cli(capsys, "classify", "--input", self.write(tmp_path, None))
        assert code == EXIT_OK and out == default

    def test_json_tol_is_used(self, tmp_path, capsys):
        # a loose tolerance makes this near-MDQ a type-1 quad
        vertices = [(0, 0), (0, 2 * (1 + 1e-6)), (4, 6), (2, 1)]
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({"vertices": vertices, "tol": 1e-3}))
        _, out = run_cli(capsys, "classify", "--input", str(path))
        assert json.loads(out)["classification"]["kind"] == "mdq_type1"
        _, out = run_cli(capsys, "classify", "--input", write_input(tmp_path, vertices))
        assert json.loads(out)["classification"]["kind"] == "general"


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
    @pytest.mark.parametrize("vertices", [
        [(-8.217929138545804, -16.919672832578552), (-3.64189980652165, -19.925107357374493),
         (-3.650858566578352, -19.929631255792305), (-10.90796386040008, -15.16941150968211)],
        [(2.022854291048981, 2.8828995385693053), (-5.823906703907173, 4.1624560500265115),
         (-5.023432940125692, 4.060551571317096), (2.030812566257694, 2.9134488536780907)],
        [(-17.838429416917094, 3.3694747497702444), (-12.584073795627008, 4.9566544372300205),
         (-13.866967269643457, 4.584435825964986), (-17.85617448039283, 3.384293964226856)],
    ])
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
