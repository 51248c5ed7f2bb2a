import json
import math

import pytest

from arakelov import cli
from arakelov.errors import ERROR_CODES

GAUSS_SEG = json.dumps(
    {"endpoints": [
        {"chart": "direct", "center": "0", "log_radius": 0.0},
        {"chart": "direct", "center": "0", "log_radius": 1.0},
    ]}
)
FAR_SEG = json.dumps(
    {"endpoints": [
        {"chart": "direct", "center": "0", "log_radius": 2.0},
        {"chart": "direct", "center": "0", "log_radius": 3.0},
    ]}
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_places_logabs(self, capsys):
        code, out, _ = run(["places", "logabs", "--x", "1/9", "--place", "3"], capsys)
        assert code == 0
        assert json.loads(out)["log_abs"] == pytest.approx(2 * math.log(3))

    def test_places_height(self, capsys):
        code, out, _ = run(["places", "height", "--coords", '["1","2"]'], capsys)
        assert code == 0
        assert json.loads(out)["projective_height"] == pytest.approx(math.log(2))

    def test_tree_join(self, capsys):
        x = json.dumps({"chart": "direct", "center": "0", "log_radius": 0.0})
        y = json.dumps({"chart": "direct", "center": "0", "log_radius": 2.0})
        code, out, _ = run(["tree", "join", "--x", x, "--y", y, "--place", "5"], capsys)
        assert code == 0
        assert json.loads(out)["join"]["log_radius"] == 2.0

    def test_energy_ua_identical(self, capsys):
        code, out, _ = run(
            ["energy", "ua", "--ia", GAUSS_SEG, "--ib", GAUSS_SEG, "--place", "5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"] == pytest.approx(0.0, abs=1e-12)

    def test_energy_ua_with_oracle(self, capsys):
        code, out, _ = run(
            ["energy", "ua", "--ia", GAUSS_SEG, "--ib", FAR_SEG, "--place", "5",
             "--oracle-n", "500"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed"] == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert payload["oracle"] == pytest.approx(5.0 / 6.0, abs=2e-2)

    def test_lattes_segment(self, capsys):
        code, out, _ = run(
            ["lattes", "segment", "--gamma", '["inf","0","1","1/9"]', "--place", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["length_units_of_log_p"] == 2
        assert payload["length"] == pytest.approx(2 * math.log(3))

    def test_lattes_torsion(self, capsys):
        code, out, _ = run(
            ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "1e-9"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_multiplicity"] == 16
        assert payload["distinct"] == 10

    def test_adelic_bft(self, capsys):
        code, out, _ = run(
            ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["count"] == 3

    def test_adelic_energy_inline(self, capsys):
        cfg = json.dumps({"a": ["1", "2", "3"], "b": ["1/5", "2/5", "3/5"]})
        code, out, _ = run(
            ["adelic", "energy", "--config-json", cfg, "--arch-samples", "800", "--seed", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] > 0
        assert any(e["energy"] is None for e in payload["places"])  # excluded 2-adic entry

    def test_suite_quick(self, capsys):
        code, out, _ = run(["suite", "--quick", "--seed", "7"], capsys)
        assert code == 0
        assert json.loads(out)["failed"] == 0


class TestErrorsAndDeterminism:
    def test_degenerate_config_exit_one(self, capsys):
        cfg = json.dumps({"a": ["1", "1", "3"], "b": ["1", "2", "3"]})
        code, out, _ = run(["adelic", "energy", "--config-json", cfg], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "DegenerateConfig"

    def test_residue_char_two_exit_one(self, capsys):
        code, out, _ = run(
            ["lattes", "segment", "--gamma", '["inf","0","1","3"]', "--place", "2"], capsys
        )
        assert code == 1
        assert json.loads(out)["error"] == "ResidueCharTwo"

    def test_degenerate_quadruple(self, capsys):
        code, out, _ = run(
            ["lattes", "segment", "--gamma", '["1","1","2","3"]', "--place", "5"], capsys
        )
        assert code == 1
        assert json.loads(out)["error"] == "DegenerateQuadruple"

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "arch", "--lambda-a", "1", "--lambda-b", "2", "--samples", "200"],
            ["lattes", "torsion", "--lambda", "0", "--level", "1"],
            ["adelic", "bft", "--lambda-a", "1", "--lambda-b", "2", "--level", "1"],
            ["energy", "arch", "--lambda-a", "inf", "--lambda-b", "2", "--samples", "200"],
            ["lattes", "torsion", "--lambda", "inf", "--level", "1"],
            ["adelic", "bft", "--lambda-a", "inf", "--lambda-b", "2", "--level", "1"],
            ["lattes", "eval", "--lambda", "inf", "--t", "2"],
            ["lattes", "eval", "--lambda", "0", "--t", "2"],
            ["lattes", "eval", "--lambda", "1", "--t", "2"],
        ],
    )
    def test_degenerate_legendre_parameter(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 1
        assert json.loads(out)["error"] == "DegenerateQuadruple"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["energy", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["places", "logabs", "--x", "abc"],
            ["places", "logabs"],
            ["places", "logabs", "--x", "1/0"],
            ["places", "logabs", "--x", "2", "--place", "4"],
            ["places", "valuation", "--x", "2", "--p", "4"],
            ["places", "valuation", "--x", "2"],
        ],
    )
    def test_bad_argument_exit_two_with_json(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"] == "UsageError"

    def test_lattes_eval(self, capsys):
        code, out, _ = run(["lattes", "eval", "--lambda", "2", "--t", "3"], capsys)
        assert code == 0
        assert json.loads(out) == {"value": "49/24"}

    def test_energy_arch_reports_stderr(self, capsys):
        code, out, _ = run(
            ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "2000"], capsys
        )
        payload = json.loads(out)
        assert code == 0 and payload["samples"] == 2000
        assert payload["tolerance"] == pytest.approx(3.0 / math.sqrt(2000), abs=1e-15)
        assert 0.0 < payload["stderr"] < payload["tolerance"]
        assert abs(payload["energy"] - 0.0223) <= payload["tolerance"]

    def test_byte_identical_reruns(self, capsys):
        args = ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "2"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_seeded_energy_reruns(self, capsys):
        args = ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3",
                "--samples", "400", "--seed", "11"]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0 and out1 == out2

    def test_env_seed_override(self, capsys, monkeypatch):
        args = ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3",
                "--samples", "400", "--seed", "11"]
        monkeypatch.setenv("ARAKELOV_SEED", "99")
        _, out_env, _ = run(args, capsys)
        monkeypatch.delenv("ARAKELOV_SEED")
        _, out_plain, _ = run(args, capsys)
        assert out_env != out_plain

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["--out", str(target), "places", "residual", "--x=-35/4"], capsys
        )
        assert code == 0 and out == ""
        assert abs(json.loads(target.read_text())["residual"]) <= 1e-12

    def test_manifest_on_stderr(self, capsys):
        _, _, err = run(["places", "logabs", "--x", "2", "--place", "3"], capsys)
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["command"][0] == "places"
        assert "input_digest" in manifest and "wall_time_s" in manifest

    def test_error_code_table_is_complete(self):
        expected = {
            "ZeroInput", "AllZero", "TooFewValues", "ChartMismatch", "Type1Endpoint",
            "PlaceMismatch", "BadRadii", "NotAbuttable", "BadBoundParameters",
            "ResidueCharTwo", "BranchPointCenter", "DegenerateQuadruple",
            "DegenerateConfig", "LevelTooLarge", "EmptyF", "SingularPair",
            "QuadratureFailure", "NonConvergentRoots", "CoincidentAtoms",
        }
        assert expected <= set(ERROR_CODES)
