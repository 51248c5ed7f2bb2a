import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from arakelov import cli, suite
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

NEAR_ONE = "10000000000000001/10000000000000000"  # its float is the critical value 1


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


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
        argv = ["lattes", "torsion", "--lambda", "2", "--level", "1"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["total_multiplicity"] == 16
        assert payload["distinct"] == 10
        code, out, _ = run(argv + ["--tol", "1e-9"], capsys)  # nothing is merged
        assert code == 2 and json.loads(out)["error"] == "UsageError"

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

    def test_suite_exit_one_when_a_check_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(suite, "product_formula_residual", lambda rng, count, height: 1.0)
        code, out, _ = run(["suite", "--quick", "--seed", "7"], capsys)
        payload = json.loads(out)
        assert code == 1 and payload["failed"] == 1
        assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["product_formula_residual"]

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], "1e2538e95642d5ca06b0a888133e48df05b2dcfe8942e09db85b72880efd14d1"),
            (["--quick"], "6e6658f448aaf56a270cccf4db84f4dd438e97176756053e6f7f7378cf589984"),
        ],
        ids=["full", "quick"],
    )
    def test_suite_stdout_pinned(self, flags, digest, capsys):
        # sha256 of the whole stdout, with a statistic in every check's detail
        code, out, _ = run(["suite", *flags, "--seed", "7"], capsys)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["places", "valuation", "--x", "0", "--p", "3"], '{"valuation": "inf"}'),
            (["places", "affine-height", "--coords", '["1/2","3"]'],
             '{"affine_height": 1.791759469228055}'),  # log 6
            (["tree", "length", "--x", '{"center":"0","log_radius":0.0}',
              "--y", '{"center":"1/5","log_radius":-1.0}', "--place", "5"],
             '{"path_length": 4.218875824868201}'),  # 2 log 5 + 1
            (["tree", "classify", "--ia", GAUSS_SEG, "--ib", FAR_SEG, "--place", "5"],
             '{"config": {"d_ab": 1.0, "la": 1.0, "la1": 1.0, "la2": 0.0, "lb": 1.0, '
             '"lb1": 0.0, "lb2": 1.0, "variant": "disjoint"}}'),
            (["places", "submax", "--values", "[3, 2.5, -1]"], '{"submax": 2.5}'),
            (["energy", "arch", "--lambda-a", "2", "--lambda-b", "3"],
             '{"energy": 0.022117449945200124, "level": 7, "quad_err": 2.1191950941301663e-07, '
             '"samples": 20000, "tolerance": 0.021213203435596423}'),  # level 7, two threads
        ],
        ids=["valuation", "affine-height", "tree-length", "tree-classify", "submax", "energy-arch"],
    )
    def test_pinned_json(self, argv, expected, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0 and out == expected + "\n"


class TestErrorsAndDeterminism:
    def test_degenerate_config_exit_one(self, capsys):
        cfg = json.dumps({"a": ["1", "1", "3"], "b": ["1", "2", "3"]})
        code, out, _ = run(["adelic", "energy", "--config-json", cfg], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "DegenerateConfig"

    def test_residue_char_two_exit_one(self, capsys):
        argv = ["lattes", "segment", "--gamma", '["inf","0","1","3"]', "--place", "2"]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert json.loads(out)["error"] == "ResidueCharTwo"
        manifest = json.loads(err.strip().splitlines()[-1])  # a domain error writes one too
        assert manifest["command"] == argv
        assert "input_digest" in manifest and "wall_time_s" in manifest

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
        code, out, _ = run(["energy", "nope"], capsys)
        assert code == 2 and json.loads(out)["error"] == "UsageError"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["energy", "arch", "--help"])
        assert exc.value.code == 0 and "--lambda-a" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["places", "logabs", "--x", "abc"],
            ["places", "logabs"],
            ["places", "logabs", "--x", "1/0"],
            ["places", "logabs", "--x", "2", "--place", "4"],
            ["places", "valuation", "--x", "2", "--p", "4"],
            ["places", "valuation", "--x", "2"],
            ["tree", "join", "--x", "{}", "--y", "{}", "--place", "5"],
            ["tree", "join", "--x", "nope", "--y", "{}", "--place", "5"],
            ["tree", "classify", "--ia", "[]", "--ib", "{}", "--place", "5"],
            ["energy", "ua", "--ia", "{}", "--ib", GAUSS_SEG, "--place", "5"],
            ["lattes", "segment", "--gamma", '[0.5,1,2,"inf"]', "--place", "3"],
            ["lattes", "segment", "--gamma", "7", "--place", "3"],
            ["places", "height", "--coords", "[0.5, 1]"],
            ["places", "submax", "--values", "nope"],
            ["places", "submax", "--values", '["a", 1]'],
            ["adelic", "energy", "--config-json", '{"a":[1,2]}'],
            ["adelic", "energy"],
            ["adelic", "energy", "--config", "no-such-config.json"],
            ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "50"],
            ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "-5"],
            ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "10000001"],
            ["adelic", "energy", "--config-json", '{"a":[1,2,3],"b":[4,5,6]}',
             "--arch-samples", "99"],
            ["adelic", "gap-scan", "--count", "1", "--arch-samples", str(10**9)],
            ["adelic", "gap-scan", "--count", "-2"],
            ["adelic", "suite", "--count", "-1"],
            ["energy", "ua", "--ia", GAUSS_SEG, "--ib", GAUSS_SEG, "--place", "5",
             "--oracle-n", "-3"],
            ["energy", "ua", "--ia", GAUSS_SEG, "--ib", GAUSS_SEG, "--place", "5",
             "--oracle-n", "1"],
            ["energy", "ua", "--ia", GAUSS_SEG, "--ib", GAUSS_SEG, "--place", "5",
             "--oracle-n", "0"],
            ["energy", "ua", "--ia", GAUSS_SEG, "--ib", GAUSS_SEG, "--place", "5",
             "--oracle-n", "1000001"],
            ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "-1"],
            ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "nan"],
            ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "1",
             "--tol", "-1"],
            ["places", "logabs", "--x", "2", "--bogus"],
            ["energy", "arch", "--lambda-a", "2"],
            ["lattes", "torsion", "--lambda", "2", "--level", "x"],
            ["lattes", "torsion", "--lambda", "2", "--level", "1", "--tol", "-1e+16"],
            ["adelic", "suite", "--count", "2", "--height=-1"],
            ["adelic", "gap-scan", "--count", "1", "--height=-5"],
            ["adelic", "suite", "--count", "2", "--seed=-1"],
            ["suite", "--quick", "--seed=-3"],
            ["places", "logabs", "--x", "1/9", "--place", "3", "--epsilon", "0"],
            ["places", "logabs", "--x", "1/9", "--epsilon", "0"],
            ["places", "logabs", "--x", "1/9", "--place", "trivial", "--epsilon=-5"],
            ["tree", "kernel", "--x", '{"center":"1","log_radius":0}',
             "--y", '{"center":"2","log_radius":NaN}', "--place", "3"],
            ["tree", "kernel", "--x", '{"center":"2","log_radius":NaN}',
             "--y", '{"center":"1","log_radius":0}', "--place", "3"],
            ["tree", "join", "--x", '{"center":"1","log_radius":0}',
             "--y", '{"center":"2","log_radius":NaN}', "--place", "3"],
            ["tree", "join", "--x", '{"center":"1","log_radius":0}',
             "--y", '{"center":"2","log_radius":Infinity}', "--place", "3"],
            ["tree", "kernel", "--x", '{"center":"1","log_radius":1e400}',
             "--y", '{"center":"0","log_radius":0}', "--place", "5"],
            ["tree", "kernel", "--x", "[1,2]", "--y", '{"center":"1","log_radius":0}',
             "--place", "3"],
            ["tree", "join", "--x", '"s"', "--y", '"t"', "--place", "3"],
            ["tree", "classify", "--ia", '{"endpoints":"ab"}', "--ib", '{"endpoints":"ab"}',
             "--place", "3"],
            ["lattes", "segment", "--gamma", '"1234"', "--place", "3"],
            ["adelic", "energy", "--config-json", '{"a":"123","b":"456"}'],
        ],
    )
    def test_bad_argument_exit_two_with_json(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 2
        assert json.loads(out)["error"] == "UsageError"

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_env_seed_exit_two_with_json(self, value, capsys, monkeypatch):
        monkeypatch.setenv("ARAKELOV_SEED", value)
        for argv in (["adelic", "suite", "--count", "2"], ["suite", "--quick"]):
            code, out, _ = run(argv, capsys)
            assert code == 2 and json.loads(out)["error"] == "UsageError"

    @pytest.mark.parametrize("op", ["suite", "gap-scan"])
    def test_height_zero_exits_two(self, op):
        # no nonzero numerator has height 0; a subprocess keeps a hang from stalling the suite
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "arakelov.cli", "adelic", op, "--count", "2", "--height", "0"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and json.loads(proc.stdout)["error"] == "UsageError"

    @pytest.mark.parametrize("op", ["suite", "gap-scan"])
    def test_height_one_exits_two(self, op):
        # height 1 has only the rationals +-1, too few for a side; a subprocess
        # keeps a hang from stalling the suite
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "arakelov.cli", "adelic", op, "--count", "2", "--height", "1"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {
            "error": "UsageError", "message": "--height: invalid value 1 (must be at least 2)",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["places", "height", "--coords", '"12"'],
            ["places", "affine-height", "--coords", '"12"'],
            ["places", "height", "--coords", '{"a": 1, "b": 2}'],
            ["places", "submax", "--values", '["x", "y"]'],
            ["places", "submax", "--values", "[true, false]"],
            ["places", "submax", "--values", "[1, true]"],
            ["places", "submax", "--values", '{"a": 1, "b": 2}'],
            ["places", "submax", "--values", '"12"'],
        ],
        ids=["height-string", "affine-height-string", "height-object", "submax-strings",
             "submax-bools", "submax-number-and-bool", "submax-object", "submax-string"],
    )
    def test_non_array_json_exits_two(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "UsageError" and "expected a JSON array" in payload["message"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["adelic", "suite", "--count=-1"], "--count: invalid value -1 (must be at least 0)"),
            (["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "99"],
             "--samples: invalid value 99 (must lie in [100, 10000000])"),
            (["energy", "ua", "--ia", GAUSS_SEG, "--ib", GAUSS_SEG, "--place", "5",
              "--oracle-n", "1"], "--oracle-n: invalid value 1 (must lie in [2, 1000000])"),
            (["lattes", "torsion", "--lambda", "2", "--level", "-1"],
             "--level: invalid value -1 (must be at least 0)"),
            (["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "-2"],
             "--level: invalid value -2 (must be at least 0)"),
        ],
        ids=["count", "samples", "oracle-n", "torsion-level", "bft-level"],
    )
    def test_range_errors_say_the_range(self, argv, message, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 2 and json.loads(out)["message"] == message

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattes", "torsion", "--lambda", "2", "--level", "6"],
            ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "6"],
        ],
        ids=["torsion", "bft"],
    )
    def test_level_above_cap_exits_one(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 1 and json.loads(out)["error"] == "LevelTooLarge"

    def test_large_prime_exits_one(self):
        # trial division stops at 10^6; a subprocess keeps a slow factorization from stalling the suite
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = [sys.executable, "-m", "arakelov.cli", "places", "residual", "--x", "10000000000000061"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and json.loads(proc.stdout)["error"] == "FactorizationTooLarge"

    def test_sample_count_bounds_accepted(self, capsys):
        args = ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "100"]
        code, out, _ = run(args, capsys)
        assert code == 0 and json.loads(out)["samples"] == 100

    def test_config_file(self, capsys, tmp_path):
        cfg = {"a": ["1", "2", "3"], "b": ["1/5", "2/5", "3/5"]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        _, from_file, _ = run(["adelic", "energy", "--config", str(path)], capsys)
        _, inline, _ = run(["adelic", "energy", "--config-json", json.dumps(cfg)], capsys)
        assert from_file == inline and json.loads(from_file)["total"] > 0

    def test_lattes_eval(self, capsys):
        code, out, _ = run(["lattes", "eval", "--lambda", "2", "--t", "3"], capsys)
        assert code == 0
        assert json.loads(out) == {"value": "49/24"}

    def test_energy_arch_reports_quad_err(self, capsys):
        code, out, _ = run(
            ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3", "--samples", "2000"], capsys
        )
        payload = json.loads(out)
        assert code == 0 and payload["samples"] == 2000 and payload["level"] == 6
        assert payload["tolerance"] == pytest.approx(3.0 / math.sqrt(2000), abs=1e-15)
        assert 0.0 < payload["quad_err"] < payload["tolerance"]
        assert abs(payload["energy"] - 0.0223) <= payload["tolerance"]

    def test_adelic_energy_reports_quad_err(self, capsys):
        cfg = json.dumps({"a": ["1", "2", "3"], "b": ["1/5", "2/5", "3/5"]})
        code, out, _ = run(["adelic", "energy", "--config-json", cfg], capsys)
        payload = json.loads(out)
        assert code == 0 and 0.0 < payload["quad_err"] < payload["arch_tol"]

    def test_energy_arch_seed_changes_no_output(self, capsys):
        args = ["energy", "arch", "--lambda-a", "2", "--lambda-b", "3"]
        outs = [run(args + ["--seed", seed], capsys)[1] for seed in ("0", "7")]
        assert outs[0] == outs[1] and json.loads(outs[0])["level"] == 7

    def test_non_finite_result_exit_one(self, capsys):
        # the kernel of two equal type-1 points is -inf
        x = y = json.dumps({"chart": "direct", "center": "1", "type1": True})
        code, out, _ = run(["tree", "kernel", "--x", x, "--y", y, "--place", "5"], capsys)
        assert code == 1
        assert json.loads(out, parse_constant=refuse_constant)["error"] == "NonFiniteResult"

    @pytest.mark.parametrize("argv", [
        ["adelic", "bft", "--lambda-a", NEAR_ONE, "--lambda-b", "2", "--level", "5"],
        ["lattes", "torsion", "--lambda", NEAR_ONE, "--level", "5"],
    ], ids=["adelic-bft", "lattes-torsion"])
    def test_non_finite_torsion_images_exit_one(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1 and "Traceback" not in err
        assert json.loads(out, parse_constant=refuse_constant)["error"] == "NonFiniteResult"

    BIG = "1" + "0" * 400  # 10^400, beyond float range

    @pytest.mark.parametrize("argv", [
        ["energy", "arch", "--lambda-a", BIG, "--lambda-b", "2"],
        ["lattes", "torsion", "--lambda", BIG, "--level", "1"],
        ["lattes", "torsion", "--lambda", "1" + "0" * 200, "--level", "2"],  # lam^2 - lam
        ["adelic", "bft", "--lambda-a", BIG, "--lambda-b", "2", "--level", "1"],
        ["adelic", "energy", "--config-json",
         json.dumps({"a": [BIG, "2", "3"], "b": ["4", "5", "6"]})],
        ["energy", "arch", "--lambda-a", "100000000000001/100000000000000", "--lambda-b", "2",
         "--samples", "4000"],
    ], ids=["energy-arch", "torsion-level-1", "torsion-level-2", "adelic-bft", "adelic-energy",
            "nan-pairing"])
    def test_beyond_float_range_exit_one(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1 and "Traceback" not in err
        assert json.loads(out, parse_constant=refuse_constant)["error"] == "NonFiniteResult"

    def test_unknown_chart_exit_one(self, capsys):
        x = json.dumps({"chart": "polar", "center": "1", "log_radius": 0.0})
        y = json.dumps({"chart": "direct", "center": "0", "log_radius": 0.0})
        code, out, _ = run(["tree", "kernel", "--x", x, "--y", y, "--place", "5"], capsys)
        assert code == 1
        assert json.loads(out) == {"error": "ChartMismatch", "message": "unknown chart 'polar'"}

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
        args = ["adelic", "suite", "--count", "3", "--height", "5", "--seed", "11"]
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

    @pytest.mark.parametrize("before", [True, False], ids=["out-first", "out-last"])
    def test_unwritable_out_is_a_usage_error(self, before, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.json")
        command = ["places", "logabs", "--x", "1/9", "--place", "3"]
        argv = ["--out", target, *command] if before else [*command, "--out", target]
        code, out, _ = run(argv, capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "UsageError" and repr(target) in payload["message"]

    def test_back_to_back_runs_match_fresh_processes(self, capsys, tmp_path):
        # main reuses one parser per process: a subcommand's --out must not
        # carry over to the next command
        target = tmp_path / "bft.json"
        commands = [
            ["adelic", "bft", "--lambda-a", "2", "--lambda-b", "3", "--level", "1",
             "--out", str(target)],
            ["places", "logabs", "--x", "1/9", "--place", "3"],
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        fresh = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "arakelov.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            fresh.append((proc.returncode, proc.stdout, target.read_text()))
        target.unlink()
        reused = []
        for argv in commands:
            code, out, _ = run(argv, capsys)
            reused.append((code, out, target.read_text()))
        assert reused == fresh
        assert fresh[0][:2] == (0, "") and json.loads(fresh[1][1])["log_abs"] > 0

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
            "NonConvergentRoots", "CoincidentAtoms", "NonFiniteResult",
            "FactorizationTooLarge",
        }
        assert expected <= set(ERROR_CODES)


def loaded_scipy_submodules(statement):
    """The modules named scipy or scipy.* loaded after ``statement`` runs in a
    fresh interpreter, its own output discarded."""
    code = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {statement}\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def test_import_leaves_scipy_submodules_unloaded():
    assert loaded_scipy_submodules("import arakelov.cli") == "[]"


def loaded_after(statement, module):
    """Whether ``statement``, run in a fresh interpreter with its output
    discarded, loads ``module``."""
    code = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {statement}\n"
        f"print({module!r} in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip() == "True"


def test_import_leaves_numpy_polynomial_unloaded():
    # the crossing-circle Gauss-Legendre rule is built on the first crossing pair
    assert not loaded_after("import arakelov.cli", "numpy.polynomial")


def test_level_seven_run_leaves_concurrent_futures_unloaded():
    # the worker of a level-7 Lattes pairing is a bare thread: concurrent.futures
    # and the logging it loads would cost 3 ms in a one-shot process
    statement = (
        "import arakelov.cli; "
        "arakelov.cli.main('energy arch --lambda-a 2 --lambda-b 3'.split())"
    )
    assert not loaded_after(statement, "concurrent.futures")


@pytest.mark.parametrize(
    "statement",
    [
        "import arakelov; arakelov.torsion_images(2, 5)",
        "import arakelov.cli; arakelov.cli.main('lattes torsion --lambda 2 --level 5'.split())",
        "import arakelov; arakelov.bft_scan(2, 3, 5)",
        "import arakelov.cli; arakelov.cli.main("
        "'adelic bft --lambda-a 2 --lambda-b 3 --level 5'.split())",
    ],
    ids=["library", "cli", "bft-library", "bft-cli"],
)
def test_torsion_run_leaves_scipy_submodules_unloaded(statement):
    # neither the torsion images nor bft_scan's PointIndex sweep uses scipy
    assert loaded_scipy_submodules(statement) == "[]"


@pytest.mark.parametrize(
    "statement",
    [
        "import arakelov; arakelov.pair_with_smoothed_set([1, 3, 9, 'inf'], "
        "arakelov.finite_set(['1/2', 4, -6], {'inf': 3.0, '5': 0.2}))",
        "import arakelov.cli; arakelov.cli.main(['suite', '--quick'])",
    ],
    ids=["smoothed-set", "suite-cli"],
)
def test_arch_routes_leave_scipy_unloaded(statement):
    # crossing circles take a numpy Gauss-Legendre rule, not scipy.integrate
    assert loaded_scipy_submodules(statement) == "[]"
