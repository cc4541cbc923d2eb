import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cone_fixpoint
from cone_fixpoint import (
    Affine, APriori, Constant, FixedCount, IterationTrace, builtin_catalog, norm, run,
)
from cone_fixpoint import certificate
from cone_fixpoint.cli import main
from cone_fixpoint.cone import row_norms
from cone_fixpoint.traceio import map_to_dict, read_trace_csv, trace_csv_header, write_trace_csv


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def run_cli(*args, timeout=None):
    """Run the CLI in a fresh interpreter with Python's default warning
    filters, as a user would, and return the finished process; past
    ``timeout`` seconds it is killed and the test fails."""
    src = str(Path(cone_fixpoint.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    code = "import sys; from cone_fixpoint.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-W", "default", "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _refuse_constant(token):
    raise ValueError(f"bare JSON constant {token}")


def strict_json(text):
    """``json.loads`` refusing the bare ``NaN``, ``Infinity`` and
    ``-Infinity`` tokens, which RFC 8259 does not allow."""
    return json.loads(text, parse_constant=_refuse_constant)


@pytest.fixture(autouse=True)
def certificates_are_strict_json(tmp_path):
    """Every certificate a test writes under its temporary directory
    parses under :func:`strict_json`."""
    yield
    for path in tmp_path.rglob("*.json"):
        try:
            doc = json.loads(path.read_text())
        except (ValueError, UnicodeDecodeError):
            continue  # a malformed file a test wrote on purpose
        if isinstance(doc, dict) and doc.get("tool") == "cone-fixpoint":
            strict_json(path.read_text())


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSolve:
    def test_affine_coarse_apriori(self, in_tmp, capsys):
        code = main(["solve", "--builtin", "AFFINE_1D", "--eps", "0.25",
                     "--rule", "apriori", "--out", "trace.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N              3" in out
        _, rows = read_csv(in_tmp / "trace.csv")
        assert len(rows) == 4
        assert rows[-1][1] == 1.75

    def test_fixed_start_single_row(self, in_tmp, capsys):
        code = main(["solve", "--builtin", "FIXED_START", "--out", "trace.csv"])
        assert code == 0
        assert "exact_fixed_point" in capsys.readouterr().out
        _, rows = read_csv(in_tmp / "trace.csv")
        assert len(rows) == 1

    def test_max_iter_truncation_exits_3_with_partial_trace(self, in_tmp, capsys):
        code = main(["solve", "--builtin", "NEAR_ONE", "--max-iter", "10",
                     "--out", "trace.csv"])
        assert code == 3
        assert "max_iterations" in capsys.readouterr().out
        _, rows = read_csv(in_tmp / "trace.csv")
        assert len(rows) == 11

    def test_unknown_builtin_is_usage_error(self, in_tmp, capsys):
        code = main(["solve", "--builtin", "NOPE", "--out", "t.csv"])
        assert code == 2
        assert "NOPE" in capsys.readouterr().err

    def test_list(self, in_tmp, capsys):
        assert main(["solve", "--list", "--builtin", "AFFINE_1D"]) == 0
        assert "ROTATION_2D" in capsys.readouterr().out

    def test_list_needs_no_problem_source(self, in_tmp, capsys):
        assert main(["solve", "--list"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert names == [p.name for p in builtin_catalog()]
        assert main(["solve"]) == 2
        assert "one of the arguments --builtin --problem is required" in capsys.readouterr().err

    def test_summary_reports_bound(self, in_tmp, capsys):
        main(["solve", "--builtin", "AFFINE_1D", "--eps", "0.25", "--out", "t.csv"])
        out = capsys.readouterr().out
        assert "t_star         2" in out
        assert "final_bound    0.25" in out


    def test_eps_below_every_quotient(self, tmp_path):
        # eps (1 - lam) / d underflows to 0: the step count is still found
        proc = run_cli("solve", "--builtin", "KEPLER", "--eps", "5e-324",
                       "--out", str(tmp_path / "trace.csv"), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "N              1075" in proc.stdout


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_written_files_take_the_umask(umask, in_tmp, capsys):
    """``solve`` and ``certify`` write their files with the mode
    ``open(path, "w")`` gives a new file, 0o666 less the umask (also over an
    existing file of that mode), and leave no temp file behind."""
    mode = 0o666 & ~umask
    (in_tmp / "cert.json").write_text("")
    os.chmod("cert.json", mode)
    old = os.umask(umask)
    try:
        assert main(["solve", "--builtin", "AFFINE_1D", "--out", "trace.csv"]) == 0
        assert main(["certify", "--builtin", "AFFINE_1D", "--verify", "trace.csv",
                     "--out", "cert.json"]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert sorted(os.listdir()) == ["cert.json", "trace.csv"]
    for name in ("trace.csv", "cert.json"):
        assert stat.S_IMODE(os.stat(name).st_mode) == mode, name


@pytest.mark.parametrize("target_mode", [0o600, 0o640, None], ids=["0o600", "0o640", "new"])
def test_replaced_files_keep_their_mode(target_mode, in_tmp, capsys):
    """Over an existing file ``solve`` and ``certify`` keep its permission
    bits, as ``open(path, "w")`` would, so a file made private stays
    private; a new file gets 0o666 less the umask."""
    names = ["cert.json", "trace.csv"]
    if target_mode is not None:
        for name in names:
            (in_tmp / name).write_text("")
            os.chmod(name, target_mode)
    old = os.umask(0o022)
    try:
        assert main(["solve", "--builtin", "KEPLER", "--out", "trace.csv"]) == 0
        assert main(["certify", "--builtin", "KEPLER", "--verify", "trace.csv",
                     "--out", "cert.json"]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert sorted(os.listdir()) == names
    for name in names:
        assert stat.S_IMODE(os.stat(name).st_mode) == (target_mode or 0o644), name


class TestCertify:
    def test_affine_pass(self, in_tmp, capsys):
        code = main(["certify", "--builtin", "AFFINE_1D", "--eps", "1e-8",
                     "--omega-samples", "32", "--seed", "7", "--out", "cert.json"])
        assert code == 0
        doc = json.loads((in_tmp / "cert.json").read_text())
        assert doc["verdict"] == "pass"
        assert doc["seed"] == 7
        assert len(doc["witnesses"]) == 33

    def test_rotation_limit_point(self, in_tmp):
        code = main(["certify", "--builtin", "ROTATION_2D", "--eps", "1e-10",
                     "--out", "cert.json"])
        assert code == 0
        doc = json.loads((in_tmp / "cert.json").read_text())
        x = np.array(doc["limit_point"]["x"])
        assert np.linalg.norm(x - np.array([0.8, 0.4])) <= 1e-10

    def test_verify_only_round_trip(self, in_tmp):
        assert main(["solve", "--builtin", "KEPLER", "--eps", "1e-8",
                     "--out", "trace.csv"]) == 0
        code = main(["certify", "--builtin", "KEPLER", "--verify", "trace.csv",
                     "--out", "cert.json"])
        assert code == 0
        assert json.loads((in_tmp / "cert.json").read_text())["verdict"] == "pass"

    def test_verify_tampered_trace_fails(self, in_tmp, capsys):
        main(["solve", "--builtin", "AFFINE_1D", "--eps", "0.25", "--out", "trace.csv"])
        lines = (in_tmp / "trace.csv").read_text().splitlines()
        cells = lines[2].split(",")  # row n = 1
        cells[2] = str(float(cells[2]) - 1e-3)  # lower t^1
        lines[2] = ",".join(cells)
        (in_tmp / "trace.csv").write_text("\n".join(lines) + "\n")
        code = main(["certify", "--builtin", "AFFINE_1D", "--verify", "trace.csv",
                     "--out", "cert.json"])
        assert code == 1
        doc = json.loads((in_tmp / "cert.json").read_text())
        assert doc["verdict"] == "fail"
        assert "step 0" in doc["first_failure"]
        assert "first_failure" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["x", "t"])
    def test_verify_non_finite_cell_is_refused(self, in_tmp, capsys, column, value):
        main(["solve", "--builtin", "ROTATION_2D", "--eps", "1e-6", "--out", "trace.csv"])
        lines = (in_tmp / "trace.csv").read_text().splitlines()
        row = (len(lines) - 1) // 2
        cells = lines[1 + row].split(",")
        cells[1 if column == "x" else 3] = value  # x_0 or t (m = 2)
        lines[1 + row] = ",".join(cells)
        (in_tmp / "trace.csv").write_text("\n".join(lines) + "\n")
        code = main(["certify", "--builtin", "ROTATION_2D", "--verify", "trace.csv",
                     "--out", "cert.json"])
        assert code == 2
        assert not (in_tmp / "cert.json").exists()
        assert f"trace row {row}" in capsys.readouterr().err

    def test_iteration_cap_exits_3_with_a_certificate(self, in_tmp, capsys):
        code = main(["certify", "--builtin", "NEAR_ONE", "--max-iter", "3",
                     "--out", "cert.json"])
        assert code == 3
        assert "verdict        pass" in capsys.readouterr().out
        doc = json.loads((in_tmp / "cert.json").read_text())
        assert doc["n_steps"] == 3
        assert doc["verdict"] == "pass"

    def test_verify_malformed_row_is_usage_error(self, in_tmp, capsys):
        main(["solve", "--builtin", "AFFINE_1D", "--eps", "0.25", "--out", "trace.csv"])
        text = (in_tmp / "trace.csv").read_text()
        (in_tmp / "trace.csv").write_text(text + "4,1.875\n")
        code = main(["certify", "--builtin", "AFFINE_1D", "--verify", "trace.csv",
                     "--out", "cert.json"])
        assert code == 2
        assert "malformed row ['4', '1.875']" in capsys.readouterr().err
        assert not (in_tmp / "cert.json").exists()

    @pytest.mark.parametrize("where", [0, 2])  # the header, a body row
    def test_verify_trace_not_utf8_is_usage_error(self, in_tmp, capsys, where):
        main(["solve", "--builtin", "AFFINE_1D", "--eps", "0.25", "--out", "trace.csv"])
        lines = (in_tmp / "trace.csv").read_bytes().splitlines()
        lines[where] = lines[where].replace(b",", b",\xff", 1)
        (in_tmp / "trace.csv").write_bytes(b"\n".join(lines) + b"\n")
        code = main(["certify", "--builtin", "AFFINE_1D", "--verify", "trace.csv",
                     "--out", "cert.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: trace.csv: not a text file")
        assert not (in_tmp / "cert.json").exists()

    def test_full_flag(self, in_tmp):
        main(["certify", "--builtin", "AFFINE_1D", "--full", "--out", "cert.json"])
        doc = json.loads((in_tmp / "cert.json").read_text())
        assert "full_residuals" in doc

    def test_byte_identical_across_runs(self, in_tmp):
        main(["certify", "--builtin", "KEPLER", "--seed", "3", "--out", "a.json"])
        main(["certify", "--builtin", "KEPLER", "--seed", "3", "--out", "b.json"])
        assert (in_tmp / "a.json").read_bytes() == (in_tmp / "b.json").read_bytes()

    def test_negative_seed_is_usage_error(self, in_tmp, capsys):
        code = main(["certify", "--builtin", "AFFINE_1D", "--seed", "-1", "--out", "cert.json"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (in_tmp / "cert.json").exists()


class TestOmega:
    def test_fixed_point_is_member(self, in_tmp, capsys):
        code = main(["omega", "--builtin", "AFFINE_1D", "--x", "2", "--t", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "drift_bound    2" in out
        assert "residual_bound 2" in out
        assert "member         yes" in out

    def test_start_with_t_four_is_member(self, in_tmp, capsys):
        assert main(["omega", "--builtin", "AFFINE_1D", "--x", "0", "--t", "4"]) == 0
        out = capsys.readouterr().out
        assert "drift_bound    0" in out
        assert "residual_bound 4" in out

    def test_low_t_not_member(self, in_tmp, capsys):
        assert main(["omega", "--builtin", "AFFINE_1D", "--x", "0", "--t", "1"]) == 1
        assert "member         no" in capsys.readouterr().out

    def test_dimension_mismatch_is_usage_error(self, in_tmp, capsys):
        code = main(["omega", "--builtin", "ROTATION_2D", "--x", "1", "--t", "5"])
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    def test_unparsable_x(self, in_tmp, capsys):
        code = main(["omega", "--builtin", "AFFINE_1D", "--x", "zero", "--t", "1"])
        assert code == 2


class TestProblemFiles:
    def write_problem(self, tmp_path, obj):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_solve_from_file(self, in_tmp, capsys):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
            "x0": [0.0],
            "eps": 0.25,
        })
        code = main(["solve", "--problem", path, "--out", "t.csv"])
        assert code == 0
        assert "N              3" in capsys.readouterr().out

    def test_cli_flag_overrides_file_param(self, in_tmp, capsys):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
            "x0": [0.0],
            "eps": 0.25,
        })
        main(["solve", "--problem", path, "--eps", "1e-2", "--out", "t.csv"])
        assert "N              8" in capsys.readouterr().out  # 2 * 0.5^8 < 0.01

    def test_unknown_key_names_field(self, in_tmp, capsys):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
            "x0": [0.0],
            "tolerance": 1,
        })
        assert main(["solve", "--problem", path, "--out", "t.csv"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_lambda_out_of_range_is_parse_error(self, in_tmp, capsys):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 1.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
            "x0": [0.0],
        })
        assert main(["solve", "--problem", path, "--out", "t.csv"]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_refuted_factor_is_numerical_error(self, in_tmp, capsys):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.9,
            "map": {"kind": "affine", "A": [[1.1]], "b": [0.0]},
            "x0": [0.0],
        })
        assert main(["solve", "--problem", path, "--out", "t.csv"]) == 3
        assert "not a contraction" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, in_tmp, capsys):
        path = in_tmp / "broken.json"
        path.write_text("{nope")
        assert main(["solve", "--problem", str(path), "--out", "t.csv"]) == 2

    def test_missing_file_is_usage_error(self, in_tmp):
        assert main(["solve", "--problem", "no/such/file.json", "--out", "t.csv"]) == 2

    def test_problem_file_not_utf8_is_usage_error(self, in_tmp, capsys):
        path = in_tmp / "bom.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", "--problem", str(path), "--out", "t.csv"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not a text file")

    def test_problem_directory_is_usage_error(self, in_tmp, capsys):
        (in_tmp / "problem").mkdir()
        assert main(["solve", "--problem", "problem", "--out", "t.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_verify_directory_is_usage_error(self, in_tmp, capsys):
        (in_tmp / "trace").mkdir()
        code = main(["certify", "--builtin", "AFFINE_1D", "--verify", "trace",
                     "--out", "cert.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno")
        assert not (in_tmp / "cert.json").exists()

    def test_certify_from_file_with_seed_param(self, in_tmp):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "kepler", "e": 0.5, "M": 1.0},
            "x0": [0.0],
            "seed": 11,
        })
        code = main(["certify", "--problem", path, "--out", "cert.json"])
        assert code == 0
        assert json.loads((in_tmp / "cert.json").read_text())["seed"] == 11

    def test_negative_seed_param_is_usage_error(self, in_tmp, capsys):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "kepler", "e": 0.5, "M": 1.0},
            "x0": [0.0],
            "seed": -3,
        })
        assert main(["certify", "--problem", path, "--out", "cert.json"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (in_tmp / "cert.json").exists()


    @pytest.mark.parametrize("problem,message", [
        ({"lambda": 0.5, "map": {"kind": ["affine"], "A": [[0.5]], "b": [1.0]}, "x0": [0.0]},
         "unknown map kind ['affine']"),
        ({"lambda": "0.5", "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]}, "x0": [0.0]},
         "lambda must hold JSON numbers"),
        ({"lambda": 0.5, "map": {"kind": "affine", "A": [["0.5"]], "b": ["1.0"]}, "x0": [0.0]},
         "A in map must hold JSON numbers"),
        ({"lambda": 0.5, "map": {"kind": "affine", "A": [[True]], "b": [1.0]}, "x0": [0.0]},
         "A in map must hold JSON numbers"),
        ({"lambda": 0.5, "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]}, "x0": ["0.0"]},
         "x0 must hold JSON numbers"),
        ({"lambda": 0.5, "map": {"kind": "kepler", "e": "0.3", "M": "1.0"}, "x0": [0.0]},
         "e in map must hold JSON numbers"),
    ])
    def test_malformed_value_is_usage_error(self, in_tmp, capsys, problem, message):
        path = self.write_problem(in_tmp, {"dimension": 1, **problem})
        assert main(["certify", "--problem", path, "--out", "cert.json"]) == 2
        assert message in capsys.readouterr().err
        assert not (in_tmp / "cert.json").exists()

    @pytest.mark.parametrize("field,command", [
        (field, command)
        for field in ["lambda", "x0", "A", "b", "c", "e", "M", "theta", "scale", "eps"]
        for command in ["solve", "certify", "omega"]
        if not (field == "eps" and command == "omega")  # omega reads no eps
    ])
    def test_integer_too_large_for_a_float_is_usage_error(self, in_tmp, capsys, field, command):
        # json reads 1 followed by 400 zeros as an int, which float() refuses
        huge = 10**400
        maps = {
            "A": {"kind": "affine", "A": [[huge]], "b": [1.0]},
            "b": {"kind": "affine", "A": [[0.5]], "b": [huge]},
            "c": {"kind": "constant", "c": [huge]},
            "e": {"kind": "kepler", "e": huge, "M": 1.0},
            "M": {"kind": "kepler", "e": 0.5, "M": huge},
            "theta": {"kind": "scaled_rotation", "theta": huge, "scale": 0.5, "b": [1.0, 0.0]},
            "scale": {"kind": "scaled_rotation", "theta": 0.5, "scale": huge, "b": [1.0, 0.0]},
        }
        map_obj = maps.get(field, {"kind": "affine", "A": [[0.5]], "b": [1.0]})
        m = 2 if map_obj["kind"] == "scaled_rotation" else 1
        top = {"lambda": {"lambda": huge}, "x0": {"x0": [huge]}, "eps": {"eps": huge}}.get(field, {})
        path = self.write_problem(in_tmp, {"dimension": m, "lambda": 0.9, "map": map_obj,
                                           "x0": [0.0] * m, **top})
        args = ["--x", ",".join(["0"] * m), "--t", "1"] if command == "omega" else ["--out", "out"]
        assert main([command, "--problem", path, *args]) == 2
        name = f"{field} in map" if field in maps else field
        assert capsys.readouterr().err == f"error: {name} holds an integer too large for a float\n"
        assert not (in_tmp / "out").exists()

    @pytest.mark.parametrize("key", ["max_iterations", "seed"])
    def test_integer_too_large_for_a_float_is_a_valid_count(self, in_tmp, key):
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
            "x0": [0.0],
            key: 10**400,
        })
        assert main(["certify", "--problem", path, "--out", "cert.json"]) == 0

    @pytest.mark.parametrize("field", ["seed", "max_iterations", "lambda", "x0", "b"])
    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_integer_past_the_digit_limit_is_usage_error(self, in_tmp, capsys, field, command):
        # json refuses to read an integer of more than 4300 digits (Python's
        # int_max_str_digits) with a ValueError
        problem = {"dimension": 1, "lambda": 0.5, "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
                   "x0": [0.0], "seed": 1, "max_iterations": 10}
        if field == "b":
            problem["map"]["b"] = ["HUGE"]
        else:
            problem[field] = ["HUGE"] if field == "x0" else "HUGE"
        path = in_tmp / "problem.json"
        path.write_text(json.dumps(problem).replace('"HUGE"', "1" + "0" * 5000))
        assert main([command, "--problem", str(path), "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit") and err.count("\n") == 1
        assert not (in_tmp / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_nesting_past_the_recursion_limit_is_usage_error(self, in_tmp, capsys, command):
        # json raises a RecursionError; no .json suffix, which the autouse
        # strict-JSON check would read and fail on the same way
        path = in_tmp / "problem.deep"
        path.write_text('{"dimension": 1, "lambda": 0.5, "x0": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main([command, "--problem", str(path), "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON: maximum recursion depth") and err.count("\n") == 1
        assert not (in_tmp / "out").exists()

    def test_overflowing_sampling_radius_is_usage_error(self, in_tmp, capsys):
        # t* = 2e307, so the witnesses' sampling radius 10 t* overflows
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1e307]},
            "x0": [0.0],
        })
        assert main(["certify", "--problem", path, "--out", "cert.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampling radius") and err.count("\n") == 1
        assert not (in_tmp / "cert.json").exists()

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_overflowing_map_prints_only_the_error(self, in_tmp, command):
        # x^2 overflows, while t* = 5e307 is finite: the engine's map
        # evaluation must not warn
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1e308]},
            "x0": [1.5e308],
        })
        proc = run_cli(command, "--problem", path, "--out", "out")
        assert proc.returncode == 2
        assert proc.stderr == "error: trace row 2 has a non-finite value\n"

    @pytest.mark.parametrize("rule", ["apriori", "aposteriori"])
    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_overflowing_limit_is_usage_error(self, in_tmp, command, rule):
        # t* = 1e300 / 1e-10 overflows: a search for the a-priori step count
        # would never end, so the CLI runs under a timeout, and a-posteriori
        # must not print an infinite t_star
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.9999999999,
            "map": {"kind": "constant", "c": [1e300]},
            "x0": [0.0],
            "rule": rule,
        })
        proc = run_cli(command, "--problem", path, "--out", "out", timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("error: t* = d / (1 - lambda) overflows at d = 1.000000e+300, "
                               "lambda = 0.9999999999\n")
        assert proc.stdout == ""
        assert not (in_tmp / "out").exists()

    @pytest.mark.parametrize("command", [["solve"], ["certify"], ["omega", "--x", "0,0", "--t", "1"],
                                         ["certify", "--verify", "trace.csv"]],
                             ids=["solve", "certify", "omega", "certify-verify"])
    def test_map_overflowing_at_x0_prints_only_the_error(self, in_tmp, command):
        # f(x0) overflows, so d cannot be taken, also for a reloaded trace
        path = self.write_problem(in_tmp, {
            "dimension": 2,
            "lambda": 0.9,
            "map": {"kind": "affine", "A": [[0.6, 0.6], [0.0, 0.0]], "b": [1.0, 1.0]},
            "x0": [1.79e308, 1.79e308],
        })
        (in_tmp / "trace.csv").write_text(
            "n,x_0,x_1,t,step_norm,t_increment,mono_residual\n0,1.79e308,1.79e308,0,0,0,0\n")
        proc = run_cli(*command, "--problem", path)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot take the norm of a non-finite vector\n"

    def test_overflowing_map_in_a_verified_trace_warns_nothing(self, in_tmp):
        # f overflows at the finite row 1, and its step norm overflows: the
        # verifier's evaluation and its checks fail the trace without a warning
        path = self.write_problem(in_tmp, {
            "dimension": 2,
            "lambda": 0.9,
            "map": {"kind": "affine", "A": [[0.6, 0.6], [0.0, 0.0]], "b": [1.0, 1.0]},
            "x0": [0.0, 0.0],
        })
        (in_tmp / "trace.csv").write_text(
            "n,x_0,x_1,t,step_norm,t_increment,mono_residual\n0,0,0,0,0,0,0\n"
            "1,1.79e308,1.79e308,1.4142135623730951,0,0,0\n2,0,0,2.6870057685088806,0,0,0\n")
        proc = run_cli("certify", "--problem", path, "--verify", "trace.csv", "--out", "c.json")
        assert proc.returncode == 1
        assert "first_failure  monotone check failed at step 0" in proc.stdout
        assert proc.stderr == ""

    def test_overflow_in_the_last_verified_row_fails(self, in_tmp):
        # x^2 - f(x^1), x* - w.x and f(x*) - x* overflow: the last row fails
        # the certificate as any other row does, not as a usage error
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "constant", "c": [-1.5e308]},
            "x0": [-1.5e308],
        })
        (in_tmp / "trace.csv").write_text(
            "n,x_0,t,step_norm,t_increment,mono_residual\n0,-1.5e308,0,0,0,0\n"
            "1,-1.5e308,0,0,0,0\n2,1.5e308,0,0,0,0\n")
        proc = run_cli("certify", "--problem", path, "--verify", "trace.csv", "--out", "c.json")
        assert proc.returncode == 1
        assert "verdict        fail" in proc.stdout
        assert proc.stderr == ""
        # the NaN residuals are written as strings, which a strict parser reads
        doc = strict_json((in_tmp / "c.json").read_text())
        assert doc["verdict"] == "fail"
        assert doc["checks"]["consistency"]["max_x_echo"] == "nan"
        assert doc["checks"]["limit"]["min_residual"] == "nan"

    def test_drifted_trace_fails_at_point_1(self, in_tmp, capsys):
        # x^{n+1} = fl(f(x^n)) - 0.9e-12 max(1, |f(x^n)|) under the honest t
        # column: each step drifts by at most 1e-9, within the flat margin
        # 1e-12 max(1, |x|), and x^N misses x* = 1000 by 9.1e-7, 91 times
        # the stop bound; the x echo of point 1 already exceeds its allowance
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.999,
            "map": {"kind": "affine", "A": [[0.999]], "b": [1.0]},
            "x0": [0.0],
        })
        assert main(["solve", "--problem", path, "--out", "honest.csv"]) == 0
        honest = read_trace_csv("honest.csv", Affine(a=[[0.999]], b=[1.0], lam=0.999), x0=[0.0])
        xs = np.zeros_like(honest.xs)
        for n in range(honest.n_steps):
            fx = 0.999 * xs[n, 0] + 1.0
            xs[n + 1, 0] = fx - 0.9e-12 * max(1.0, abs(fx))
        write_trace_csv(dataclasses.replace(honest, xs=xs), "drifted.csv")
        assert main(["certify", "--problem", path, "--verify", "honest.csv", "--out", "c.json"]) == 0
        capsys.readouterr()
        assert main(["certify", "--problem", path, "--verify", "drifted.csv", "--out", "c.json"]) == 1
        out = capsys.readouterr().out
        assert "verdict        fail" in out
        assert "first_failure  trace consistency failed at point 1 " in out

    def test_overflowing_canonical_t_is_named(self, in_tmp, capsys):
        # t* = 1.2e308 is finite, but the canonical witness's 2 t* overflows
        path = self.write_problem(in_tmp, {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [6e307]},
            "x0": [0.0],
        })
        assert main(["certify", "--problem", path, "--out", "cert.json"]) == 2
        assert capsys.readouterr().err == ("error: canonical witness t = 2 d / (1 - lambda) "
                                           "overflows at d = 6.000000e+307, lambda = 0.5\n")
        assert not (in_tmp / "cert.json").exists()

    def test_clustered_spectrum_certifies(self, in_tmp, capsys):
        # Top singular values 1e-6 apart, the larger one equal to lambda.
        path = self.write_problem(in_tmp, {
            "dimension": 2,
            "lambda": 0.9,
            "map": {"kind": "affine", "A": [[0.9, 0.0], [0.0, 0.899999]], "b": [1.0, 1.0]},
            "x0": [0.0, 0.0],
        })
        assert main(["solve", "--problem", path, "--out", "trace.csv"]) == 0
        code = main(["certify", "--problem", path, "--verify", "trace.csv",
                     "--out", "cert.json"])
        assert code == 0
        assert "verdict        pass" in capsys.readouterr().out
        assert json.loads((in_tmp / "cert.json").read_text())["verdict"] == "pass"

    def test_clustered_spectrum_false_lambda_refused(self, in_tmp, capsys):
        # Top singular values 1e-7 apart, lambda 1e-8 below the norm.
        path = self.write_problem(in_tmp, {
            "dimension": 2,
            "lambda": 0.9 - 1e-8,
            "map": {"kind": "affine", "A": [[0.9, 0.0], [0.0, 0.9 - 1e-7]], "b": [1.0, 1.0]},
            "x0": [0.0, 0.0],
        })
        assert main(["solve", "--problem", path, "--out", "trace.csv"]) == 3
        assert "not a contraction" in capsys.readouterr().err
        assert not (in_tmp / "trace.csv").exists()


class TestUsage:
    def test_out_of_memory_is_usage_error(self, in_tmp, monkeypatch, capsys):
        # numpy raises a MemoryError where --omega-samples asks for more
        # witnesses than memory holds; the stand-in allocates nothing
        def out_of_memory(om, count, seed):
            raise MemoryError(f"Unable to allocate an array with shape ({count}, 1)")

        monkeypatch.setattr(certificate, "sample_omega", out_of_memory)
        code = main(["certify", "--builtin", "KEPLER", "--omega-samples", "100000000000",
                     "--out", "cert.json"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate an array with shape (100000000000, 1)\n")
        assert not (in_tmp / "cert.json").exists()

    def test_no_source_given(self, in_tmp):
        assert main(["solve"]) == 2

    def test_unknown_command(self, in_tmp):
        assert main(["frobnicate"]) == 2

    def test_env_tolerance_is_ignored(self, in_tmp, monkeypatch, capsys):
        """The verification policy is a constant of the version: no
        environment variable loosens a verdict or changes a certificate."""
        main(["solve", "--builtin", "KEPLER", "--out", "trace.csv"])
        lines = (in_tmp / "trace.csv").read_text().splitlines()
        row = (len(lines) - 1) // 2
        cells = lines[1 + row].split(",")
        cells[1] = repr(float(cells[1]) + 0.01)  # move x^row by 0.01
        lines[1 + row] = ",".join(cells)
        (in_tmp / "moved.csv").write_text("\n".join(lines) + "\n")
        for value in ("0", "0.1", "0.5", "not-a-float"):
            monkeypatch.setenv("CONE_FIXPOINT_TOL", value)
            capsys.readouterr()
            # a point just below the boundary stays outside Omega
            assert main(["omega", "--builtin", "AFFINE_1D", "--x", "0", "--t", "3.6"]) == 1
            assert main(["certify", "--builtin", "KEPLER", "--verify", "moved.csv",
                         "--out", "cert.json"]) == 1
            assert f"monotone check failed at step {row - 1}" in capsys.readouterr().out
            assert main(["certify", "--builtin", "KEPLER", "--seed", "5", "--full",
                         "--out", "cert.json"]) == 0
            assert (in_tmp / "cert.json").read_bytes() == (GOLDEN / "KEPLER.json").read_bytes()

    def test_full_does_not_carry_over(self, in_tmp, capsys):
        """The parser is built once per process; no parse leaves state in it."""
        assert main(["certify", "--builtin", "AFFINE_1D", "--full", "--out", "a.json"]) == 0
        assert main(["certify", "--builtin", "AFFINE_1D", "--out", "b.json"]) == 0
        assert "full_residuals" in json.loads((in_tmp / "a.json").read_text())
        assert "full_residuals" not in json.loads((in_tmp / "b.json").read_text())

    def test_usage_error_then_solve(self, in_tmp, capsys):
        assert main(["solve", "--builtin", "AFFINE_1D", "--eps", "tiny"]) == 2
        assert "--eps" in capsys.readouterr().err
        assert main(["solve", "--builtin", "AFFINE_1D", "--out", "trace.csv"]) == 0
        assert "problem        AFFINE_1D" in capsys.readouterr().out
        assert (in_tmp / "trace.csv").exists()

    def test_list_then_solve(self, in_tmp, capsys):
        assert main(["solve", "--list"]) == 0
        capsys.readouterr()
        assert main(["solve", "--builtin", "KEPLER", "--out", "trace.csv"]) == 0
        out = capsys.readouterr().out
        assert "problem        KEPLER" in out and "ROTATION_2D" not in out
        assert (in_tmp / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "certify"])
    @pytest.mark.parametrize("out", ["adir", "missing/x.csv"])
    def test_unwritable_out_is_usage_error(self, in_tmp, capsys, command, out):
        # a directory, or a file in a directory that does not exist
        (in_tmp / "adir").mkdir()
        assert main([command, "--builtin", "AFFINE_1D", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno")
        # the message names the path given, not the temp file beside it
        assert captured.err.rstrip().endswith(f"'{out}'")
        assert ".tmp-" not in captured.err
        assert sorted(p.name for p in in_tmp.rglob("*")) == ["adir"]


def _reference_trace_csv(trace) -> str:
    """The per-row trace writer that the vectorized one replaced, kept as the
    oracle for byte-identical output."""
    xs, ts = trace.xs, trace.ts

    def fmt(v):
        return format(float(v), ".17g")

    rows = [",".join(trace_csv_header(trace.dimension))]
    for n in range(xs.shape[0]):
        if n == 0:
            step_norm = 0.0
            t_inc = 0.0
        else:
            step_norm = norm(xs[n] - xs[n - 1])
            t_inc = float(ts[n] - ts[n - 1])
        cells = [str(n)] + [fmt(v) for v in xs[n]]
        cells += [fmt(ts[n]), fmt(step_norm), fmt(t_inc), fmt(t_inc - step_norm)]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _random_affine(m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m))
    lam = 0.9
    a = raw * (lam / np.linalg.svd(raw, compute_uv=False)[0])
    return Affine(a=a, b=rng.standard_normal(m), lam=lam), 10.0 * rng.standard_normal(m)


class TestTraceWriterBytes:
    @pytest.mark.parametrize("p", builtin_catalog(), ids=lambda p: p.name)
    def test_builtins(self, tmp_path, p):
        for rule in (APriori(1e-10), FixedCount(3)):
            trace = run(p.spec, p.x0, rule)
            write_trace_csv(trace, str(tmp_path / "t.csv"))
            assert (tmp_path / "t.csv").read_bytes() == _reference_trace_csv(trace).encode()

    @pytest.mark.parametrize("m", [2, 3, 50])
    def test_affine_maps(self, tmp_path, m):
        for seed in range(5):
            spec, x0 = _random_affine(m, seed)
            trace = run(spec, x0, FixedCount(150))
            write_trace_csv(trace, str(tmp_path / "t.csv"))
            assert (tmp_path / "t.csv").read_bytes() == _reference_trace_csv(trace).encode()


    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_signed_zeros_and_subnormals(self, tmp_path, m):
        rng = np.random.default_rng(m)
        cells = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1.0])
        xs, ts = rng.choice(cells, size=(20, m)), rng.choice(cells, size=20)
        trace = IterationTrace(spec=Constant(c=np.zeros(m), lam=0.5), x0=xs[0], d=0.0,
                               xs=xs, ts=ts, stop_reason=None)
        write_trace_csv(trace, str(tmp_path / "t.csv"))
        text = (tmp_path / "t.csv").read_text()
        for cell in (",-0,", ",4.9406564584124654e-324", ",-9.9999999999999694e-311"):
            assert cell in text
        assert text.encode() == _reference_trace_csv(trace).encode()


GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_NAMES = ["AFFINE_1D", "CONSTANT", "ROTATION_2D", "KEPLER", "FIXED_START", "NEAR_ONE"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_certificate_matches_golden_file(name, in_tmp, monkeypatch, capsys):
    """``certify --builtin NAME --seed 5`` reproduces its committed
    certificate byte for byte: ``--full`` for the small builtins, the summary
    form for NEAR_ONE.  The files pin certificate bytes across changes to the
    verifier.  A certificate records ``tool_version``, so the files must be
    rewritten when it changes; from the repository root, with the new
    version installed or on ``PYTHONPATH=src``:

        for n in AFFINE_1D CONSTANT ROTATION_2D KEPLER FIXED_START; do
          python -m cone_fixpoint.cli certify --builtin $n --seed 5 --full \\
            --out tests/data/golden/$n.json; done
        python -m cone_fixpoint.cli certify --builtin NEAR_ONE --seed 5 \\
          --out tests/data/golden/NEAR_ONE.json

    Any other difference is a change of the certificate contract.  The
    environment plays no part: the bytes are the same whether
    ``CONE_FIXPOINT_TOL`` is set or not.
    """
    argv = ["certify", "--builtin", name, "--seed", "5", "--out", "cert.json"]
    if name != "NEAR_ONE":
        argv.append("--full")
    for value in (None, "0", "0.5"):
        if value is None:
            monkeypatch.delenv("CONE_FIXPOINT_TOL", raising=False)
        else:
            monkeypatch.setenv("CONE_FIXPOINT_TOL", value)
        assert main(argv) == 0
        capsys.readouterr()
        assert (in_tmp / "cert.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_certify_fills_the_bounded_matrix_only_for_full(in_tmp, monkeypatch, capsys):
    """On a wide trace and on short traces at m = 1 and 2 alike, ``certify``
    takes the bounded check's summary from the filter and never fills the
    (witnesses, points) residual matrix; ``--full`` fills it once, and its
    rows give the same summary as the whole-matrix minimum."""
    spec, x0 = _random_affine(12, seed=8)
    problem = {"dimension": 12, "lambda": spec.lam, "map": map_to_dict(spec),
               "x0": x0.tolist(), "eps": 1e-9}
    (in_tmp / "p.json").write_text(json.dumps(problem))
    fills = []
    fill = certificate._witness_residuals
    monkeypatch.setattr(certificate, "_witness_residuals",
                        lambda *args: fills.append(args) or fill(*args))
    for source in (["--problem", "p.json"], ["--builtin", "AFFINE_1D"],
                   ["--builtin", "KEPLER"], ["--builtin", "ROTATION_2D"]):
        assert main(["solve", *source, "--out", "trace.csv"]) == 0
        fills.clear()
        docs = {}
        for name, extra in (("seeded", ["--seed", "5"]), ("verify", ["--verify", "trace.csv"]),
                            ("full", ["--verify", "trace.csv", "--full"])):
            argv = ["certify", *source, *extra, "--out", f"{name}.json"]
            assert main(argv) == 0
            docs[name] = json.loads((in_tmp / f"{name}.json").read_text())
            assert len(fills) == (name == "full"), source
        rows = docs["full"]["full_residuals"]["bounded"]
        mins = [min(r) for r in rows]
        w = mins.index(min(mins))
        assert docs["full"]["checks"]["bounded"] == {
            "count": 33 * len(rows[0]), "min_residual": mins[w], "argmin_witness": w,
            "argmin_step": rows[w].index(mins[w]),
        }
        assert docs["verify"]["checks"]["bounded"] == docs["full"]["checks"]["bounded"]
    capsys.readouterr()


@pytest.mark.parametrize("m", [1, 2, 7])
def test_certify_full_rows_on_long_narrow_traces(m, in_tmp, monkeypatch, capsys):
    """A long narrow trace is decided by row blocks: ``certify`` fills the
    residual matrix only for ``--full``, its rows are the whole matrix bit
    for bit, and the summary is the same with and without it."""
    rng = np.random.default_rng(30 + m)
    raw = rng.standard_normal((m, m))
    lam = 0.99
    spec = Affine(a=raw * (lam / np.linalg.svd(raw, compute_uv=False)[0]),
                  b=rng.standard_normal(m), lam=lam)
    problem = {"dimension": m, "lambda": lam, "map": map_to_dict(spec),
               "x0": (10.0 * rng.standard_normal(m)).tolist(), "eps": 1e-9}
    (in_tmp / "p.json").write_text(json.dumps(problem))
    assert main(["solve", "--problem", "p.json", "--out", "trace.csv"]) == 0
    trace = read_trace_csv("trace.csv", spec)
    assert trace.ts.size >= 512
    fills = []
    fill = certificate._witness_residuals
    monkeypatch.setattr(certificate, "_witness_residuals",
                        lambda *args: fills.append(args) or fill(*args))
    docs = {}
    for name, extra in (("verify", []), ("full", ["--full"])):
        argv = ["certify", "--problem", "p.json", "--verify", "trace.csv", *extra,
                "--out", f"{name}.json"]
        assert main(argv) == 0
        docs[name] = json.loads((in_tmp / f"{name}.json").read_text())
        assert len(fills) == (name == "full")
    capsys.readouterr()
    wx = np.array([w["x"] for w in docs["full"]["witnesses"]])
    wt = np.array([w["t"] for w in docs["full"]["witnesses"]])
    whole = np.array([(w_t - trace.ts) - row_norms(w_x - trace.xs) for w_x, w_t in zip(wx, wt)])
    assert np.array(docs["full"]["full_residuals"]["bounded"]).tobytes() == whole.tobytes()
    assert docs["verify"]["checks"]["bounded"] == docs["full"]["checks"]["bounded"]


def test_certify_reuses_the_sampled_omega_bounds(in_tmp, monkeypatch, capsys):
    """``certify`` lets the verifier sample its witnesses, which are members
    by construction: the map is applied once per sampled point and at no
    other witness."""
    counts = []
    bounds_rows = certificate._omega_bounds_rows
    monkeypatch.setattr(certificate, "_omega_bounds_rows",
                        lambda om, xs: counts.append(xs.shape[0]) or bounds_rows(om, xs))
    assert main(["certify", "--builtin", "ROTATION_2D", "--omega-samples", "9",
                 "--out", "cert.json"]) == 0
    assert counts == [9]
    assert len(json.loads((in_tmp / "cert.json").read_text())["witnesses"]) == 10
    capsys.readouterr()
