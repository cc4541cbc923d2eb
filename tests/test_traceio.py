import json
import os

import numpy as np
import pytest

from cone_fixpoint import (
    Affine,
    APriori,
    DimensionMismatchError,
    FixedCount,
    NotAContractionError,
    ProblemFileError,
    builtin,
    run,
    verify_certificate,
)
from cone_fixpoint.traceio import (
    certificate_doc,
    dump_certificate,
    map_to_dict,
    problem_from_dict,
    read_trace_csv,
    trace_csv_header,
    write_certificate,
    write_trace_csv,
)

AFFINE = Affine(a=[[0.5]], b=[1.0], lam=0.5)


class TestTraceCsv:
    def test_header_layout(self):
        assert trace_csv_header(2) == [
            "n", "x_0", "x_1", "t", "step_norm", "t_increment", "mono_residual",
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        p = builtin("KEPLER")
        trace = run(p.spec, p.x0, FixedCount(25))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        loaded = read_trace_csv(str(path), p.spec, x0=p.x0)
        assert np.array_equal(loaded.xs, trace.xs)
        assert np.array_equal(loaded.ts, trace.ts)
        assert loaded.d == trace.d

    def test_mono_residual_column_is_redundant_audit(self, tmp_path):
        trace = run(AFFINE, [0.0], FixedCount(3))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        rows = [line.split(",") for line in path.read_text().strip().splitlines()][1:]
        for row in rows:
            step_norm, t_inc, mono = float(row[3]), float(row[4]), float(row[5])
            assert mono == t_inc - step_norm
        assert [float(r[1]) for r in rows] == [0.0, 1.0, 1.5, 1.75]

    def test_no_temp_files_left(self, tmp_path):
        trace = run(AFFINE, [0.0], FixedCount(2))
        write_trace_csv(trace, str(tmp_path / "t.csv"))
        assert sorted(os.listdir(tmp_path)) == ["t.csv"]

    def test_reload_verifies(self, tmp_path):
        p = builtin("ROTATION_2D")
        trace = run(p.spec, p.x0, APriori(1e-9))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        loaded = read_trace_csv(str(path), p.spec, x0=p.x0)
        fresh = verify_certificate(trace, seed=2)
        again = verify_certificate(loaded, seed=2)
        assert fresh.passed and again.passed
        assert fresh.first_failure == again.first_failure

    def test_dimension_mismatch(self, tmp_path):
        trace = run(AFFINE, [0.0], FixedCount(2))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        with pytest.raises(DimensionMismatchError):
            read_trace_csv(str(path), builtin("ROTATION_2D").spec)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ProblemFileError):
            read_trace_csv(str(path), AFFINE)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("column", [1, 2])  # x_0, t
    def test_non_finite_cell_names_row(self, tmp_path, column, value):
        path = tmp_path / "t.csv"
        write_trace_csv(run(AFFINE, [0.0], FixedCount(4)), str(path))
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")  # row n = 2
        cells[column] = value
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFileError, match="trace row 2"):
            read_trace_csv(str(path), AFFINE, x0=[0.0])

    def test_unparsable_cell_is_problem_file_error(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(run(AFFINE, [0.0], FixedCount(2)), str(path))
        path.write_text(path.read_text().replace("1.5,", "one-and-a-half,", 1))
        with pytest.raises(ProblemFileError, match="malformed row"):
            read_trace_csv(str(path), AFFINE, x0=[0.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProblemFileError):
            read_trace_csv(str(path), AFFINE)


class TestProblemJson:
    def base(self, **overrides):
        obj = {
            "dimension": 1,
            "lambda": 0.5,
            "map": {"kind": "affine", "A": [[0.5]], "b": [1.0]},
            "x0": [0.0],
        }
        obj.update(overrides)
        return obj

    def test_affine_parses(self):
        spec, x0, params = problem_from_dict(self.base())
        assert isinstance(spec, Affine)
        assert spec.lam == 0.5 and np.array_equal(x0, [0.0])
        assert params == {}

    def test_all_kinds_round_trip(self):
        for name in ("AFFINE_1D", "CONSTANT", "ROTATION_2D", "KEPLER"):
            p = builtin(name)
            obj = {
                "dimension": p.spec.dimension,
                "lambda": p.spec.lam,
                "map": map_to_dict(p.spec),
                "x0": p.x0.tolist(),
            }
            spec, x0, _ = problem_from_dict(obj)
            assert type(spec) is type(p.spec)
            assert np.array_equal(x0, p.x0)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ProblemFileError, match="frobnicate"):
            problem_from_dict(self.base(frobnicate=1))

    def test_unknown_map_key_rejected(self):
        obj = self.base()
        obj["map"]["extra"] = 2
        with pytest.raises(ProblemFileError, match="extra"):
            problem_from_dict(obj)

    def test_unknown_kind(self):
        obj = self.base()
        obj["map"] = {"kind": "quadratic"}
        with pytest.raises(ProblemFileError, match="quadratic"):
            problem_from_dict(obj)

    def test_missing_key_named(self):
        obj = self.base()
        del obj["lambda"]
        with pytest.raises(ProblemFileError, match="lambda"):
            problem_from_dict(obj)

    def test_dimension_disagreement(self):
        with pytest.raises(ProblemFileError, match="dimension"):
            problem_from_dict(self.base(dimension=2))

    def test_x0_wrong_length(self):
        with pytest.raises(ProblemFileError, match="x0"):
            problem_from_dict(self.base(x0=[0.0, 1.0]))

    def test_bad_lambda_is_spec_error(self):
        from cone_fixpoint import InvalidSpecError

        with pytest.raises((ProblemFileError, InvalidSpecError)):
            problem_from_dict(self.base(**{"lambda": 1.5}))

    def test_factor_violation_passes_through(self):
        obj = self.base()
        obj["map"] = {"kind": "kepler", "e": 0.9, "M": 1.0}
        with pytest.raises(NotAContractionError):
            problem_from_dict(obj)

    def test_run_params_parsed(self):
        obj = self.base(rule="aposteriori", eps=1e-6, max_iterations=100, seed=4)
        _, _, params = problem_from_dict(obj)
        assert params == {"rule": "aposteriori", "eps": 1e-6, "max_iterations": 100, "seed": 4}

    def test_bad_rule_rejected(self):
        with pytest.raises(ProblemFileError, match="rule"):
            problem_from_dict(self.base(rule="whenever"))

    def test_boolean_dimension_rejected(self):
        with pytest.raises(ProblemFileError):
            problem_from_dict(self.base(dimension=True))


class TestCertificateDoc:
    def _doc(self, seed=0, full=False):
        trace = run(AFFINE, [0.0], APriori(1e-8))
        cert = verify_certificate(trace, seed=seed)
        return certificate_doc(cert, problem_echo={"builtin": "AFFINE_1D"}, seed=seed, full=full)

    def test_required_fields(self):
        doc = self._doc()
        for key in ("problem", "lambda", "d", "n_steps", "t_star", "checks",
                    "witnesses", "verdict", "tool_version", "seed", "first_failure"):
            assert key in doc
        assert doc["verdict"] == "pass"
        assert doc["checks"]["monotone"]["min_residual"] is not None

    def test_full_flag_adds_arrays(self):
        slim = self._doc(full=False)
        fat = self._doc(full=True)
        assert "full_residuals" not in slim
        assert len(fat["full_residuals"]["monotone"]) == fat["n_steps"]

    def test_byte_identical_given_seed(self):
        a = dump_certificate(self._doc(seed=7))
        b = dump_certificate(self._doc(seed=7))
        assert a == b
        c = dump_certificate(self._doc(seed=8))
        assert a != c

    def test_json_serializable_and_atomic_write(self, tmp_path):
        doc = self._doc(full=True)
        path = tmp_path / "cert.json"
        write_certificate(doc, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["verdict"] == "pass"
        assert sorted(os.listdir(tmp_path)) == ["cert.json"]
