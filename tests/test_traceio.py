import csv
import decimal
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cone_fixpoint import (
    Affine,
    APriori,
    Constant,
    ContractionSpec,
    DimensionMismatchError,
    FixedCount,
    NotAContractionError,
    ProblemFileError,
    ProblemInstance,
    UnsupportedInstanceError,
    builtin,
    builtin_catalog,
    reference_fixed_point,
    run,
    verify_certificate,
)
from cone_fixpoint.cone import row_norms
from cone_fixpoint.contraction import FAMILIES
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
_rng = np.random.default_rng(3)
AFFINE_3D = Affine(a=_rng.uniform(-0.2, 0.2, (3, 3)), b=_rng.uniform(-1.0, 1.0, 3), lam=0.9)


class _Halving(ContractionSpec):
    """f(x) = x / 2 on R: a contraction that belongs to no family."""

    lam = 0.5
    dimension = 1

    def _step(self):
        return lambda x: 0.5 * x

    def _apply_batch(self, xs):
        return 0.5 * xs

    def _rounding_bound(self, xs):
        return np.full(xs.shape[0], 2.0**-1022)  # x / 2 is exact unless it underflows

    def true_factor(self):
        return 0.5


class _NamedAffine(Affine):
    """A subclass of a family, which serializes as that family."""


# The problem-file keys of each kind, in the order they are required.
FILE_KEYS = {
    "affine": ["A", "b"],
    "constant": ["c"],
    "kepler": ["e", "M"],
    "scaled_rotation": ["theta", "scale", "b"],
}


def _family_spec(kind):
    return next(p.spec for p in builtin_catalog() if p.spec.kind == kind)


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

    @pytest.mark.parametrize("m", [3, 5, 9, 20])
    def test_derived_columns_have_the_verifiers_bits(self, tmp_path, m):
        """The step_norm and mono_residual columns hold the verifier's step
        norms and monotone residuals bit for bit: one norm kernel takes both."""
        rng = np.random.default_rng(800 + m)
        raw = rng.standard_normal((m, m))
        a = raw * (0.9 / float(np.linalg.svd(raw, compute_uv=False)[0]))
        spec = Affine(a=a, b=rng.standard_normal(m), lam=0.9)
        trace = run(spec, rng.standard_normal(m), FixedCount(300))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))[1:]
        step_norm = np.array([float(r["step_norm"]) for r in rows])
        mono = np.array([float(r["mono_residual"]) for r in rows])
        assert step_norm.tobytes() == row_norms(np.diff(trace.xs, axis=0)).tobytes()
        assert mono.tobytes() == verify_certificate(trace).monotone_residuals.tobytes()

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

    def test_header_only_has_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(",".join(trace_csv_header(1)) + "\n")
        with pytest.raises(ProblemFileError, match="trace has no rows"):
            read_trace_csv(str(path), AFFINE)

    def test_blank_line_is_skipped(self, tmp_path):
        trace = run(AFFINE, [0.0], FixedCount(3))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n\n")
        loaded = read_trace_csv(str(path), AFFINE, x0=[0.0])
        assert np.array_equal(loaded.xs, trace.xs)
        assert np.array_equal(loaded.ts, trace.ts)

    @pytest.mark.parametrize("cut", [1, -1])  # a cell short, a cell over
    def test_wrong_cell_count_is_malformed_row(self, tmp_path, cut):
        path = tmp_path / "t.csv"
        write_trace_csv(run(AFFINE, [0.0], FixedCount(2)), str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: lines[2].rindex(",")] if cut == 1 else lines[2] + ",0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemFileError, match="malformed row"):
            read_trace_csv(str(path), AFFINE, x0=[0.0])

    def test_row_0_is_the_start_without_x0(self, tmp_path):
        trace = run(AFFINE, [1.0], FixedCount(3))
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        loaded = read_trace_csv(str(path), AFFINE)
        assert loaded.x0.tolist() == [1.0]
        assert loaded.d == trace.d == 0.5


def _reference_read(path, m):
    """The ``csv.reader`` + ``float()`` trace reader that ``np.loadtxt``
    replaced, kept as the oracle: its (xs, ts), or its ProblemFileError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProblemFileError(f"{path}: empty trace file") from None
        if header != trace_csv_header(m):
            raise ProblemFileError(f"{path}: unrecognized trace header {header!r}")
        xs, ts = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ProblemFileError(f"{path}: malformed row {row!r}")
            try:
                xs.append([float(v) for v in row[1 : 1 + m]])
                ts.append(float(row[1 + m]))
            except ValueError:
                raise ProblemFileError(f"{path}: malformed row {row!r}") from None
    if not xs:
        raise ProblemFileError(f"{path}: trace has no rows")
    xs, ts = np.asarray(xs), np.asarray(ts)
    finite = np.isfinite(xs).all(axis=1) & np.isfinite(ts)
    if not finite.all():
        raise ProblemFileError(f"{path}: non-finite value in trace row {int(np.argmin(finite))}")
    return xs, ts


def _read_both(path, m):
    """Each reader's outcome on one file: (xs, ts) or the ProblemFileError."""
    outcomes = []
    for read in (lambda: _reference_read(path, m),
                 lambda: read_trace_csv(path, Constant(c=[0.0] * m, lam=0.5), x0=[0.0] * m)):
        try:
            result = read()
        except ProblemFileError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(result if isinstance(result, tuple) else (result.xs, result.ts))
    return outcomes


def _assert_same_bits(old, new):
    for a, b in zip(old, new):
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def _trace_text(cells, m):
    """A trace CSV whose x and t cells are the given strings, one row per
    m + 1 of them; the n and derived columns hold plain numbers."""
    lines = [",".join(trace_csv_header(m))]
    for n, row in enumerate(cells):
        lines.append(",".join([str(n), *row, "0", "0", "0"]))
    return "\n".join(lines) + "\n"


_DECIMAL = decimal.Context(prec=1100)


def _midpoint(value):
    """The exact decimal halfway between ``value`` and the next double up:
    a correctly rounded parser rounds it to the one with an even mantissa."""
    above = np.nextafter(value, np.inf)
    return str(_DECIMAL.divide(_DECIMAL.add(decimal.Decimal(value), decimal.Decimal(float(above))), 2))


def _integer_tie(k):
    """An odd integer between 2^53 and 2^54, 16 or 17 digits long: doubles
    there are 2 apart, so it lies halfway between two of them."""
    return str(2**53 + 2 * k + 1)


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny]),
)
cell_texts = st.one_of(
    finite_doubles.map(lambda v: "%.17g" % v),
    finite_doubles.filter(lambda v: abs(v) < np.finfo(float).max).map(_midpoint),
    st.integers(0, 2**52 - 1).map(_integer_tie),
)


def _loadtxt_grammar(text):
    """Whether ``np.loadtxt`` reads ``text`` as one float cell: Python's
    ``float`` grammar, ASCII once surrounding whitespace is gone, and no
    underscores."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


# Each example overwrites the one file it reads, so a shared tmp_path is safe.
TMP_PATH_SHARED = [HealthCheck.function_scoped_fixture]


class TestReaderParity:
    """``read_trace_csv`` against ``_reference_read``: the same bits wherever
    it accepts, and a ProblemFileError naming the row wherever they differ."""

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @settings(max_examples=60, deadline=None, suppress_health_check=TMP_PATH_SHARED)
    @given(data=st.data())
    def test_same_bits(self, tmp_path, m, data):
        rows = data.draw(st.lists(st.lists(cell_texts, min_size=m + 1, max_size=m + 1),
                                  min_size=1, max_size=6))
        path = tmp_path / "t.csv"
        path.write_text(_trace_text(rows, m))
        old, new = _read_both(str(path), m)
        assert isinstance(old, tuple) and isinstance(new, tuple)
        _assert_same_bits(old, new)

    @settings(max_examples=300, deadline=None, suppress_health_check=TMP_PATH_SHARED)
    @given(st.text(alphabet="0123456789.eE+-_ \t#\"',;infatyINFATYx\xa0١", max_size=8))
    @example("1_0")
    @example('"1"')
    @example("١")
    @example(" 1.5\xa0")
    @example("Infinity")
    @example("")
    @example("1E31١")
    @example("1_0e999")
    @example(" 1e999\xa0")
    def test_any_x_cell(self, tmp_path, text):
        """One x cell holds arbitrary text: the readers agree, or the new one
        refuses and names the row.  A cell outside the new reader's grammar
        that ``float()`` still reads as an overflow ("1E31" + ARABIC-INDIC
        DIGIT ONE, "1_0e999") is malformed to the new reader, not non-finite."""
        path = tmp_path / "t.csv"
        path.write_text(_trace_text([["0", "1"], [text, "1"]], 1))
        old, new = _read_both(str(path), 1)
        if isinstance(new, tuple):
            assert isinstance(old, tuple)
            _assert_same_bits(old, new)
        elif (not isinstance(old, tuple) and "non-finite" in str(old)
              and _loadtxt_grammar(text)):
            assert str(new) == str(old)
        else:
            assert re.search(r": malformed row \['1', ", str(new)), str(new)


def _edit_row(i, column, value):
    def edit(lines):
        cells = lines[1 + i].split(",")
        cells[column] = value
        lines[1 + i] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


# name -> (edit of the lines of the m = 1 trace
#     0,0,0,0,0,0 / 1,1,1,1,1,0 / 2,1.5,1.5,0.5,0.5,0 / 3,1.75,1.75,0.25,0.25,0,
# the old reader's outcome, the new reader's, the row its refusal names).
EDITS = {
    "comment line": (lambda lines: "\n".join(lines[:2] + ["# note"] + lines[2:]) + "\n",
                     "refuse", "refuse", ["# note"]),
    "whitespace line": (lambda lines: "\n".join(lines[:2] + ["   "] + lines[2:]) + "\n",
                        "refuse", "refuse", ["   "]),
    "hash in cell": (_edit_row(1, 1, "1#"), "refuse", "refuse", ["1", "1#", "1", "1", "1", "0"]),
    "underscore": (_edit_row(1, 1, "1_0"), "accept", "refuse", ["1", "1_0", "1", "1", "1", "0"]),
    "quoted": (_edit_row(1, 1, '"1"'), "accept", "refuse", ["1", '"1"', "1", "1", "1", "0"]),
    "n not a number": (_edit_row(2, 0, "two"), "accept", "refuse",
                       ["two", "1.5", "1.5", "0.5", "0.5", "0"]),
    "mono_residual not a number": (_edit_row(2, 5, "x"), "accept", "refuse",
                                   ["2", "1.5", "1.5", "0.5", "0.5", "x"]),
    "tab before cell": (_edit_row(1, 1, "\t1"), "accept", "accept", None),
    "crlf": (lambda lines: "\r\n".join(lines) + "\r\n", "accept", "accept", None),
    "blank lines": (lambda lines: "\n".join(lines[:2] + [""] + lines[2:]) + "\n\n\n",
                    "accept", "accept", None),
    "short row": (lambda lines: "\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:])
                  + "\n", "refuse", "refuse", ["1", "1", "1", "1", "1"]),
    "long row": (lambda lines: "\n".join(lines[:2] + [lines[2] + ",0"] + lines[3:]) + "\n",
                 "refuse", "refuse", ["1", "1", "1", "1", "1", "0", "0"]),
}


@pytest.mark.parametrize("name", list(EDITS))
def test_edited_trace(tmp_path, name):
    edit, old_outcome, new_outcome, named_row = EDITS[name]
    path = tmp_path / "t.csv"
    write_trace_csv(run(AFFINE, [0.0], FixedCount(3)), str(path))
    path.write_bytes(edit(path.read_text().splitlines()).encode())
    old, new = _read_both(str(path), 1)
    assert ("accept" if isinstance(old, tuple) else "refuse") == old_outcome
    assert ("accept" if isinstance(new, tuple) else "refuse") == new_outcome
    if new_outcome == "accept":
        _assert_same_bits(old, new)
    else:
        assert str(new).endswith(f": malformed row {named_row!r}")


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
        cases = [(p.spec, p.x0) for p in builtin_catalog()]
        cases.append((AFFINE_3D, np.array([0.0, 1.0, -1.0])))
        assert {spec.kind for spec, _ in cases} == set(FAMILIES)
        for original, x0_original in cases:
            obj = {
                "dimension": original.dimension,
                "lambda": original.lam,
                "map": map_to_dict(original),
                "x0": x0_original.tolist(),
            }
            spec, x0, _ = problem_from_dict(json.loads(json.dumps(obj)))
            assert type(spec) is type(original)
            assert map_to_dict(spec) == obj["map"]
            for _, field in original.file_keys:
                got = np.asarray(getattr(spec, field))
                want = np.asarray(getattr(original, field))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert spec.lam == original.lam
            assert np.array_equal(x0, x0_original)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_first_missing_map_key_named(self, kind):
        spec = _family_spec(kind)
        keys = [key for key, _ in FAMILIES[kind].file_keys]
        assert keys == FILE_KEYS[kind]
        for i, key in enumerate(keys):
            obj = self.base(dimension=spec.dimension, x0=[0.0] * spec.dimension)
            obj["map"] = {k: v for k, v in map_to_dict(spec).items() if k not in keys[i:]}
            with pytest.raises(ProblemFileError, match=rf"^missing key '{key}' in map$"):
                problem_from_dict(obj)

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_extra_map_key_named(self, kind):
        spec = _family_spec(kind)
        obj = self.base(dimension=spec.dimension, x0=[0.0] * spec.dimension)
        # A constructor field that is no file key is refused like any other.
        obj["map"] = {**map_to_dict(spec), "lam": spec.lam}
        with pytest.raises(ProblemFileError, match=rf"unknown key\(s\) in map \({kind}\): lam$"):
            problem_from_dict(obj)

    def test_spec_outside_families_has_no_file_form_or_reference(self):
        with pytest.raises(ProblemFileError, match="cannot serialize _Halving"):
            map_to_dict(_Halving())
        p = ProblemInstance(name="HALVING", spec=_Halving(), x0=[1.0])
        with pytest.raises(UnsupportedInstanceError, match="_Halving"):
            reference_fixed_point(p)

    def test_family_subclass_serializes_as_family(self):
        spec = _NamedAffine(a=[[0.5]], b=[1.0], lam=0.5)
        assert map_to_dict(spec) == {"kind": "affine", "A": [[0.5]], "b": [1.0]}
        assert spec.reference_fixed_point().tolist() == [2.0]

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
        with pytest.raises(
            ProblemFileError,
            match=r"^unknown map kind 'quadratic' \(known: affine, constant, kepler, scaled_rotation\)$",
        ):
            problem_from_dict(obj)

    @pytest.mark.parametrize("kind", [["affine"], {"affine": 1}, 3, None],
                             ids=["list", "object", "int", "null"])
    def test_non_string_kind(self, kind):
        obj = self.base()
        obj["map"]["kind"] = kind
        with pytest.raises(
            ProblemFileError,
            match=r"^unknown map kind .* \(known: affine, constant, kepler, scaled_rotation\)$",
        ):
            problem_from_dict(obj)

    @pytest.mark.parametrize("bad", ["0.5", True, None, {"v": 0.5}],
                             ids=["string", "bool", "null", "object"])
    @pytest.mark.parametrize(
        "kind,field",
        [(kind, key) for kind in sorted(FAMILIES) for key, _ in FAMILIES[kind].file_keys]
        + [("affine", "lambda"), ("affine", "x0")],
    )
    def test_non_number_named(self, kind, field, bad):
        spec = _family_spec(kind)
        obj = self.base(dimension=spec.dimension, x0=[0.0] * spec.dimension)
        obj["map"] = map_to_dict(spec)
        holder = obj if field in ("lambda", "x0") else obj["map"]
        # Put the bad value in the first number, however deeply nested.
        parent, index = holder, field
        while isinstance(parent[index], list):
            parent, index = parent[index], 0
        parent[index] = bad
        name = field if holder is obj else f"{field} in map"
        with pytest.raises(ProblemFileError, match=rf"^{name} must hold JSON numbers, got "):
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

    @pytest.mark.parametrize("eps", [True, False])
    def test_boolean_eps_rejected(self, eps):
        with pytest.raises(ProblemFileError, match="eps"):
            problem_from_dict(self.base(eps=eps))

    def test_negative_seed_rejected(self):
        with pytest.raises(ProblemFileError, match="seed must be a non-negative integer"):
            problem_from_dict(self.base(seed=-3))

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

    def test_non_finite_numbers_are_written_as_strings(self):
        # RFC 8259 has no NaN or infinity: a strict parser refuses the bare
        # tokens json.dumps writes by default
        doc = self._doc(full=True)
        doc["checks"]["fixed_point"]["residual"] = float("nan")
        doc["full_residuals"]["monotone"][1:3] = [float("inf"), float("-inf")]

        def refuse(token):
            raise ValueError(f"bare JSON constant {token}")

        loaded = json.loads(dump_certificate(doc), parse_constant=refuse)
        assert loaded["checks"]["fixed_point"]["residual"] == "nan"
        assert loaded["full_residuals"]["monotone"][1:3] == ["inf", "-inf"]
        assert loaded["full_residuals"]["monotone"][0] == doc["full_residuals"]["monotone"][0]
        finite = self._doc(full=True)
        assert json.loads(dump_certificate(finite), parse_constant=refuse) == finite
