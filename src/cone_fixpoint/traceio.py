"""File formats: trace CSV, certificate JSON, problem JSON.

Trace CSV layout, one row per iterate, decimals with 17 significant digits
so float64 values survive a round trip bit-for-bit:

    n,x_0,...,x_{m-1},t,step_norm,t_increment,mono_residual

``mono_residual = t_increment - step_norm`` is redundant on purpose: it
lets external tools audit monotonicity without recomputing norms.  Row 0
carries zeros in the three derived columns.

Problem JSON carries exactly the keys ``dimension``, ``lambda``, ``map``,
``x0`` plus optional run parameters; unknown keys are rejected rather than
ignored so a certificate always reflects the parsed problem.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from typing import NoReturn

import numpy as np

from . import __version__
from .certificate import ConvergenceCertificate
from .cone import NON_FINITE_NORM, norm_each_row
from .contraction import FAMILIES, ContractionSpec
from .engine import IterationTrace, first_step
from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    NotAContractionError,
    ProblemFileError,
)

RUN_PARAM_KEYS = ("rule", "eps", "max_iterations", "seed")


def write_text_atomic(path: str, text: str):
    """Write via a new temp file in the same directory, then rename over the
    target.  The temp file is created with mode 0o666 less the umask, as
    ``open(path, "w")`` creates a file, so the result is as readable as any
    other file the user writes.  An :class:`OSError` is raised again naming
    ``path``, not the temp file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = None
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if fd is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


@contextlib.contextmanager
def _reading(path: str):
    """Turn a failure to open or decode the file at ``path`` (a missing file,
    a directory, bytes that are not text) into :class:`ProblemFileError`."""
    try:
        yield
    except OSError as exc:
        raise ProblemFileError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path}: not a text file: {exc}") from exc


def trace_csv_header(m: int) -> list[str]:
    return ["n"] + [f"x_{i}" for i in range(m)] + ["t", "step_norm", "t_increment", "mono_residual"]


def write_trace_csv(trace: IterationTrace, path: str):
    xs, ts = trace.xs, trace.ts
    m = trace.dimension
    step_norms = norm_each_row(np.diff(xs, axis=0))
    if np.isnan(step_norms).any():
        raise InvalidInputError(NON_FINITE_NORM)
    step_norm = np.concatenate(([0.0], step_norms))
    t_inc = np.concatenate(([0.0], np.diff(ts)))
    table = np.column_stack(
        (np.arange(xs.shape[0]), xs, ts, step_norm, t_inc, t_inc - step_norm)
    )
    row = "%d," + ",".join(["%.17g"] * (m + 4)) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    write_text_atomic(path, ",".join(trace_csv_header(m)) + "\n" + body)


def read_trace_csv(path: str, spec: ContractionSpec, x0=None) -> IterationTrace:
    """Rebuild a trace from CSV for re-verification.

    ``x0`` is the declared start of the problem; when omitted, row 0 is
    taken as the start.  Every cell of every row must parse as a number
    (blank lines are skipped); the stored derived columns are then ignored:
    the verifier recomputes everything from the raw points.  A file that
    cannot be read, is not text or holds a malformed row raises
    :class:`ProblemFileError`.
    """
    with _reading(path), open(path) as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ProblemFileError(f"{path}: empty trace file")
        m = len(header) - 5
        if m < 1 or header != trace_csv_header(m):
            raise ProblemFileError(f"{path}: unrecognized trace header {header!r}")
        if m != spec.dimension:
            raise DimensionMismatchError(
                f"{path}: trace has dimension {m}, problem has {spec.dimension}"
            )
        body = fh.read()
    if not body.strip("\n"):
        raise ProblemFileError(f"{path}: trace has no rows")
    try:
        # comments=None: a "#" line is a malformed row, not a comment.
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                           ndmin=2, dtype=float)
    except ValueError:
        _refuse_first_malformed_row(path, body, len(header))
    if table.shape[1] != len(header):
        _refuse_first_malformed_row(path, body, len(header))
    xs = np.ascontiguousarray(table[:, 1 : 1 + m])
    ts = table[:, 1 + m].copy()
    finite = np.isfinite(xs).all(axis=1) & np.isfinite(ts)
    if not finite.all():
        raise ProblemFileError(
            f"{path}: non-finite value in trace row {int(np.argmin(finite))}"
        )
    x0 = xs[0] if x0 is None else np.asarray(x0, dtype=float)
    d = first_step(spec, x0)
    return IterationTrace(
        spec=spec, x0=x0, d=d, xs=xs, ts=ts, stop_reason=None,
    )


def _is_cell(text: str) -> bool:
    """Whether ``np.loadtxt`` parses ``text`` as a float: Python's ``float``
    grammar without underscores, ASCII once surrounding whitespace is gone."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _refuse_first_malformed_row(path: str, body: str, width: int) -> NoReturn:
    """Raise :class:`ProblemFileError` naming the first row of ``body`` that
    ``np.loadtxt`` refused: a wrong cell count or a cell that is no number.
    Lines are split as loadtxt splits them; blank lines are skipped."""
    rows = (line.split(",") for line in body.split("\n") if line)
    bad = next(
        (row for row in rows if len(row) != width or not all(map(_is_cell, row))),
        None,
    )
    if bad is None:
        raise ProblemFileError(f"{path}: malformed trace body")
    raise ProblemFileError(f"{path}: malformed row {bad!r}")


# --- problem files ---------------------------------------------------------

def map_to_dict(spec: ContractionSpec) -> dict:
    kind = getattr(spec, "kind", None)
    if kind not in FAMILIES:
        raise ProblemFileError(f"cannot serialize {type(spec).__name__}")
    doc = {"kind": kind}
    for key, name in spec.file_keys:
        value = getattr(spec, name)
        doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProblemFileError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ProblemFileError(f"missing key {key!r} in {where}")
    return obj[key]


def _require_numbers(value, field: str):
    """Return a JSON number or nested lists of them, refusing anything else:
    a string or a boolean would otherwise pass ``float()`` as a number."""
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, list):
            pending.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProblemFileError(f"{field} must hold JSON numbers, got {v!r}")
    return value


def problem_from_dict(obj: dict):
    """Parse a problem description into (spec, x0, run_params).

    Raises :class:`ProblemFileError` naming the offending field on any
    structural problem; factor violations surface later via validation.
    """
    if not isinstance(obj, dict):
        raise ProblemFileError("problem document must be a JSON object")
    _reject_unknown(obj, {"dimension", "lambda", "map", "x0", *RUN_PARAM_KEYS}, "problem")
    dimension = _require(obj, "dimension", "problem")
    lam = _require_numbers(_require(obj, "lambda", "problem"), "lambda")
    map_obj = _require(obj, "map", "problem")
    x0 = _require_numbers(_require(obj, "x0", "problem"), "x0")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise ProblemFileError(f"dimension must be a positive integer, got {dimension!r}")
    if not isinstance(map_obj, dict):
        raise ProblemFileError("map must be an object")
    kind = _require(map_obj, "kind", "map")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise ProblemFileError(
            f"unknown map kind {kind!r} (known: {', '.join(sorted(FAMILIES))})"
        )
    family = FAMILIES[kind]
    _reject_unknown(map_obj, {"kind", *(key for key, _ in family.file_keys)}, f"map ({kind})")
    params = {
        name: _require_numbers(_require(map_obj, key, "map"), f"{key} in map")
        for key, name in family.file_keys
    }
    try:
        spec = family(**params, lam=lam)
    except NotAContractionError:
        # A numerical verdict about the declared factor, not a parse problem.
        raise
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"bad map/lambda: {exc}") from exc
    if spec.dimension != dimension:
        raise ProblemFileError(
            f"dimension is {dimension} but the map acts on R^{spec.dimension}"
        )
    try:
        x0 = np.asarray(x0, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"bad x0: {exc}") from exc
    if x0.ndim != 1 or x0.size != dimension or not np.all(np.isfinite(x0)):
        raise ProblemFileError(f"x0 must be a finite array of length {dimension}")

    run_params = {}
    for key in RUN_PARAM_KEYS:
        if key in obj:
            run_params[key] = obj[key]
    if "rule" in run_params and run_params["rule"] not in ("apriori", "aposteriori"):
        raise ProblemFileError(f"rule must be 'apriori' or 'aposteriori', got {run_params['rule']!r}")
    eps = run_params.get("eps", 1.0)
    if isinstance(eps, bool) or not (isinstance(eps, (int, float)) and eps > 0):
        raise ProblemFileError("eps must be a positive number")
    for key in ("max_iterations", "seed"):
        if key in run_params and (
            not isinstance(run_params[key], int) or isinstance(run_params[key], bool)
        ):
            raise ProblemFileError(f"{key} must be an integer")
    if run_params.get("seed", 0) < 0:
        raise ProblemFileError("seed must be a non-negative integer")
    return spec, x0, run_params


def load_problem_file(path: str):
    try:
        with _reading(path), open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON: {exc}") from exc
    return problem_from_dict(obj), obj


# --- certificate documents -------------------------------------------------

def _summary(residuals: np.ndarray, argmin_label: str = "argmin"):
    if residuals.size == 0:
        return {"count": 0, "min_residual": None, argmin_label: None}
    i = int(np.argmin(residuals))
    return {"count": int(residuals.size), "min_residual": float(residuals[i]), argmin_label: i}


def certificate_doc(
    cert: ConvergenceCertificate,
    problem_echo: dict,
    seed: int,
    full: bool = False,
) -> dict:
    """Build the JSON-serializable certificate document."""
    doc = {
        "tool": "cone-fixpoint",
        "tool_version": __version__,
        "seed": int(seed),
        "problem": problem_echo,
        "lambda": float(cert.lam),
        "d": float(cert.d),
        "n_steps": int(cert.n_steps),
        "t_star": float(cert.limit_point.t),
        "stop_bound": float(cert.stop_bound),
        "limit_point": {"x": cert.limit_point.x.tolist(), "t": float(cert.limit_point.t)},
        "checks": {
            "monotone": _summary(cert.monotone_residuals, "argmin_step"),
            "bounded": cert.bounded_summary._asdict(),
            "limit": _summary(cert.lower_bound_residuals, "argmin_witness"),
            "consistency": {
                "count": int(cert.consistency_x.size),
                "max_x_echo": float(np.max(cert.consistency_x)),
                "max_t_echo": float(np.max(cert.consistency_t)),
            },
            "fixed_point": {
                "residual": float(cert.fixed_point_residual),
                "tolerance": float(cert.fixed_point_tolerance),
            },
        },
        "witnesses": [{"x": w.x.tolist(), "t": float(w.t)} for w in cert.witnesses],
        "verdict": "pass" if cert.passed else "fail",
        "first_failure": cert.first_failure,
    }
    if full:
        doc["full_residuals"] = {
            "monotone": cert.monotone_residuals.tolist(),
            "bounded": [r.tolist() for r in cert.witness_residuals],
            "limit": cert.lower_bound_residuals.tolist(),
            "consistency_x": cert.consistency_x.tolist(),
            "consistency_t": cert.consistency_t.tolist(),
        }
    return doc


def dump_certificate(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_certificate(doc: dict, path: str):
    write_text_atomic(path, dump_certificate(doc))
