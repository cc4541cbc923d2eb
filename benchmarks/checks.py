"""Checks of one operation's outputs against the oracle values in gen.py and
against properties the method must have.  Each returns a list of messages;
an empty list means the operation passed.  Only numpy is used here."""

from __future__ import annotations

import json

import numpy as np

UNIT_ROUNDOFF = float(np.finfo(float).eps)


def check_trace(p: dict, xs: np.ndarray, ts: np.ndarray, final_bound: float) -> list[str]:
    """The properties every solved trace must have, from its raw arrays."""
    errs = []
    lam, d, eps = p["lam"], p["d"], p["eps"]
    n = xs.shape[0] - 1
    if xs.shape != (n + 1, p["x0"].size) or ts.shape != (n + 1,):
        return [f"trace arrays have shapes {xs.shape} and {ts.shape}"]
    if not np.array_equal(xs[0], p["x0"]):
        errs.append("row 0 is not x0")

    if p["rule"] == "apriori":
        if n != p["n_expected"]:
            errs.append(f"N = {n}, the a-priori count is {p['n_expected']}")
    elif d > 0.0:
        steps = np.linalg.norm(np.diff(xs[-3:], axis=0), axis=1)
        stop = (lam / (1.0 - lam)) * steps
        if n < 1 or not stop[-1] <= eps:
            errs.append(f"a-posteriori stop test fails at N = {n}")
        elif n >= 2 and stop[-2] <= eps:
            errs.append(f"a-posteriori stop test already held at N - 1 = {n - 1}")

    t_closed = d * (1.0 - lam**n) / (1.0 - lam)
    t_tol = 16.0 * UNIT_ROUNDOFF * max(1.0, d / (1.0 - lam)) / (1.0 - lam)
    if not abs(ts[-1] - t_closed) <= t_tol:
        errs.append(f"t^N = {ts[-1]!r}, closed form gives {t_closed!r}")

    own_bound = lam**n * d / (1.0 - lam)
    if not abs(final_bound - own_bound) <= 1e-12 * own_bound + t_tol:
        errs.append(f"reported bound {final_bound!r}, lam^N d / (1 - lam) = {own_bound!r}")

    if n:
        mono = np.diff(ts) - np.linalg.norm(np.diff(xs, axis=0), axis=1)
        worst = int(np.argmin(mono))
        if not mono[worst] >= -p["slack"]:
            errs.append(f"monotonicity fails at step {worst}: residual {mono[worst]:.3e}")

    err = float(np.linalg.norm(xs[-1] - p["x_ref"]))
    if not err <= final_bound + p["slack"]:
        errs.append(f"||x_N - x_ref|| = {err:.3e} exceeds bound {final_bound:.3e} + slack")
    return errs


def expected_stop(p: dict) -> str:
    return "exact_fixed_point" if p["d"] == 0.0 else p["rule"]


def check_library(p: dict, trace, cert) -> list[str]:
    errs = check_trace(p, np.asarray(trace.xs), np.asarray(trace.ts), trace.final_bound())
    reason = trace.stop_reason.value if trace.stop_reason else None
    if reason != expected_stop(p):
        errs.append(f"stop reason {reason}, expected {expected_stop(p)}")
    if not cert.passed:
        errs.append(f"certificate failed: {cert.first_failure}")
    return errs


def read_trace(path: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != m + 5 or header[:2] != ["n", "x_0"]:
            raise ValueError(f"unexpected trace header {header}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return rows[:, 1 : 1 + m], rows[:, 1 + m]


def check_cli(p: dict, solve_rc: int, certify_rc: int | None, trace_path: str,
              cert_path: str) -> list[str]:
    if solve_rc != 0:
        return [f"solve exited {solve_rc}"]
    if certify_rc != 0:
        return [f"certify exited {certify_rc}"]
    with open(cert_path) as fh:
        cert = json.load(fh)
    errs = []
    if cert["verdict"] != "pass":
        errs.append(f"verdict {cert['verdict']}: {cert['first_failure']}")
    xs, ts = read_trace(trace_path, p["x0"].size)
    if xs.shape[0] != cert["n_steps"] + 1:
        errs.append(f"trace has {xs.shape[0]} rows for N = {cert['n_steps']}")
        return errs
    errs += check_trace(p, xs, ts, cert["stop_bound"])
    gap = float(np.linalg.norm(np.asarray(cert["limit_point"]["x"]) - p["x_ref"]))
    if not gap <= cert["stop_bound"] + p["slack"]:
        errs.append(f"limit point is {gap:.3e} from x_ref, stop_bound {cert['stop_bound']:.3e}")
    return errs


def check_refused(certify_rc: int | None, cert_path: str) -> list[str]:
    """A tampered trace must be refused: non-zero exit and no passing certificate."""
    errs = []
    if certify_rc == 0:
        errs.append("certify of a tampered trace exited 0")
    try:
        with open(cert_path) as fh:
            verdict = json.load(fh).get("verdict")
    except FileNotFoundError:
        verdict = None
    if verdict == "pass":
        errs.append("certify of a tampered trace wrote a passing certificate")
    return errs

