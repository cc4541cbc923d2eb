"""One workload process: import the program, build the operations, warm up,
then run whole rounds of operations in a closed loop and print one JSON line.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
``--setup-only`` stops after the warm-up; run.py uses such processes to take
the median set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cone_fixpoint  # noqa: E402
from cone_fixpoint import certificate, cli, contraction, engine  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# Stop a run that has not reached its minimum operation count by then.
HARD_CAP_SECONDS = 120.0


def make_spec(p: dict):
    kind = p["kind"]
    if kind == "affine":
        return contraction.Affine(a=p["a"], b=p["b"], lam=p["lam"])
    if kind == "rotation":
        return contraction.ScaledRotation(theta=p["theta"], scale=p["scale"], b=p["b"], lam=p["lam"])
    if kind == "kepler":
        return contraction.KeplerScalar(e=p["e"], mean_anomaly=p["M"], lam=p["lam"])
    return contraction.Constant(c=p["c"], lam=p["lam"])


class LibraryOp:
    """validate_contraction -> run -> verify_certificate, in memory."""

    def __init__(self, p: dict):
        self.p = p
        self.known_fault = None
        self.spec = make_spec(p)
        rule = engine.APriori if p["rule"] == "apriori" else engine.APosteriori
        self.rule = rule(p["eps"])

    def run(self):
        start = time.perf_counter()
        contraction.validate_contraction(self.spec)
        trace = engine.run(self.spec, self.p["x0"], self.rule)
        cert = certificate.verify_certificate(trace)
        return time.perf_counter() - start, (trace, cert)

    def check(self, out) -> list[str]:
        return checks.check_library(self.p, *out)


class CliOp:
    """cli.main(["solve", ...]) then cli.main(["certify", ..., "--verify", ...]),
    in-process.  Only the two calls are timed."""

    def __init__(self, p: dict, entries: dict, work_dir: Path, index: int, sink):
        self.p = p
        self.known_fault = p.get("known_fault")
        self.entries = entries
        self.sink = sink
        self.trace_path = str(work_dir / f"trace-{index:02d}.csv")
        self.cert_path = str(work_dir / f"cert-{index:02d}.json")
        if "builtin" in p:
            source = ["--builtin", p["builtin"]]
            run_args = ["--rule", p["rule"], "--eps", repr(p["eps"])]
        else:
            source, run_args = ["--problem", p["file"]], []
        self.solve_argv = ["solve", *source, *run_args, "--out", self.trace_path]
        self.certify_argv = ["certify", *source, "--verify", self.trace_path, "--out", self.cert_path]

    def _tamper(self):
        """Put nan into the x column of the middle row of the trace."""
        with open(self.trace_path) as fh:
            lines = fh.read().splitlines()
        row = 1 + (len(lines) - 1) // 2
        cells = lines[row].split(",")
        cells[1] = "nan"
        lines[row] = ",".join(cells)
        with open(self.trace_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def run(self):
        for path in (self.trace_path, self.cert_path):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        errors = io.StringIO()
        certify_rc, elapsed = None, 0.0
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(errors):
            start = time.perf_counter()
            solve_rc = self.entries["solve"](self.solve_argv)
            elapsed += time.perf_counter() - start
            if solve_rc == 0:
                if self.known_fault == "nan_trace":
                    self._tamper()
                start = time.perf_counter()
                certify_rc = self.entries["certify"](self.certify_argv)
                elapsed += time.perf_counter() - start
        return elapsed, (solve_rc, certify_rc, errors.getvalue())

    def check(self, out) -> list[str]:
        solve_rc, certify_rc, stderr = out
        if self.known_fault == "nan_trace":
            errs = [f"solve exited {solve_rc}"] if solve_rc != 0 else \
                checks.check_refused(certify_rc, self.cert_path)
        else:
            errs = checks.check_cli(self.p, solve_rc, certify_rc, self.trace_path, self.cert_path)
        if errs and stderr.strip():
            errs.append("stderr: " + stderr.strip().splitlines()[-1])
        return errs


def build_ops(inputs: dict, work_dir: Path, entries: dict, sink):
    problems = inputs["problems"] + [inputs["warmup"]]
    if inputs["workload"] == "cli_roundtrip":
        ops = [CliOp(p, entries, work_dir, i, sink) for i, p in enumerate(problems)]
    else:
        ops = [LibraryOp(p) for p in problems]
    return ops[:-1], ops[-1]


def measure(ops, seconds: float, min_ops: int) -> dict:
    """Closed loop over whole rounds of ``ops`` until ``seconds`` have passed
    and at least ``min_ops`` operations were attempted.  A failed check or an
    exception counts the operation as failed; the run goes on."""
    times, failed, unexpected, messages = [], 0, 0, {}
    start = time.perf_counter()
    while True:
        for op in ops:
            began = time.perf_counter()
            try:
                elapsed, out = op.run()
                errs = op.check(out)
            except Exception:
                elapsed = time.perf_counter() - began
                errs = [traceback.format_exc(limit=3)]
            times.append(elapsed)
            if errs:
                failed += 1
                unexpected += op.known_fault is None
                key = op.known_fault or "unexpected"
                messages.setdefault(key, "; ".join(errs))
        spent = time.perf_counter() - start
        if (spent >= seconds and len(times) >= min_ops) or spent >= HARD_CAP_SECONDS:
            break
    return {"op_times": times, "failed": failed, "unexpected": unexpected, "messages": messages}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("inputs", help="pickled inputs written by run.py")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if Path(cone_fixpoint.__file__).resolve().parent.parent != src.resolve():
        print(f"cone_fixpoint was imported from {cone_fixpoint.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with open(args.inputs, "rb") as fh:
        inputs = pickle.load(fh)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    entries = {"solve": cli.main, "certify": cli.main}
    with open(os.devnull, "w") as sink:
        ops, warmup = build_ops(inputs, work_dir, entries, sink)
        warmup_errs = warmup.check(warmup.run()[1])
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready, "warmup_errors": warmup_errs}))
            return 0
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(cone_fixpoint, entries)
        result = measure(ops, args.seconds, args.min_ops)
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, len(result["op_times"]))
    result["ready"] = ready
    result["warmup_errors"] = warmup_errs
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
