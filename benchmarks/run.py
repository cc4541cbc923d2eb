"""Benchmark of cone-fixpoint: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload long_scalar --seed 1 --seconds 20 --trace 0

The inputs and their reference values are generated here from the seed.
Each workload then runs in fresh single-threaded interpreters (worker.py):
SETUP_PROBES processes that only set up, for the median set-up time, and one
that also runs the timed closed loop.  With ``--trace 0`` the result carries
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--tiny`` shrinks every problem for the
smoke test.  The last line of standard output is the result; a summary goes
to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4
MIN_OPS = 100
# Every run must end well within 180 s.
DEADLINE_SECONDS = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("CONE_FIXPOINT_TOL", None)
    return env


def start_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker process to its end; return its spawn time and result."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=worker_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(times: list[float], setups: list[float], rss_kib: int) -> dict:
    values = {
        "setup_s": ("s", statistics.median(setups)),
        "ops_per_s": ("1/s", len(times) / sum(times)),
        "op_p50_s": ("s", float(np.percentile(times, 50))),
        "op_p90_s": ("s", float(np.percentile(times, 90))),
        "peak_rss_mib": ("MiB", rss_kib / 1024.0),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()}


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("long_scalar", "wide_affine", "cli_roundtrip"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny problems, one round, one probe")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cone_fixpoint" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    deadline = started + DEADLINE_SECONDS
    try:
        inputs = gen.generate(args.workload, args.seed, args.tiny, work)
        inputs_path = work / "inputs.pkl"
        work.mkdir(parents=True, exist_ok=True)
        with open(inputs_path, "wb") as fh:
            pickle.dump(inputs, fh)

        setups = []
        for i in range(1 if args.tiny else SETUP_PROBES):
            spawned, probe = start_worker(
                [str(inputs_path), "--work-dir", str(work / f"probe-{i}"), "--setup-only"], deadline)
            setups.append(probe["ready"] - spawned)
        spawned, result = start_worker(
            [str(inputs_path), "--work-dir", str(work / "main"), "--seconds", str(args.seconds),
             "--min-ops", "1" if args.tiny else str(MIN_OPS), "--trace", str(args.trace)],
            deadline)
        setups.append(result["ready"] - spawned)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = result["op_times"]
    ops_per_s = len(times) / sum(times)
    for fault, message in result["messages"].items():
        print(f"{fault}: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(times)} ops, {result['failed']} failed, "
          f"{ops_per_s:.4g} ops/s{' (traced)' if args.trace else ''}", file=sys.stderr)
    metrics = result["layers"] if args.trace else end_to_end(times, setups, result["peak_rss_kib"])
    print(json.dumps({
        "correct": result["unexpected"] == 0 and not result["warmup_errors"],
        "attempted": len(times),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
