"""Smoke check of the benchmark at tiny sizes.  Gates on no timing.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import worker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and 0 <= result["failed"] < result["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert got["value"] > 0 if not trace else got["value"] >= 0


def _shift_last_x(trace):
    xs = np.array(trace.xs)
    xs[-1] += 1e-3
    return dataclasses.replace(trace, xs=xs)


def _shift_last_t(trace):
    ts = np.array(trace.ts)
    ts[-1] *= 1.0 + 1e-9
    return dataclasses.replace(trace, ts=ts)


def _drop_last_row(trace):
    return dataclasses.replace(trace, xs=trace.xs[:-1], ts=trace.ts[:-1])


class Tampered:
    """An operation whose trace output is altered after the program returns it."""

    def __init__(self, op, alter):
        self.op, self.alter, self.known_fault = op, alter, None

    def run(self):
        elapsed, (trace, cert) = self.op.run()
        return elapsed, (self.alter(trace), cert)

    def check(self, out):
        return self.op.check(out)


@pytest.mark.parametrize("alter", [_shift_last_x, _shift_last_t, _drop_last_row])
def test_wrong_output_counts_as_failed(alter):
    # long_scalar writes no files, so the work directory stays unused.
    inputs = gen.generate("long_scalar", seed=2, tiny=True, work_dir=HERE / ".work")
    ops, _ = worker.build_ops(inputs, HERE / ".work", {}, sink=None)
    clean = worker.measure(ops, seconds=0.0, min_ops=1)
    assert clean["failed"] == 0
    tampered = worker.measure([Tampered(ops[0], alter)] + ops[1:], seconds=0.0, min_ops=1)
    assert tampered["failed"] == 1 and tampered["unexpected"] == 1
    assert len(tampered["op_times"]) == len(ops)
