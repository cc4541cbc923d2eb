"""Reference figures for README.md: one untraced and one traced run of every
workload, printed as Markdown tables.

    python3 benchmarks/report.py --seed 1

The tracing overhead is the drop in ops_per_s from the untraced run to the
traced one; run.py prints each run's rate on its last line of standard error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RATE = re.compile(r"([0-9.e+-]+) ops/s")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    rate = float(RATE.search(proc.stderr.strip().splitlines()[-1]).group(1))
    return json.loads(proc.stdout.strip().splitlines()[-1]), rate


def table(names: list[str], units: dict, results: dict) -> list[str]:
    lines = ["| metric | unit | " + " | ".join(results) + " |",
             "|---|---|" + "---:|" * len(results)]
    for name in names:
        cells = [f"{r['metrics'][name]['value']:.4g}" for r in results.values()]
        lines.append(f"| `{name}` | {units[name]} | " + " | ".join(cells) + " |")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()

    plain, traced, lines = {}, {}, []
    for w in (w["name"] for w in SPEC["workloads"]):
        plain[w], rate = run(w, args.seed, args.seconds, 0)
        traced[w], traced_rate = run(w, args.seed, args.seconds, 1)
        lines.append(f"| {w} | {plain[w]['attempted']} ({plain[w]['failed']} failed) | "
                     f"{traced[w]['attempted']} ({traced[w]['failed']} failed) | {rate:.4g} | "
                     f"{traced_rate:.4g} | {1.0 - traced_rate / rate:.1%} |")

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    out = table([m["name"] for m in SPEC["end_to_end"]], units, plain) + [""]
    out += table([m["name"] for m in SPEC["per_layer"]], units, traced) + [""]
    out += ["| workload | ops untraced | ops traced | ops/s untraced | ops/s traced | overhead |",
            "|---|---:|---:|---:|---:|---:|"] + lines
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
