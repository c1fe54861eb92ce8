#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 0-9] [--trace 0|1] [--baseline REV]

For every metric it prints the median of the runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of
the median.  With ``--baseline REV`` it also stores the medians and
quartiles in perfbench/baseline.json under the workload's name, with the
revision measured, the seeds, nproc, the Python version and the ``src/``
line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="REV", help="record a baseline of revision REV")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    units = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(out, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()
                                          if args.trace == 0), flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name]}
        note = f"  bound {bound}, a third {bound / 3:.4f}" if bound else ""
        print(f"{name:45s} median {median:.6g} {units[name]:6s} spread {spread:.4f}{note}")

    if args.baseline:
        record = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        key = args.workload + (" traced" if args.trace else "")
        record[key] = {
            "commit": args.baseline,
            "seeds": args.seeds,
            "run_seconds": bench["run_seconds"],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
            "metrics": summary,
        }
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
