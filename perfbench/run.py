#!/usr/bin/env python3
"""Benchmark of metricdim, measured from outside the program.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``
and needs nothing else.  Workloads (each pass: one client, closed loop):

  sweep-n7     every registered theorem sweep over all 994 connected graphs
               with 3..7 vertices, as scripts/run_sweeps.py runs them, with
               2 sweep workers; one request is all 15 sweeps
  audit-mid    300 connected graphs with 10..16 vertices; one request is
               graph6_decode + audit_graph + char_edim_n1 + char_edim_ge_n2
               + tuple_lemma_check(G, n - edim)
  solve-large  ``metricdim dim`` and ``edim`` through cli.main on 27 graphs
               with 16..24 vertices, then ``construct --check`` and the
               matching solve for every construction family member

Every pass runs all requests of the workload once in a fresh child
process; passes run one at a time.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it pairs plain and
traced passes and reports the per-layer metrics (see tracer.py).  Every
output is checked; the last line of stdout is one JSON object: correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import COUNT_METRICS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("sweep-n7", "audit-mid", "solve-large")
END_TO_END = [
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]
LAYER_METRICS = PER_LAYER + [("trace_overhead_ratio", "ratio")]

# A pass runs every request once in a fresh child; one pass of every
# workload takes about PASS_SECONDS on the reference machine.  A run makes a
# fixed number of passes, one at a time, set by --seconds alone, so a faster
# or slower program is measured with the same estimator.  Timings are each
# request's median over the run's plain passes.  The shared 2-vCPU reference
# machine runs pure Python up to 45% slower for seconds to a minute at a
# time, and spends most of its time in that slower state: a request's median
# lands in the usual state, whose sum over audit-mid moved 4% (IQR/median)
# between runs, while its fastest depended on catching rare fast windows
# and moved 17%.
PASS_SECONDS = 5
MIN_PASSES = 2
# Set-up-only spawns per untraced run, one at a time.
SETUP_SPAWNS = 9
# The tail is the highest of these percentiles with at least TAIL_BEYOND
# samples above it (p50 when there are too few samples for any).
PERCENTILES = (50, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def spawn(job: dict) -> tuple[float, dict | None]:
    """Run one child; return its set-up time and its pass (None for a
    set-up-only job)."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if ready != "ready\n":
                proc.kill()
                proc.wait()
                raise BenchError("the child could not import metricdim from src/")
            out, _ = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"a {job['workload']} pass ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"a {job['workload']} child exited with {proc.returncode}")
    return setup_s, (json.loads(out) if job["mode"] != "setup" else None)


def percentile(ordered: list, p: float):
    """Nearest-rank percentile of sorted values, and how many lie above it."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered: list):
    """(percentile, value, samples beyond) of the latency tail."""
    best = (50, *percentile(ordered, 50))
    for p in PERCENTILES:
        value, beyond = percentile(ordered, p)
        if beyond >= TAIL_BEYOND:
            best = (p, value, beyond)
    return best


def expected_for(workload: str, size: dict) -> dict | None:
    """What was recorded at the seed commit for these inputs, if anything
    (every seed runs the same graphs, only in another order)."""
    if size != workloads.FULL_SIZE[workload] or not EXPECTED_PATH.exists():
        return None
    return json.loads(EXPECTED_PATH.read_text()).get(workload)


def failed_requests(passes: list) -> tuple[list, int]:
    """Failures of every pass as [name, reason], and the failed count over
    all passes.  Only the first pass is checked in full; a later pass fails
    where its output differs from the first, and wherever the first failed."""
    first = passes[0]
    listed = list(first["verdict"]["failures"])
    per_pass = {name for name, _ in listed if name != "fingerprint"}
    failed = len(per_pass)
    for i, other in enumerate(passes[1:], 2):
        differ = {name for name, a, b in zip(other["names"], first["outputs"], other["outputs"])
                  if a != b}
        listed += [[name, f"pass {i} output differs from pass 1"] for name in sorted(differ)]
        failed += len(per_pass | differ)
    return listed, failed


def typical(passes: list) -> list:
    """Each request's median latency over the passes (requests that did not
    run are left out)."""
    per_request = zip(*(p["latencies"] for p in passes))
    return [statistics.median(times) for times in per_request if None not in times]


def run(workload: str, seed: int, seconds: float, trace: bool, size: dict | None = None,
        echo=print) -> dict:
    """One benchmark run; prints details with ``echo`` and returns the
    result object."""
    size = size or workloads.FULL_SIZE[workload]
    expected = expected_for(workload, size)
    job = {"workload": workload, "size": size, "expected": expected,
           "requests": workloads.make_inputs(workload, seed, size)}
    trace_path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
    spawn(dict(job, mode="setup"))  # writes the bytecode caches before any timing

    setups = []
    if not trace:
        for _ in range(SETUP_SPAWNS):
            setups.append(spawn(dict(job, mode="setup"))[0])
    # a traced run makes each round one plain and one traced pass, so drift
    # of the machine hits both alike
    kinds = ["plain", "traced"] if trace else ["plain"]
    plain, traced = [], []
    for _ in range(max(MIN_PASSES, round(seconds / PASS_SECONDS))):
        for kind in kinds:
            result = spawn(dict(job, mode=kind, verify=not plain and kind == "plain",
                                trace_path=str(trace_path)))[1]
            (plain if kind == "plain" else traced).append(result)

    passes = plain + traced
    failures, failed = failed_requests(passes)
    attempted = sum(len(p["names"]) for p in passes)
    correct = all(workloads.known_failure(name, reason) for name, reason in failures)
    latencies = typical(plain)
    wall_s = sum(latencies)
    ordered = sorted(latencies)
    p50, _ = percentile(ordered, 50)
    tail_p, tail_v, beyond = tail(ordered)

    echo(f"# metricdim benchmark  workload={workload} seed={seed} passes={len(plain)}"
         f" trace={int(trace)}  python={platform.python_version()} nproc={os.cpu_count()}"
         f" src_lines={src_lines()}")
    echo(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for name, reason in failures:
        known = " (known defect)" if workloads.known_failure(name, reason) else ""
        echo(f"# failed: {name}: {reason}{known}")
    echo(f"# fingerprint sha256 {plain[0]['verdict']['fingerprint_sha256']}"
         f" ({'checked against the record' if expected else 'no record for these inputs'})")
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in plain)
    echo(f"# latency tail is p{tail_p:g}: {beyond} of {len(ordered)} requests beyond it;"
         f" pass walls {walls} s")

    if trace:
        layers = [p["layers"] for p in traced]
        metrics = {}
        for name, unit in PER_LAYER:
            values = [layer[name] for layer in layers]
            metrics[name] = values[0] if unit != "s" else statistics.median(values)
        metrics["trace_overhead_ratio"] = sum(typical(traced)) / wall_s - 1
        units = dict(LAYER_METRICS)
        echo(f"# spans of the last traced pass written to {trace_path.relative_to(ROOT)}")
        unsteady = [n for n in COUNT_METRICS if len({layer[n] for layer in layers}) > 1]
        if unsteady:
            correct = False
            echo(f"# failed: counts differ between the traced passes: {unsteady}")
        else:
            echo(f"# counts repeat exactly over {len(layers)} traced passes")
        if expected and "counts" in expected:
            differ = [n for n in COUNT_METRICS if metrics[n] != expected["counts"][n]]
            echo(f"# counts differ from the record: {differ}" if differ
                 else "# counts repeat the record exactly")
    else:
        metrics = {
            "wall_s": wall_s,
            "latency_p50_ms": p50 * 1000,
            "latency_tail_ms": tail_v * 1000,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        echo(f"{name} {value} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metricdim" / "__init__.py").is_file():
        print(f"error: no metricdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
