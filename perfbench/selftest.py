#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, through the same
code as run.py, and checks that every metric BENCHMARK.json names is
printed with its unit, that the count metrics repeat exactly across runs
and across 1 and 2 sweep workers, that corrupted outputs (a basis that
does not resolve, a wrong audit value, an altered sweep report) count as
failed requests, and that a known-defect request failing for another
reason than the recorded one is not accepted.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from tracer import COUNT_METRICS

TINY = {
    "sweep-n7": {"max_n": 5, "workers": 2},
    "audit-mid": {"graphs": 14},
    "solve-large": {"n_min": 16, "n_max": 17, "per_n": 1},
}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def check_printed(workload: str, trace: bool, declared: list[dict], size: dict) -> dict:
    lines: list[str] = []
    result = run.run(workload, 0, 1, trace, size=size, echo=lines.append)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={int(trace)}: result has exactly the four keys")
    expect(result["correct"] and result["attempted"] >= 1,
           f"{workload} trace={int(trace)}: correct, {result['failed']}/{result['attempted']} failed")
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"{workload} trace={int(trace)}: reports exactly the declared metrics")
    for m in declared:
        got = metrics.get(m["name"], {})
        printed = any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                      for line in lines)
        if got.get("unit") != m["unit"] or not printed:
            expect(False, f"{workload}: {m['name']} printed with unit {m['unit']}")
    return result


def non_resolving_set(request: dict, size: int) -> list[int]:
    """The lexicographically first vertex set of the given size that does
    not resolve the request's graph: a basis of the right shape that the
    checker must reject."""
    from itertools import combinations

    from metricdim import graph_core, metric

    G = graph_core.graph6_decode(request["graph6"])
    checker = metric.is_vertex_resolving if request["solve"] == "dim" else metric.is_edge_resolving
    return list(next(S for S in combinations(range(G.n), size) if not checker(G, S)[0]))


def check_corruption() -> None:
    """Corrupt one output of each workload and check it counts as failed."""
    sys.path.insert(0, str(run.ROOT / "src"))
    for workload, size in TINY.items():
        requests = workloads.make_inputs(workload, 0, size)
        result = workloads.run_pass(workload, requests, size)
        result["verdict"] = workloads.verify(workload, requests, result, None)
        _, clean_failed = run.failed_requests([result])
        outputs = result["outputs"]
        if workload == "sweep-n7":
            report = json.loads(outputs[0])
            report["counts_by_n"]["5"] -= 1
            outputs[0] = json.dumps(report, sort_keys=True)
            what = "an altered sweep report"
        elif workload == "audit-mid":
            outputs[0]["dim"] += 1
            what = "a wrong audit dim value"
        else:
            i = next(i for i, r in enumerate(requests) if r["kind"] == "solve")
            payload = json.loads(outputs[i]["stdout"])
            payload["basis"] = non_resolving_set(requests[i], payload["value"])
            outputs[i]["stdout"] = json.dumps(payload, sort_keys=True)
            what = "a corrupted basis"
        result["verdict"] = workloads.verify(workload, requests, result, None)
        _, failed = run.failed_requests([result])
        expect(failed == clean_failed + 1, f"{workload}: {what} counts as failed")
        if workload == "solve-large":
            i = next(i for i, r in enumerate(requests) if r["name"] == "construct md-star k=2 --check")
            outputs[i]["code"] = 2
            result["verdict"] = workloads.verify(workload, requests, result, None)
            failures, _ = run.failed_requests([result])
            expect(not all(workloads.known_failure(*f) for f in failures),
                   "solve-large: a known-defect request failing for another reason is not accepted")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for workload, size in TINY.items():
        check_printed(workload, False, bench["end_to_end"], size)
        first = check_printed(workload, True, bench["per_layer"], size)
        again = run.run(workload, 0, 1, True, size=size, echo=lambda line: None)
        counts = {n: first["metrics"][n]["value"] for n in COUNT_METRICS}
        expect(counts == {n: again["metrics"][n]["value"] for n in COUNT_METRICS},
               f"{workload}: count metrics repeat exactly across runs")
        if workload == "sweep-n7":
            one = run.run(workload, 0, 1, True, size=dict(size, workers=1), echo=lambda line: None)
            expect(counts == {n: one["metrics"][n]["value"] for n in COUNT_METRICS},
                   "sweep-n7: count metrics agree at 1 and 2 workers")
    check_corruption()
    print(f"{len(problems)} problems" if problems else "all checks hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
