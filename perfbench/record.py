#!/usr/bin/env python3
"""Record the outputs the benchmark checks runs against.

    python3 perfbench/record.py --commit REV

For every workload at full size on seed 0 it runs one plain and two traced
passes and writes perfbench/expected.json: the sha256 of each sweep's JSON
line, the sha256 of the (graph6, value, basis) fingerprint, and the
deterministic per-layer counts.  The two traced sweep-n7 passes use 1 and 2
workers, and their counts must agree.  Record again only when a change is
meant to alter those outputs or counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import run
import workloads
from tracer import COUNT_METRICS

SEED = 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="revision whose outputs are recorded")
    args = parser.parse_args()
    run.TRACE_DIR.mkdir(exist_ok=True)
    record = {"commit": args.commit}
    for workload in run.WORKLOADS:
        size = workloads.FULL_SIZE[workload]
        job = {"workload": workload, "size": size, "expected": None,
               "requests": workloads.make_inputs(workload, SEED, size)}
        plain = run.spawn(dict(job, mode="plain", verify=True))[1]
        unknown = [f for f in plain["verdict"]["failures"] if not workloads.known_failure(*f)]
        if unknown:
            print(f"{workload}: refusing to record failing outputs: {unknown}", file=sys.stderr)
            return 1
        trace_path = str(run.TRACE_DIR / f"record-{workload}.json")
        counts = []
        for workers in ((1, 2) if workload == "sweep-n7" else (None, None)):
            traced_size = dict(size, workers=workers) if workers else size
            traced = run.spawn(dict(job, size=traced_size, mode="traced", verify=False,
                                    trace_path=trace_path))[1]
            counts.append({name: traced["layers"][name] for name in COUNT_METRICS})
        if counts[0] != counts[1]:
            print(f"{workload}: counts differ between traced passes: {counts}", file=sys.stderr)
            return 1
        entry = {"fingerprint_sha256": plain["verdict"]["fingerprint_sha256"],
                 "counts": counts[0]}
        if workload == "sweep-n7":
            entry["line_sha256"] = {name: hashlib.sha256(line.encode()).hexdigest()
                                    for name, line in zip(plain["names"], plain["outputs"])}
        record[workload] = entry
        print(f"{workload}: recorded", flush=True)
    run.EXPECTED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
