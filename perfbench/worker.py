"""One child process of the benchmark.

It imports ``metricdim`` and ``metricdim.cli`` from the checkout's ``src``
and prints ``ready``: the time from spawning it to that line is the
benchmark's set-up time.  It then reads one job as JSON from stdin, runs one
pass of the job's workload, optionally traced and optionally checked, and
prints the pass as one JSON line.  Every pass gets a fresh process because
the enumerator keeps its classes and per-graph stats in per-process caches.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    import metricdim
    import metricdim.cli  # noqa: F401  (part of the set-up being timed)

    if Path(metricdim.__file__).resolve().parent != SRC / "metricdim":
        print(f"metricdim was imported from {metricdim.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    job = json.loads(sys.stdin.read())
    if job["mode"] == "setup":
        return 0

    import workloads

    tracer = None
    if job["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = workloads.run_pass(job["workload"], job["requests"], job["size"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(job["trace_path"])
    if job["verify"]:
        result["verdict"] = workloads.verify(job["workload"], job["requests"], result, job["expected"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
