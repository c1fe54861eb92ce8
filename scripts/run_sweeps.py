#!/usr/bin/env python3
"""Run every registered theorem sweep in one pass over the classes and
print one JSON report per line.

Usage: run_sweeps.py [--max-n N] [--allow-large] [--timing]

With --timing, stderr also gets one line with the worker count, the wall
time of enumerating the levels below --max-n, and the wall time of the pass
that checks every class, with each worker's item count and time; stdout is
the same as without it.  An item is a class below --max-n, checked itself,
or a class with --max-n - 1 vertices, standing for its children.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from metricdim.enumerator import THEOREM_CHECKS, sweep_all  # noqa: E402
from metricdim.graph_core import GraphError, GraphInputError, SizeLimitError  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--allow-large", action="store_true", dest="allow_large",
                        help="allow --max-n 9 (261,080 classes; about 25 s on 2 CPUs)")
    parser.add_argument("--timing", action="store_true",
                        help="print the worker count and the time of each phase on stderr; "
                             "stdout is unchanged")
    args = parser.parse_args()

    try:
        reports = sweep_all(sorted(THEOREM_CHECKS), args.max_n, allow_large=args.allow_large)
    except (GraphInputError, SizeLimitError) as exc:
        parser.error(str(exc))  # exit 2: the range is unusable
    except GraphError as exc:  # a worker process failed
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 3
    for report in reports:
        print(report.to_json())
        print(report.summary_line(), file=sys.stderr)
    if args.timing:
        first = reports[0]
        shares = ", ".join(f"{items} items {ms:.1f} ms" for items, ms in first.shares)
        print(f"timing: {first.workers} workers, enumeration {first.enumerate_ms:.1f} ms, "
              f"pass {first.elapsed_ms - first.enumerate_ms:.1f} ms ({shares})", file=sys.stderr)
    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
