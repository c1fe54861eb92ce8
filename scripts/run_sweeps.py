#!/usr/bin/env python3
"""Run every registered theorem sweep in one pass over the classes and
print one JSON report per line.

Usage: run_sweeps.py [--max-n N] [--timing]
"""

import argparse
import sys

from metricdim.enumerator import THEOREM_CHECKS, sweep_all
from metricdim.graph_core import GraphInputError, SizeLimitError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--timing", action="store_true",
                        help="include elapsed_ms and enumerate_ms, the one pass's timings, in every "
                             "report (breaks byte determinism)")
    args = parser.parse_args()

    try:
        reports = sweep_all(sorted(THEOREM_CHECKS), args.max_n)
    except (GraphInputError, SizeLimitError) as exc:
        parser.error(str(exc))  # exit 2: the range is unusable
    for report in reports:
        print(report.to_json(include_timing=args.timing))
        print(report.summary_line(), file=sys.stderr)
    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
