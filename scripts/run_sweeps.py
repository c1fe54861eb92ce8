#!/usr/bin/env python3
"""Run every registered theorem sweep and print one JSON report per line.

Usage: run_sweeps.py [--max-n N] [--timing]
"""

import argparse
import sys

from metricdim.enumerator import THEOREM_CHECKS, sweep
from metricdim.graph_core import GraphInputError, SizeLimitError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--timing", action="store_true", help="include elapsed_ms and enumerate_ms (breaks byte determinism)")
    args = parser.parse_args()

    worst = 0
    for theorem_id in sorted(THEOREM_CHECKS):
        try:
            report = sweep(theorem_id, args.max_n)
        except (GraphInputError, SizeLimitError) as exc:
            parser.error(str(exc))  # exit 2: the range is unusable
        print(report.to_json(include_timing=args.timing))
        print(report.summary_line(), file=sys.stderr)
        if not report.passed:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
