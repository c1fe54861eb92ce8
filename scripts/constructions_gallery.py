#!/usr/bin/env python3
"""Generate every extremal family member in range, verify its certificate,
and print one summary line each, then its graph6 string.  A certificate
that does not re-check is reported with its witness rather than hidden.

    python3 scripts/constructions_gallery.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from metricdim.cli import CONSTRUCT_FAMILIES  # noqa: E402
from metricdim.graph_core import graph6_encode  # noqa: E402

GRIDS = [[2, 2], [2, 3], [3, 4], [4, 4], [5, 5], [7, 8], [2, 2, 2], [2, 3, 4], [3, 3, 3], [2, 2, 2, 2]]


def report(family, param, name, show_deleted=False):
    """Build one member with the CLI's family table and check it with the
    resolving check the table names for the family."""
    maker, _, check = CONSTRUCT_FAMILIES[family]
    out = maker(param)
    ok, witness = check(out.graph, out.landmarks)
    verdict = "resolves" if ok else f"FAILS (witness {witness.a} ~ {witness.b})"
    extra = f"deleted={list(out.deleted)}" if show_deleted else ""
    print(f"{family} {name}: n={out.graph.n} m={out.graph.num_edges} landmarks={list(out.landmarks)} {verdict} {extra}")
    print(f"    graph6: {graph6_encode(out.graph)}")


def main() -> int:
    for k in range(1, 6):
        report("md-complete", k, f"k={k}")
    for k in range(1, 6):
        report("edim-star", k, f"k={k}")
    for k in range(1, 4):
        report("md-star", k, f"k={k}", show_deleted=True)
    for k in range(2, 8):
        report("md-biclique", k, f"k={k}")
        report("edim-biclique", k, f"k={k}")
    for dims in GRIDS:
        report("grid", dims, "x".join(map(str, dims)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
