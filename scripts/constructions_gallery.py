#!/usr/bin/env python3
"""Generate every extremal family member in range, verify its certificate,
and print one summary line each, then its graph6 string.  A certificate
that does not re-check is reported with its witness rather than hidden.

    PYTHONPATH=src python3 scripts/constructions_gallery.py
"""

import sys

from metricdim.constructions import (
    edim_biclique,
    edim_star,
    grid,
    grid_edge_landmarks,
    md_biclique,
    md_complete,
    md_star,
)
from metricdim.graph_core import graph6_encode
from metricdim.metric import is_edge_resolving, is_vertex_resolving

GRIDS = [[2, 2], [2, 3], [3, 4], [4, 4], [5, 5], [7, 8], [2, 2, 2], [2, 3, 4], [3, 3, 3], [2, 2, 2, 2]]


def report(name, graph, landmarks, kind, extra=""):
    checker = is_vertex_resolving if kind == "vertex" else is_edge_resolving
    ok, witness = checker(graph, landmarks)
    verdict = "resolves" if ok else f"FAILS (witness {witness.a} ~ {witness.b})"
    print(f"{name}: n={graph.n} m={graph.num_edges} landmarks={list(landmarks)} {verdict} {extra}")
    print(f"    graph6: {graph6_encode(graph)}")


def main() -> int:
    for k in range(1, 6):
        out = md_complete(k)
        report(f"md-complete k={k}", out.graph, out.landmarks, "vertex")
    for k in range(1, 6):
        out = edim_star(k)
        report(f"edim-star k={k}", out.graph, out.landmarks, "edge")
    for k in range(1, 4):
        out = md_star(k)
        report(f"md-star k={k}", out.graph, out.landmarks, "vertex", extra=f"deleted={list(out.deleted)}")
    for k in range(2, 8):
        out = md_biclique(k)
        report(f"md-biclique k={k}", out.graph, out.landmarks, "vertex")
        out = edim_biclique(k)
        report(f"edim-biclique k={k}", out.graph, out.landmarks, "edge")
    for dims in GRIDS:
        G = grid(dims)
        report(f"grid {'x'.join(map(str, dims))}", G, grid_edge_landmarks(dims), "edge")
    return 0


if __name__ == "__main__":
    sys.exit(main())
