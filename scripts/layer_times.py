#!/usr/bin/env python3
"""Per-layer solver and record timings on every connected class of one size.

    python3 scripts/layer_times.py [--n 8]

Prints one JSON line: for each layer, the best of 5 passes over the
classes, in microseconds per class.  Each repeat runs every layer once, in
turn, so drift of the host's speed reaches all layers alike instead of
landing between them.  The layers are a cold build of the class lists of
sizes 1..n (the enumerator's cache cleared first; per class of size n),
the graph6 decoder over the class strings, the canonical labelling into
graph6, the all-pairs BFS, the two instance builders, and on both
instances of every class the greedy upper bound, the superset reduction
and the whole hitting-set solve; then the two front
ends, build and solve together; then the record layers a sweep pays per
class: the two characterization predicates, the
tuple lemma at k = n - edim, the largest clique, the chromatic number and
the degeneracy; last the two resolving checks, each on the class's solved
basis, which run BFS from that basis alone.  ``record_layers`` is the sum of
the layers the per-class record pays for: RECORD_LAYERS below, each timed
over all classes on its own.  ``record_fill_us`` times the record phase as a
sweep worker runs it, in microseconds per class: a fresh record per class
string, filled field by field ``enumerator._CHUNK`` records at a time
(``GraphRecord.fill``), both solves included.
Each graph's distances, both solved bases and each instance's columns are
computed once before timing, so the layers that only read them do not pay
for them.
n runs from 3, the smallest swept size, to 8; the default,
n = 8, is 11,117 classes; standard library only.

The classes all take the subset lattice (at most 16 vertices), so
``pool_us_per_instance`` times the branch-and-bound layers past it as the
search runs them: the column transpose of the instance's masks (the lattice
reads no columns), the superset reduction, the greedy upper bound over the
families the reduction keeps and the whole hitting-set solve on both
instances of each graph of POOL, a fixed set of seeded random connected
graphs with 17 to 20 vertices, in microseconds per instance;
``pool_nodes_explored``, the sum of the pool solves' ``nodes_explored``,
is deterministic.
``lattice_us_per_instance`` times the whole hitting-set solve on both
instances of each graph of LATTICE_POOL, seeded random connected graphs
with 10 to 16 vertices: the lattice at the universes no class reaches.
Both pools run in the same repeats as the class layers.

The cold start is measured apart, in IMPORT_SPAWNS fresh interpreters, each
run with PYTHONDONTWRITEBYTECODE=1 as the benchmark's children are:
``import_ms`` is the median time of ``import metricdim, metricdim.cli`` in
milliseconds, and ``import_peak_rss_mb`` the median of each child's peak
RSS (``ru_maxrss``) just after it.  Cached bytecode under ``src/`` makes
both read low, so ``import_bytecode_cached`` says whether ``src/`` held a
``__pycache__``; this script writes none itself.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True  # the cold-start children must find no cache this process left

from metricdim import characterizations, enumerator, graph_core, metric, solver  # noqa: E402
from metricdim.bounds import GraphRecord  # noqa: E402
from metricdim.enumerator import SWEEP_N_MIN, enumerate_connected  # noqa: E402
from metricdim.graph_core import GraphInputError, SizeLimitError, from_edge_list, is_connected  # noqa: E402

REPEATS = 5
# (vertices, edge probability) of each pool graph, the graph of index i drawn
# from random.Random(i): G(n, p) until connected
POOL = [(17 + i % 4, 0.15 if i % 2 else 0.45) for i in range(8)]
LATTICE_POOL = [(10 + i % 7, 0.25 if i % 2 else 0.6) for i in range(14)]
IMPORT_SPAWNS = 9
# argv[1]: the src directory; prints the import's milliseconds and the peak RSS in KiB after it
IMPORT_PROBE = ("import resource, sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "import metricdim, metricdim.cli; "
                "print((time.perf_counter() - start) * 1e3, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
RECORD_LAYERS = ("graph6_decode", "bfs", "char_edim_n1", "char_edim_ge_n2", "tuple_lemma_check",
                 "max_clique", "chromatic_number", "degeneracy")


def best_s(layers: dict) -> dict:
    """Seconds of each layer's fastest of REPEATS passes of fn over args;
    every repeat runs each (fn, args) layer once, in turn."""
    best = dict.fromkeys(layers, float("inf"))
    for _ in range(REPEATS):
        for name, (fn, args) in layers.items():
            start = perf_counter()
            for arg in args:
                fn(arg)
            best[name] = min(best[name], perf_counter() - start)
    return best


def both_instances(graphs) -> list:
    return [build(G) for G in graphs for build in (solver.build_vertex_instance, solver.build_edge_instance)]


def reduction(inst):
    return solver._minimal_families(inst.masks, inst.columns)


def pool_graphs(pool) -> list:
    graphs = []
    for seed, (n, p) in enumerate(pool):
        rng = random.Random(seed)
        while True:
            G = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            if is_connected(G):
                break
        graphs.append(G)
    return graphs


def record_fill(strings) -> None:
    for i in range(0, len(strings), enumerator._CHUNK):
        GraphRecord.fill([GraphRecord(graph_core.graph6_decode(s)) for s in strings[i:i + enumerator._CHUNK]])


def cold_import() -> dict:
    """The median import time and peak RSS over IMPORT_SPAWNS fresh children."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = [subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout.split() for _ in range(IMPORT_SPAWNS)]
    return {"import_ms": round(statistics.median(float(ms) for ms, _ in samples), 2),
            "import_peak_rss_mb": round(statistics.median(int(kib) / 1024 for _, kib in samples), 2),
            "import_bytecode_cached": any(SRC.rglob("__pycache__"))}


def cold_classes(n: int) -> None:
    """Build the class lists of sizes 1..n from nothing."""
    enumerator._connected_classes.cache_clear()
    enumerator._connected_classes(n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=8)
    args = parser.parse_args()

    if args.n < SWEEP_N_MIN:
        parser.error(f"the record layers need n >= {SWEEP_N_MIN}, got n={args.n}")
    try:
        graphs = enumerate_connected(args.n)
    except (GraphInputError, SizeLimitError) as exc:
        parser.error(str(exc))  # exit 2: no such class list
    for G in graphs:
        G.distances  # computed once, outside the timed layers
    instances, pool = both_instances(graphs), both_instances(pool_graphs(POOL))
    lattice = both_instances(pool_graphs(LATTICE_POOL))
    # the pool's reduced instances, on which the search runs the greedy bound
    reduced = [solver.DistinguisherInstance(inst.kind, inst.universe, tuple(reduction(inst)[0])) for inst in pool]
    for inst in instances + pool + reduced:
        inst.columns  # read by the greedy bound and the reduction
    vertex_checks = [(G, solver.metric_dimension(G).basis) for G in graphs]
    edge_checks = [(G, solver.edge_metric_dimension(G).basis) for G in graphs]
    lemma_args = [(G, G.n - len(basis)) for G, basis in edge_checks]
    strings = [graph_core.graph6_encode(G) for G in graphs]
    pool_layers = {
        "_transpose": (lambda inst: solver._transpose(inst.masks, inst.universe), pool),
        "_minimal_families": (reduction, pool),
        "greedy_upper_bound": (solver.greedy_upper_bound, reduced),
        "min_hitting_set": (solver.min_hitting_set, pool),
    }
    layers = {
        "enumerate": (cold_classes, [args.n]),
        "graph6_decode": (graph_core.graph6_decode, strings),
        "canonical_graph6": (enumerator.canonical_graph6, graphs),
        "bfs": (graph_core.bfs_all_pairs, graphs),
        "build_vertex_instance": (solver.build_vertex_instance, graphs),
        "build_edge_instance": (solver.build_edge_instance, graphs),
        "greedy_upper_bound": (solver.greedy_upper_bound, instances),
        "_minimal_families": (reduction, instances),
        "min_hitting_set": (solver.min_hitting_set, instances),
        "metric_dimension": (solver.metric_dimension, graphs),
        "edge_metric_dimension": (solver.edge_metric_dimension, graphs),
        "char_edim_n1": (characterizations.char_edim_n1, graphs),
        "char_edim_ge_n2": (characterizations.char_edim_ge_n2, graphs),
        "tuple_lemma_check": (lambda arg: characterizations.tuple_lemma_check(*arg), lemma_args),
        "max_clique": (graph_core.max_clique, graphs),
        "chromatic_number": (graph_core.chromatic_number, graphs),
        "degeneracy": (graph_core.degeneracy, graphs),
        "is_vertex_resolving": (lambda arg: metric.is_vertex_resolving(*arg), vertex_checks),
        "is_edge_resolving": (lambda arg: metric.is_edge_resolving(*arg), edge_checks),
    }
    best = best_s({**layers, **{f"pool {name}": layer for name, layer in pool_layers.items()},
                   "lattice min_hitting_set": (solver.min_hitting_set, lattice),
                   "record fill": (record_fill, [strings])})
    us = {name: round(best[name] / len(graphs) * 1e6, 2) for name in layers}
    pool_us = {name: round(best[f"pool {name}"] / len(pool) * 1e6, 2) for name in pool_layers}
    lattice_us = {"min_hitting_set": round(best["lattice min_hitting_set"] / len(lattice) * 1e6, 2)}
    record = round(sum(us[name] for name in RECORD_LAYERS), 2)
    print(json.dumps({"n": args.n, "classes": len(graphs), "repeats": REPEATS, "us_per_class": us,
                      "record_layers": record, "record_fill_us": round(best["record fill"] / len(graphs) * 1e6, 2),
                      "pool_instances": len(pool), "pool_us_per_instance": pool_us,
                      "pool_nodes_explored": sum(solver.min_hitting_set(inst).nodes_explored for inst in pool),
                      "lattice_instances": len(lattice), "lattice_us_per_instance": lattice_us,
                      **cold_import()},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
