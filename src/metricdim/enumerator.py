"""Isomorph-free enumeration of small connected graphs and theorem sweeps.

Canonical form is the minimal graph6 string over all vertex relabelings.
It is computed by a level DP over partial placements: the graph6 bitstring
is a sequence of columns (one per placed vertex, listing adjacency to the
earlier vertices), so placements are extended one vertex at a time keeping
only the extensions whose next column is minimal, and surviving states are
collapsed whenever they have the same placed set and give every unplaced
vertex the same adjacency pattern toward the placed sequence -- such states
have identical futures.  Collapsing keeps highly symmetric graphs (K_n,
bicliques) from blowing up the state list factorially.

Enumeration is by canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Every connected graph has a non-cut
vertex, so each n-class C has a canonical deletion vertex m: among the
non-cut vertices with the highest (degree, sum of neighbour degrees), the
one placed first by the canonical labelling.  Deleting m leaves a connected
(n-1)-class, the canonical parent of C.  A new vertex x is attached to every
nonempty subset of every (n-1)-class P, and the child is kept only if
deleting its m gives P again.  Children in which x does not score highest
among the non-cut vertices are refused before any labelling; when x scores
highest alone it is m and the child is kept.  Each n-class is therefore
kept under exactly one parent, so a per-parent set of canonical strings
drops the remaining repeats.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .bounds import INEQUALITIES, GraphRecord
from .characterizations import char_edim_ge_n2, char_edim_n1, tuple_lemma_check
from .graph_core import (
    Graph,
    GraphInputError,
    SizeLimitError,
    bits,
    complete_graph,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    max_clique,
    relabeled,
)

CANONICAL_LIMIT = 10
ENUMERATION_LIMIT = 8
ENUMERATION_HARD_LIMIT = 9
SCHEMA_VERSION = 1

# set bit positions of every mask over at most CANONICAL_LIMIT vertices
_BITS = tuple(tuple(bits(mask)) for mask in range(1 << CANONICAL_LIMIT))


def canonical_relabeling(G: Graph) -> tuple[int, ...]:
    """Vertex order (new index -> old vertex) minimizing the graph6 string."""
    n = G.n
    if n > CANONICAL_LIMIT:
        raise SizeLimitError(f"canonical form supports n <= {CANONICAL_LIMIT}, got {n}")
    if n == 0:
        return ()
    full = (1 << n) - 1
    # One 16-bit field per vertex, vertex v at bits 16v..16v+15.  An
    # unplaced vertex's field holds its adjacency toward the placed
    # sequence, earliest placement most significant -- exactly the next
    # graph6 column if it is placed next; a placed vertex's field is 0xFFFF,
    # above every column (< 2**CANONICAL_LIMIT), so the minimum field of a
    # state is its best next column.  state: (placed mask, placed order,
    # fields, the fields' placed part)
    spread = [sum(1 << 16 * v for v in _BITS[row]) for row in G.adj]
    states = [(0, (), 0, 0)]
    for _ in range(n):
        views = [memoryview(state[2].to_bytes(2 * n, "little")).cast("H") for state in states]
        lows = [min(view) for view in views]
        best = min(lows)
        nxt = {}
        for (mask, placed, cols, filled), view, low in zip(states, views, lows):
            if low != best:
                continue
            for c in _BITS[full & ~mask]:
                if view[c] != best:
                    continue
                nfilled = filled | 0xFFFF << 16 * c
                ncols = (cols & ~nfilled) << 1 | spread[c] | nfilled
                if ncols not in nxt:  # the 0xFFFF fields spell out the placed set
                    nxt[ncols] = (mask | 1 << c, placed + (c,), ncols, nfilled)
        states = list(nxt.values())
    return states[0][1]


def canonical_graph6(G: Graph) -> str:
    return graph6_encode(relabeled(G, canonical_relabeling(G)))


def _scores(adj: tuple[int, ...]) -> list[int]:
    """Isomorphism-invariant score per vertex: (degree, sum of neighbour
    degrees), packed into one int so scores compare in that order (the sum
    stays below 2**7 for n <= CANONICAL_LIMIT)."""
    deg = [row.bit_count() for row in adj]
    return [deg[v] << 7 | sum(deg[u] for u in _BITS[row]) for v, row in enumerate(adj)]


def _non_cut(adj: tuple[int, ...], v: int) -> bool:
    """True when deleting v leaves the other vertices connected."""
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    reach = frontier = rest & -rest
    while frontier:
        grown = 0
        for u in _BITS[frontier]:
            grown |= adj[u]
        frontier = grown & rest & ~reach
        reach |= frontier
    return reach == rest


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[str, ...]:
    if n == 1:
        return (graph6_encode(complete_graph(1)),)
    x = n - 1
    classes = []
    for parent_g6 in _connected_classes(n - 1):
        parent_adj = graph6_decode(parent_g6).adj
        parent_scores = sorted(_scores(parent_adj))
        kept: dict[str, bool] = {}  # child's canonical graph6 -> accepted
        for nbrs in range(1, 1 << x):
            adj = tuple(row | (nbrs >> v & 1) << x for v, row in enumerate(parent_adj)) + (nbrs,)
            scores = _scores(adj)
            top = scores[x]
            # x is non-cut (deleting it leaves P); m must score at least as high
            if any(s > top and _non_cut(adj, v) for v, s in enumerate(scores)):
                continue
            g6 = canonical_graph6(Graph(n, adj))
            if g6 in kept:
                continue
            if not any(s == top and v != x and _non_cut(adj, v) for v, s in enumerate(scores)):
                kept[g6] = True  # x is m
                continue
            # m is the tied vertex placed first in the canonical graph
            canonical = graph6_decode(g6)
            cscores = _scores(canonical.adj)
            m = next(v for v in range(n) if cscores[v] == top and _non_cut(canonical.adj, v))
            rest, _ = induced_subgraph(canonical, (v for v in range(n) if v != m))
            kept[g6] = (sorted(_scores(rest.adj)) == parent_scores
                        and canonical_graph6(rest) == parent_g6)
        classes.extend(g6 for g6, accepted in kept.items() if accepted)
    return tuple(sorted(classes))


def _require_enumerable(n: int, allow_large: bool, message: str) -> None:
    """SizeLimitError(message, ``{n}``/``{limit}`` filled) unless 1 <= n <= limit."""
    limit = ENUMERATION_HARD_LIMIT if allow_large else ENUMERATION_LIMIT
    if not 1 <= n <= limit:
        raise SizeLimitError(message.format(n=n, limit=limit))


def enumerate_connected(n: int, allow_large: bool = False) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex
    graphs, ordered by canonical graph6 string.  n = 9 takes minutes and
    sits behind the allow_large flag."""
    _require_enumerable(n, allow_large, "enumeration supports 1 <= n <= {limit}, got n={n}")
    return [graph6_decode(s) for s in _connected_classes(n)]


# ---------------------------------------------------------------------------
# sweep registry
# ---------------------------------------------------------------------------


# One record per (class, budget).  Callers that sweep one id at a time (the
# benchmark's sweep workload, the tests) revisit the classes once per id, all
# at n <= 7, whose 994 classes fit: only the first sweep solves.  sweep_all
# visits each class once; at n >= 8 the bound keeps the last 1,024 records.
@lru_cache(maxsize=1024)
def _record(g6: str, budget: Optional[int]) -> GraphRecord:
    return GraphRecord(graph6_decode(g6), budget)


# Characterization rows read the record's verdicts; only a failing row reruns its predicate.
def _char1_equiv(r: GraphRecord) -> Optional[str]:
    if r.char_n1 != (r.edim == r.n - 1):
        _, pair = char_edim_n1(r.graph)
        return f"predicate={r.char_n1} edim={r.edim} n={r.n} pair={pair}"
    return None


def _char2_equiv(r: GraphRecord) -> Optional[str]:
    if r.char_ge_n2 != (r.edim >= r.n - 2):
        triple = char_edim_ge_n2(r.graph).failing_triple
        return f"predicate={r.char_ge_n2} edim={r.edim} n={r.n} triple={triple}"
    return None


def _eq_n2_equiv(r: GraphRecord) -> Optional[str]:
    holds = not r.char_n1 and r.char_ge_n2  # char_edim_eq_n2 on the verdicts
    if holds != (r.edim == r.n - 2):
        return f"predicate={holds} edim={r.edim} n={r.n}"
    return None


def _tuple_lemma(r: GraphRecord) -> Optional[str]:
    k = r.n - r.edim
    res = tuple_lemma_check(r.graph, k)
    return None if res.holds else f"k={k} violating={res.violating}"


def _diam_le_5(r: GraphRecord) -> Optional[str]:
    if r.edim == r.n - 2 and r.diameter > 5:
        return f"edim=n-2 but diameter={r.diameter}"
    return None


def _diam_le_3k_1(r: GraphRecord) -> Optional[str]:
    k = r.n - r.edim
    if r.diameter > 3 * k - 1:
        return f"k={k} diameter={r.diameter} bound={3 * k - 1}"
    return None


# The one table the sweeps evaluate: the six characterization rows beside
# bounds.INEQUALITIES.  A row maps a GraphRecord whose dimensions are both
# known to a failure detail, or None when it holds.
_ROWS: dict[str, Callable[[GraphRecord], Optional[str]]] = {
    "char1-equiv": _char1_equiv,
    "char2-equiv": _char2_equiv,
    "eq-n2-equiv": _eq_n2_equiv,
    "tuple-lemma": _tuple_lemma,
    "diam-le-5": _diam_le_5,
    "diam-le-3k-1": _diam_le_3k_1,
    **{name: row for name, (_, row) in INEQUALITIES.items()},
}

# theorem id -> the table rows it checks, in order; the first failing row's
# detail is reported.  The explore sweep checks nothing and collects data.
THEOREM_CHECKS: dict[str, tuple[str, ...]] = {
    "char1-equiv": ("char1-equiv",),
    "char2-equiv": ("char2-equiv",),
    "eq-n2-equiv": ("eq-n2-equiv",),
    "tuple-lemma": ("tuple-lemma",),
    "diam-le-5": ("diam-le-5",),
    "diam-le-3k-1": ("diam-le-3k-1",),
    "edge-bound-new": ("edge-bound-new",),
    "edge-bound-zubrilina": ("edge-bound-zubrilina",),
    "vertex-bound-hernando": ("vertex-bound-hernando",),
    "subgraph-bounds-self": ("subgraph-vertex-self", "subgraph-edge-self"),
    "corollary-edges-md": ("corollary-edges-md",),
    "corollary-edges-emd": ("corollary-edges-emd",),
    "corollary-chromatic": ("corollary-chromatic",),
    "corollary-degeneracy": ("corollary-degeneracy-md", "corollary-degeneracy-emd"),
    "clique-vs-edim-explore": (),
}

SWEEP_N_MIN = 3


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one theorem sweep over all small connected graphs."""

    theorem_id: str
    n_min: int
    n_max: int
    graphs_checked: int
    counts_by_n: dict[int, int]
    failures: tuple[tuple[str, str], ...]  # (canonical graph6, detail)
    solver_budget_exhaustions: int
    elapsed_ms: float
    enumerate_ms: float  # part of elapsed_ms spent building the class lists
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures and self.solver_budget_exhaustions == 0

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "graphs_checked": self.graphs_checked,
            "counts_by_n": {str(k): v for k, v in self.counts_by_n.items()},
            "failures": [{"graph6": g, "detail": d} for g, d in self.failures],
            "solver_budget_exhaustions": self.solver_budget_exhaustions,
            "data": self.data,
        }
        if include_timing:
            payload["elapsed_ms"] = self.elapsed_ms
            payload["enumerate_ms"] = self.enumerate_ms
        return json.dumps(payload, sort_keys=True)

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"{self.theorem_id}: {self.graphs_checked} graphs, "
            f"n={self.n_min}..{self.n_max}, {verdict}"
        )


def sweep_all(theorem_ids, n_max: int, budget: Optional[int] = None,
              allow_large: bool = False) -> list[SweepReport]:
    """Check the given theorem ids in one pass over every connected graph
    with SWEEP_N_MIN <= n <= n_max, taking one record per class.  One report
    per id, in the given order, with the pass's timings; failures are
    (canonical graph6, detail) pairs, sorted for run-to-run determinism."""
    theorem_ids = tuple(theorem_ids)
    for theorem_id in theorem_ids:
        if theorem_id not in THEOREM_CHECKS:
            raise KeyError(f"unknown theorem id {theorem_id!r}; known: {sorted(THEOREM_CHECKS)}")
    if budget is not None and budget < 0:
        raise GraphInputError(f"sweep budget must be at least 0, got budget={budget}")
    if n_max < SWEEP_N_MIN:
        raise GraphInputError(f"sweep range n_max={n_max} is below the smallest swept size {SWEEP_N_MIN}")
    _require_enumerable(n_max, allow_large, "sweep range n_max={n} exceeds enumeration limit {limit}")
    started = time.perf_counter()
    counts = {n: len(_connected_classes(n)) for n in range(SWEEP_N_MIN, n_max + 1)}
    enumerated = time.perf_counter()
    checks = [([_ROWS[name] for name in THEOREM_CHECKS[t]], []) for t in theorem_ids]  # rows, failures
    explore = "clique-vs-edim-explore" in theorem_ids
    clique_by_edim: dict[int, int] = {}
    exhausted = 0
    for n in counts:
        for g6 in _connected_classes(n):
            r = _record(g6, budget)
            if r.budget_exhausted:
                exhausted += 1
                continue
            for rows, failures in checks:
                for row in rows:
                    detail = row(r)
                    if detail is not None:
                        failures.append((g6, detail))
                        break
            if explore:
                k = max(r.edim, 1)
                clique_by_edim[k] = max(clique_by_edim.get(k, 0), len(max_clique(r.graph)))

    data = {"max_clique_by_edim": {str(k): v for k, v in sorted(clique_by_edim.items())}}
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return [
        SweepReport(
            theorem_id=theorem_id,
            n_min=SWEEP_N_MIN,
            n_max=n_max,
            graphs_checked=sum(counts.values()),
            counts_by_n=dict(counts),
            failures=tuple(sorted(failures)),
            solver_budget_exhaustions=exhausted,
            elapsed_ms=elapsed_ms,
            enumerate_ms=(enumerated - started) * 1000.0,
            data=data if theorem_id == "clique-vs-edim-explore" else {},
        )
        for theorem_id, (_, failures) in zip(theorem_ids, checks)
    ]


def sweep(theorem_id: str, n_max: int, threads: int = 1, budget: Optional[int] = None,
          allow_large: bool = False) -> SweepReport:
    """``sweep_all((theorem_id,), ...)[0]``.  threads is checked (at least 1)
    and otherwise unused; it stays because the benchmark workloads pass it."""
    if threads < 1:
        raise GraphInputError(f"sweep needs at least one thread, got threads={threads}")
    return sweep_all((theorem_id,), n_max, budget, allow_large)[0]
