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

Enumeration is by augmentation: every connected graph on n vertices has a
non-cut vertex, so deleting one leaves a connected graph on n-1 vertices;
attaching a new vertex to every nonempty subset of every (n-1)-class and
deduplicating by canonical form therefore reaches every n-class exactly
once.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .bounds import INEQUALITIES, GraphRecord
from .characterizations import (
    char_edim_eq_n2,
    char_edim_ge_n2,
    char_edim_n1,
    tuple_lemma_check,
)
from .graph_core import (
    Graph,
    GraphInputError,
    SizeLimitError,
    bits,
    complete_graph,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    max_clique,
    relabeled,
)

CANONICAL_LIMIT = 10
ENUMERATION_LIMIT = 8
ENUMERATION_HARD_LIMIT = 9
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical adjacency encoding; equal forms iff isomorphic graphs."""

    bytes: bytes


def canonical_relabeling(G: Graph) -> tuple[int, ...]:
    """Vertex order (new index -> old vertex) minimizing the graph6 string."""
    n = G.n
    if n > CANONICAL_LIMIT:
        raise SizeLimitError(f"canonical form supports n <= {CANONICAL_LIMIT}, got {n}")
    if n == 0:
        return ()
    full = (1 << n) - 1
    # state: (placed mask, placed order, rev) where rev[v] holds v's
    # adjacency toward the placed sequence, earliest placement most
    # significant -- exactly the next graph6 column if v is placed next
    states = [(0, (), (0,) * n)]
    for _ in range(n):
        best = None
        chosen = []
        for mask, placed, rev in states:
            for c in bits(full & ~mask):
                col = rev[c]
                if best is None or col < best:
                    best = col
                    chosen = [(mask, placed, rev, c)]
                elif col == best:
                    chosen.append((mask, placed, rev, c))
        nxt = {}
        for mask, placed, rev, c in chosen:
            nmask = mask | 1 << c
            adjc = G.adj[c]
            nrev = tuple(rev[v] << 1 | adjc >> v & 1 for v in range(n))
            key = (nmask, tuple(nrev[v] for v in bits(full & ~nmask)))
            if key not in nxt:
                nxt[key] = (nmask, placed + (c,), nrev)
        states = list(nxt.values())
    return states[0][1]


def canonical_graph6(G: Graph) -> str:
    return graph6_encode(relabeled(G, canonical_relabeling(G)))


def canonical_form(G: Graph) -> CanonicalForm:
    return CanonicalForm(canonical_graph6(G).encode("ascii"))


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[str, ...]:
    if n == 1:
        return (graph6_encode(complete_graph(1)),)
    seen = set()
    for parent_g6 in _connected_classes(n - 1):
        parent = graph6_decode(parent_g6)
        base_edges = parent.edges()
        for mask in range(1, 1 << (n - 1)):
            edges = base_edges + [(v, n - 1) for v in bits(mask)]
            seen.add(canonical_graph6(from_edge_list(n, edges)))
    return tuple(sorted(seen))


def enumerate_connected(n: int, allow_large: bool = False) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex
    graphs, ordered by canonical graph6 string.  n = 9 takes minutes and
    sits behind the allow_large flag."""
    limit = ENUMERATION_HARD_LIMIT if allow_large else ENUMERATION_LIMIT
    if not 1 <= n <= limit:
        raise SizeLimitError(f"enumeration supports 1 <= n <= {limit}, got n={n}")
    return [graph6_decode(s) for s in _connected_classes(n)]


# ---------------------------------------------------------------------------
# sweep registry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def _record(g6: str, budget: Optional[int]) -> GraphRecord:
    """Cached per (class, budget): a process solves each class once."""
    return GraphRecord(graph6_decode(g6), budget)


def _char1_equiv(r: GraphRecord) -> Optional[str]:
    holds, pair = char_edim_n1(r.graph)
    if holds != (r.edim == r.n - 1):
        return f"predicate={holds} edim={r.edim} n={r.n} pair={pair}"
    return None


def _char2_equiv(r: GraphRecord) -> Optional[str]:
    res = char_edim_ge_n2(r.graph)
    if res.holds != (r.edim >= r.n - 2):
        return f"predicate={res.holds} edim={r.edim} n={r.n} triple={res.failing_triple}"
    return None


def _eq_n2_equiv(r: GraphRecord) -> Optional[str]:
    holds = char_edim_eq_n2(r.graph)
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
        return json.dumps(payload, sort_keys=True)

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"{self.theorem_id}: {self.graphs_checked} graphs, "
            f"n={self.n_min}..{self.n_max}, {verdict}"
        )


def sweep(
    theorem_id: str,
    n_max: int,
    threads: int = 1,
    budget: Optional[int] = None,
    allow_large: bool = False,
) -> SweepReport:
    """Run one registered theorem check over every connected graph with
    SWEEP_N_MIN <= n <= n_max.  Failures carry the canonical graph6 string
    and a detail line, sorted for run-to-run and thread-count determinism."""
    if theorem_id not in THEOREM_CHECKS:
        raise KeyError(f"unknown theorem id {theorem_id!r}; known: {sorted(THEOREM_CHECKS)}")
    if threads < 1:
        raise GraphInputError(f"sweep needs at least one thread, got threads={threads}")
    limit = ENUMERATION_HARD_LIMIT if allow_large else ENUMERATION_LIMIT
    if n_max > limit:
        raise SizeLimitError(f"sweep range n_max={n_max} exceeds enumeration limit {limit}")
    started = time.perf_counter()
    counts: dict[int, int] = {}
    g6_list: list[str] = []
    for n in range(SWEEP_N_MIN, n_max + 1):
        classes = _connected_classes(n)
        counts[n] = len(classes)
        g6_list.extend(classes)

    rows = [_ROWS[name] for name in THEOREM_CHECKS[theorem_id]]

    def run_one(g6: str):
        r = _record(g6, budget)
        details = () if r.budget_exhausted else (row(r) for row in rows)
        return r, next((d for d in details if d is not None), None)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, g6_list))
    else:
        results = [run_one(g6) for g6 in g6_list]
    failures = [(g6, d) for g6, (_, d) in zip(g6_list, results) if d is not None]
    solved = [r for r, _ in results if not r.budget_exhausted]

    data = {}
    if theorem_id == "clique-vs-edim-explore":
        clique_by_edim: dict[int, int] = {}
        for r in solved:
            k = max(r.edim, 1)
            clique_by_edim[k] = max(clique_by_edim.get(k, 0), len(max_clique(r.graph)))
        data["max_clique_by_edim"] = {str(k): v for k, v in sorted(clique_by_edim.items())}
    return SweepReport(
        theorem_id=theorem_id,
        n_min=SWEEP_N_MIN,
        n_max=n_max,
        graphs_checked=len(g6_list),
        counts_by_n=counts,
        failures=tuple(sorted(failures)),
        solver_budget_exhaustions=len(results) - len(solved),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        data=data,
    )
