"""Decision procedures for the top-of-range edge metric dimension values.

char_edim_n1 decides edim = n-1 and char_edim_ge_n2 decides edim >= n-2
structurally, without running the solver.  Both take the literal reading
of "non-mutual neighbor of u, v": x ranges over every vertex, so for an
adjacent pair each endpoint is a non-mutual neighbor of the pair (adjacent
to the other, not to itself).  The predicates quantify over vertices
adjacent to both endpoints, or over vertices outside the triple, so the
endpoints' own membership never changes a verdict; the exhaustive
equivalence suite against the solver is the arbiter either way.

Both distance conditions (condition 2 of char_edim_ge_n2, and the
(k+1)-tuple lemma) are about which vertices lie within distance 2, so the
predicates read the graph's one distance matrix as per-vertex radius-2
bitmasks (``_within_two``) and test them with mask algebra.

tuple_lemma_check tests the (k+1)-tuple lemma on one graph; the diameter
theorems are rows of the sweep table in ``enumerator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graph_core import (
    Graph,
    SizeLimitError,
    bits,
)


def non_mutual_neighbors(G: Graph, u: int, v: int) -> set[int]:
    """Vertices adjacent to exactly one of u, v (symmetric difference of
    the neighborhoods, taken over all vertices including u and v)."""
    if u == v:
        raise ValueError("non-mutual neighbors need a pair of distinct vertices")
    return set(bits(G.adj[u] ^ G.adj[v]))


def _within_two(G: Graph) -> list[int]:
    """Per vertex v, the mask of the other vertices at distance at most 2."""
    return [sum(1 << x for x, d in enumerate(row) if 0 < d <= 2) for row in G.distances.rows]


def _require_small_ok(G: Graph):
    if G.n <= 2:
        raise SizeLimitError(
            f"characterization predicates need n >= 3, got n={G.n}"
        )


def char_edim_n1(G: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """Decide whether every vertex pair has a common neighbor adjacent to
    all their non-mutual neighbors; equivalent to edim = n-1 on connected
    graphs.  Returns the verdict and the first failing pair if any."""
    _require_small_ok(G)
    for v1, v2 in combinations(range(G.n), 2):
        nmn = G.adj[v1] ^ G.adj[v2]
        both = G.adj[v1] & G.adj[v2]
        for u in bits(both):
            if nmn & ~G.adj[u] == 0:
                break
        else:
            return False, (v1, v2)
    return True, None


@dataclass(frozen=True)
class TripleWitness:
    """The ordering and mode that satisfied one vertex triple.

    mode "condition-1": triple ordered so u (the apex, stored in ``u``) is
    adjacent to the other two and to all their non-mutual neighbors.
    mode "condition-2": ``triple`` lists the chosen (v1, v2) first and u is
    the outside vertex.
    """

    triple: tuple[int, int, int]
    mode: str
    u: int


@dataclass(frozen=True)
class Char2Result:
    holds: bool
    witnesses: dict[tuple[int, int, int], TripleWitness]
    failing_triple: Optional[tuple[int, int, int]]


def char_edim_ge_n2(G: Graph) -> Char2Result:
    """Decide whether every vertex triple admits an ordering with a
    dominating apex (condition 1) or an outside near-dominating vertex
    (condition 2); equivalent to edim >= n-2 on connected graphs.

    Condition 1 is tried first over the three apex choices in ascending
    order, then condition 2 over the three ordered pairs lexicographically
    with candidate u ascending; the first hit is recorded per triple."""
    _require_small_ok(G)
    adj = G.adj
    near = _within_two(G)
    full = (1 << G.n) - 1
    witnesses: dict[tuple[int, int, int], TripleWitness] = {}
    for triple in combinations(range(G.n), 3):
        hit = None
        for apex in triple:
            a, b = (t for t in triple if t != apex)
            if not (G.has_edge(apex, a) and G.has_edge(apex, b)):
                continue
            if (adj[a] ^ adj[b]) & ~adj[apex] == 0:
                hit = TripleWitness(triple, "condition-1", apex)
                break
        if hit is None:
            outside = full & ~sum(1 << t for t in triple)
            for v1, v2 in combinations(triple, 2):
                # u must be adjacent to their non-mutual neighbours outside
                # the triple and within 2 of every outside vertex within 2 of
                # just one of them; such a vertex adjacent to one of them is a
                # non-mutual neighbour, so only the distance-2 ones add a test
                nmn = (adj[v1] ^ adj[v2]) & outside
                lone = (near[v1] ^ near[v2]) & outside
                u = next((u for u in bits(adj[v1] & adj[v2] & outside)
                          if not nmn & ~adj[u] and not lone & ~near[u]), None)
                if u is not None:
                    v3 = next(t for t in triple if t not in (v1, v2))
                    hit = TripleWitness((v1, v2, v3), "condition-2", u)
                    break
        if hit is None:
            return Char2Result(False, witnesses, triple)
        witnesses[triple] = hit
    return Char2Result(True, witnesses, None)


def char_edim_eq_n2(G: Graph) -> bool:
    """edim = n-2 exactly: the >= n-2 condition holds and the = n-1
    condition does not."""
    holds_n1, _ = char_edim_n1(G)
    return not holds_n1 and char_edim_ge_n2(G).holds


@dataclass(frozen=True)
class TupleLemmaResult:
    holds: bool
    vacuous: bool
    violating: Optional[tuple[int, ...]]


def tuple_lemma_check(G: Graph, k: int) -> TupleLemmaResult:
    """Every (k+1)-subset of vertices must contain two vertices at distance
    at most 2.  Vacuously true (with the flag set) when n < k+1."""
    if k < 1:
        raise ValueError(f"tuple lemma needs k >= 1, got {k}")
    if G.n < k + 1:
        return TupleLemmaResult(True, True, None)
    close = _within_two(G)
    for tup in combinations(range(G.n), k + 1):
        mask = sum(1 << t for t in tup)
        if all(close[t] & mask == 0 for t in tup):
            return TupleLemmaResult(False, False, tup)
    return TupleLemmaResult(True, False, None)
