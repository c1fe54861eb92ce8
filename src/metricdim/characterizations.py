"""Decision procedures for the top-of-range edge metric dimension values.

char_edim_n1 decides edim = n-1 and char_edim_ge_n2 decides edim >= n-2
structurally, without running the solver.  Both take the literal reading
of "non-mutual neighbor of u, v": x ranges over every vertex, so for an
adjacent pair each endpoint is a non-mutual neighbor of the pair (adjacent
to the other, not to itself).  The predicates quantify over vertices
adjacent to both endpoints, or over vertices outside the triple, so the
endpoints' own membership never changes a verdict; the exhaustive
equivalence suite against the solver is the arbiter either way.

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
    bfs_all_pairs,
    bits,
)


def non_mutual_neighbors(G: Graph, u: int, v: int) -> set[int]:
    """Vertices adjacent to exactly one of u, v (symmetric difference of
    the neighborhoods, taken over all vertices including u and v)."""
    if u == v:
        raise ValueError("non-mutual neighbors need a pair of distinct vertices")
    return set(bits(G.adj[u] ^ G.adj[v]))


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


def _cond2_ok(G: Graph, D, v1: int, v2: int, v3: int, u: int) -> bool:
    # u outside the triple, adjacent to v1 and v2
    if not (G.has_edge(u, v1) and G.has_edge(u, v2)):
        return False
    triple_mask = (1 << v1) | (1 << v2) | (1 << v3)
    outside = ((1 << G.n) - 1) & ~triple_mask
    nmn = G.adj[v1] ^ G.adj[v2]
    if nmn & outside & ~G.adj[u]:
        return False
    d1, d2, du = D.rows[v1], D.rows[v2], D.rows[u]
    for x in bits(outside):
        if (d1[x] == 2 and d2[x] > 2) or (d2[x] == 2 and d1[x] > 2):
            if du[x] > 2:
                return False
    return True


def char_edim_ge_n2(G: Graph) -> Char2Result:
    """Decide whether every vertex triple admits an ordering with a
    dominating apex (condition 1) or an outside near-dominating vertex
    (condition 2); equivalent to edim >= n-2 on connected graphs.

    Condition 1 is tried first over the three apex choices in ascending
    order, then condition 2 over the three ordered pairs lexicographically
    with candidate u ascending; the first hit is recorded per triple."""
    _require_small_ok(G)
    D = bfs_all_pairs(G)
    witnesses: dict[tuple[int, int, int], TripleWitness] = {}
    for triple in combinations(range(G.n), 3):
        hit = None
        for apex in triple:
            a, b = (t for t in triple if t != apex)
            if not (G.has_edge(apex, a) and G.has_edge(apex, b)):
                continue
            if (G.adj[a] ^ G.adj[b]) & ~G.adj[apex] == 0:
                hit = TripleWitness(triple, "condition-1", apex)
                break
        if hit is None:
            for v1, v2 in combinations(triple, 2):
                v3 = next(t for t in triple if t not in (v1, v2))
                for u in range(G.n):
                    if u in triple:
                        continue
                    if _cond2_ok(G, D, v1, v2, v3, u):
                        hit = TripleWitness((v1, v2, v3), "condition-2", u)
                        break
                if hit:
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
    D = bfs_all_pairs(G)
    close = [
        sum(1 << x for x in range(G.n) if x != v and D.rows[v][x] <= 2)
        for v in range(G.n)
    ]
    for tup in combinations(range(G.n), k + 1):
        mask = sum(1 << t for t in tup)
        if all(close[t] & mask == 0 for t in tup):
            return TupleLemmaResult(False, False, tup)
    return TupleLemmaResult(True, False, None)
