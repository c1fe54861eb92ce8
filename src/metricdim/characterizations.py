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
predicates build per-vertex radius-2 bitmasks straight from adjacency
(``_within_two``: N(v) together with N(N(v)), less v) and test them with
mask algebra; no distance matrix is needed.

tuple_lemma_check tests the (k+1)-tuple lemma on one graph; the diameter
theorems are rows of the sweep table in ``enumerator``.  A violation is an
independent (k+1)-set of the radius-2 graph, so the check is a depth-first
search in ascending vertex order that drops a branch once fewer candidates
remain than are still needed.  Its witness is the lexicographically first
violating subset, and it never reaches more leaves than walking every
(k+1)-subset would.
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


def _within_two(G: Graph) -> list[int]:
    """Per vertex v, the mask of the other vertices at distance at most 2:
    its neighbours and their neighbours, less v itself."""
    near = list(G.adj)
    for row in G.adj:
        for v in bits(row):
            near[v] |= row  # row is the neighbourhood of a neighbour of v
    return [mask & ~(1 << v) for v, mask in enumerate(near)]


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
        x, y, z = triple
        hit = None
        for apex, a, b in ((x, y, z), (y, x, z), (z, x, y)):
            ends = (1 << a) | (1 << b)
            if adj[apex] & ends == ends and (adj[a] ^ adj[b]) & ~adj[apex] == 0:
                hit = TripleWitness(triple, "condition-1", apex)
                break
        if hit is None:
            outside = full & ~((1 << x) | (1 << y) | (1 << z))
            for v1, v2, v3 in ((x, y, z), (x, z, y), (y, z, x)):
                # u must be adjacent to their non-mutual neighbours outside
                # the triple and within 2 of every outside vertex within 2 of
                # just one of them; such a vertex adjacent to one of them is a
                # non-mutual neighbour, so only the distance-2 ones add a test
                nmn = (adj[v1] ^ adj[v2]) & outside
                lone = (near[v1] ^ near[v2]) & outside
                u = next((u for u in bits(adj[v1] & adj[v2] & outside)
                          if not nmn & ~adj[u] and not lone & ~near[u]), None)
                if u is not None:
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
    at most 2.  Vacuously true (with the flag set) when n < k+1.

    The search takes the lowest candidate v, keeps the candidates above v
    more than 2 from it, and backtracks when fewer remain than are still
    needed; ``violating`` is the first violating subset in
    ``combinations`` order."""
    if k < 1:
        raise ValueError(f"tuple lemma needs k >= 1, got {k}")
    if G.n < k + 1:
        return TupleLemmaResult(True, True, None)
    close = _within_two(G)
    need = k + 1
    chosen: list[int] = []
    cands = [(1 << G.n) - 1]  # cands[d]: vertices that may extend chosen[:d]
    while cands:
        cand = cands[-1]
        if cand.bit_count() < need - len(chosen):
            cands.pop()
            if chosen:
                cands[-1] &= ~(1 << chosen.pop())
            continue
        v = (cand & -cand).bit_length() - 1
        chosen.append(v)
        if len(chosen) == need:
            return TupleLemmaResult(False, False, tuple(chosen))
        cands.append(cand & ~close[v] & ~(1 << v))
    return TupleLemmaResult(True, False, None)
