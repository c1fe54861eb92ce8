"""Decision procedures for the top-of-range edge metric dimension values.

char_edim_n1 decides edim = n-1 and char_edim_ge_n2 decides edim >= n-2
structurally, without running the solver.  Each returns a verdict plus
the first failing pair or triple, and stops there.  Both take the literal
reading of "non-mutual neighbor of u, v": x ranges over every vertex, so
for an adjacent pair each endpoint is a non-mutual neighbor of the pair
(adjacent to the other, not to itself).  The predicates quantify over
vertices adjacent to both endpoints, or over vertices outside the triple,
so the endpoints' own membership never changes a verdict; the exhaustive
equivalence suite against the solver is the arbiter either way.

Both distance conditions (condition 2 of char_edim_ge_n2, and the
(k+1)-tuple lemma) are about which vertices lie within distance 2, so the
predicates read the graph's radius-2 bitmasks (``Graph.within_two``: N(v)
together with N(N(v)), less v, built from adjacency once per graph) and
test them with mask algebra; no distance matrix is needed.

tuple_lemma_check tests the (k+1)-tuple lemma on one graph; the diameter
theorems are rows of the sweep table in ``bounds``.  A violation is an
independent (k+1)-set of the radius-2 graph, so the check is a depth-first
search in ascending vertex order that drops a branch once fewer candidates
remain than are still needed.  Its witness is the lexicographically first
violating subset, and it never reaches more leaves than walking every
(k+1)-subset would.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .graph_core import (
    Graph,
    GraphInputError,
    SizeLimitError,
    _Record,
    bits,
)


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


class Char2Result(_Record):
    def __init__(self, holds: bool, failing_triple: Optional[tuple[int, int, int]]):
        self.__dict__.update(holds=holds, failing_triple=failing_triple)


def char_edim_ge_n2(G: Graph) -> Char2Result:
    """Decide whether every vertex triple admits an ordering with a
    dominating apex (condition 1) or an outside near-dominating vertex
    (condition 2); equivalent to edim >= n-2 on connected graphs.  Returns
    the verdict and the first failing triple in ``combinations`` order.

    A triple x < y < z fails iff z is not in ``rescue(x, y)``, y not in
    ``rescue(x, z)`` and x not in ``rescue(y, z)``, where ``rescue(a, b)``
    is the mask of the third vertices w for which one of the conditions
    holds through the pair (a, b): w as the apex, or a common neighbour u
    of a and b as the near-dominating vertex outside {a, b, w}.  Each pair's
    mask is computed once, on first use."""
    _require_small_ok(G)
    adj = G.adj
    near = G.within_two
    n = G.n
    full = (1 << n) - 1
    masks: dict[int, int] = {}

    def rescue(a: int, b: int) -> int:
        found = masks.get(a * n + b)
        if found is None:
            odd, lone, found = adj[a] ^ adj[b], near[a] ^ near[b], 0
            for u in bits(adj[a] & adj[b]):
                if not odd & ~adj[u]:  # u is a dominating apex
                    found |= 1 << u
                # u must be adjacent to their non-mutual neighbours outside
                # the triple and within 2 of every outside vertex within 2 of
                # just one of them (a non-mutual neighbour within 1 adds no
                # test); a and b are neighbours of u, so what u misses may
                # hold w alone, and if it is empty u is an apex as well
                miss = odd & ~adj[u] | lone & ~near[u]
                if not miss & (miss - 1):
                    found |= miss or full
            masks[a * n + b] = found
        return found

    for x in range(n - 2):
        for y in range(x + 1, n - 1):
            for z in bits(full >> (y + 1) << (y + 1) & ~rescue(x, y)):
                if not rescue(x, z) >> y & 1 and not rescue(y, z) >> x & 1:
                    return Char2Result(False, (x, y, z))
    return Char2Result(True, None)


def char_edim_eq_n2(G: Graph) -> bool:
    """edim = n-2 exactly: the >= n-2 condition holds and the = n-1
    condition does not."""
    holds_n1, _ = char_edim_n1(G)
    return not holds_n1 and char_edim_ge_n2(G).holds


class TupleLemmaResult(_Record):
    def __init__(self, holds: bool, vacuous: bool, violating: Optional[tuple[int, ...]]):
        self.__dict__.update(holds=holds, vacuous=vacuous, violating=violating)


def tuple_lemma_check(G: Graph, k: int) -> TupleLemmaResult:
    """Every (k+1)-subset of vertices must contain two vertices at distance
    at most 2.  Vacuously true (with the flag set) when n < k+1.

    The search takes the lowest candidate v, keeps the candidates above v
    more than 2 from it, and backtracks when fewer remain than are still
    needed; ``violating`` is the first violating subset in
    ``combinations`` order."""
    if k < 1:
        raise GraphInputError(f"tuple lemma needs k >= 1, got {k}")
    if G.n < k + 1:
        return TupleLemmaResult(True, True, None)
    close = G.within_two
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
