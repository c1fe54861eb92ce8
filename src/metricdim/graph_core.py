"""Bitset-backed simple undirected graphs and the classical invariants the
rest of the package is built on.

Vertices are dense integers 0..n-1.  Adjacency is stored as one Python int
per vertex, with bit v of ``adj[u]`` set iff {u, v} is an edge, so all
neighbourhood algebra is plain integer bit arithmetic.  Graphs are immutable
after construction and every operation here is a pure function.  All-pairs
distances are computed once per graph, on first read of ``Graph.distances``,
and kept on it; every layer that needs distances reads that one matrix.

Interchange formats: graph6 (short form, n <= 62) and a plain edge-list
text format (header line "n m", then one "u v" line per edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

UNREACHABLE = 1 << 30  # distance sentinel for disconnected pairs; safe to add offsets to
GRAPH6_MAX_N = 62
MAX_CLIQUE_LIMIT = 64
BICLIQUE_LIMIT = 24
CHROMATIC_EXACT_LIMIT = 16


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class GraphInputError(GraphError, ValueError):
    """Malformed graph input (bad edge list, graph6 text, or landmark ids)."""


class DisconnectedGraphError(GraphError, ValueError):
    """An operation that requires a connected graph received a disconnected one."""


class SizeLimitError(GraphError, ValueError):
    """Input exceeds the size an exact routine is certified to handle."""


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with one adjacency bitmask per vertex."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphInputError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise GraphInputError("adjacency table length differs from vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise GraphInputError(f"adjacency row {u} references a vertex >= {self.n}")
            if (row >> u) & 1:
                raise GraphInputError(f"self-loop at vertex {u}")
        for u, row in enumerate(self.adj):
            for v in bits(row):
                if not (self.adj[v] >> u) & 1:
                    raise GraphInputError(f"asymmetric adjacency between {u} and {v}")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int):
        return bits(self.adj[v])

    @cached_property
    def distances(self) -> DistanceMatrix:
        """All-pairs hop distances, computed on first read and kept; not a
        field, so equality and hashing still see only ``n`` and ``adj``."""
        return bfs_all_pairs(self)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            high = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(high):
                out.append((u, v))
        return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_edge_list(n: int, edge_iter) -> Graph:
    """Build a graph from explicit edges, validating every entry."""
    if n < 0:
        raise GraphInputError("vertex count must be nonnegative")
    rows = [0] * n
    seen = set()
    for u, v in edge_iter:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphInputError(f"self-loop not allowed: ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphInputError(f"duplicate edge: {key}")
        seen.add(key)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return from_edge_list(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# ---------------------------------------------------------------------------
# graph6 short form (n <= 62)
# ---------------------------------------------------------------------------


def graph6_encode(G: Graph) -> str:
    """Encode to graph6: header byte 63+n, then the upper triangle in
    column-major order x(0,1), x(0,2), x(1,2), x(0,3), ... packed into
    6-bit groups (zero padded), each group offset by 63."""
    if G.n > GRAPH6_MAX_N:
        raise SizeLimitError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {G.n}")
    chars = [chr(63 + G.n)]
    buf = 0
    nbits = 0
    for v in range(1, G.n):
        col = G.adj[v]
        for u in range(v):
            buf = (buf << 1) | ((col >> u) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + buf))
                buf = 0
                nbits = 0
    if nbits:
        buf <<= 6 - nbits
        chars.append(chr(63 + buf))
    return "".join(chars)


def graph6_decode(text: str) -> Graph:
    """Decode a short-form graph6 string (surrounding whitespace ignored)."""
    text = text.strip()
    if not text:
        raise GraphInputError("empty graph6 string")
    head = ord(text[0])
    if not 63 <= head <= 63 + GRAPH6_MAX_N:
        raise GraphInputError(f"malformed graph6 header byte: {text[0]!r}")
    n = head - 63
    payload = text[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(payload) != need:
        raise GraphInputError(
            f"graph6 payload for n={n} needs {need} bytes, got {len(payload)}"
        )
    values = []
    for ch in payload:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphInputError(f"graph6 payload byte out of range: {ch!r}")
        values.append(val)
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            word = values[idx // 6]
            if (word >> (5 - idx % 6)) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    if need and values[-1] & ((1 << (need * 6 - nbits)) - 1):
        raise GraphInputError("graph6 payload has nonzero padding bits")
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list_text(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v"; n is capped at GRAPH6_MAX_N."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphInputError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphInputError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphInputError(f"edge-list header must be two integers: {lines[0]!r}") from exc
    if n > GRAPH6_MAX_N:
        raise SizeLimitError(f"edge-list input supports n <= {GRAPH6_MAX_N}, got {n}")
    if m != len(lines) - 1:
        raise GraphInputError(f"header announces {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphInputError(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphInputError(f"edge line must be two integers: {ln!r}") from exc
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; UNREACHABLE marks disconnected pairs."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.rows[v]

    @property
    def connected(self) -> bool:
        return self.n > 0 and all(UNREACHABLE not in row for row in self.rows)

    @property
    def diameter(self) -> int:  # UNREACHABLE when disconnected
        return max(map(max, self.rows))


def bfs_all_pairs(G: Graph) -> DistanceMatrix:
    """Breadth-first distances from every vertex, via bitset frontier expansion."""
    rows = []
    for src in range(G.n):
        dist = [UNREACHABLE] * G.n
        seen = frontier = 1 << src
        d = 0
        while frontier:
            reach = 0
            for v in bits(frontier):
                dist[v] = d
                reach |= G.adj[v]
            frontier = reach & ~seen
            seen |= frontier
            d += 1
        rows.append(tuple(dist))
    return DistanceMatrix(G.n, tuple(rows))


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return False
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= G.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << G.n) - 1


def connected_distances(G: Graph, message: str) -> DistanceMatrix:
    """``G.distances`` of a connected graph; DisconnectedGraphError(message)
    otherwise.  The one connectivity precondition of every layer."""
    D = G.distances
    if not D.connected:
        raise DisconnectedGraphError(message)
    return D


# ---------------------------------------------------------------------------
# relabeling
# ---------------------------------------------------------------------------


def relabeled(G: Graph, order) -> Graph:
    """Graph in which new vertex i is old vertex order[i]."""
    order = list(order)
    if sorted(order) != list(range(G.n)):
        raise GraphInputError("relabeling order must be a permutation of the vertices")
    pos = {old: new for new, old in enumerate(order)}
    return from_edge_list(G.n, [(pos[u], pos[v]) for u, v in G.edges()])


def induced_subgraph(G: Graph, keep) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep`` (relabeled densely, id order preserved)
    together with the old-to-new vertex map."""
    kept = sorted(set(keep))
    if kept and not (0 <= kept[0] and kept[-1] < G.n):
        raise GraphInputError("induced subgraph vertex out of range")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v]) for u, v in G.edges() if u in remap and v in remap
    ]
    return from_edge_list(len(kept), edges), remap


# ---------------------------------------------------------------------------
# cliques, stars, bicliques
# ---------------------------------------------------------------------------


def max_clique(G: Graph) -> tuple[int, ...]:
    """A maximum clique, certified by exhausted branch and bound.

    Candidates are visited in ascending vertex order with the popcount bound
    |R| + |P| <= best as the pruning rule, so the result is deterministic.
    """
    if G.n > MAX_CLIQUE_LIMIT:
        raise SizeLimitError(f"max_clique is certified for n <= {MAX_CLIQUE_LIMIT}, got {G.n}")
    best_mask = 0
    best_size = 0
    adj = G.adj

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best_mask, best_size
        if not cand:
            if r_size > best_size:
                best_size = r_size
                best_mask = r_mask
            return
        while cand:
            if r_size + cand.bit_count() <= best_size:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r_mask | low, r_size + 1, cand & adj[v])

    if G.n:
        expand(0, 0, (1 << G.n) - 1)
    return tuple(bits(best_mask))


def max_star(G: Graph) -> int:
    """Largest star subgraph size, i.e. the maximum degree."""
    return max((row.bit_count() for row in G.adj), default=0)


def max_balanced_biclique(G: Graph, cap: int | None = None) -> int:
    """Largest m with a (not necessarily induced) K_{m,m} subgraph, searched
    exhaustively up to ``cap`` with degree-order pruning."""
    if G.n > BICLIQUE_LIMIT:
        raise SizeLimitError(f"max_balanced_biclique is certified for n <= {BICLIQUE_LIMIT}, got {G.n}")
    n = G.n
    hard = n // 2
    cap = hard if cap is None else min(cap, hard)
    if cap <= 0:
        return 0
    adj = G.adj
    best = 0

    # One side is the explicit set A (built in ascending order); the other
    # side lives inside the common neighbourhood of A, which never contains
    # members of A, so min(|A|, |common|) is always a realized K_{m,m}.
    def rec(a_size: int, common: int, next_v: int):
        nonlocal best
        value = min(a_size, common.bit_count())
        if value > best:
            best = value
        if best >= cap:
            return
        for v in range(next_v, n):
            if adj[v].bit_count() <= best:
                continue  # every side vertex of a bigger biclique needs degree > best
            new_common = common & adj[v]
            if new_common.bit_count() <= best:
                continue
            if min(a_size + 1 + (n - v - 1), new_common.bit_count()) <= best:
                continue
            rec(a_size + 1, new_common, v + 1)
            if best >= cap:
                return

    rec(0, (1 << n) - 1, 0)
    return best


# ---------------------------------------------------------------------------
# degeneracy and coloring
# ---------------------------------------------------------------------------


def degeneracy(G: Graph) -> int:
    """Degeneracy via iterated minimum-degree removal (ties to smallest id)."""
    if G.n == 0:
        return 0
    alive = (1 << G.n) - 1
    deg = [G.degree(v) for v in range(G.n)]
    out = 0
    for _ in range(G.n):
        v = min(bits(alive), key=lambda u: (deg[u], u))
        if deg[v] > out:
            out = deg[v]
        alive ^= 1 << v
        for w in bits(G.adj[v] & alive):
            deg[w] -= 1
    return out


def greedy_coloring(G: Graph) -> int:
    """Color count of the greedy proper coloring in ascending vertex order."""
    colors = [-1] * G.n
    for v in range(G.n):
        used = {colors[w] for w in bits(G.adj[v]) if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return max(colors) + 1 if colors else 0


def chromatic_number(G: Graph) -> int:
    """Exact chromatic number by branch and bound between the clique lower
    bound and the greedy upper bound."""
    if G.n > CHROMATIC_EXACT_LIMIT:
        raise SizeLimitError(f"chromatic_number is certified for n <= {CHROMATIC_EXACT_LIMIT}, got {G.n}")
    if G.n == 0:
        return 0
    if G.num_edges == 0:
        return 1
    lower = len(max_clique(G))
    upper = greedy_coloring(G)
    if lower == upper:
        return lower
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    for k in range(lower, upper):
        if _k_colorable(G, k, order):
            return k
    return upper


def _k_colorable(G: Graph, k: int, order: list[int]) -> bool:
    colors = [-1] * G.n

    def rec(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        banned = {colors[w] for w in bits(G.adj[v]) if colors[w] >= 0}
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[v] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    return rec(0, 0)
