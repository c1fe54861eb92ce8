"""Bitset-backed simple undirected graphs and the classical invariants the
rest of the package is built on.

Vertices are dense integers 0..n-1.  Adjacency is stored as one Python int
per vertex, with bit v of ``adj[u]`` set iff {u, v} is an edge, so all
neighbourhood algebra is plain integer bit arithmetic.  Graphs are immutable
after construction and every operation here is a pure function.  All-pairs
distances are computed once per graph, on first read of ``Graph.distances``,
and kept on it; every layer that needs them all reads that one matrix.
``_bfs_rows`` gives the rows of chosen sources only, for the resolving
checks, and ``bfs_all_pairs`` is its every-source case.

Interchange formats: graph6 (short form, n <= 62) and a plain edge-list
text format (header line "n m", then one "u v" line per edge); the two
``parse_*_text`` readers hold the file rules of each.
``_graph6_text`` is the one graph6 packer, for ``graph6_encode`` and the
enumerator's ``canonical_graph6``.  ``graph6_decode`` and ``from_edge_list``
validate their own input and skip the table rescan of ``Graph(n, adj)``
through ``_unchecked``; the solver's instance builder skips the family
check of ``DistinguisherInstance`` the same way.
``_connected_within`` is the one connectivity walk, over any vertex mask.
``_Record`` is the base of the package's frozen records, this module's
``Graph`` and ``DistanceMatrix`` among them.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import islice
from typing import Iterator

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


def _byte_table(low: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the set bit positions of b << low, ascending."""
    table = [()]
    for i in range(low, low + 8):
        table += [t + (i,) for t in table]  # the entries with bit i - low set, i their highest
    return tuple(table)


_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7 = (_byte_table(8 * j) for j in range(8))  # _Bj[b]: the bits of b << 8j


def bits(mask: int):
    """The set bit positions of ``mask`` in ascending order, to iterate over:
    a tuple of byte-table lookups below 2**64, a generator above.  A
    negative mask has no finite set of bits and raises ValueError."""
    # a negative mask shifts to -1, so it passes both width tests
    if not mask >> 16:
        return _B0[mask & 255] + _B1[mask >> 8]
    if not mask >> 32:
        return _B0[mask & 255] + _B1[mask >> 8 & 255] + _B2[mask >> 16 & 255] + _B3[mask >> 24]
    if mask < 0:
        raise ValueError(f"bits() of a negative mask: {mask}")
    if not mask >> 64:
        return (_B0[mask & 255] + _B1[mask >> 8 & 255] + _B2[mask >> 16 & 255] + _B3[mask >> 24 & 255]
                + _B4[mask >> 32 & 255] + _B5[mask >> 40 & 255] + _B6[mask >> 48 & 255] + _B7[mask >> 56])
    return _wide_bits(mask)


def _wide_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Record:
    """Base of the frozen records.  A record's fields are the parameters of
    its ``__init__``, in order, which stores them in the instance
    ``__dict__``.  Equality (same class, equal fields), hashing and the
    ``Name(field=value, ...)`` repr read the fields alone, so values that a
    ``cached_property`` keeps in the same ``__dict__`` take no part; every
    assignment and deletion raises AttributeError."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Simple undirected graph with one adjacency bitmask per vertex."""

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.__dict__.update(n=n, adj=adj)
        if n < 0:
            raise GraphInputError("vertex count must be nonnegative")
        if len(adj) != n:
            raise GraphInputError("adjacency table length differs from vertex count")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise GraphInputError(f"adjacency row {u} references a vertex >= {n}")
            if (row >> u) & 1:
                raise GraphInputError(f"self-loop at vertex {u}")
        for u, row in enumerate(adj):
            for v in bits(row):
                if not (adj[v] >> u) & 1:
                    raise GraphInputError(f"asymmetric adjacency between {u} and {v}")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def distances(self) -> DistanceMatrix:
        """All-pairs hop distances, computed on first read and kept; not a
        field, so equality and hashing still see only ``n`` and ``adj``."""
        return bfs_all_pairs(self)

    @cached_property
    def within_two(self) -> list[int]:
        """Per vertex v, the mask of the other vertices at distance at most
        2: its neighbours and their neighbours, less v itself.  Built from
        adjacency alone on first read and kept, like ``distances``."""
        near = list(self.adj)
        for row in self.adj:
            for v in bits(row):
                near[v] |= row  # row is the neighbourhood of a neighbour of v
        return [mask & ~(1 << v) for v, mask in enumerate(near)]

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


def _unchecked(cls, **fields):
    """A ``cls`` (a ``_Record`` whose ``__init__`` checks its fields) on
    fields the caller built valid, skipping ``__init__`` and its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def from_edge_list(n: int, edge_iter) -> Graph:
    """Build a graph from explicit edges, validating every entry."""
    if n < 0:
        raise GraphInputError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edge_iter:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphInputError(f"self-loop not allowed: ({u}, {v})")
        if rows[u] >> v & 1:
            raise GraphInputError(f"duplicate edge: {(min(u, v), max(u, v))}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _unchecked(Graph, n=n, adj=tuple(rows))


# ---------------------------------------------------------------------------
# graph6 short form (n <= 62)
# ---------------------------------------------------------------------------


def _graph6_text(n: int, code: int) -> str:
    """The one graph6 packer: header byte 63+n, then ``code``, the upper
    triangle in column-major order x(0,1), x(0,2), x(1,2), x(0,3), ... with
    x(0,1) as its highest bit, in 6-bit groups (zero padded), each offset by 63."""
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    code <<= pad
    return bytes([63 + n] + [63 + (code >> s & 63) for s in range(nbits + pad - 6, -1, -6)]).decode()


def graph6_encode(G: Graph) -> str:
    """Encode to graph6 short form (n <= 62)."""
    if G.n > GRAPH6_MAX_N:
        raise SizeLimitError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, got {G.n}")
    # column v: adj[v]'s bits below v, earliest first; bin() of guard bit v keeps its zeros
    columns = "".join([bin(G.adj[v] & (1 << v) - 1 | 1 << v)[:2:-1] for v in range(1, G.n)])
    return _graph6_text(G.n, int(columns or "0", 2))


_PAIRS = tuple((u, v) for v in range(GRAPH6_MAX_N) for u in range(v))  # column-major, any n


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
        raise GraphInputError(f"graph6 payload for n={n} needs {need} bytes, got {len(payload)}")
    code = 0
    for ch in payload:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphInputError(f"graph6 payload byte out of range: {ch!r}")
        code = code << 6 | val
    pad = need * 6 - nbits
    if code & (1 << pad) - 1:
        raise GraphInputError("graph6 payload has nonzero padding bits")
    rows = [0] * n
    code >>= pad
    for base in range(0, nbits, 32):  # 32-bit chunks keep bits() on its tables
        for bit in bits(code >> base & 0xFFFFFFFF):
            u, v = _PAIRS[nbits - 1 - base - bit]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return _unchecked(Graph, n=n, adj=tuple(rows))


# ---------------------------------------------------------------------------
# file text: graph6 and edge lists
# ---------------------------------------------------------------------------


# a run of characters between the line boundaries of str.splitlines
_LINE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def _nonblank_lines(text: str) -> Iterator[str]:
    """The stripped nonblank lines of ``text`` as str.splitlines splits it,
    one at a time, so that no list of every line is built."""
    return filter(None, (match.group().strip() for match in _LINE.finditer(text)))


def parse_graph6_text(text: str) -> Graph:
    """Parse a graph6 file: the optional ">>graph6<<" header, then exactly
    one nonblank line.  The other lines are counted, not kept."""
    lines = _nonblank_lines(text.removeprefix(">>graph6<<"))
    first = next(lines, None)
    count = (first is not None) + sum(1 for _ in lines)
    if count != 1:
        raise GraphInputError(f"expected exactly one graph6 line, got {count}")
    return graph6_decode(first)


def parse_edge_list_text(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v".  The header is checked before
    any edge line is read: n is capped at GRAPH6_MAX_N and m at the
    n(n - 1)/2 edges n vertices allow, so at most that many lines are kept."""
    lines = _nonblank_lines(text)
    header = next(lines, None)
    if header is None:
        raise GraphInputError("empty edge-list text")
    head = header.split()
    if len(head) != 2:
        raise GraphInputError(f"edge-list header must be 'n m', got {header!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphInputError(f"edge-list header must be two integers: {header!r}") from exc
    if n > GRAPH6_MAX_N:
        raise SizeLimitError(f"edge-list input supports n <= {GRAPH6_MAX_N}, got {n}")
    if n < 0:
        raise GraphInputError("vertex count must be nonnegative")
    if m > n * (n - 1) // 2:
        raise GraphInputError(f"header announces {m} edges but {n} vertices allow at most {n * (n - 1) // 2}")
    body = list(islice(lines, max(m, 0)))
    follow = len(body) + sum(1 for _ in lines)
    if m != follow:
        raise GraphInputError(f"header announces {m} edges but {follow} lines follow")
    edges = []
    for ln in body:
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


class DistanceMatrix(_Record):
    """All-pairs hop distances; UNREACHABLE marks disconnected pairs."""

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, rows=rows)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        return self.rows[v]

    @cached_property
    def connected(self) -> bool:
        return self.n > 0 and all(UNREACHABLE not in row for row in self.rows)

    @property
    def diameter(self) -> int:  # UNREACHABLE when disconnected
        return max(map(max, self.rows))


def _bfs_rows(G: Graph, sources) -> list[tuple[int, ...]]:
    """Breadth-first distances from each source in turn, via bitset frontier
    expansion: one row of length n per source."""
    rows = []
    for src in sources:
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
    return rows


def bfs_all_pairs(G: Graph) -> DistanceMatrix:
    """Breadth-first distances from every vertex."""
    return DistanceMatrix(G.n, tuple(_bfs_rows(G, range(G.n))))


def _connected_within(adj: tuple[int, ...], mask: int) -> bool:
    """True when the vertex set ``mask`` is nonempty and induces a connected subgraph."""
    reach = todo = mask & -mask
    while todo:
        low = todo & -todo
        todo ^= low
        grown = adj[low.bit_length() - 1] & mask & ~reach
        reach |= grown
        todo |= grown
    return mask != 0 and reach == mask


def is_connected(G: Graph) -> bool:
    return _connected_within(G.adj, (1 << G.n) - 1)


def connected_distances(G: Graph, message: str) -> DistanceMatrix:
    """``G.distances`` of a connected graph; DisconnectedGraphError(message)
    otherwise.  The one connectivity precondition of every layer that reads
    the matrix."""
    D = G.distances
    if not D.connected:
        raise DisconnectedGraphError(message)
    return D


# ---------------------------------------------------------------------------
# induced subgraphs
# ---------------------------------------------------------------------------


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
    adj = G.adj
    alive = (1 << G.n) - 1
    deg = [row.bit_count() for row in adj]
    out = 0
    for _ in range(G.n):
        v = min(bits(alive), key=deg.__getitem__)  # the first minimum: the smallest id
        if deg[v] > out:
            out = deg[v]
        alive ^= 1 << v
        for w in bits(adj[v] & alive):
            deg[w] -= 1
    return out


def greedy_coloring(G: Graph) -> int:
    """Color count of the greedy proper coloring in ascending vertex order."""
    classes = []  # the vertex mask of each colour, in colour order
    for v, row in enumerate(G.adj):
        for c, members in enumerate(classes):
            if not members & row:
                classes[c] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def chromatic_number(G: Graph, clique: int | None = None) -> int:
    """Exact chromatic number by branch and bound between the clique lower
    bound (``clique``, the size of a maximum clique, when the caller has it)
    and the greedy upper bound."""
    if G.n > CHROMATIC_EXACT_LIMIT:
        raise SizeLimitError(f"chromatic_number is certified for n <= {CHROMATIC_EXACT_LIMIT}, got {G.n}")
    lower = len(max_clique(G)) if clique is None else clique
    upper = greedy_coloring(G)
    if lower == upper:
        return lower
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    for k in range(lower, upper):
        if _k_colorable(G, k, order):
            return k
    return upper


def _k_colorable(G: Graph, k: int, order: list[int]) -> bool:
    adj = G.adj
    classes = [0] * k  # the vertex mask of each colour

    def rec(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        row = adj[v]
        for c in range(min(used + 1, k)):
            if classes[c] & row:
                continue
            classes[c] |= 1 << v
            if rec(i + 1, max(used, c + 1)):
                return True
            classes[c] ^= 1 << v
        return False

    return rec(0, 0)
