"""Independent reference implementations used only to cross-check the
package.  Everything here is written the slow, obvious way on purpose:
dict-based BFS, all-subsets dimension search, canonical forms as the
minimum over every order of the 1-WL colour cells, and class enumeration
that labels every child."""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import combinations, permutations, product

from metricdim.characterizations import Char2Result, TupleLemmaResult
from metricdim.enumerator import canonical_graph6
from metricdim.graph_core import (
    Graph,
    GraphInputError,
    bfs_all_pairs,
    bits,
    from_edge_list,
    graph6_decode,
    graph6_encode,
)


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


def has_edge(G: Graph, u: int, v: int) -> bool:
    return bool(G.adj[u] >> v & 1)


def neighbors(G: Graph, v: int):
    return bits(G.adj[v])


def naive_distances(G: Graph) -> dict[int, dict[int, int]]:
    adjacency = {v: [] for v in range(G.n)}
    for u, v in G.edges():
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {}
    for src in range(G.n):
        row = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in row:
                    row[y] = row[x] + 1
                    queue.append(y)
        dist[src] = row
    return dist


def reference_vertex_instance(G: Graph) -> tuple[tuple, tuple[int, ...]]:
    """(pairs, masks) of the vertex distinguisher instance, pair by pair."""
    rows = bfs_all_pairs(G).rows
    pairs, masks = [], []
    for a in range(G.n):
        for b in range(a + 1, G.n):
            m = 0
            for x in range(G.n):
                if rows[a][x] != rows[b][x]:
                    m |= 1 << x
            pairs.append((a, b))
            masks.append(m)
    return tuple(pairs), tuple(masks)


def reference_edge_instance(G: Graph) -> tuple[tuple, tuple[int, ...]]:
    """(pairs, masks) of the edge distinguisher instance, pair by pair."""
    rows = bfs_all_pairs(G).rows
    edges = G.edges()
    dist = [[min(rows[u][x], rows[w][x]) for x in range(G.n)] for u, w in edges]
    pairs, masks = [], []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            m = 0
            for x in range(G.n):
                if dist[i][x] != dist[j][x]:
                    m |= 1 << x
            pairs.append((edges[i], edges[j]))
            masks.append(m)
    return tuple(pairs), tuple(masks)


def reference_columns(masks, width: int) -> list[int]:
    """The transpose of ``masks``, all below 2**width, bit by bit: row i of
    a digit matrix is ``masks[i]`` in ``width`` binary digits, and column v
    < width is the matrix's digit column of bit v, read from the last row
    up; the zero columns past the last nonzero one are dropped."""
    assert max(masks, default=0) >> width == 0
    rows = [format(m, f"0{width}b") for m in reversed(masks)]
    columns = [int("".join(digits), 2) for digits in zip(*rows)][::-1]
    while columns and not columns[-1]:
        columns.pop()
    return columns


def reference_bits(mask: int) -> list[int]:
    """The set bit positions of a nonnegative ``mask``, tested one by one."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def first_fit_colour_count(G: Graph) -> int:
    """Colours used by first fit in ascending vertex order: each vertex takes
    the smallest colour not in the set of its coloured neighbours'."""
    colour = {}
    for v in range(G.n):
        used = {colour[u] for u in reference_bits(G.adj[v]) if u in colour}
        colour[v] = min(set(range(len(used) + 1)) - used)
    return len(set(colour.values()))


def naive_is_connected(G: Graph) -> bool:
    return G.n > 0 and len(naive_distances(G)[0]) == G.n


def _vertex_vectors(dist, S, n):
    return [tuple(dist[v][s] for s in S) for v in range(n)]


def _edge_vectors(dist, S, edges):
    return [tuple(min(dist[u][s], dist[v][s]) for s in S) for u, v in edges]


def naive_metric_dimension(G: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest subset size first, lexicographic within a size."""
    dist = naive_distances(G)
    assert len(dist[0]) == G.n, "oracle needs a connected graph"
    for k in range(G.n + 1):
        for S in combinations(range(G.n), k):
            vecs = _vertex_vectors(dist, S, G.n)
            if len(set(vecs)) == G.n:
                return k, S
    raise AssertionError("unreachable: full vertex set always resolves")


def naive_edge_metric_dimension(G: Graph) -> tuple[int, tuple[int, ...]]:
    dist = naive_distances(G)
    assert len(dist[0]) == G.n, "oracle needs a connected graph"
    edges = G.edges()
    for k in range(G.n + 1):
        for S in combinations(range(G.n), k):
            vecs = _edge_vectors(dist, S, edges)
            if len(set(vecs)) == len(edges):
                return k, S
    raise AssertionError("unreachable: resolving all edges can need at most n-1 vertices")


def naive_hitting_set(universe: int, masks) -> tuple[int, tuple[int, ...], int]:
    """The first subset of range(universe), by size and then in
    ``combinations`` order, that meets every mask, and the number of
    subsets tested up to and including it."""
    tested = 0
    for k in range(universe + 1):
        for S in combinations(range(universe), k):
            tested += 1
            if all(any(m >> v & 1 for v in S) for m in masks):
                return k, S, tested
    raise AssertionError("no subset meets an empty mask")


class _Exhausted(Exception):
    pass


def reference_search(fams, rem: int, k: int, allow: int, cap=None) -> tuple[bool | None, tuple | None, int]:
    """Whether the families ``fams[i]`` with bit i set in ``rem`` have a
    hitting set of at most k vertices of ``allow``, by plain recursion; the
    first such set it finds, its vertices in the order the branches chose
    them, else None; and the nodes it visited.  (None, None, cap + 1) once
    the nodes pass ``cap``.

    Each call is one node.  It packs the families left, in index order, that
    meet no packed family in an allowed vertex, and fails when a packed
    family has no allowed vertex or more than k are packed.  It branches on
    the first packed family with the fewest allowed vertices, a vertex at a
    time in ascending order, and bars each refuted vertex from the later
    branches.  There is no cover table, and no node settles its children."""
    spent = 0

    def search(rem, k, allow):
        nonlocal spent
        spent += 1
        if cap is not None and spent > cap:
            raise _Exhausted
        left = [i for i in range(len(fams)) if rem >> i & 1]
        packed = []
        for i in left:
            f = fams[i] & allow
            if any(f & g for g in packed):
                continue
            if not f or len(packed) == k:
                return None
            packed.append(f)
        if not packed:
            return ()
        branch = min(packed, key=int.bit_count)
        for v in reference_bits(branch):
            rest = sum(1 << i for i in left if not fams[i] >> v & 1)
            found = search(rest, k - 1, allow)
            if found is not None:
                return (v, *found)
            allow &= ~(1 << v)
        return None

    try:
        found = search(rem, k, allow)
    except _Exhausted:
        return None, None, spent
    return found is not None, found, spent


def naive_is_vertex_resolving(G: Graph, S) -> bool:
    dist = naive_distances(G)
    vecs = _vertex_vectors(dist, tuple(S), G.n)
    return len(set(vecs)) == G.n


def naive_is_edge_resolving(G: Graph, S) -> bool:
    dist = naive_distances(G)
    vecs = _edge_vectors(dist, tuple(S), G.edges())
    return len(set(vecs)) == G.num_edges


def brute_tuple_lemma(G: Graph, k: int) -> TupleLemmaResult:
    """The (k+1)-tuple lemma by testing every (k+1)-subset in
    ``combinations`` order; the first subset with no two vertices within
    distance 2 is the witness."""
    if k < 1:
        raise ValueError(f"tuple lemma needs k >= 1, got {k}")
    if G.n < k + 1:
        return TupleLemmaResult(True, True, None)
    dist = naive_distances(G)
    close = [sum(1 << x for x, d in dist[v].items() if 0 < d <= 2) for v in range(G.n)]
    for tup in combinations(range(G.n), k + 1):
        mask = sum(1 << t for t in tup)
        if all(close[t] & mask == 0 for t in tup):
            return TupleLemmaResult(False, False, tup)
    return TupleLemmaResult(True, False, None)


def reference_char_edim_ge_n2(G: Graph) -> Char2Result:
    """``char_edim_ge_n2`` triple by triple: each triple in ``combinations``
    order tries the three apex orderings, then each of its pairs with every
    common neighbour outside the triple."""
    adj = G.adj
    near = G.within_two
    full = (1 << G.n) - 1
    for triple in combinations(range(G.n), 3):
        x, y, z = triple
        for apex, a, b in ((x, y, z), (y, x, z), (z, x, y)):
            ends = (1 << a) | (1 << b)
            if adj[apex] & ends == ends and not (adj[a] ^ adj[b]) & ~adj[apex]:
                break
        else:
            outside = full & ~((1 << x) | (1 << y) | (1 << z))
            for v1, v2 in ((x, y), (x, z), (y, z)):
                nmn = (adj[v1] ^ adj[v2]) & outside
                lone = (near[v1] ^ near[v2]) & outside
                if any(not nmn & ~adj[u] and not lone & ~near[u] for u in bits(adj[v1] & adj[v2] & outside)):
                    break
            else:
                return Char2Result(False, triple)
    return Char2Result(True, None)


def relabeled(G: Graph, order) -> Graph:
    """Graph in which new vertex i is old vertex order[i]."""
    pos = {old: new for new, old in enumerate(order)}
    assert sorted(pos) == list(range(G.n)), "order must be a permutation of the vertices"
    return from_edge_list(G.n, [(pos[u], pos[v]) for u, v in G.edges()])


def naive_colours(G: Graph) -> list[int]:
    """1-WL colours: start from the degrees; a vertex's signature is its
    colour and the sorted list of its neighbours' colours; the new colours
    are the ranks of the distinct signatures; stop once a round leaves the
    number of colours where it was."""
    neighbours = {v: [] for v in range(G.n)}
    for u, v in G.edges():
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = [len(neighbours[v]) for v in range(G.n)]
    while True:
        signature = [(colour[v], sorted(colour[u] for u in neighbours[v])) for v in range(G.n)]
        distinct = []
        for sig in sorted(signature):
            if sig not in distinct:
                distinct.append(sig)
        if len(distinct) == len(set(colour)):
            return colour
        colour = [distinct.index(sig) for sig in signature]


def brute_canonical_graph6(G: Graph) -> str:
    """The smallest graph6 string over every order that lists the colour
    cells in ascending colour order, each cell in any order."""
    colour = naive_colours(G)
    cells = [[v for v in range(G.n) if colour[v] == c] for c in sorted(set(colour))]
    return min(graph6_encode(relabeled(G, [v for part in parts for v in part]))
               for parts in product(*(permutations(cell) for cell in cells)))


@lru_cache(maxsize=None)
def naive_connected_classes(n: int) -> tuple[str, ...]:
    """Canonical graph6 strings of the connected n-vertex classes: attach a
    new vertex to every nonempty subset of every (n-1)-class, label every
    child and deduplicate globally."""
    if n == 1:
        return (graph6_encode(complete_graph(1)),)
    seen = set()
    for parent_g6 in naive_connected_classes(n - 1):
        base_edges = graph6_decode(parent_g6).edges()
        for mask in range(1, 1 << (n - 1)):
            edges = base_edges + [(v, n - 1) for v in bits(mask)]
            seen.add(canonical_graph6(from_edge_list(n, edges)))
    return tuple(sorted(seen))


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Connected graph sampled by rejection from G(n, p) at varying density."""
    assert n >= 1
    pairs = list(combinations(range(n), 2))
    while True:
        p = rng.uniform(0.25, 0.75)
        edges = [e for e in pairs if rng.random() < p]
        G = from_edge_list(n, edges)
        if naive_is_connected(G):
            return G
