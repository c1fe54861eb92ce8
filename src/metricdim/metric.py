"""Resolving-set verification.

A landmark set S assigns every vertex (or edge) the tuple of its distances
to the landmarks, taken in sorted landmark order; an edge sits at the
smaller of its two endpoint distances.  S resolves the vertex (edge) family
iff those tuples are pairwise distinct.  The empty landmark set yields the
empty tuple for every object, so it resolves a family iff the family has at
most one element.  A check needs only the landmarks' rows of the distance
matrix, so it runs BFS from the landmarks alone and leaves
``Graph.distances`` unfilled.
"""

from __future__ import annotations

from .graph_core import (
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    _Record,
    _bfs_rows,
    is_connected,
)


class ResolutionWitness(_Record):
    """Two distinct objects sharing one distance vector; ``kind`` is
    "vertex" or "edge"."""

    def __init__(self, kind: str, a: object, b: object, shared_vector: tuple[int, ...]):
        self.__dict__.update(kind=kind, a=a, b=b, shared_vector=shared_vector)


def landmark_tuple(S, n: int) -> tuple[int, ...]:
    """Validate landmark ids and return them sorted."""
    out = tuple(sorted(S))
    for v in out:
        if not isinstance(v, int) or not 0 <= v < n:
            raise GraphInputError(f"landmark id out of range: {v!r}")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise GraphInputError(f"duplicate landmark id: {a}")
    return out


def _check(kind: str, G: Graph, S) -> tuple[bool, ResolutionWitness | None]:
    """The one resolving check: the graph must be connected and the landmark
    ids valid, in that order.  (True, None) when the vectors of the ``kind``
    objects are pairwise distinct, else False and the lexicographically
    first colliding pair."""
    if not is_connected(G):
        raise DisconnectedGraphError("resolving checks require a connected graph")
    # the landmark rows transposed: each vertex's vector, () for no landmarks
    vecs = list(zip(*_bfs_rows(G, landmark_tuple(S, G.n)))) or [()] * G.n
    objs = range(G.n)
    if kind == "edge":
        objs = G.edges()
        vecs = [tuple(map(min, vecs[u], vecs[w])) for u, w in objs]
    groups: dict[tuple[int, ...], list] = {}
    for o, vec in zip(objs, vecs):
        groups.setdefault(vec, []).append(o)
    cands = [(g[0], g[1], vec) for vec, g in groups.items() if len(g) > 1]
    return (False, ResolutionWitness(kind, *min(cands))) if cands else (True, None)


def is_vertex_resolving(G: Graph, S) -> tuple[bool, ResolutionWitness | None]:
    """Whether S distinguishes every vertex pair; on failure, also the
    lexicographically first colliding pair."""
    return _check("vertex", G, S)


def is_edge_resolving(G: Graph, S) -> tuple[bool, ResolutionWitness | None]:
    """Whether S distinguishes every edge pair; on failure, also the
    lexicographically first colliding pair."""
    return _check("edge", G, S)
