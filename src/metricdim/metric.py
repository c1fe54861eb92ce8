"""Distance vectors and resolving-set verification.

A landmark set S assigns every vertex (or edge) the tuple of its distances
to the landmarks, taken in sorted landmark order.  S resolves the vertex
(edge) family iff those tuples are pairwise distinct.  The empty landmark
set yields the empty tuple for every object, so it resolves a family iff
the family has at most one element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    DistanceMatrix,
    Graph,
    GraphInputError,
    connected_distances,
)

_DISCONNECTED = "resolving checks require a connected graph"


@dataclass(frozen=True)
class ResolutionWitness:
    """Two distinct objects sharing one distance vector."""

    kind: str  # "vertex" or "edge"
    a: object
    b: object
    shared_vector: tuple[int, ...]


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


def vertex_distance_vector(D: DistanceMatrix, v: int, S) -> tuple[int, ...]:
    """Distances from vertex v to each landmark, in sorted landmark order."""
    return tuple(D.rows[v][s] for s in landmark_tuple(S, D.n))


def edge_distance_vector(D: DistanceMatrix, e: tuple[int, int], S) -> tuple[int, ...]:
    """Distances from edge e to each landmark; an edge sits at the smaller
    of its two endpoint distances."""
    u, w = e
    ru, rw = D.rows[u], D.rows[w]
    return tuple(min(ru[s], rw[s]) for s in landmark_tuple(S, D.n))


def _first_collision(kind: str, objs, vecs) -> tuple[bool, ResolutionWitness | None]:
    """(True, None) when the vectors are pairwise distinct, else False and
    the lexicographically first colliding object pair."""
    groups: dict[tuple[int, ...], list] = {}
    for o, vec in zip(objs, vecs):
        groups.setdefault(vec, []).append(o)
    cands = [(g[0], g[1], vec) for vec, g in groups.items() if len(g) > 1]
    return (False, ResolutionWitness(kind, *min(cands))) if cands else (True, None)


def is_vertex_resolving(G: Graph, S) -> tuple[bool, ResolutionWitness | None]:
    """Whether S distinguishes every vertex pair; on failure, also the
    lexicographically first colliding pair."""
    D = connected_distances(G, _DISCONNECTED)
    St = landmark_tuple(S, G.n)
    vecs = [tuple(D.rows[v][s] for s in St) for v in range(G.n)]
    return _first_collision("vertex", range(G.n), vecs)


def is_edge_resolving(G: Graph, S) -> tuple[bool, ResolutionWitness | None]:
    """Whether S distinguishes every edge pair; on failure, also the
    lexicographically first colliding pair."""
    D = connected_distances(G, _DISCONNECTED)
    St = landmark_tuple(S, G.n)
    edges = G.edges()
    vecs = []
    for u, w in edges:
        ru, rw = D.rows[u], D.rows[w]
        vecs.append(tuple(min(ru[s], rw[s]) for s in St))
    return _first_collision("edge", edges, vecs)
