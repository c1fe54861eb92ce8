"""Generators for the extremal gadget families and grid graphs.

Each gadget starts from a base graph (clique, star, or balanced biclique)
whose vertices carry fixed-width digit labels, and attaches one landmark
vertex per digit position wired by a digit rule.  Digit 1 of a label is the
least significant position; label strings are written most significant
digit first.  Vertex numbering is fixed so encodings stay stable: the
labeled block comes first in label value order, then the center where
present, then the auxiliary blocks in index order.

The md_star and md_biclique variants delete labeled vertices whose
landmark distance vectors collide.  md_star deletes one leaf at a time and
recomputes the distances after each deletion, since a deletion can change
the remaining distances.  Both variants re-verify the returned landmark set
on the returned graph and raise ConstructionError if it does not resolve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod

from .graph_core import (
    Graph,
    GraphError,
    SizeLimitError,
    from_edge_list,
    induced_subgraph,
    is_connected,
)
from .metric import is_vertex_resolving

GRID_MAX_VERTICES = 62


class ConstructionError(GraphError, ValueError):
    """Construction parameter out of range, or a gadget invariant failed."""


@dataclass(frozen=True)
class ConstructionOutput:
    """A generated graph with its landmark certificate and bookkeeping.

    ``roles`` tags every vertex (clique/leaf/center/left/right or an indexed
    landmark tag like u_2); ``labels`` maps labeled vertices to their digit
    strings; ``deleted`` lists removed vertices as (role, label) pairs.
    """

    graph: Graph
    landmarks: tuple[int, ...]
    roles: dict[int, str] = field(default_factory=dict)
    labels: dict[int, str] = field(default_factory=dict)
    deleted: tuple[tuple[str, str], ...] = ()


def _digit(value: int, i: int, base: int) -> int:
    """Digit i (1 = least significant) of value in the given base."""
    return value // base ** (i - 1) % base


def _label(value: int, width: int, base: int) -> str:
    return "".join(str(_digit(value, width - j, base)) for j in range(width))


# ---------------------------------------------------------------------------
# clique gadget
# ---------------------------------------------------------------------------


def md_complete(k: int) -> ConstructionOutput:
    """Clique on 2^k binary-labeled vertices plus one landmark u_i per digit,
    adjacent to the vertices whose digit i is 0.  The k landmarks resolve the
    vertices, and the clique forces the metric dimension up to k."""
    if not 1 <= k <= 5:
        raise ConstructionError(f"md_complete requires 1 <= k <= 5, got {k}")
    size = 1 << k
    edges = [(a, b) for a in range(size) for b in range(a + 1, size)]
    roles = {v: "clique" for v in range(size)}
    labels = {v: _label(v, k, 2) for v in range(size)}
    for i in range(1, k + 1):
        u = size + i - 1
        roles[u] = f"u_{i}"
        edges.extend((v, u) for v in range(size) if _digit(v, i, 2) == 0)
    landmarks = tuple(range(size, size + k))
    return ConstructionOutput(from_edge_list(size + k, edges), landmarks, roles, labels)


# ---------------------------------------------------------------------------
# star gadgets
# ---------------------------------------------------------------------------


def edim_star(k: int) -> ConstructionOutput:
    """Star with 2^k binary-labeled leaves plus one landmark u_i per digit,
    adjacent to the leaves whose digit i is 0.  The k landmarks resolve the
    edges, and the star forces the edge metric dimension up to k."""
    if not 1 <= k <= 5:
        raise ConstructionError(f"edim_star requires 1 <= k <= 5, got {k}")
    size = 1 << k
    center = size
    edges = [(v, center) for v in range(size)]
    roles = {v: "leaf" for v in range(size)}
    roles[center] = "center"
    labels = {v: _label(v, k, 2) for v in range(size)}
    for i in range(1, k + 1):
        u = size + i
        roles[u] = f"u_{i}"
        edges.extend((v, u) for v in range(size) if _digit(v, i, 2) == 0)
    landmarks = tuple(range(size + 1, size + 1 + k))
    return ConstructionOutput(from_edge_list(size + 1 + k, edges), landmarks, roles, labels)


def md_star(k: int) -> ConstructionOutput:
    """Star with 3^k ternary-labeled leaves plus landmark pairs (r_i, s_i)
    per digit: s_i is adjacent to digit-0 leaves and to r_i, and r_i is
    adjacent to digit-1 leaves.  Colliding leaves are then deleted one at a
    time: each round recomputes the distance vectors to {s_i} and deletes
    the first leaf, in label order, whose vector is shared with another
    vertex and whose removal keeps the graph connected.

    The returned graph is re-verified: it is connected, the s_i resolve it,
    and the center keeps at least 3^k - k - 1 leaves; a miss raises
    ConstructionError.
    """
    if not 1 <= k <= 3:
        raise ConstructionError(f"md_star requires 1 <= k <= 3, got {k}")
    size = 3 ** k
    center = size
    r_ids = [size + 1 + i for i in range(k)]
    s_ids = [size + 1 + k + i for i in range(k)]
    edges = [(v, center) for v in range(size)]
    roles = {v: "leaf" for v in range(size)}
    roles[center] = "center"
    labels = {v: _label(v, k, 3) for v in range(size)}
    for i in range(1, k + 1):
        r, s = r_ids[i - 1], s_ids[i - 1]
        roles[r] = f"r_{i}"
        roles[s] = f"s_{i}"
        edges.append((r, s))
        for v in range(size):
            d = _digit(v, i, 3)
            if d == 0:
                edges.append((v, s))
            elif d == 1:
                edges.append((v, r))
    G = from_edge_list(size + 1 + 2 * k, edges)

    doomed: list[int] = []
    while True:
        keep = [v for v in range(G.n) if v not in doomed]
        G2, remap = induced_subgraph(G, keep)
        D = G2.distances
        vec = {v: tuple(D.rows[remap[v]][remap[s]] for s in s_ids) for v in keep}
        shared = Counter(vec.values())
        colliding = (v for v in keep if v < size and shared[vec[v]] > 1)
        victim = next(
            (v for v in colliding
             if is_connected(induced_subgraph(G2, [remap[u] for u in keep if u != v])[0])),
            None,
        )
        if victim is None:
            break
        doomed.append(victim)

    if not D.connected:
        raise ConstructionError(f"md_star({k}) graph is disconnected after deletion")
    out = ConstructionOutput(
        G2,
        tuple(remap[s] for s in s_ids),
        {remap[v]: roles[v] for v in keep},
        {remap[v]: labels[v] for v in keep if v in labels},
        tuple(("leaf", labels[v]) for v in doomed),
    )
    ok, witness = is_vertex_resolving(out.graph, out.landmarks)
    if not ok:
        raise ConstructionError(
            f"md_star({k}) landmark set fails after deletion: {witness}"
        )
    if G2.degree(remap[center]) < size - k - 1:
        raise ConstructionError(
            f"md_star({k}) center keeps {G2.degree(remap[center])} leaves,"
            f" below {size - k - 1}"
        )
    return out


# ---------------------------------------------------------------------------
# biclique gadgets
# ---------------------------------------------------------------------------


def _biclique_base(k: int, name: str):
    if not 2 <= k <= 7:
        raise ConstructionError(f"{name} requires 2 <= k <= 7, got {k}")
    digits = k // 2
    side = 1 << digits
    left = range(side)
    right = range(side, 2 * side)
    edges = [(a, b) for a in left for b in right]
    roles = {v: "left" for v in left}
    roles.update({v: "right" for v in right})
    labels = {v: _label(v, digits, 2) for v in left}
    labels.update({v: _label(v - side, digits, 2) for v in right})
    for i in range(1, digits + 1):
        u = 2 * side + i - 1
        roles[u] = f"u_{i}"
        edges.extend((v, u) for v in left if _digit(v, i, 2) == 0)
    for i in range(1, digits + 1):
        r = 2 * side + digits + i - 1
        roles[r] = f"r_{i}"
        edges.extend((v, r) for v in right if _digit(v - side, i, 2) == 0)
    G = from_edge_list(2 * side + 2 * digits, edges)
    landmarks = tuple(range(2 * side, 2 * side + 2 * digits))
    return G, landmarks, roles, labels, side, digits


def edim_biclique(k: int) -> ConstructionOutput:
    """Balanced biclique with 2^(k//2) binary-labeled vertices per side plus
    landmarks u_i (adjacent to digit-0 left vertices) and r_i (adjacent to
    digit-0 right vertices).  The 2*(k//2) landmarks resolve the edges."""
    G, landmarks, roles, labels, _, _ = _biclique_base(k, "edim_biclique")
    return ConstructionOutput(G, landmarks, roles, labels)


def md_biclique(k: int) -> ConstructionOutput:
    """Same biclique gadget, with the all-ones vertex deleted from each side;
    the landmarks then resolve the vertices.  The returned certificate is
    re-verified and a residual collision raises ConstructionError."""
    G, landmarks, roles, labels, side, digits = _biclique_base(k, "md_biclique")
    doomed = [side - 1, 2 * side - 1]  # the all-ones label on each side
    keep = [v for v in range(G.n) if v not in set(doomed)]
    G2, remap = induced_subgraph(G, keep)
    out = ConstructionOutput(
        G2,
        tuple(remap[s] for s in landmarks),
        {remap[v]: roles[v] for v in keep},
        {remap[v]: labels[v] for v in keep if v in labels},
        tuple((roles[v], labels[v]) for v in doomed),
    )
    ok, witness = is_vertex_resolving(out.graph, out.landmarks)
    if not ok:
        raise ConstructionError(
            f"md_biclique({k}) landmark set fails after deletion: {witness}"
        )
    return out


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _grid_dims(dims) -> list[int]:
    """``dims`` as a list, checked: at least one axis, every side at least 2."""
    dims = list(dims)
    if not dims:
        raise ConstructionError("grid requires at least one dimension")
    if any(r < 2 for r in dims):
        raise ConstructionError(f"grid sides must be at least 2, got {dims}")
    return dims


def _grid_strides(dims: list[int]) -> list[int]:
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def grid(dims) -> Graph:
    """Cartesian lattice product of paths: one axis per entry of ``dims``,
    each side at least 2.  Vertex index is mixed radix with the first axis
    most significant."""
    dims = _grid_dims(dims)
    total = prod(dims)
    if total > GRID_MAX_VERTICES:
        raise SizeLimitError(f"grid would have {total} vertices, supported max is {GRID_MAX_VERTICES}")
    strides = _grid_strides(dims)
    edges = []
    for idx in range(total):
        rest = idx
        for axis, r in enumerate(dims):
            coord = rest // strides[axis]
            rest %= strides[axis]
            if coord + 1 < r:
                edges.append((idx, idx + strides[axis]))
    return from_edge_list(total, edges)


def grid_edge_landmarks(dims) -> tuple[int, ...]:
    """Edge-resolving landmarks for a grid: the origin plus, for every axis
    except the last, the far corner point along that axis alone."""
    dims = _grid_dims(dims)
    strides = _grid_strides(dims)
    lms = [0]
    lms.extend((dims[i] - 1) * strides[i] for i in range(len(dims) - 1))
    return tuple(sorted(set(lms)))
