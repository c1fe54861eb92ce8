"""Generators for the extremal gadget families and grid graphs.

Each gadget starts from a base graph (clique, star, or balanced biclique)
whose vertices carry fixed-width digit labels, and attaches its landmarks
by one rule, ``_wire``: landmark tag_i is joined to the vertices of a
labeled block whose digit i has a given value.  Digit 1 of a label is the
least significant position; label strings are written most significant
digit first.  Vertex numbering is fixed so encodings stay stable: the
labeled block comes first in label value order, then the center where
present, then the landmark blocks in index order.  The CLI's family table
holds one (maker, parameter, resolving check) row per family, grid too.

The md_star and md_biclique variants delete labeled vertices whose
landmark distance vectors collide.  One step, ``_delete``, removes a
vertex list and checks the landmark set on what is left; md_biclique takes
it once, and md_star once per deleted leaf, since a deletion can change the
remaining distances.  Both variants raise ConstructionError when the
landmark set does not resolve the returned graph.
"""

from __future__ import annotations

from .graph_core import (
    GRAPH6_MAX_N,
    Graph,
    GraphError,
    SizeLimitError,
    _Record,
    from_edge_list,
    induced_subgraph,
)
from .metric import is_vertex_resolving


class ConstructionError(GraphError, ValueError):
    """Construction parameter out of range, or a gadget invariant failed."""


class ConstructionOutput(_Record):
    """A generated graph with its landmark certificate and bookkeeping.

    ``roles`` tags every vertex (clique/leaf/center/left/right or an indexed
    landmark tag like u_2); ``labels`` maps labeled vertices to their digit
    strings; ``deleted`` lists removed vertices as (role, label) pairs.
    ``roles`` and ``labels`` default to a new empty dict each.
    """

    def __init__(self, graph: Graph, landmarks: tuple[int, ...], roles: dict[int, str] | None = None,
                 labels: dict[int, str] | None = None, deleted: tuple[tuple[str, str], ...] = ()):
        self.__dict__.update(graph=graph, landmarks=landmarks, roles={} if roles is None else roles,
                             labels={} if labels is None else labels, deleted=deleted)


def _delete(base: ConstructionOutput, doomed: list[int]):
    """The gadget ``base`` less the ``doomed`` vertices, renumbered densely
    in id order; with the kept old ids, in new id order, and the vertex
    check of the landmark set on the smaller graph."""
    keep = [v for v in range(base.graph.n) if v not in doomed]
    H, remap = induced_subgraph(base.graph, keep)
    out = ConstructionOutput(
        H,
        tuple(remap[s] for s in base.landmarks),
        {remap[v]: base.roles[v] for v in keep},
        {remap[v]: base.labels[v] for v in keep if v in base.labels},
        tuple((base.roles[v], base.labels[v]) for v in doomed),
    )
    return out, keep, *is_vertex_resolving(H, out.landmarks)


def _digit(value: int, i: int, base: int) -> int:
    """Digit i (1 = least significant) of value in the given base."""
    return value // base ** (i - 1) % base


def _label(value: int, width: int, base: int) -> str:
    return "".join(str(_digit(value, width - j, base)) for j in range(width))


def _wire(edges: list, roles: dict, tag: str, first: int, block: range,
          width: int, base: int, digit: int) -> tuple[int, ...]:
    """Place landmarks tag_1..tag_width at ids ``first``.. and join landmark
    i to each vertex of ``block`` whose label (its id less ``block.start``)
    has ``digit`` at position i; the landmark ids are returned."""
    ids = tuple(range(first, first + width))
    for i, u in enumerate(ids, 1):
        roles[u] = f"{tag}_{i}"
        edges.extend((v, u) for v in block if _digit(v - block.start, i, base) == digit)
    return ids


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
    landmarks = _wire(edges, roles, "u", size, range(size), k, 2, 0)
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
    edges = [(v, size) for v in range(size)]  # the center follows the leaves
    roles = {v: "leaf" for v in range(size)}
    roles[size] = "center"
    labels = {v: _label(v, k, 2) for v in range(size)}
    landmarks = _wire(edges, roles, "u", size + 1, range(size), k, 2, 0)
    return ConstructionOutput(from_edge_list(size + 1 + k, edges), landmarks, roles, labels)


def md_star(k: int) -> ConstructionOutput:
    """Star with 3^k ternary-labeled leaves plus landmark pairs (r_i, s_i)
    per digit: s_i is adjacent to digit-0 leaves and to r_i, and r_i is
    adjacent to digit-1 leaves.  Colliding leaves are then deleted one at a
    time: each round checks {s_i} on the graph left so far and, while the
    first vertex of the lexicographically first colliding pair is a leaf,
    deletes it.  The leaves have the lowest ids, so that is the first leaf,
    in label order, whose vector is shared with another vertex.

    The rounds end on a check of the returned graph: the s_i must resolve
    it, and the center must keep at least 3^k - k - 1 leaves; a miss raises
    ConstructionError.
    """
    if not 1 <= k <= 3:
        raise ConstructionError(f"md_star requires 1 <= k <= 3, got {k}")
    size = 3 ** k
    edges = [(v, size) for v in range(size)]  # the center follows the leaves
    roles = {v: "leaf" for v in range(size)}
    roles[size] = "center"
    labels = {v: _label(v, k, 3) for v in range(size)}
    r_ids = _wire(edges, roles, "r", size + 1, range(size), k, 3, 1)
    s_ids = _wire(edges, roles, "s", size + 1 + k, range(size), k, 3, 0)
    edges.extend(zip(r_ids, s_ids))
    base = ConstructionOutput(from_edge_list(size + 1 + 2 * k, edges), s_ids, roles, labels)

    doomed: list[int] = []
    while True:
        out, keep, ok, witness = _delete(base, doomed)
        if ok or out.roles[witness.a] != "leaf":
            break
        doomed.append(keep[witness.a])
    if not ok:
        raise ConstructionError(f"md_star({k}) landmark set fails after deletion: {witness}")
    degree = out.graph.degree(keep.index(size))  # the center
    if degree < size - k - 1:
        raise ConstructionError(f"md_star({k}) center keeps {degree} leaves, below {size - k - 1}")
    return out


# ---------------------------------------------------------------------------
# biclique gadgets
# ---------------------------------------------------------------------------


def _biclique_base(k: int, name: str) -> tuple[ConstructionOutput, int]:
    """The biclique gadget of parameter k, and its side length."""
    if not 2 <= k <= 7:
        raise ConstructionError(f"{name} requires 2 <= k <= 7, got {k}")
    digits = k // 2
    side = 1 << digits
    left = range(side)
    right = range(side, 2 * side)
    edges = [(a, b) for a in left for b in right]
    roles = {v: "left" for v in left}
    roles.update({v: "right" for v in right})
    labels = {v: _label(v % side, digits, 2) for v in range(2 * side)}
    u_ids = _wire(edges, roles, "u", 2 * side, left, digits, 2, 0)
    r_ids = _wire(edges, roles, "r", 2 * side + digits, right, digits, 2, 0)
    G = from_edge_list(2 * side + 2 * digits, edges)
    return ConstructionOutput(G, u_ids + r_ids, roles, labels), side


def edim_biclique(k: int) -> ConstructionOutput:
    """Balanced biclique with 2^(k//2) binary-labeled vertices per side plus
    landmarks u_i (adjacent to digit-0 left vertices) and r_i (adjacent to
    digit-0 right vertices).  The 2*(k//2) landmarks resolve the edges."""
    return _biclique_base(k, "edim_biclique")[0]


def md_biclique(k: int) -> ConstructionOutput:
    """Same biclique gadget, with the all-ones vertex deleted from each side;
    the landmarks then resolve the vertices.  The certificate is checked on
    the returned graph and a residual collision raises ConstructionError."""
    base, side = _biclique_base(k, "md_biclique")
    doomed = [side - 1, 2 * side - 1]  # the all-ones label on each side
    out, _, ok, witness = _delete(base, doomed)
    if not ok:
        raise ConstructionError(f"md_biclique({k}) landmark set fails after deletion: {witness}")
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
        raise ConstructionError(f"grid sides must be at least 2, got {min(dims)}")
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
    total = 1
    for side in dims:  # no huge product is built
        if (total := total * side) > GRAPH6_MAX_N:
            raise SizeLimitError(f"grid supports at most {GRAPH6_MAX_N} vertices")
    strides = _grid_strides(dims)
    edges = [(v, v + stride) for v in range(total)
             for side, stride in zip(dims, strides) if v // stride % side < side - 1]
    return from_edge_list(total, edges)


def grid_edge_landmarks(dims) -> tuple[int, ...]:
    """Edge-resolving landmarks for a grid: the origin plus, for every axis
    except the last, the far corner point along that axis alone."""
    dims = _grid_dims(dims)
    strides = _grid_strides(dims)
    lms = [0]
    lms.extend((dims[i] - 1) * strides[i] for i in range(len(dims) - 1))
    return tuple(sorted(set(lms)))
