"""Exact minimum resolving sets via reduction to minimum hitting set.

For each unordered object pair (two vertices, or two edges) the set of
vertices whose distances to the two objects differ forms a distinguisher
family; a landmark set resolves the objects iff it intersects every family.
Minimum resolving set size is therefore a minimum hitting set, solved
exactly by branch and bound.  The families of all pairs are built at once
from packed distance rows (see ``_pair_masks``): one byte per landmark,
bounded blocks of pairs compared by one big-int XOR each, and distances
of 128 or more packed as 7-bit planes whose XORs are OR-ed per block.
Duplicate families and supersets of other families are dropped first; the
rest are held as bits of one int, and ``hits[v]`` marks the families vertex
v hits.  One decision search answers
"is there a hitting set of at most k allowed vertices?": it prunes with a
greedily built pairwise-disjoint-family lower bound, branches on the
disjoint family with the fewest allowed vertices, and bars a refuted
branch's vertex from its later siblings.  The value is the first k from
the disjoint lower bound up that the search accepts, else the greedy
max-coverage upper bound; the basis is the lexicographically smallest
optimal set, grown one vertex at a time with the same search, so results
are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .graph_core import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    GraphInputError,
    SizeLimitError,
)

# Universes larger than this require an explicit node budget.
FREE_SEARCH_LIMIT = 20


class EmptyDistinguisherError(GraphError):
    """Two distinct objects share all distances; impossible for valid input."""


class BudgetExceededError(GraphError, RuntimeError):
    """Search node budget ran out; carries the best bounds found so far."""

    def __init__(self, kind: str, lower_bound: int, upper_bound: int,
                 best_known: tuple[int, ...], nodes_explored: int):
        super().__init__(
            f"search budget exhausted after {nodes_explored} nodes: "
            f"{lower_bound} <= {kind} value <= {upper_bound}"
        )
        self.kind = kind
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.best_known = best_known
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class DistinguisherInstance:
    """Hitting-set instance: one family per unordered object pair.

    ``universe`` is the candidate landmark count (vertex ids 0..universe-1);
    ``masks[i]`` is the distinguisher set of the i-th object pair as a
    bitmask, the pairs taken in ``itertools.combinations(objects, 2)``
    order, where the objects are ``range(G.n)`` for a vertex instance and
    ``G.edges()`` for an edge instance.
    """

    kind: str  # "vertex" or "edge"
    universe: int
    masks: tuple[int, ...]


@dataclass(frozen=True)
class DimensionCertificate:
    """A certified-minimum resolving set.

    ``basis`` is the lexicographically smallest optimal set; ``optimal`` is
    True only when the search ran to exhaustion.
    """

    kind: str
    value: int
    basis: tuple[int, ...]
    optimal: bool
    nodes_explored: int

    @property
    def nonempty_value(self) -> int:
        """Minimum size over nonempty resolving sets (differs from ``value``
        only when the empty set already resolves everything)."""
        return max(self.value, 1)


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


def build_vertex_instance(G: Graph) -> DistinguisherInstance:
    """One family per vertex pair: the vertices at differing distance."""
    D = G.distances
    if not D.connected:
        raise DisconnectedGraphError("distinguisher instances require a connected graph")
    return DistinguisherInstance("vertex", G.n, _pair_masks(D.rows))


def build_edge_instance(G: Graph) -> DistinguisherInstance:
    """One family per edge pair: the vertices at differing edge distance."""
    D = G.distances
    if not D.connected:
        raise DisconnectedGraphError("distinguisher instances require a connected graph")
    # lists, not tuples: CPython's free lists keep small tuples alive after use
    rows = [[a if a < b else b for a, b in zip(D.rows[u], D.rows[w])] for u, w in G.edges()]
    return DistinguisherInstance("edge", G.n, _pair_masks(rows))


# Packed bytes per block of rows in _pair_masks; bounds the build's peak memory.
_BLOCK_BYTES = 1 << 16
# XOR of two packed bytes -> ASCII: 0 (equal distances) is a 0 digit, 1..127
# a 1 digit, and 128 (the separators' XOR) ends a pair
_DIGITS = b"0" + b"1" * 127 + b" " * 128


def _pair_masks(rows) -> tuple[int, ...]:
    """Masks of all pairs i < j of the distance ``rows``, row-major: bit x is
    set where the two rows differ at landmark x.

    Rows are packed one byte per landmark, landmark n - 1 first, then a
    separator byte: 128 on the left side of the XOR, 0 on the right.  For a
    block of rows i, field i repeated once per j > i is XOR-ed as one int
    against the fields of those j, so a byte below 128 is nonzero exactly
    where the rows differ, and the bytes read as one binary token per pair.
    Distances of 128 and more are packed as 7-bit planes, whose XORs are
    OR-ed block by block, so that path needs no more mask memory.
    """
    m = len(rows)
    top = max(map(max, rows), default=0)
    if top < 128:
        planes = [[bytes(row[::-1]) for row in rows]]
    else:
        planes = [[bytes([v >> shift & 127 for v in reversed(row)]) for row in rows]
                  for shift in range(0, top.bit_length(), 7)]
    lefts = [[field + b"\x80" for field in plane] for plane in planes]
    rights = [b"".join([field + b"\0" for field in plane]) for plane in planes]
    size = len(rights[0]) // m if m else 0
    masks: list[int] = []
    i = 0
    while i < m - 1:
        # rows i..stop-1: at least one, at most _BLOCK_BYTES packed unless one row is larger
        stop, count = i + 1, m - 1 - i
        while stop < m - 1 and (count + m - 1 - stop) * size <= _BLOCK_BYTES:
            count += m - 1 - stop
            stop += 1
        differ = 0
        for left, right in zip(lefts, rights):
            differ |= (int.from_bytes(b"".join([left[r] * (m - 1 - r) for r in range(i, stop)]), "big")
                       ^ int.from_bytes(b"".join([right[(r + 1) * size:] for r in range(i, stop)]), "big"))
        text = differ.to_bytes(count * size, "big").translate(_DIGITS)
        masks.extend(map(int, text.split(), repeat(2)))
        i = stop
    return tuple(masks)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def greedy_upper_bound(inst: DistinguisherInstance) -> tuple[int, ...]:
    """Max-coverage greedy hitting set (ties to the smallest vertex id).
    Always returns a valid hitting set, hence a resolving set."""
    _check_families(inst)
    hits = _transpose(inst.masks)
    rem = (1 << len(inst.masks)) - 1
    chosen = []
    while rem:
        v = max(range(len(hits)), key=lambda u: ((rem & hits[u]).bit_count(), -u))
        chosen.append(v)
        rem &= ~hits[v]
    return tuple(sorted(chosen))


def disjoint_pairs_lower_bound(inst: DistinguisherInstance) -> int:
    """Size of a greedily built collection of pairwise-disjoint families;
    any hitting set needs at least one vertex per member."""
    _check_families(inst)
    return _disjoint_lb(sorted(inst.masks, key=lambda m: (m.bit_count(), m)))


def _check_families(inst: DistinguisherInstance):
    for m in inst.masks:
        if m == 0:
            raise EmptyDistinguisherError(
                "a distinguisher family is empty; two distinct objects share all distances"
            )
    if max(inst.masks, default=0) >> inst.universe:
        raise GraphInputError(f"a distinguisher family names a vertex outside 0..{inst.universe - 1}")


def _disjoint_lb(sorted_masks) -> int:
    used = 0
    count = 0
    for m in sorted_masks:
        if not m & used:
            used |= m
            count += 1
    return count


def _transpose(masks) -> list[int]:
    """``hits[v]``: the bitmask of the indices i with vertex v in ``masks[i]``."""
    width = max(masks, default=0).bit_length()
    spec = f"0{width}b"
    rows = "".join([format(m, spec) for m in reversed(masks)])
    # column v of the fixed-width binary rows, last mask first, is hits[v]
    return [int(rows[width - 1 - v :: width], 2) for v in range(width)]


def _minimal_families(masks) -> tuple[list[int], list[int]]:
    """Distinct families with every superset of another dropped, sorted by
    (cardinality, mask), and their transpose (see ``_transpose``)."""
    uniq = sorted(set(masks))
    uniq.sort(key=int.bit_count)  # stable: (cardinality, mask) order
    cols = _transpose(uniq)
    kept = []
    alive = (1 << len(uniq)) - 1
    while alive:
        # every smaller family is kept or contains a kept one, so the
        # first alive family is minimal; it and its supersets leave
        j = (alive & -alive).bit_length() - 1
        f = uniq[j]
        kept.append(f)
        supersets = alive
        while f:
            low = f & -f
            supersets &= cols[low.bit_length() - 1]
            f ^= low
        alive &= ~supersets
    return kept, _transpose(kept)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


class _BudgetSignal(Exception):
    pass


class _Search:
    """Decision search over the reduced families, with a node budget.

    A set of families is an int over family indices; choosing vertex v
    leaves ``rem & ~hits[v]``.  ``allow`` is the bitmask of usable vertices.
    """

    __slots__ = ("fams", "clear", "cap", "spent")

    def __init__(self, fams: list[int], hits: list[int], cap: int | None):
        self.fams = fams
        self.clear = [~h for h in hits]
        self.cap = cap
        self.spent = 0

    def exists(self, rem: int, k: int, allow: int) -> bool:
        """Whether the families in ``rem`` have a hitting set of at most k
        vertices of ``allow``."""
        self.spent += 1
        if self.cap is not None and self.spent > self.cap:
            raise _BudgetSignal
        if not rem:
            return True
        fams, clear = self.fams, self.clear
        # Greedy pairwise-disjoint families (of their allowed vertices), each
        # needing its own vertex; a family with no allowed vertex is never
        # cleared, so it is reached unless the bound already exceeds k.
        r, count, branch = rem, 0, 0
        while r:
            f = fams[(r & -r).bit_length() - 1] & allow
            count += 1
            if not f or count > k:
                return False
            if not branch or f.bit_count() < branch.bit_count():
                branch = f
            while f:
                low = f & -f
                r &= clear[low.bit_length() - 1]
                f ^= low
        while branch:
            low = branch & -branch
            if self.exists(rem & clear[low.bit_length() - 1], k - 1, allow):
                return True
            allow &= ~low  # refuted: later siblings need not use this vertex
            branch ^= low
        return False


def _require_budget(universe: int, budget: int | None):
    """Refuse a negative budget, and a free search past FREE_SEARCH_LIMIT,
    before any other work."""
    if budget is not None and budget < 0:
        raise GraphInputError(f"search budget must be at least 0, got {budget}")
    if universe > FREE_SEARCH_LIMIT and budget is None:
        raise SizeLimitError(
            f"universe of {universe} vertices needs an explicit search budget "
            f"(free search is certified only up to {FREE_SEARCH_LIMIT})"
        )


def min_hitting_set(inst: DistinguisherInstance, budget: int | None = None) -> DimensionCertificate:
    """Certified minimum hitting set for a distinguisher instance.

    ``budget`` caps the number of search nodes; exhausting it raises
    BudgetExceededError carrying the best bounds found.  Universes above
    FREE_SEARCH_LIMIT vertices require an explicit budget.
    """
    _require_budget(inst.universe, budget)
    ub_set = greedy_upper_bound(inst)  # validates the families first
    fams, hits = _minimal_families(inst.masks)
    if not fams:
        return DimensionCertificate(inst.kind, 0, (), True, 0)

    search = _Search(fams, hits, budget)
    lower = _disjoint_lb(fams)
    upper = len(ub_set)
    rem = (1 << len(fams)) - 1
    vertices = (1 << len(hits)) - 1
    try:
        value = next((k for k in range(lower, upper) if search.exists(rem, k, vertices)), upper)
        # lex-smallest basis: extend the prefix by the smallest vertex that
        # still leaves a completion from larger vertices
        basis = []
        for v in range(len(hits)):
            if len(basis) == value:
                break
            after = rem & ~hits[v]
            if search.exists(after, value - len(basis) - 1, vertices & (-1 << (v + 1))):
                basis.append(v)
                rem = after
    except _BudgetSignal:
        raise BudgetExceededError(inst.kind, lower, upper, ub_set, search.spent) from None
    if len(basis) != value:  # pragma: no cover - guarded by the value search
        raise AssertionError("no extension below the certified optimum")
    return DimensionCertificate(inst.kind, value, tuple(basis), True, search.spent)


# ---------------------------------------------------------------------------
# dimension front ends
# ---------------------------------------------------------------------------


def metric_dimension(G: Graph, budget: int | None = None) -> DimensionCertificate:
    """Certified metric dimension with a lexicographically smallest basis."""
    _require_budget(G.n, budget)
    return min_hitting_set(build_vertex_instance(G), budget)


def edge_metric_dimension(G: Graph, budget: int | None = None) -> DimensionCertificate:
    """Certified edge metric dimension with a lexicographically smallest basis."""
    _require_budget(G.n, budget)
    return min_hitting_set(build_edge_instance(G), budget)
