"""Exact minimum resolving sets via reduction to minimum hitting set.

For each unordered object pair (two vertices, or two edges) the set of
vertices whose distances to the two objects differ forms a distinguisher
family; a landmark set resolves the objects iff it intersects every family.
Minimum resolving set size is therefore a minimum hitting set, solved
exactly by branch and bound: branch on a family of minimum cardinality,
prune with a greedily built pairwise-disjoint-family lower bound, and seed
with a greedy max-coverage upper bound.  Ties everywhere break toward the
lexicographically smallest answer so results are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    SizeLimitError,
    bfs_all_pairs,
    bits,
)

# Universes larger than this require an explicit node budget.
FREE_SEARCH_LIMIT = 20

# Past this many distinct families, skip the quadratic superset sweep.
REDUCTION_CUTOFF = 1500


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
    ``masks[i]`` is the distinguisher set of ``pairs[i]`` as a bitmask.
    """

    kind: str  # "vertex" or "edge"
    universe: int
    pairs: tuple[tuple, ...]
    masks: tuple[int, ...]

    @property
    def families(self):
        return tuple(zip(self.pairs, self.masks))


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
    D = bfs_all_pairs(G)
    if not D.connected:
        raise DisconnectedGraphError("distinguisher instances require a connected graph")
    pairs = []
    masks = []
    n = G.n
    for a in range(n):
        ra = D.rows[a]
        for b in range(a + 1, n):
            rb = D.rows[b]
            m = 0
            for x in range(n):
                if ra[x] != rb[x]:
                    m |= 1 << x
            pairs.append((a, b))
            masks.append(m)
    return DistinguisherInstance("vertex", n, tuple(pairs), tuple(masks))


def build_edge_instance(G: Graph) -> DistinguisherInstance:
    """One family per edge pair: the vertices at differing edge distance."""
    D = bfs_all_pairs(G)
    if not D.connected:
        raise DisconnectedGraphError("distinguisher instances require a connected graph")
    n = G.n
    edges = G.edges()
    dist_rows = []
    for u, w in edges:
        ru, rw = D.rows[u], D.rows[w]
        dist_rows.append([min(ru[x], rw[x]) for x in range(n)])
    pairs = []
    masks = []
    for i in range(len(edges)):
        di = dist_rows[i]
        for j in range(i + 1, len(edges)):
            dj = dist_rows[j]
            m = 0
            for x in range(n):
                if di[x] != dj[x]:
                    m |= 1 << x
            pairs.append((edges[i], edges[j]))
            masks.append(m)
    return DistinguisherInstance("edge", n, tuple(pairs), tuple(masks))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def greedy_upper_bound(inst: DistinguisherInstance) -> tuple[int, ...]:
    """Max-coverage greedy hitting set (ties to the smallest vertex id).
    Always returns a valid hitting set, hence a resolving set."""
    _reject_empty(inst.masks)
    remaining = list(inst.masks)
    chosen = []
    while remaining:
        counts = [0] * inst.universe
        for m in remaining:
            for v in bits(m):
                counts[v] += 1
        v = max(range(inst.universe), key=lambda u: (counts[u], -u))
        chosen.append(v)
        remaining = [m for m in remaining if not (m >> v) & 1]
    return tuple(sorted(chosen))


def disjoint_pairs_lower_bound(inst: DistinguisherInstance) -> int:
    """Size of a greedily built collection of pairwise-disjoint families;
    any hitting set needs at least one vertex per member."""
    _reject_empty(inst.masks)
    return _disjoint_lb(sorted(inst.masks, key=lambda m: (m.bit_count(), m)))


def _reject_empty(masks):
    for m in masks:
        if m == 0:
            raise EmptyDistinguisherError(
                "a distinguisher family is empty; two distinct objects share all distances"
            )


def _disjoint_lb(sorted_masks) -> int:
    used = 0
    count = 0
    for m in sorted_masks:
        if not m & used:
            used |= m
            count += 1
    return count


def _minimal_families(masks) -> list[int]:
    """Dedupe and (for moderate instance sizes) drop superset families,
    keeping the result sorted by (cardinality, mask)."""
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if len(uniq) > REDUCTION_CUTOFF:
        return uniq
    out: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in out):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


class _BudgetSignal(Exception):
    pass


class _Budget:
    __slots__ = ("cap", "spent")

    def __init__(self, cap: int | None):
        self.cap = cap
        self.spent = 0

    def tick(self):
        self.spent += 1
        if self.cap is not None and self.spent > self.cap:
            raise _BudgetSignal


def _search_value(families: list[int], lower: int, upper: int, budget: _Budget) -> int:
    """Exact minimum hitting set size within [lower, upper]."""
    best = upper

    def rec(chosen: int, rem: list[int]):
        nonlocal best
        budget.tick()
        if not rem:
            if chosen < best:
                best = chosen
            return
        if chosen + _disjoint_lb(rem) >= best:
            return
        fam = rem[0]  # rem stays sorted by (cardinality, mask)
        for v in bits(fam):
            rec(chosen + 1, [m for m in rem if not (m >> v) & 1])

    rec(0, families)
    return best


def _exists_hitting_set(families: list[int], k: int, budget: _Budget) -> bool:
    """Decide whether the (already universe-restricted) families admit a
    hitting set of size at most k."""
    budget.tick()
    if not families:
        return True
    if k == 0:
        return False
    for m in families:
        if m == 0:
            return False
    if _disjoint_lb(families) > k:
        return False
    fam = min(families, key=lambda m: (m.bit_count(), m))
    for v in bits(fam):
        nxt = [m for m in families if not (m >> v) & 1]
        if _exists_hitting_set(nxt, k - 1, budget):
            return True
    return False


def _lex_smallest_basis(families: list[int], value: int, universe: int, budget: _Budget):
    """Lexicographically smallest hitting set of exactly the optimal size,
    built by greedy prefix extension with a feasibility search per slot."""
    chosen: list[int] = []
    rem = list(families)
    lo = 0
    for _ in range(value):
        for v in range(lo, universe):
            rem_after = [m for m in rem if not (m >> v) & 1]
            high = -1 << (v + 1)
            masked = [m & high for m in rem_after]
            if _exists_hitting_set(masked, value - len(chosen) - 1, budget):
                chosen.append(v)
                rem = rem_after
                lo = v + 1
                break
        else:  # pragma: no cover - guarded by the value search
            raise AssertionError("no extension below the certified optimum")
    return tuple(chosen)


def _require_budget(universe: int, budget: int | None):
    """Refuse a free search past FREE_SEARCH_LIMIT, before any other work."""
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
    _reject_empty(inst.masks)
    reduced = _minimal_families(inst.masks)
    if not reduced:
        return DimensionCertificate(inst.kind, 0, (), True, 0)

    b = _Budget(budget)
    ub_set = greedy_upper_bound(inst)
    lower = _disjoint_lb(reduced)
    upper = len(ub_set)
    try:
        if lower == upper:
            value = lower  # bounds meet, the search would be a no-op
        else:
            value = _search_value(reduced, lower, upper, b)
        basis = _lex_smallest_basis(reduced, value, inst.universe, b)
    except _BudgetSignal:
        raise BudgetExceededError(inst.kind, lower, upper, ub_set, b.spent) from None
    return DimensionCertificate(inst.kind, value, basis, True, b.spent)


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
