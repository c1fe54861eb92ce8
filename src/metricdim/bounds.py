"""Closed-form bound evaluators, the per-graph record and every check row:
the inequalities ``audit_graph`` runs, and each sweep id's rows
(THEOREM_CHECKS).  All formulas are evaluated in exact integer arithmetic;
the two upper bounds stated with non-integer values (half of a power of
three, and a power of three to a half-integer exponent) are reported as
floors together with a flag saying whether the floor is the exact value.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt
from typing import Callable, Optional, Sequence

from .characterizations import char_edim_ge_n2, char_edim_n1, tuple_lemma_check
from .graph_core import (
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    _Record,
    chromatic_number,
    degeneracy,
    greedy_coloring,
    is_connected,
    max_clique,
    max_star,
    CHROMATIC_EXACT_LIMIT,
)
from .solver import (
    BudgetExceededError,
    edge_metric_dimension,
    metric_dimension,
)


class BoundParams(_Record):
    """Validated (k, D, c) argument bundle for the bound formulas."""

    def __init__(self, k: int, D: int, c: Optional[int] = None):
        self.__dict__.update(k=k, D=D, c=c)
        if k < 1:
            raise GraphInputError(f"bound dimension k must be >= 1, got {k}")
        if D < 1:
            raise GraphInputError(f"bound diameter D must be >= 1, got {D}")
        if c is not None and not 0 <= c <= D:
            raise GraphInputError(f"free parameter c must lie in [0, {D}], got {c}")


def edge_bound_general_c(k: int, D: int, c: int) -> int:
    """Edge count bound (D-c)^k + k * sum_{i=0}^{c} (2i+2)^(k-1), any c in [0, D]."""
    BoundParams(k, D, c)
    return (D - c) ** k + k * sum((2 * i + 2) ** (k - 1) for i in range(c + 1))


def edge_bound_new(k: int, D: int) -> int:
    """Edge count bound (floor(2D/3)+1)^k + k * sum_{i=1}^{ceil(D/3)} (2i)^(k-1).

    This is the general-c bound at c = ceil(D/3) - 1 after an index shift;
    the identity is checked on every call as a cross-check, also under -O.
    """
    BoundParams(k, D)
    top = -(-D // 3)  # ceil(D/3)
    value = (2 * D // 3 + 1) ** k + k * sum((2 * i) ** (k - 1) for i in range(1, top + 1))
    general = edge_bound_general_c(k, D, top - 1)
    if value != general:
        raise AssertionError(
            f"edge_bound_new({k}, {D}) = {value} differs from the general-c bound {general}"
        )
    return value


def edge_bound_zubrilina(k: int, D: int) -> int:
    """Edge count bound C(k,2) + k*D^(k-1) + D^k."""
    BoundParams(k, D)
    return k * (k - 1) // 2 + k * D ** (k - 1) + D ** k


def vertex_bound_hernando(k: int, D: int) -> int:
    """Vertex count bound (floor(2D/3)+1)^k + k * sum_{i=1}^{ceil(D/3)} (2i-1)^(k-1)."""
    BoundParams(k, D)
    top = -(-D // 3)
    return (2 * D // 3 + 1) ** k + k * sum((2 * i - 1) ** (k - 1) for i in range(1, top + 1))


def subgraph_vertex_bound(k: int, D: int) -> int:
    """Count bound (D+1)^k for subgraphs of diameter D: vertices via metric
    dimension k, or edges via edge metric dimension k (``subgraph_edge_bound``)."""
    if k < 1 or D < 0:
        raise GraphInputError(f"subgraph bound requires k >= 1 and D >= 0, got k={k} D={D}")
    return (D + 1) ** k


subgraph_edge_bound = subgraph_vertex_bound


class PatternBounds(_Record):
    """Extremal sizes of the forbidden patterns at dimension k.

    max_clique_md and max_star_emd are exact; the other four are
    lower/upper pairs.  Uppers marked floor are reported as floor values,
    exact only when the matching flag is set.
    """

    def __init__(self, k: int, max_clique_md: int, max_star_emd: int, star_md_lower: int, star_md_upper: int,
                 biclique_md_lower: int, biclique_md_upper_floor: int, biclique_md_upper_exact: bool,
                 biclique_emd_lower: int, biclique_emd_upper_floor: int, biclique_emd_upper_exact: bool):
        self.__dict__.update(
            k=k, max_clique_md=max_clique_md, max_star_emd=max_star_emd, star_md_lower=star_md_lower,
            star_md_upper=star_md_upper, biclique_md_lower=biclique_md_lower,
            biclique_md_upper_floor=biclique_md_upper_floor, biclique_md_upper_exact=biclique_md_upper_exact,
            biclique_emd_lower=biclique_emd_lower, biclique_emd_upper_floor=biclique_emd_upper_floor,
            biclique_emd_upper_exact=biclique_emd_upper_exact)


def pattern_bounds(k: int) -> PatternBounds:
    """Evaluate the six extremal pattern sizes at dimension k.

    Clique side (metric dimension): largest clique is exactly 2^k.
    Star sides: largest star is exactly 2^k leaves for edge metric
    dimension, and between 3^k - k - 1 and 3^k - 1 leaves for metric
    dimension.  Balanced biclique sides: between 2^(k//2) - 1 and 3^k / 2
    for metric dimension, and between 2^(k//2) and 3^(k/2) for edge metric
    dimension.  3^k is odd so the md upper floor is never exact; the emd
    upper is exact precisely when k is even.
    """
    if k < 1:
        raise GraphInputError(f"pattern bounds require k >= 1, got {k}")
    return PatternBounds(
        k=k,
        max_clique_md=2 ** k,
        max_star_emd=2 ** k,
        star_md_lower=3 ** k - k - 1,
        star_md_upper=3 ** k - 1,
        biclique_md_lower=2 ** (k // 2) - 1,
        biclique_md_upper_floor=3 ** k // 2,
        biclique_md_upper_exact=False,
        biclique_emd_lower=2 ** (k // 2),
        biclique_emd_upper_floor=isqrt(3 ** k),
        biclique_emd_upper_exact=k % 2 == 0,
    )


class GraphRecord:
    """Per-graph statistics: the one record of ``audit_graph`` and of the
    theorem sweeps.  Construction checks connectivity by one bit walk;
    the diameter and the rest are computed on first use.
    ``dim_value``/``edim_value`` are None when the budget ran out;
    ``chromatic`` is greedy past CHROMATIC_EXACT_LIMIT vertices and reads
    the exact branch's lower bound from ``clique``, the clique number;
    ``char_n1``/``char_ge_n2`` are the two characterization verdicts and
    ``tuple_lemma`` the tuple lemma's."""

    def __init__(self, G: Graph, budget: Optional[int] = None):
        self.graph = G
        self.budget = budget
        self.n = G.n
        self.m = G.num_edges
        if not is_connected(G):
            raise DisconnectedGraphError("audit requires a connected graph")
        self.chromatic_exact = G.n <= CHROMATIC_EXACT_LIMIT

    @cached_property
    def diameter(self) -> int:
        return self.graph.distances.diameter

    def _value(self, solve) -> Optional[int]:
        try:
            return solve(self.graph, budget=self.budget).value
        except BudgetExceededError:
            return None

    @cached_property
    def dim_value(self) -> Optional[int]:
        return self._value(metric_dimension)

    @cached_property
    def edim_value(self) -> Optional[int]:
        return self._value(edge_metric_dimension)

    @property
    def budget_exhausted(self) -> bool:
        return self.dim_value is None or self.edim_value is None

    @cached_property
    def max_degree(self) -> int:
        return max_star(self.graph)

    @cached_property
    def degeneracy(self) -> int:
        return degeneracy(self.graph)

    @cached_property
    def clique(self) -> int:
        return len(max_clique(self.graph))

    @cached_property
    def chromatic(self) -> int:
        if self.chromatic_exact:
            return chromatic_number(self.graph, self.clique)
        return greedy_coloring(self.graph)

    @cached_property
    def char_n1(self) -> bool:
        return char_edim_n1(self.graph)[0]

    @cached_property
    def char_ge_n2(self) -> bool:
        return char_edim_ge_n2(self.graph).holds

    @cached_property
    def tuple_lemma(self) -> Optional[tuple[int, ...]]:
        """The (k+1)-tuple lemma at k = n - edim: the first violating
        subset, or None when it holds."""
        return tuple_lemma_check(self.graph, self.n - self.edim_value).violating

    # Every lazy field a sweep row reads, in the order ``fill`` computes them.
    FIELDS = ("diameter", "dim_value", "edim_value", "max_degree", "degeneracy", "clique", "chromatic",
              "char_n1", "char_ge_n2", "tuple_lemma")

    @staticmethod
    def fill(records: Sequence[GraphRecord]) -> None:
        """Compute the FIELDS each record's budget allows: all, or the first
        three once a dimension's budget ran out.  Each field is computed
        across the records before the next (every diameter, then every
        dim_value, ...), about a quarter faster than record by record."""
        for i, name in enumerate(GraphRecord.FIELDS):
            if i == 3:
                records = [r for r in records if not r.budget_exhausted]
            for r in records:
                getattr(r, name)

    @cached_property
    def checks(self) -> dict[str, bool]:
        """INEQUALITIES row name -> whether it holds, over the rows whose
        inputs are known: each dimension they read was solved, and the
        diameter, when read, is positive."""
        return {name: row(self) is None for name, (needs, row) in INEQUALITIES.items()
                if all(self.diameter >= 1 if x == "diameter" else getattr(self, x) is not None
                       for x in needs)}

    @property
    def passed(self) -> bool:
        return not self.budget_exhausted and all(self.checks.values())

    def failing(self) -> list[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)


def _exceeds(label: str, value: int, bound: int, kind: str, k: int,
             D: Optional[int] = None) -> Optional[str]:
    """Failure detail reporting dimension ``kind`` = k, and the diameter D
    when given, or None when value <= bound."""
    if value <= bound:
        return None
    tail = "" if D is None else f" D={D}"
    return f"{label}={value} bound={bound} {kind}={k}{tail}"


@lru_cache(maxsize=None)
def _bound(formula: Callable[[int, int], int], k: int, D: int) -> int:
    """formula(k, D), evaluated once per (formula, k, D) for the rows below;
    a bad (k, D) raises on every call, as errors are not cached.  k and D are
    at most the vertex count, at most 62 in the formats read, so the cache
    stays small."""
    return formula(k, D)


# Every inequality the dimensions imply: name -> (record attributes needed,
# row); a row maps a GraphRecord to a failure detail, or None when it holds.
# Bound formulas take the nonempty value max(v, 1), so single-edge graphs
# pass; the scaled corollary comparisons use the plain values.  The rows
# read the (k, D) formulas through _bound: a sweep meets the same few pairs
# on thousands of graphs, and the public functions stay uncached.
INEQUALITIES: dict[str, tuple[tuple[str, ...], Callable[[GraphRecord], Optional[str]]]] = {
    "vertex-bound-hernando": (("dim_value", "diameter"), lambda r: _exceeds(
        "n", r.n, _bound(vertex_bound_hernando, max(r.dim_value, 1), r.diameter), "dim", r.dim_value, r.diameter)),
    "subgraph-vertex-self": (("dim_value",), lambda r: _exceeds(
        "n", r.n, _bound(subgraph_vertex_bound, max(r.dim_value, 1), r.diameter), "dim", r.dim_value, r.diameter)),
    "max-star-md": (("dim_value",), lambda r: _exceeds(
        "max_degree", r.max_degree, 3 ** max(r.dim_value, 1) - 1, "dim", r.dim_value)),
    "corollary-edges-md": (("dim_value",), lambda r: _exceeds(
        "2m", 2 * r.m, (3 ** r.dim_value - 1) * r.n, "dim", r.dim_value)),
    "corollary-chromatic": (("dim_value",), lambda r: _exceeds(
        "chromatic", r.chromatic, 3 ** r.dim_value, "dim", r.dim_value)),
    "corollary-degeneracy-md": (("dim_value",), lambda r: _exceeds(
        "degeneracy", r.degeneracy, 3 ** r.dim_value - 1, "dim", r.dim_value)),
    "edge-bound-new": (("edim_value", "diameter"), lambda r: _exceeds(
        "m", r.m, _bound(edge_bound_new, max(r.edim_value, 1), r.diameter), "edim", r.edim_value, r.diameter)),
    "edge-bound-zubrilina": (("edim_value", "diameter"), lambda r: _exceeds(
        "m", r.m, _bound(edge_bound_zubrilina, max(r.edim_value, 1), r.diameter), "edim", r.edim_value, r.diameter)),
    "subgraph-edge-self": (("edim_value",), lambda r: _exceeds(
        "m", r.m, _bound(subgraph_edge_bound, max(r.edim_value, 1), r.diameter), "edim", r.edim_value, r.diameter)),
    "max-star-emd": (("edim_value",), lambda r: _exceeds(
        "max_degree", r.max_degree, 2 ** max(r.edim_value, 1), "edim", r.edim_value)),
    "corollary-edges-emd": (("edim_value",), lambda r: _exceeds(
        "2m", 2 * r.m, 2 ** r.edim_value * r.n, "edim", r.edim_value)),
    "corollary-degeneracy-emd": (("edim_value",), lambda r: _exceeds(
        "degeneracy", r.degeneracy, 2 ** r.edim_value, "edim", r.edim_value)),
}


def audit_graph(G: Graph, budget: Optional[int] = None) -> GraphRecord:
    """The GraphRecord of G with its ``checks`` evaluated: every
    edge/vertex-count, chromatic, and degeneracy inequality that the
    dimensions of G imply (the rows of INEQUALITIES).  Rows whose dimension
    ran out of budget are absent, and so are the three
    diameter-parameterized bounds at diameter 0."""
    r = GraphRecord(G, budget)
    r.checks  # the audit runs the solves and the rows here, not on first read
    return r


# Characterization rows read the record's verdicts; only a failing row reruns its predicate.
def _char1_equiv(r: GraphRecord) -> Optional[str]:
    if r.char_n1 != (r.edim_value == r.n - 1):
        _, pair = char_edim_n1(r.graph)
        return f"predicate={r.char_n1} edim={r.edim_value} n={r.n} pair={pair}"
    return None


def _char2_equiv(r: GraphRecord) -> Optional[str]:
    if r.char_ge_n2 != (r.edim_value >= r.n - 2):
        triple = char_edim_ge_n2(r.graph).failing_triple
        return f"predicate={r.char_ge_n2} edim={r.edim_value} n={r.n} triple={triple}"
    return None


def _eq_n2_equiv(r: GraphRecord) -> Optional[str]:
    holds = not r.char_n1 and r.char_ge_n2  # char_edim_eq_n2 on the verdicts
    if holds != (r.edim_value == r.n - 2):
        return f"predicate={holds} edim={r.edim_value} n={r.n}"
    return None


def _tuple_lemma(r: GraphRecord) -> Optional[str]:
    return None if r.tuple_lemma is None else f"k={r.n - r.edim_value} violating={r.tuple_lemma}"


def _diam_le_5(r: GraphRecord) -> Optional[str]:
    if r.edim_value == r.n - 2 and r.diameter > 5:
        return f"edim=n-2 but diameter={r.diameter}"
    return None


def _diam_le_3k_1(r: GraphRecord) -> Optional[str]:
    k = r.n - r.edim_value
    if r.diameter > 3 * k - 1:
        return f"k={k} diameter={r.diameter} bound={3 * k - 1}"
    return None


# theorem id -> its rows, in order: the six above or rows of INEQUALITIES.  A
# row maps a GraphRecord whose dimensions are both known to a failure detail,
# or None when it holds; the first failing row's detail is reported.  The
# explore sweep checks nothing and collects data.
THEOREM_CHECKS: dict[str, tuple[Callable[[GraphRecord], Optional[str]], ...]] = {
    "char1-equiv": (_char1_equiv,),
    "char2-equiv": (_char2_equiv,),
    "eq-n2-equiv": (_eq_n2_equiv,),
    "tuple-lemma": (_tuple_lemma,),
    "diam-le-5": (_diam_le_5,),
    "diam-le-3k-1": (_diam_le_3k_1,),
    "edge-bound-new": (INEQUALITIES["edge-bound-new"][1],),
    "edge-bound-zubrilina": (INEQUALITIES["edge-bound-zubrilina"][1],),
    "vertex-bound-hernando": (INEQUALITIES["vertex-bound-hernando"][1],),
    "subgraph-bounds-self": (INEQUALITIES["subgraph-vertex-self"][1], INEQUALITIES["subgraph-edge-self"][1]),
    "corollary-edges-md": (INEQUALITIES["corollary-edges-md"][1],),
    "corollary-edges-emd": (INEQUALITIES["corollary-edges-emd"][1],),
    "corollary-chromatic": (INEQUALITIES["corollary-chromatic"][1],),
    "corollary-degeneracy": (INEQUALITIES["corollary-degeneracy-md"][1], INEQUALITIES["corollary-degeneracy-emd"][1]),
    "clique-vs-edim-explore": (),
}
