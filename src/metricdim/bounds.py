"""Closed-form bound evaluators and the per-graph inequality audit.

All formulas are evaluated in exact integer arithmetic.  The two upper
bounds stated with non-integer values (half of a power of three, and a
power of three to a half-integer exponent) are reported as floors together
with a flag saying whether the floor is the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Callable, Optional

from .graph_core import (
    Graph,
    GraphInputError,
    DisconnectedGraphError,
    chromatic_number,
    degeneracy,
    greedy_coloring,
    max_star,
    CHROMATIC_EXACT_LIMIT,
)
from .solver import (
    BudgetExceededError,
    edge_metric_dimension,
    metric_dimension,
)


@dataclass(frozen=True)
class BoundParams:
    """Validated (k, D, c) argument bundle for the bound formulas."""

    k: int
    D: int
    c: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise GraphInputError(f"bound dimension k must be >= 1, got {self.k}")
        if self.D < 1:
            raise GraphInputError(f"bound diameter D must be >= 1, got {self.D}")
        if self.c is not None and not 0 <= self.c <= self.D:
            raise GraphInputError(f"free parameter c must lie in [0, {self.D}], got {self.c}")


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
    """Vertex count bound (D+1)^k for subgraphs of diameter D, via metric dimension k."""
    if k < 1 or D < 0:
        raise GraphInputError(f"subgraph bound requires k >= 1 and D >= 0, got k={k} D={D}")
    return (D + 1) ** k


def subgraph_edge_bound(k: int, D: int) -> int:
    """Edge count bound (D+1)^k for subgraphs of diameter D, via edge metric dimension k."""
    if k < 1 or D < 0:
        raise GraphInputError(f"subgraph bound requires k >= 1 and D >= 0, got k={k} D={D}")
    return (D + 1) ** k


@dataclass(frozen=True)
class PatternBounds:
    """Extremal sizes of the forbidden patterns at dimension k.

    max_clique_md and max_star_emd are exact; the other four are
    lower/upper pairs.  Uppers marked floor are reported as floor values,
    exact only when the matching flag is set.
    """

    k: int
    max_clique_md: int
    max_star_emd: int
    star_md_lower: int
    star_md_upper: int
    biclique_md_lower: int
    biclique_md_upper_floor: int
    biclique_md_upper_exact: bool
    biclique_emd_lower: int
    biclique_emd_upper_floor: int
    biclique_emd_upper_exact: bool


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


@dataclass(frozen=True)
class AuditRecord:
    """Per-graph inequality audit.

    ``checks`` maps check name to pass/fail.  When a solver budget ran out
    the affected dimension is None, its dependent checks are absent, and
    ``budget_exhausted`` is set.  ``chromatic_exact`` distinguishes the
    exact chromatic number from the greedy upper bound used past the exact
    size limit.
    """

    n: int
    m: int
    diameter: int
    dim_value: Optional[int]
    edim_value: Optional[int]
    max_degree: int
    degeneracy: int
    chromatic: int
    chromatic_exact: bool
    checks: dict[str, bool]
    budget_exhausted: bool

    @property
    def passed(self) -> bool:
        return not self.budget_exhausted and all(self.checks.values())

    def failing(self) -> list[str]:
        return sorted(name for name, ok in self.checks.items() if not ok)


class GraphRecord:
    """Per-graph statistics shared by ``audit_graph`` and the theorem sweeps.
    The graph's distance matrix gives connectivity and diameter on
    construction, and the solver and predicates read the same matrix; the
    rest is computed on first use.  ``dim``/``edim`` are None when the
    budget ran out; ``chromatic`` is greedy past CHROMATIC_EXACT_LIMIT
    vertices."""

    def __init__(self, G: Graph, budget: Optional[int] = None):
        D = G.distances
        if not D.connected:
            raise DisconnectedGraphError("audit requires a connected graph")
        self.graph = G
        self.budget = budget
        self.n = G.n
        self.m = G.num_edges
        self.diameter = max(max(row) for row in D.rows)
        self.chromatic_exact = G.n <= CHROMATIC_EXACT_LIMIT

    def _value(self, solve) -> Optional[int]:
        try:
            return solve(self.graph, budget=self.budget).value
        except BudgetExceededError:
            return None

    @cached_property
    def dim(self) -> Optional[int]:
        return self._value(metric_dimension)

    @cached_property
    def edim(self) -> Optional[int]:
        return self._value(edge_metric_dimension)

    @property
    def budget_exhausted(self) -> bool:
        return self.dim is None or self.edim is None

    @cached_property
    def max_degree(self) -> int:
        return max_star(self.graph)

    @cached_property
    def degeneracy(self) -> int:
        return degeneracy(self.graph)

    @cached_property
    def chromatic(self) -> int:
        return chromatic_number(self.graph) if self.chromatic_exact else greedy_coloring(self.graph)

    def known(self, needs: tuple[str, ...]) -> bool:
        """Whether every input a table row needs is available: a dimension
        whose solve finished, or "diameter" when the diameter is positive."""
        return all(self.diameter >= 1 if x == "diameter" else getattr(self, x) is not None
                   for x in needs)


def _exceeds(label: str, value: int, bound: int, kind: str, r: GraphRecord,
             with_diameter: bool = False) -> Optional[str]:
    """Failure detail reporting dimension ``kind``, or None when value <= bound."""
    if value <= bound:
        return None
    tail = f" D={r.diameter}" if with_diameter else ""
    return f"{label}={value} bound={bound} {kind}={getattr(r, kind)}{tail}"


# Every inequality the dimensions imply: name -> (inputs needed, row); a row
# maps a GraphRecord to a failure detail, or None when it holds.  Bound
# formulas take the nonempty value max(v, 1), so single-edge graphs pass;
# the scaled corollary comparisons use the plain values.
INEQUALITIES: dict[str, tuple[tuple[str, ...], Callable[[GraphRecord], Optional[str]]]] = {
    "vertex-bound-hernando": (("dim", "diameter"), lambda r: _exceeds(
        "n", r.n, vertex_bound_hernando(max(r.dim, 1), r.diameter), "dim", r, True)),
    "subgraph-vertex-self": (("dim",), lambda r: _exceeds(
        "n", r.n, subgraph_vertex_bound(max(r.dim, 1), r.diameter), "dim", r, True)),
    "max-star-md": (("dim",), lambda r: _exceeds(
        "max_degree", r.max_degree, 3 ** max(r.dim, 1) - 1, "dim", r)),
    "corollary-edges-md": (("dim",), lambda r: _exceeds(
        "2m", 2 * r.m, (3 ** r.dim - 1) * r.n, "dim", r)),
    "corollary-chromatic": (("dim",), lambda r: _exceeds(
        "chromatic", r.chromatic, 3 ** r.dim, "dim", r)),
    "corollary-degeneracy-md": (("dim",), lambda r: _exceeds(
        "degeneracy", r.degeneracy, 3 ** r.dim - 1, "dim", r)),
    "edge-bound-new": (("edim", "diameter"), lambda r: _exceeds(
        "m", r.m, edge_bound_new(max(r.edim, 1), r.diameter), "edim", r, True)),
    "edge-bound-zubrilina": (("edim", "diameter"), lambda r: _exceeds(
        "m", r.m, edge_bound_zubrilina(max(r.edim, 1), r.diameter), "edim", r, True)),
    "subgraph-edge-self": (("edim",), lambda r: _exceeds(
        "m", r.m, subgraph_edge_bound(max(r.edim, 1), r.diameter), "edim", r, True)),
    "max-star-emd": (("edim",), lambda r: _exceeds(
        "max_degree", r.max_degree, 2 ** max(r.edim, 1), "edim", r)),
    "corollary-edges-emd": (("edim",), lambda r: _exceeds(
        "2m", 2 * r.m, 2 ** r.edim * r.n, "edim", r)),
    "corollary-degeneracy-emd": (("edim",), lambda r: _exceeds(
        "degeneracy", r.degeneracy, 2 ** r.edim, "edim", r)),
}


def audit_graph(G: Graph, budget: Optional[int] = None) -> AuditRecord:
    """Check every edge/vertex-count, chromatic, and degeneracy inequality
    that the dimensions of G imply (the rows of INEQUALITIES).  Rows whose
    dimension ran out of budget are absent, and so are the three
    diameter-parameterized bounds at diameter 0."""
    r = GraphRecord(G, budget)
    checks = {name: row(r) is None
              for name, (needs, row) in INEQUALITIES.items() if r.known(needs)}
    return AuditRecord(
        n=r.n,
        m=r.m,
        diameter=r.diameter,
        dim_value=r.dim,
        edim_value=r.edim,
        max_degree=r.max_degree,
        degeneracy=r.degeneracy,
        chromatic=r.chromatic,
        chromatic_exact=r.chromatic_exact,
        checks=checks,
        budget_exhausted=r.budget_exhausted,
    )
