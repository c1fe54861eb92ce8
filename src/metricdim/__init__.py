"""Exact metric and edge metric dimension toolkit.

Core surface: bitset graphs with graph6 and edge-list interchange, exact
dimension solvers via a hitting-set reduction, generators for the extremal
gadget families, characterizations of graphs with near-maximum edge metric
dimension, closed-form bound evaluators, and an isomorphism-free enumerator
with exhaustive verification sweeps.
"""

from .graph_core import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphError,
    GraphInputError,
    SizeLimitError,
    UNREACHABLE,
    bfs_all_pairs,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    is_connected,
)
from .metric import ResolutionWitness, is_edge_resolving, is_vertex_resolving
from .solver import (
    BudgetExceededError,
    DimensionCertificate,
    DistinguisherInstance,
    build_edge_instance,
    build_vertex_instance,
    edge_metric_dimension,
    metric_dimension,
    min_hitting_set,
)
from .constructions import (
    ConstructionError,
    ConstructionOutput,
    edim_biclique,
    edim_star,
    grid,
    grid_edge_landmarks,
    md_biclique,
    md_complete,
    md_star,
)
from .characterizations import (
    Char2Result,
    char_edim_eq_n2,
    char_edim_ge_n2,
    char_edim_n1,
    tuple_lemma_check,
)
from .bounds import (
    BoundParams,
    GraphRecord,
    PatternBounds,
    audit_graph,
    edge_bound_general_c,
    edge_bound_new,
    edge_bound_zubrilina,
    pattern_bounds,
    subgraph_edge_bound,
    subgraph_vertex_bound,
    vertex_bound_hernando,
)
from .enumerator import (
    SweepReport,
    THEOREM_CHECKS,
    canonical_graph6,
    canonical_relabeling,
    enumerate_connected,
    sweep,
    sweep_all,
)

__version__ = "0.1.0"
