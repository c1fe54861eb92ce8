import math

import pytest

from metricdim.bounds import (
    BoundParams,
    audit_graph,
    edge_bound_general_c,
    edge_bound_new,
    edge_bound_zubrilina,
    pattern_bounds,
    subgraph_edge_bound,
    subgraph_vertex_bound,
    vertex_bound_hernando,
    AuditRecord,
)
from metricdim.graph_core import (
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)


class TestHandValues:
    def test_edge_bound_new(self):
        assert edge_bound_new(1, 3) == 4
        assert edge_bound_new(2, 3) == 13
        assert edge_bound_new(2, 6) == 37
        assert edge_bound_new(2, 1) == 5

    def test_zubrilina(self):
        assert edge_bound_zubrilina(2, 3) == 16
        assert edge_bound_zubrilina(2, 1) == 4
        assert edge_bound_zubrilina(1, 5) == 6  # 0 + 1 + 5

    def test_hernando(self):
        assert vertex_bound_hernando(2, 3) == 11
        assert vertex_bound_hernando(1, 3) == 4

    def test_general_c_endpoints(self):
        assert edge_bound_general_c(2, 3, 0) == 13
        assert edge_bound_general_c(2, 3, 1) == 16
        assert edge_bound_general_c(2, 3, 3) == 40

    def test_subgraph_bounds(self):
        assert subgraph_vertex_bound(2, 3) == 16
        assert subgraph_edge_bound(2, 3) == 16
        assert subgraph_vertex_bound(1, 0) == 1
        assert subgraph_vertex_bound(3, 2) == 27


class TestIdentities:
    def test_new_equals_general_at_one_third(self):
        for k in range(1, 9):
            for D in range(1, 31):
                c = -(-D // 3) - 1
                assert edge_bound_new(k, D) == edge_bound_general_c(k, D, c)

    def test_new_sharpens_zubrilina_for_d_at_least_2(self):
        for k in range(1, 7):
            for D in range(2, 21):
                assert edge_bound_new(k, D) <= edge_bound_zubrilina(k, D), (k, D)

    def test_known_reversal_at_diameter_1(self):
        # the single spot where the older bound is the better one
        assert edge_bound_new(2, 1) == 5
        assert edge_bound_zubrilina(2, 1) == 4
        assert edge_bound_new(2, 1) > edge_bound_zubrilina(2, 1)

    def test_monotone_in_diameter(self):
        for k in range(1, 5):
            values = [edge_bound_new(k, D) for D in range(1, 25)]
            assert values == sorted(values)

    def test_monotone_in_dimension(self):
        for D in range(2, 12):
            values = [edge_bound_new(k, D) for k in range(1, 7)]
            assert values == sorted(values)

    def test_general_c_minimized_inside_range(self):
        # sweeping c can only improve on the extremes
        for k in range(1, 5):
            for D in range(1, 16):
                best = min(edge_bound_general_c(k, D, c) for c in range(D + 1))
                assert best <= edge_bound_general_c(k, D, 0)
                assert best <= edge_bound_general_c(k, D, D)


class TestBoundParams:
    def test_valid(self):
        p = BoundParams(k=2, D=5, c=1)
        assert (p.k, p.D, p.c) == (2, 5, 1)

    def test_invalid(self):
        with pytest.raises(GraphInputError):
            BoundParams(k=0, D=5, c=1)
        with pytest.raises(GraphInputError):
            BoundParams(k=2, D=0, c=0)
        with pytest.raises(GraphInputError):
            BoundParams(k=2, D=5, c=6)
        with pytest.raises(GraphInputError):
            BoundParams(k=2, D=5, c=-1)

    def test_function_args_validated(self):
        with pytest.raises(GraphInputError):
            edge_bound_new(0, 4)
        with pytest.raises(GraphInputError):
            edge_bound_zubrilina(2, 0)
        with pytest.raises(GraphInputError):
            subgraph_vertex_bound(2, -1)


class TestPatternBounds:
    @pytest.mark.parametrize("k", range(1, 4))
    def test_exact_columns(self, k):
        pb = pattern_bounds(k)
        assert pb.max_clique_md == 2 ** k
        assert pb.max_star_emd == 2 ** k
        assert pb.star_md_lower == 3 ** k - k - 1
        assert pb.star_md_upper == 3 ** k - 1

    def test_biclique_columns_k3(self):
        pb = pattern_bounds(3)
        assert pb.biclique_md_lower == 1
        assert pb.biclique_md_upper_floor == 13
        assert not pb.biclique_md_upper_exact
        assert pb.biclique_emd_lower == 2
        assert pb.biclique_emd_upper_floor == math.isqrt(27)
        assert not pb.biclique_emd_upper_exact

    def test_emd_upper_exact_flag_tracks_parity(self):
        assert pattern_bounds(2).biclique_emd_upper_exact
        assert pattern_bounds(4).biclique_emd_upper_exact
        assert not pattern_bounds(5).biclique_emd_upper_exact

    def test_lower_never_exceeds_upper(self):
        for k in range(1, 8):
            pb = pattern_bounds(k)
            assert pb.star_md_lower <= pb.star_md_upper
            assert pb.biclique_md_lower <= pb.biclique_md_upper_floor
            assert pb.biclique_emd_lower <= pb.biclique_emd_upper_floor


class TestAudit:
    @pytest.mark.parametrize(
        "G",
        [path_graph(2), path_graph(6), cycle_graph(6), complete_graph(5),
         star_graph(4), complete_bipartite_graph(2, 3)],
        ids=["P2", "P6", "C6", "K5", "star4", "K23"],
    )
    def test_known_graphs_pass(self, G):
        rec = audit_graph(G)
        assert rec.passed
        assert not rec.budget_exhausted
        assert sorted(rec.checks) == [
            "corollary-chromatic",
            "corollary-degeneracy-emd",
            "corollary-degeneracy-md",
            "corollary-edges-emd",
            "corollary-edges-md",
            "edge-bound-new",
            "edge-bound-zubrilina",
            "max-star-emd",
            "max-star-md",
            "subgraph-edge-self",
            "subgraph-vertex-self",
            "vertex-bound-hernando",
        ]
        assert rec.failing() == []

    def test_record_fields(self):
        rec = audit_graph(cycle_graph(6))
        assert (rec.n, rec.m, rec.diameter) == (6, 6, 3)
        assert rec.dim_value == 2 and rec.edim_value == 2
        assert rec.max_degree == 2
        assert rec.degeneracy == 2
        assert rec.chromatic == 2 and rec.chromatic_exact

    def test_single_vertex(self):
        rec = audit_graph(path_graph(1))
        assert rec.passed
        assert rec.diameter == 0
        # diameter-parameterized inequalities need a positive diameter
        assert "edge-bound-new" not in rec.checks

    def test_budget_exhaustion_flags_partial_audit(self):
        rec = audit_graph(cycle_graph(10), budget=1)
        assert rec.budget_exhausted
        assert not rec.passed
        assert rec.dim_value is None and rec.edim_value is None
        assert rec.checks == {}

    def test_disconnected_rejected(self):
        G = Graph(n=4, adj=(2, 1, 8, 4))
        with pytest.raises(DisconnectedGraphError):
            audit_graph(G)
