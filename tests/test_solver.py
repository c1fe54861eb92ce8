import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricdim.graph_core import (
    DisconnectedGraphError,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
    star_graph,
)
from metricdim.metric import is_edge_resolving, is_vertex_resolving
from metricdim.solver import (
    BudgetExceededError,
    EmptyDistinguisherError,
    build_edge_instance,
    build_vertex_instance,
    disjoint_pairs_lower_bound,
    edge_metric_dimension,
    greedy_upper_bound,
    metric_dimension,
    min_hitting_set,
)

from oracles import (
    naive_edge_metric_dimension,
    naive_metric_dimension,
    random_connected_graph,
)


class TestInstances:
    def test_vertex_instance_shape(self):
        inst = build_vertex_instance(path_graph(3))
        assert inst.kind == "vertex"
        assert inst.universe == 3
        assert len(inst.pairs) == 3
        # every distinguisher contains at least one of the pair's endpoints
        for (a, b), mask in zip(inst.pairs, inst.masks):
            assert mask & ((1 << a) | (1 << b))

    def test_edge_instance_uses_endpoint_min(self):
        inst = build_edge_instance(cycle_graph(4))
        assert inst.kind == "edge"
        assert len(inst.pairs) == 6

    def test_rejects_disconnected(self):
        G = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            build_vertex_instance(G)
        with pytest.raises(DisconnectedGraphError):
            build_edge_instance(G)

    def test_empty_distinguisher_never_happens_for_vertices(self):
        # distinct vertices in a connected graph always differ somewhere
        for G in (path_graph(6), cycle_graph(6), complete_graph(5), star_graph(5)):
            inst = build_vertex_instance(G)
            assert all(inst.masks)


class TestBoundsHelpers:
    def test_greedy_is_resolving(self):
        for G in (path_graph(7), cycle_graph(8), complete_graph(5)):
            inst = build_vertex_instance(G)
            S = greedy_upper_bound(inst)
            ok, _ = is_vertex_resolving(G, S)
            assert ok

    def test_disjoint_lower_bound_sound(self):
        for G in (path_graph(7), cycle_graph(8), complete_graph(5)):
            inst = build_vertex_instance(G)
            lb = disjoint_pairs_lower_bound(inst)
            value = metric_dimension(G).value
            assert lb <= value


KNOWN_DIM = [
    (path_graph(2), 1, 0),  # the lone edge is resolved by the empty set
    (path_graph(7), 1, 1),
    (cycle_graph(4), 2, 2),
    (cycle_graph(7), 2, 2),
    (complete_graph(4), 3, 3),
    (complete_graph(6), 5, 5),
    (star_graph(4), 3, 3),  # K_{1,4}: three leaves pin down all four edges
    (complete_bipartite_graph(3, 3), 4, 4),
    (complete_bipartite_graph(2, 3), 3, 3),
]


class TestKnownValues:
    @pytest.mark.parametrize("G,dim_expected,edim_expected", KNOWN_DIM)
    def test_known_dimensions(self, G, dim_expected, edim_expected):
        assert metric_dimension(G).value == dim_expected
        assert edge_metric_dimension(G).value == edim_expected

    def test_single_edge_empty_basis(self):
        cert = edge_metric_dimension(path_graph(2))
        assert cert.value == 0
        assert cert.basis == ()
        assert cert.nonempty_value == 1

    def test_single_vertex(self):
        cert = metric_dimension(path_graph(1))
        assert cert.value == 0
        assert cert.nonempty_value == 1

    def test_certificate_properties(self):
        for G in (cycle_graph(6), complete_bipartite_graph(2, 4), star_graph(5)):
            cert = metric_dimension(G)
            assert cert.optimal
            assert len(cert.basis) == cert.value
            ok, _ = is_vertex_resolving(G, cert.basis)
            assert ok
            cert_e = edge_metric_dimension(G)
            ok, _ = is_edge_resolving(G, cert_e.basis)
            assert ok

    def test_basis_is_lexicographically_smallest(self):
        from itertools import combinations

        for G in (cycle_graph(5), cycle_graph(6), complete_bipartite_graph(2, 3)):
            cert = metric_dimension(G)
            optimal = [
                S
                for S in combinations(range(G.n), cert.value)
                if is_vertex_resolving(G, S)[0]
            ]
            assert cert.basis == min(optimal)


class TestOracleEquivalence:
    def test_all_connected_graphs_to_n6(self):
        from metricdim.enumerator import enumerate_connected

        checked = 0
        for n in range(2, 7):
            for G in enumerate_connected(n):
                dim_naive, _ = naive_metric_dimension(G)
                edim_naive, _ = naive_edge_metric_dimension(G)
                assert metric_dimension(G).value == dim_naive
                assert edge_metric_dimension(G).value == edim_naive
                checked += 1
        assert checked == 1 + 2 + 6 + 21 + 112

    @given(st.integers(0, 10_000))
    def test_random_graphs_match_naive(self, seed):
        G = random_connected_graph(random.Random(seed), 2 + seed % 7)
        assert metric_dimension(G).value == naive_metric_dimension(G)[0]
        assert edge_metric_dimension(G).value == naive_edge_metric_dimension(G)[0]


class TestBudget:
    def test_budget_raises_with_bounds(self):
        # a cycle needs actual search (greedy UB 2 or 3, disjoint LB 1)
        G = cycle_graph(10)
        with pytest.raises(BudgetExceededError) as exc_info:
            metric_dimension(G, budget=1)
        err = exc_info.value
        assert err.kind == "vertex"
        assert err.lower_bound >= 1
        assert err.upper_bound >= err.lower_bound
        assert err.nodes_explored >= 1

    def test_large_universe_needs_budget(self):
        G = path_graph(25)
        with pytest.raises(SizeLimitError):
            metric_dimension(G)
        cert = metric_dimension(G, budget=10**6)
        assert cert.value == 1

    @pytest.mark.parametrize("solve", [metric_dimension, edge_metric_dimension])
    def test_large_universe_refused_before_any_work(self, solve, monkeypatch):
        def no_work(G):
            raise AssertionError("free search past the limit reached the instance build")

        from metricdim import solver

        for name in ("bfs_all_pairs", "build_vertex_instance", "build_edge_instance"):
            monkeypatch.setattr(solver, name, no_work)
        with pytest.raises(SizeLimitError, match="explicit search budget"):
            solve(path_graph(21))

    def test_large_disconnected_reports_size_limit(self):
        # the size refusal comes first; both errors map to CLI exit 3
        G = from_edge_list(22, [(i, i + 1) for i in range(20)])
        with pytest.raises(SizeLimitError):
            metric_dimension(G)
        with pytest.raises(DisconnectedGraphError):
            metric_dimension(G, budget=10**6)

    def test_budget_enough_gives_optimal(self):
        cert = metric_dimension(cycle_graph(10), budget=10**6)
        assert cert.optimal
        assert cert.value == 2


class TestHittingSetDirect:
    def test_rejects_empty_family_with_multiple_objects(self):
        from metricdim.solver import DistinguisherInstance

        inst = DistinguisherInstance(
            kind="vertex", universe=3, pairs=((0, 1),), masks=(0,)
        )
        with pytest.raises(EmptyDistinguisherError):
            min_hitting_set(inst)

    def test_trivial_instances(self):
        from metricdim.solver import DistinguisherInstance

        inst = DistinguisherInstance(kind="vertex", universe=3, pairs=(), masks=())
        cert = min_hitting_set(inst)
        assert cert.value == 0 and cert.basis == () and cert.optimal
