import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim.graph_core import (
    DisconnectedGraphError,
    GraphInputError,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    graph6_encode,
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
    reference_edge_instance,
    reference_vertex_instance,
)


class TestInstances:
    def test_vertex_instance_shape(self):
        inst = build_vertex_instance(path_graph(3))
        assert inst.kind == "vertex"
        assert inst.universe == 3
        assert len(inst.masks) == 3
        # every distinguisher contains at least one of the pair's endpoints
        for (a, b), mask in zip(combinations(range(3), 2), inst.masks):
            assert mask & ((1 << a) | (1 << b))

    def test_edge_instance_uses_endpoint_min(self):
        inst = build_edge_instance(cycle_graph(4))
        assert inst.kind == "edge"
        assert len(inst.masks) == 6

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


def _check_builds(G, kinds=("vertex", "edge")):
    """The packed builders give the pair-by-pair reference's masks, whose
    pairs run in itertools.combinations order of the vertices or edges."""
    builds = {"vertex": (build_vertex_instance, reference_vertex_instance, range(G.n)),
              "edge": (build_edge_instance, reference_edge_instance, G.edges())}
    for kind in kinds:
        build, reference, objects = builds[kind]
        pairs, masks = reference(G)
        assert pairs == tuple(combinations(objects, 2))
        assert build(G).masks == masks, (kind, graph6_encode(G))


GRID_MEMBERS = [[2], [2, 2], [3, 4], [7, 8], [2, 2, 2], [2, 3, 4], [3, 3, 3],
                [2, 2, 2, 2], [2, 2, 2, 3], [2, 31], [31, 2], [62]]


class TestPackedBuilds:
    def test_every_class_to_n7(self):
        from metricdim.enumerator import enumerate_connected

        graphs = [G for n in range(1, 8) for G in enumerate_connected(n)]
        assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + 853
        for G in graphs:
            _check_builds(G)

    @given(st.integers(0, 10_000), st.integers(1, 30))
    @settings(max_examples=25)
    def test_random_graphs_to_30_vertices(self, seed, n):
        _check_builds(random_connected_graph(random.Random(seed), n))

    def test_construction_members(self):
        from metricdim.constructions import (
            edim_biclique, edim_star, grid, md_biclique, md_complete, md_star,
        )

        outs = [maker(k) for maker, ks in ((md_complete, range(1, 6)), (edim_star, range(1, 6)),
                                           (md_star, range(1, 4)), (md_biclique, range(2, 8)),
                                           (edim_biclique, range(2, 8))) for k in ks]
        graphs = [out.graph for out in outs]
        assert len(graphs) == 5 + 5 + 3 + 6 + 6
        graphs += [grid(dims) for dims in GRID_MEMBERS]
        assert max(G.n for G in graphs) == 62
        for G in graphs:
            _check_builds(G)

    @pytest.mark.parametrize("n", [129, 200])
    def test_distances_past_one_byte(self, n):
        # the largest distance, n - 1, needs more than 7 bits from n = 129 on
        _check_builds(path_graph(n))

    def test_k30_edges_span_many_blocks(self):
        from metricdim.solver import _BLOCK_BYTES

        G = complete_graph(30)
        assert len(G.edges()) * (len(G.edges()) - 1) // 2 * (G.n + 1) > 20 * _BLOCK_BYTES
        _check_builds(G, kinds=("edge",))
        assert len(build_edge_instance(G).masks) == 94_395


class TestBoundsHelpers:
    def test_greedy_is_resolving(self):
        for G in (path_graph(7), cycle_graph(8), complete_graph(5)):
            inst = build_vertex_instance(G)
            S = greedy_upper_bound(inst)
            ok, _ = is_vertex_resolving(G, S)
            assert ok

    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=40))))
    def test_greedy_matches_counting_reference(self, case):
        # the greedy's picks fix the reported upper bound and best_known
        from metricdim.solver import DistinguisherInstance

        universe, masks = case
        remaining, chosen = list(masks), []
        while remaining:
            counts = [sum(m >> v & 1 for m in remaining) for v in range(universe)]
            v = max(range(universe), key=lambda u: (counts[u], -u))
            chosen.append(v)
            remaining = [m for m in remaining if not m >> v & 1]
        inst = DistinguisherInstance("vertex", universe, tuple(masks))
        assert greedy_upper_bound(inst) == tuple(sorted(chosen))

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
                assert _answer(metric_dimension(G)) == naive_metric_dimension(G)
                assert _answer(edge_metric_dimension(G)) == naive_edge_metric_dimension(G)
                checked += 1
        assert checked == 1 + 2 + 6 + 21 + 112

    @given(st.integers(0, 10_000))
    def test_random_graphs_match_naive(self, seed):
        # the oracles return the lex-first basis among the smallest sets
        G = random_connected_graph(random.Random(seed), 2 + seed % 7)
        assert _answer(metric_dimension(G)) == naive_metric_dimension(G)
        assert _answer(edge_metric_dimension(G)) == naive_edge_metric_dimension(G)


def _answer(cert):
    return cert.value, cert.basis


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

        from metricdim import graph_core, solver

        monkeypatch.setattr(graph_core, "bfs_all_pairs", no_work)
        for name in ("build_vertex_instance", "build_edge_instance"):
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

    @pytest.mark.parametrize("build", [build_vertex_instance, build_edge_instance])
    def test_exhaustion_reports_the_instance_bounds(self, build):
        inst = build(cycle_graph(10))
        with pytest.raises(BudgetExceededError) as exc_info:
            min_hitting_set(inst, budget=1)
        err = exc_info.value
        assert err.lower_bound == disjoint_pairs_lower_bound(inst)
        assert err.upper_bound == len(greedy_upper_bound(inst))
        assert err.best_known == greedy_upper_bound(inst)

    @pytest.mark.parametrize("solve", [metric_dimension, edge_metric_dimension,
                                       lambda G, budget: min_hitting_set(build_vertex_instance(G), budget)])
    def test_negative_budget_is_an_input_error(self, solve):
        with pytest.raises(GraphInputError, match="budget must be at least 0, got -3"):
            solve(complete_graph(3), budget=-3)
        with pytest.raises(GraphInputError):
            solve(path_graph(25), budget=-1)  # past FREE_SEARCH_LIMIT too

    def test_zero_budget_stays_valid(self):
        assert metric_dimension(path_graph(1), budget=0).value == 0
        with pytest.raises(BudgetExceededError):
            metric_dimension(cycle_graph(10), budget=0)

    def test_budget_enough_gives_optimal(self):
        cert = metric_dimension(cycle_graph(10), budget=10**6)
        assert cert.optimal
        assert cert.value == 2


class TestHittingSetDirect:
    def test_rejects_empty_family_with_multiple_objects(self):
        from metricdim.solver import DistinguisherInstance

        inst = DistinguisherInstance(kind="vertex", universe=3, masks=(0,))
        with pytest.raises(EmptyDistinguisherError):
            min_hitting_set(inst)

    @pytest.mark.parametrize("solve", [min_hitting_set, greedy_upper_bound, disjoint_pairs_lower_bound])
    def test_rejects_vertex_outside_universe(self, solve):
        from metricdim.solver import DistinguisherInstance

        inst = DistinguisherInstance(kind="vertex", universe=2, masks=(0b11, 0b100))
        with pytest.raises(GraphInputError, match="outside 0..1"):
            solve(inst)

    def test_families_checked_once_per_solve(self, monkeypatch):
        from metricdim import solver

        checked = []
        real = solver._check_families
        monkeypatch.setattr(solver, "_check_families", lambda inst: checked.append(inst) or real(inst))
        inst = build_edge_instance(cycle_graph(6))
        min_hitting_set(inst)
        assert checked == [inst]

    def test_trivial_instances(self):
        from metricdim.solver import DistinguisherInstance

        inst = DistinguisherInstance(kind="vertex", universe=3, masks=())
        cert = min_hitting_set(inst)
        assert cert.value == 0 and cert.basis == () and cert.optimal


def _superset_filter(masks):
    """The quadratic reference: distinct masks in (cardinality, mask)
    order, each kept unless it contains an earlier kept mask."""
    kept = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


class TestReduction:
    @staticmethod
    def check(masks):
        from metricdim.solver import _minimal_families

        kept, hits = _minimal_families(masks)
        assert kept == _superset_filter(masks)
        for v, column in enumerate(hits):
            assert column == sum(1 << i for i, m in enumerate(kept) if m >> v & 1)
        assert len(hits) == max(kept, default=0).bit_length()

    @given(st.lists(st.integers(1, (1 << 10) - 1), max_size=60))
    def test_matches_quadratic_filter(self, masks):
        self.check(masks)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_quadratic_filter_past_1500_distinct(self, seed):
        rng = random.Random(seed)
        masks = [rng.getrandbits(24) | 1 << rng.randrange(24) for _ in range(2500)]
        masks += masks[:100]  # duplicates collapse
        assert len(set(masks)) > 1500
        self.check(masks)
