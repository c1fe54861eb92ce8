import hashlib
import random
from array import array
from collections import Counter
from itertools import accumulate, combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim.graph_core import (
    DisconnectedGraphError,
    GraphInputError,
    SizeLimitError,
    from_edge_list,
    graph6_encode,
)
from metricdim.metric import is_edge_resolving, is_vertex_resolving
from metricdim.solver import (
    LATTICE_LIMIT,
    BudgetExceededError,
    EmptyDistinguisherError,
    build_edge_instance,
    build_vertex_instance,
    edge_metric_dimension,
    greedy_upper_bound,
    metric_dimension,
    min_hitting_set,
)
from metricdim.solver import _transpose

from oracles import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    naive_edge_metric_dimension,
    naive_hitting_set,
    naive_metric_dimension,
    path_graph,
    random_connected_graph,
    reference_columns,
    reference_edge_instance,
    reference_search,
    reference_vertex_instance,
    star_graph,
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
    pairs run in itertools.combinations order of the vertices or edges,
    and the masks' columns, transposed bit by bit."""
    builds = {"vertex": (build_vertex_instance, reference_vertex_instance, range(G.n)),
              "edge": (build_edge_instance, reference_edge_instance, G.edges())}
    for kind in kinds:
        build, reference, objects = builds[kind]
        pairs, masks = reference(G)
        assert pairs == tuple(combinations(objects, 2))
        inst = build(G)
        assert inst.masks == masks, (kind, graph6_encode(G))
        assert inst.columns == reference_columns(masks, G.n), (kind, graph6_encode(G))


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

    def test_no_build_fills_columns(self):
        # the columns are transposed from the masks on first read, by the
        # cached property alone, on either side of LATTICE_LIMIT and of 64-bit fields
        for G in (path_graph(1), path_graph(2), cycle_graph(LATTICE_LIMIT),
                  cycle_graph(LATTICE_LIMIT + 1), cycle_graph(70)):
            for build in (build_vertex_instance, build_edge_instance):
                inst = build(G)
                assert "columns" not in vars(inst)
                assert inst.columns == reference_columns(inst.masks, G.n)
                assert "columns" in vars(inst)

    def test_zero_and_one_pairs(self):
        # a single vertex has no pairs of either kind, K2 one edge, P2 one vertex pair
        for G in (path_graph(1), complete_graph(2)):
            _check_builds(G)
        assert build_vertex_instance(path_graph(1)).columns == []
        assert build_edge_instance(complete_graph(2)).columns == []
        assert build_vertex_instance(path_graph(2)).columns == [1, 1]

    @pytest.mark.parametrize("n", [129, 200])
    def test_distances_past_one_byte(self, n):
        # the largest distance, n - 1, needs more than 7 bits from n = 129 on
        _check_builds(path_graph(n))

    def test_distances_past_255(self):
        # two-byte lanes whose high byte holds a set bit: distance 256
        _check_builds(path_graph(257), kinds=("vertex",))

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64, 65])
    def test_field_width_boundaries(self, n):
        # fields of 8, 16, 32 and 64 landmarks, each read as one array item,
        # and of 72 landmarks, read field by field
        for G in (path_graph(n), cycle_graph(n), _sparse_random_graph(n, n)):
            _check_builds(G)
        K = complete_graph(n)
        _check_builds(K, kinds=("vertex",))
        if n <= 33:  # the edge instances of K64 and K65 hold two million pairs
            # an edge of K_n is at distance 0 from its ends and 1 from the
            # other vertices, so two edges differ exactly at the ends not shared
            ends = [1 << u | 1 << w for u, w in K.edges()]
            inst = build_edge_instance(K)
            assert inst.masks == tuple(a ^ b for a, b in combinations(ends, 2))
            assert inst.columns == reference_columns(inst.masks, n)

    def test_k30_edges_span_many_blocks(self, monkeypatch):
        from metricdim import solver

        # each block's masks are read from its bytes by one array() call
        blocks = []

        def spy(code, block):
            blocks.append(len(block))
            return array(code, block)

        G = complete_graph(30)
        _check_builds(G, kinds=("edge",))
        # 32-landmark fields and one bit plane: 32 bits a pair
        assert 94_395 * 32 > 20 * solver._BLOCK_BITS
        monkeypatch.setattr(solver, "array", spy)
        assert len(build_edge_instance(G).masks) == 94_395
        assert len(blocks) >= 20
        assert max(blocks) * 8 <= solver._BLOCK_BITS
        assert sum(blocks) * 8 == 94_395 * 32

    def test_built_instances_pass_the_constructor_checks(self):
        # the builders skip DistinguisherInstance's family check, so every
        # instance they return must pass it: both kinds of every class to
        # n = 7, a seeded pool of 16 to 24 vertices, every construction
        # member, and C70, whose fields are wider than 64 bits
        from metricdim.cli import CONSTRUCT_FAMILIES
        from metricdim.solver import DistinguisherInstance

        rng = random.Random(24)
        members = {"md-complete": range(1, 6), "edim-star": range(1, 6), "md-star": range(1, 4),
                   "md-biclique": range(2, 8), "edim-biclique": range(2, 8), "grid": GRID_MEMBERS}
        assert sorted(members) == sorted(CONSTRUCT_FAMILIES)
        graphs = (_classes_to_n7() + [random_connected_graph(rng, n) for n in range(16, 25) for _ in range(3)]
                  + [CONSTRUCT_FAMILIES[family][0](param).graph for family, params in members.items()
                     for param in params]
                  + [from_edge_list(70, [(i, (i + 1) % 70) for i in range(70)])])
        assert len(graphs) == 996 + 27 + 5 + 5 + 3 + 6 + 6 + len(GRID_MEMBERS) + 1
        for G in graphs:
            for build in (build_vertex_instance, build_edge_instance):
                inst = build(G)
                assert DistinguisherInstance(inst.kind, inst.universe, inst.masks) == inst, (inst.kind, G.adj)

    @pytest.mark.parametrize("width", [0, 1, 8, 9, 16, 17, 24, 32, 33, 56, 62, 64, 65, 200])
    def test_transpose_matches_definition(self, width):
        rng = random.Random(width)
        masks = [rng.getrandbits(width) for _ in range(40)] + [(1 << width) >> 1]
        hits = _transpose(masks, width)
        assert len(hits) == width
        assert hits == reference_columns(masks, width)
        # every count of masks modulo 8 (a partial last 8x8 block), and one more
        # than the 4,656 edge pairs of the 7x8 grid
        for count in [*range(18), 4657]:
            masks = [rng.getrandbits(width) for _ in range(count)]
            assert _transpose(masks, width) == reference_columns(masks, width), count
        # masks narrower than width: the zero columns above them are dropped
        for narrow in range(width):
            masks = [rng.getrandbits(narrow) for _ in range(rng.randrange(1, 40))]
            hits = _transpose(masks, width)
            assert hits == reference_columns(masks, width)
            assert len(hits) == max(masks).bit_length()
        assert _transpose([], width) == []


def _sparse_random_graph(seed, n):
    """A seeded random spanning tree on n vertices plus n // 4 more edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return from_edge_list(n, sorted(edges))


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
        # the disjoint-family lower bound a budget error reports
        for G in (path_graph(7), cycle_graph(8), complete_graph(5)):
            for solve in (metric_dimension, edge_metric_dimension):
                with pytest.raises(BudgetExceededError) as exc_info:
                    solve(G, budget=0)
                assert 1 <= exc_info.value.lower_bound <= solve(G).value


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
        assert 1 <= err.lower_bound <= min_hitting_set(inst).value
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

        with pytest.raises(EmptyDistinguisherError):
            min_hitting_set(DistinguisherInstance(kind="vertex", universe=3, masks=(0,)))

    @pytest.mark.parametrize("solve", [min_hitting_set, greedy_upper_bound])
    def test_rejects_vertex_outside_universe(self, solve):
        from metricdim.solver import DistinguisherInstance

        with pytest.raises(GraphInputError, match="outside 0..1"):
            solve(DistinguisherInstance(kind="vertex", universe=2, masks=(0b11, 0b100)))

    def test_families_checked_once_at_construction(self, monkeypatch):
        # the builders skip the constructor's family check; a hand-built
        # instance runs it once, and neither solver path nor the greedy
        # bound runs it again
        from metricdim import solver
        from metricdim.solver import DistinguisherInstance

        checked = []
        real = DistinguisherInstance.__post_init__
        monkeypatch.setattr(DistinguisherInstance, "__post_init__", lambda inst: checked.append(inst) or real(inst))
        rng = random.Random(3)
        graphs = [cycle_graph(6), star_graph(LATTICE_LIMIT - 1), cycle_graph(LATTICE_LIMIT + 2)] + [
            random_connected_graph(rng, n) for n in range(10, LATTICE_LIMIT + 2)]
        built = [build(G) for G in graphs for build in (build_vertex_instance, build_edge_instance)]
        assert checked == []
        for inst in built:
            bare = DistinguisherInstance(inst.kind, inst.universe, inst.masks)
            assert len(checked) == 1 and checked[0] is bare
            assert min_hitting_set(bare) == min_hitting_set(inst)
            assert greedy_upper_bound(bare) == greedy_upper_bound(inst)
            assert len(checked) == 1
            checked.clear()
        # both grains of the lattice fill, and the search past it
        lattice = [inst for inst in built if inst.universe <= LATTICE_LIMIT]
        assert {len(inst.masks) * solver._SPARSE < 1 << inst.universe for inst in lattice} == {False, True}
        assert len(lattice) < len(built)

    @pytest.mark.parametrize("universe", [1, 2, 3, LATTICE_LIMIT, LATTICE_LIMIT + 1])
    def test_both_paths_raise_the_same_errors(self, universe, monkeypatch):
        # the families are checked before the lattice's tables or any search
        from metricdim import solver
        from metricdim.solver import DistinguisherInstance

        def no_work(*args):
            raise AssertionError("an invalid instance reached a solver")

        for name in ("_lattice", "_minimal_families"):
            monkeypatch.setattr(solver, name, no_work)
        with pytest.raises(EmptyDistinguisherError):
            min_hitting_set(DistinguisherInstance("vertex", universe, (1, 0, 2)))
        # masks at or past 2**universe, alone or among many valid ones (a
        # dense table, or a sparse one where a universe allows it)
        for masks in ((1, 1 << universe), (1 << universe,), (1 | 1 << universe,), (1 << universe + 1,),
                      (1,) * 100 + (1 << universe,), (1 << universe,) + (1,) * 100, (1, 1 << universe + 1)):
            with pytest.raises(GraphInputError, match=f"outside 0..{universe - 1}$"):
                min_hitting_set(DistinguisherInstance("edge", universe, masks))
        # a negative mask names every vertex from some point up
        for masks in ((-2, 1), (-1, 3), (1, -(1 << universe + 1) - 1)):
            with pytest.raises(GraphInputError, match=f"outside 0..{universe - 1}$"):
                min_hitting_set(DistinguisherInstance("vertex", universe, masks))
        # an empty family is named before a mask past the universe, in either order
        for masks in ((1 << universe, 0), (0, 1 << universe + 1)):
            with pytest.raises(EmptyDistinguisherError):
                min_hitting_set(DistinguisherInstance("vertex", universe, masks))
        with pytest.raises(GraphInputError, match="got -1$"):
            min_hitting_set(DistinguisherInstance("vertex", -1, (1,)))

    def test_hand_built_instances_give_the_same_answers(self):
        # a hand-built instance of the built one's masks: every certificate
        # and budget-exhaustion field must match the built one's
        from metricdim.enumerator import enumerate_connected
        from metricdim.solver import DistinguisherInstance

        exhausted = 0
        for n in range(1, 8):
            for G in enumerate_connected(n):
                for build in (build_vertex_instance, build_edge_instance):
                    inst = build(G)
                    bare = DistinguisherInstance(inst.kind, G.n, inst.masks)
                    assert bare == inst and "columns" not in vars(bare)
                    assert min_hitting_set(bare) == min_hitting_set(inst)
                    errors = []
                    for candidate in (inst, bare):
                        try:
                            min_hitting_set(candidate, budget=1)
                        except BudgetExceededError as e:
                            errors.append((e.lower_bound, e.upper_bound, e.best_known, e.nodes_explored))
                    assert len(errors) != 1 and errors[:1] == errors[1:], graph6_encode(G)
                    exhausted += len(errors) // 2
        assert exhausted > 1000

    def test_trivial_instances(self):
        from metricdim.solver import DistinguisherInstance

        inst = DistinguisherInstance(kind="vertex", universe=3, masks=())
        cert = min_hitting_set(inst)
        assert cert.value == 0 and cert.basis == () and cert.optimal
        # past LATTICE_LIMIT, on the search path, at any budget
        for universe in (17, 20, 25):
            for budget in (0, 10):
                inst = DistinguisherInstance(kind="vertex", universe=universe, masks=())
                cert = min_hitting_set(inst, budget=budget)
                assert (cert.value, cert.basis, cert.optimal, cert.nodes_explored) == (0, (), True, 0)


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

        kept, hits = _minimal_families(masks, reference_columns(masks, max(masks, default=0).bit_length()))
        assert kept == _superset_filter(masks)[::-1]  # largest first
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


def _classes_to_n7():
    from metricdim.enumerator import enumerate_connected

    graphs = [G for n in range(1, 8) for G in enumerate_connected(n)]
    assert len(graphs) == 996
    return graphs


def _outcomes_digest(graphs):
    """Outcome kinds and the sha256 of every solve's outcome at budgets
    None, 1, 7 and 50."""
    digest, kinds = hashlib.sha256(), Counter()
    for G in graphs:
        for solve in (metric_dimension, edge_metric_dimension):
            for budget in (None, 1, 7, 50):
                kind, fields = _outcome(solve, G, budget)
                kinds[kind] += 1
                digest.update(repr((kind, fields)).encode())
    return kinds, digest.hexdigest()


def _budget_boundaries(graphs) -> int:
    """Check that each solve needs exactly its nodes_explored as budget; the
    number of solves checked."""
    checked = 0
    for G in graphs:
        for solve in (metric_dimension, edge_metric_dimension):
            cert = solve(G)
            if cert.nodes_explored < 1:
                continue
            assert solve(G, cert.nodes_explored) == cert
            with pytest.raises(BudgetExceededError) as exc_info:
                solve(G, cert.nodes_explored - 1)
            assert exc_info.value.nodes_explored == cert.nodes_explored, graph6_encode(G)
            checked += 1
    return checked


def _outcome(solve, G, budget):
    """A solve's certificate fields, or its budget error's fields."""
    try:
        cert = solve(G, budget)
    except BudgetExceededError as e:
        return "exhausted", (e.lower_bound, e.upper_bound, e.best_known, e.nodes_explored)
    return "solved", (cert.kind, cert.value, cert.basis, cert.optimal, cert.nodes_explored)


class TestLatticeScan:
    """Universes of at most LATTICE_LIMIT vertices are solved on the subset
    lattice: the first hitting set in (size, combinations) order, with
    ``nodes_explored`` the subsets an exhaustive scan tests."""

    # the inputs of the branch-and-bound search's former digest
    # (241c1fc3...), all of which now take the lattice path
    DIGEST = "cdc0dfaebadd97366eb820554f56b864991c219e46c16eac5466dc15c98b1cec"

    def test_outcomes_are_pinned(self):
        rng = random.Random(13)
        graphs = _classes_to_n7() + [random_connected_graph(rng, rng.randint(10, 16)) for _ in range(30)]
        assert max(G.n for G in graphs) <= LATTICE_LIMIT
        kinds, digest = _outcomes_digest(graphs)
        assert kinds["exhausted"] > 1000 and kinds["solved"] > 1000
        assert digest == self.DIGEST

    def test_matches_the_all_subsets_scan(self):
        checked = 0
        for G in _classes_to_n7():
            for inst in (build_vertex_instance(G), build_edge_instance(G)):
                cert = min_hitting_set(inst)
                if not inst.masks:  # nothing to hit: no subset is tested
                    assert (cert.value, cert.basis, cert.nodes_explored) == (0, (), 0)
                    continue
                assert (cert.value, cert.basis, cert.nodes_explored) == naive_hitting_set(G.n, inst.masks)
                checked += 1
        assert checked == 2 * 996 - 3  # K1 has no pairs of either kind, K2 no edge pair

    def test_branch_and_bound_agrees(self):
        from metricdim.enumerator import enumerate_connected
        from metricdim.solver import _branch_and_bound

        rng = random.Random(8)
        graphs = list(enumerate_connected(8)) + [random_connected_graph(rng, rng.randint(10, 16))
                                                 for _ in range(40)]
        assert len(graphs) == 11_117 + 40
        for G in graphs:
            for inst in (build_vertex_instance(G), build_edge_instance(G)):
                assert _answer(min_hitting_set(inst)) == _answer(_branch_and_bound(inst, None)), graph6_encode(G)

    def test_budget_boundary_is_exact(self):
        # a budget of exactly the subsets a solve tests suffices, one less runs out
        assert _budget_boundaries(_classes_to_n7()) == 1989

    def test_every_smaller_budget_runs_out_on_its_own_node(self):
        # a budget of b tests b subsets, so every size below lower_bound is
        # ruled out; the upper side is the greedy bound's
        checked = 0
        for G in [G for G in _classes_to_n7() if G.n <= 6]:
            for inst in (build_vertex_instance(G), build_edge_instance(G)):
                sizes = list(accumulate(comb(G.n, j) for j in range(G.n)))
                for budget in range(min_hitting_set(inst).nodes_explored):
                    with pytest.raises(BudgetExceededError) as exc_info:
                        min_hitting_set(inst, budget)
                    err = exc_info.value
                    assert err.nodes_explored == budget + 1, (graph6_encode(G), budget)
                    assert err.lower_bound == max(1, sum(tested <= budget for tested in sizes))
                    assert err.best_known == greedy_upper_bound(inst)
                    assert err.upper_bound == len(err.best_known)
                    checked += 1
        assert checked == 6557  # the branch-and-bound search takes 1603 nodes on these

    def test_fill_grains_match_the_all_subsets_scan(self):
        # hand-built instances on both sides of the fill's grain crossover
        # (one byte or one bit per family), with duplicates, the full mask and
        # one-vertex masks; the all-subsets scan up to 12 vertices, the
        # branch-and-bound search past it
        from metricdim import solver
        from metricdim.solver import DistinguisherInstance, _branch_and_bound

        rng = random.Random(31)
        grains = Counter()
        assert min_hitting_set(DistinguisherInstance("vertex", 0, ())).nodes_explored == 0
        for u in range(1, LATTICE_LIMIT + 1):
            crossover = (1 << u) // solver._SPARSE
            for count in sorted({1, 2, crossover, crossover + 1, 3 * crossover + 5}):
                if not count:
                    continue
                masks = [1 << rng.randrange(u), (1 << u) - 1]
                while len(masks) < count:
                    masks.append(rng.choice(masks) if rng.random() < 0.2
                                 else sum(1 << v for v in range(u) if rng.random() < 0.4) or 1 << (u - 1))
                rng.shuffle(masks)
                masks = tuple(masks[:count])
                inst = DistinguisherInstance("vertex", u, masks)
                cert = min_hitting_set(inst)
                if u <= 12:
                    assert (cert.value, cert.basis, cert.nodes_explored) == naive_hitting_set(u, masks), (u, masks)
                else:
                    assert _answer(cert) == _answer(_branch_and_bound(inst, None)), (u, masks)
                grains[u, count * solver._SPARSE < 1 << u] += 1
        # from u = 7 on (2**u > _SPARSE) each universe takes both grains
        assert all(grains[u, True] and grains[u, False] for u in range(7, LATTICE_LIMIT + 1))

    def test_runs_no_search_layer(self, monkeypatch):
        # the sweeps' classes and the audits' graphs of 10 to 16 vertices take
        # the lattice alone: no column transpose, reduction or witness search
        from metricdim import solver
        from metricdim.bounds import audit_graph

        calls = Counter()

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for owner, name in ((solver, "_transpose"), (solver, "_minimal_families"), (solver._Search, "find")):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        for G in _classes_to_n7():
            metric_dimension(G)
            edge_metric_dimension(G)
        rng = random.Random(13)
        records = [audit_graph(random_connected_graph(rng, rng.randint(10, 16))) for _ in range(30)]
        assert all(r.dim_value is not None and r.edim_value is not None for r in records)
        assert not calls
        metric_dimension(_search_graphs()[0])  # past LATTICE_LIMIT, the spies count
        assert set(calls) == {"_transpose", "_minimal_families", "find"}

    def test_tables(self):
        from metricdim.solver import _lattice

        for u in range(6):
            W, L, full = _lattice(u)
            assert W == tuple(sum(1 << X for X in range(1 << u) if not X >> i & 1) for i in range(u))
            assert L == tuple(sum(1 << X for X in range(1 << u) if X.bit_count() == k) for k in range(u + 1))
            assert full == (1 << (1 << u)) - 1


def _search_graphs():
    """Seeded graphs with 17 to 20 vertices, past LATTICE_LIMIT: half dense,
    half a spanning tree with a few more edges."""
    rng = random.Random(13)
    dense = [random_connected_graph(rng, rng.randint(17, 20)) for _ in range(10)]
    return dense + [_sparse_random_graph(seed, 17 + seed % 4) for seed in range(10)]


def _tail_graphs():
    """Seeded graphs with 21 to 26 vertices, half dense, half sparse as in
    ``_search_graphs``, and the construction members past LATTICE_LIMIT that
    the solve-large benchmark solves, up to the 56-vertex 7x8 grid."""
    from metricdim.constructions import edim_biclique, edim_star, grid, md_biclique, md_complete, md_star

    rng = random.Random(21)
    dense = [random_connected_graph(rng, rng.randint(21, 26)) for _ in range(12)]
    members = [make(k).graph for make, k in ((md_complete, 5), (edim_star, 5), (md_star, 3),
                                             (md_biclique, 7), (edim_biclique, 7))]
    return (dense + [_sparse_random_graph(seed, 21 + seed % 6) for seed in range(12)]
            + members + [grid(dims) for dims in ([7, 8], [5, 5], [2, 3, 4])])


class TestSearchTree:
    """The branch-and-bound search, on universes past LATTICE_LIMIT, visits
    the same nodes in the same order: the digest pins every certificate and
    budget-error field of both kinds at budgets None, 1, 7 and 50."""

    DIGEST = "269e15a9ec788b5158ce0e0483dd48c347b37a7ebbc3b27d565c32d76e71a9b1"
    # _tail_graphs' outcomes at budgets None and 50
    TAIL_DIGEST = "e8594b16fdd3f66a77180f72e12d218187a7272c17aea434fcf716d29ee05ac2"

    def test_outcomes_are_pinned(self):
        graphs = _search_graphs()
        assert min(G.n for G in graphs) > LATTICE_LIMIT
        kinds, digest = _outcomes_digest(graphs)
        assert kinds["exhausted"] > 20 and kinds["solved"] > 20
        assert digest == self.DIGEST

    def test_outcomes_past_20_vertices_are_pinned(self):
        # up to 56 vertices: the 64-bit fields of the transpose, and masks
        # past 32 bits; the search is called directly, since min_hitting_set
        # refuses to run past FREE_SEARCH_LIMIT with no budget
        from metricdim.solver import _branch_and_bound

        graphs = _tail_graphs()
        assert min(G.n for G in graphs) > LATTICE_LIMIT and max(G.n for G in graphs) == 56
        digest, kinds = hashlib.sha256(), Counter()
        for G in graphs:
            for build in (build_vertex_instance, build_edge_instance):
                inst = build(G)
                for budget in (None, 50):
                    kind, fields = _outcome(lambda _, b: _branch_and_bound(inst, b), G, budget)
                    kinds[kind] += 1
                    digest.update(repr((kind, fields)).encode())
        assert kinds["exhausted"] > 10 and kinds["solved"] > 50
        assert digest.hexdigest() == self.TAIL_DIGEST

    def test_budget_boundary_is_exact(self):
        # a budget of exactly the nodes a solve takes suffices, one less runs
        # out on the last node
        assert _budget_boundaries(_search_graphs()) == 40

    def test_every_smaller_budget_runs_out_on_its_own_node(self):
        # the leaves a k = 1 node counts itself check the budget too
        checked = 0
        for G in [_sparse_random_graph(seed, 17 + seed % 4) for seed in range(8)]:
            for inst in (build_vertex_instance(G), build_edge_instance(G)):
                for budget in range(min_hitting_set(inst).nodes_explored):
                    with pytest.raises(BudgetExceededError) as exc_info:
                        min_hitting_set(inst, budget)
                    assert exc_info.value.nodes_explored == budget + 1, (graph6_encode(G), budget)
                    checked += 1
        assert checked == 1689

    def test_matches_the_reference_search(self):
        # the nodes a k <= 2 node counts and settles for its children are
        # the reference's, node for node, a budget runs out on each, and the
        # witness is the first hitting set the reference's recursion finds
        from metricdim.solver import _BudgetSignal, _minimal_families, _Search

        def search(fams, hits, rem, k, allow, cap=None):
            tree = _Search(fams, hits, cap)
            try:
                found = tree.find(rem, k, allow)
            except _BudgetSignal:
                return None, None, tree.spent
            return found is not None, found, tree.spent

        rng, outcomes, checked = random.Random(6), set(), 0
        for G in _search_graphs()[::3]:  # four dense, three sparse
            for inst in (build_vertex_instance(G), build_edge_instance(G)):
                fams, hits = _minimal_families(inst.masks, inst.columns)
                full = (1 << len(fams)) - 1
                # the reference takes the families smallest first: index i there is len(fams) - 1 - i here
                ascending = fams[::-1]
                for _ in range(4):
                    rem = full  # less the families a few chosen vertices hit
                    for v in rng.sample(range(len(hits)), rng.randint(0, len(hits) // 2)):
                        rem &= full ^ hits[v]
                    flipped = int(format(rem, f"0{len(fams)}b")[::-1], 2)
                    allow = (1 << G.n) - 1 ^ sum(1 << v for v in rng.sample(range(G.n), rng.randint(0, 3)))
                    for k in range(1, 5):
                        result, _, nodes = reference_search(ascending, flipped, k, allow)
                        outcomes.add((k, result, nodes > 20))
                        for cap in [None, *range(nodes + 1)]:
                            expected = reference_search(ascending, flipped, k, allow, cap)
                            assert search(fams, hits, rem, k, allow, cap) == expected, (graph6_encode(G), k, cap)
                            checked += 1
        assert {(k, result) for k, result, _ in outcomes} == {(k, r) for k in range(1, 5) for r in (True, False)}
        assert {(k, True) for k in (2, 3, 4)} <= {(k, big) for k, _, big in outcomes}  # trees of over 20 nodes
        assert checked > 1000

    def test_exhaustion_reports_stay_sound(self):
        # the upper side of a budget error is the best set the value search
        # holds, the greedy set or a smaller witness: it resolves, and the
        # value lies between the two sides
        checked = witnessed = 0
        for index, G in enumerate(_search_graphs()):
            for solve, resolves in ((metric_dimension, is_vertex_resolving), (edge_metric_dimension, is_edge_resolving)):
                cert = solve(G)
                budgets = range(cert.nodes_explored) if index in (5, 13) else [1, 7, 50]
                uppers = []
                for budget in [b for b in budgets if b < cert.nodes_explored]:
                    with pytest.raises(BudgetExceededError) as exc_info:
                        solve(G, budget)
                    err = exc_info.value
                    assert resolves(G, err.best_known)[0], (graph6_encode(G), budget)
                    assert err.upper_bound == len(err.best_known)
                    assert err.lower_bound <= cert.value <= err.upper_bound
                    uppers.append(err.upper_bound)
                    checked += 1
                # the smallest budget runs out before any witness: its upper side is the greedy set's
                witnessed += sum(upper < uppers[0] for upper in uppers)
        assert (checked, witnessed) == (1485, 626)

    @given(st.lists(st.integers(1, (1 << 12) - 1), min_size=1, max_size=40), st.integers(0, 5),
           st.integers(0, (1 << 12) - 1), st.data())
    def test_every_witness_hits_with_at_most_k_allowed_vertices(self, fams, k, allow, data):
        from metricdim.solver import _Search

        rem = data.draw(st.integers(0, (1 << len(fams)) - 1))
        found = _Search(fams, reference_columns(fams, 12), None).find(rem, k, allow)
        if found is None:
            assert reference_search(fams, rem, k, allow)[0] is False
        else:
            chosen = sum(1 << v for v in found)
            assert len(found) == chosen.bit_count() <= k and not chosen & ~allow
            assert all(fams[i] & chosen for i in range(len(fams)) if rem >> i & 1)

    def test_search_works_on_non_negative_ints(self, monkeypatch):
        # a revert to ~hits[v] gives the same answers, but CPython's & with a
        # negative operand is several times slower on wide ints
        from metricdim import solver

        made = []

        class Recorded(solver._Search):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solver, "_Search", Recorded)
        for G in _search_graphs()[:3]:
            metric_dimension(G)
            edge_metric_dimension(G)
        assert len(made) == 6
        for search in made:
            assert search.cover and search.full == (1 << len(search.fams)) - 1
            assert min(search.clear) >= 0 and min(search.cover.values()) >= 0

    def test_cover_table_stays_bounded(self):
        # a long budgeted edim search over thousands of families empties the
        # cover table instead of growing it past 2**23 bits of masks
        from metricdim.solver import _COVER_BITS, _BudgetSignal, _disjoint_lb, _minimal_families, _Search

        class Table(dict):
            peak = clears = 0

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.peak = max(self.peak, len(self))

            def clear(self):
                self.clears += 1
                super().clear()

        rng = random.Random(0)
        G = from_edge_list(40, [])
        while not G.distances.connected:
            G = from_edge_list(40, [e for e in combinations(range(40), 2) if rng.random() < 0.3])
        inst = build_edge_instance(G)
        fams, hits = _minimal_families(inst.masks, inst.columns)
        assert len(fams) > 5000
        search = _Search(fams, hits, 100_000)
        search.cover = table = Table()
        rem, vertices = (1 << len(fams)) - 1, (1 << len(hits)) - 1
        # k starts at the bound _branch_and_bound packs smallest first (1 largest first)
        lower = _disjoint_lb(reversed(fams))
        assert lower == 4
        with pytest.raises(_BudgetSignal):
            for k in range(lower, len(greedy_upper_bound(inst))):
                assert search.find(rem, k, vertices) is None
        assert search.spent == 100_001
        assert _COVER_BITS == 1 << 23
        assert table.clears >= 2
        assert (table.peak - 1) * len(fams) < _COVER_BITS
