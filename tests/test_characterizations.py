import hashlib
import itertools
import random

import pytest

from metricdim.bounds import GraphRecord, audit_graph
from metricdim.characterizations import (
    _within_two,
    char_edim_eq_n2,
    char_edim_ge_n2,
    char_edim_n1,
    tuple_lemma_check,
)
from metricdim.enumerator import _diam_le_3k_1, _diam_le_5, _tuple_lemma, enumerate_connected
from metricdim.graph_core import (
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    graph6_encode,
    path_graph,
    star_graph,
)
from metricdim.solver import edge_metric_dimension

from oracles import brute_tuple_lemma, naive_distances


class TestTopCharacterization:
    def test_complete_graphs_qualify(self):
        for n in range(3, 7):
            holds, pair = char_edim_n1(complete_graph(n))
            assert holds and pair is None

    def test_paths_fail_at_first_pair(self):
        holds, pair = char_edim_n1(path_graph(4))
        assert not holds
        assert pair == (0, 1)

    def test_star_fails(self):
        # center and a leaf have no common neighbor
        holds, pair = char_edim_n1(star_graph(4))
        assert not holds

    def test_small_graphs_rejected(self):
        with pytest.raises(SizeLimitError):
            char_edim_n1(path_graph(2))


class TestSecondTierCharacterization:
    def test_p3_holds_by_condition_1(self):
        res = char_edim_ge_n2(path_graph(3))
        assert res.holds
        assert res.failing_triple is None
        assert res.witnesses[(0, 1, 2)].mode == "condition-1"
        assert res.witnesses[(0, 1, 2)].u == 1

    def test_witnesses_cover_every_triple(self):
        G = complete_bipartite_graph(2, 3)
        res = char_edim_ge_n2(G)
        assert res.holds
        expected = set(itertools.combinations(range(G.n), 3))
        assert set(res.witnesses) == expected

    def test_c5_fails(self):
        res = char_edim_ge_n2(cycle_graph(5))
        assert not res.holds
        assert res.failing_triple == (0, 1, 2)
        assert res.witnesses == {}

    def test_exact_second_tier(self):
        assert char_edim_eq_n2(path_graph(3))
        assert char_edim_eq_n2(cycle_graph(4))
        assert char_edim_eq_n2(complete_bipartite_graph(2, 3))
        assert not char_edim_eq_n2(complete_graph(4))  # sits in the top tier
        assert not char_edim_eq_n2(path_graph(4))


class TestPredicatesMatchSolver:
    """The structural predicates must agree with the solver on every
    connected graph with 3 <= n <= 6."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_top_tier(self, n):
        for G in enumerate_connected(n):
            holds, _ = char_edim_n1(G)
            edim = edge_metric_dimension(G).nonempty_value
            assert holds == (edim == n - 1), graph6_encode(G)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_second_tier(self, n):
        for G in enumerate_connected(n):
            res = char_edim_ge_n2(G)
            edim = edge_metric_dimension(G).nonempty_value
            assert res.holds == (edim >= n - 2), graph6_encode(G)
            assert char_edim_eq_n2(G) == (edim == n - 2), graph6_encode(G)


class TestTupleLemma:
    def test_path_has_violating_triple(self):
        res = tuple_lemma_check(path_graph(7), 2)
        assert not res.holds
        assert not res.vacuous
        assert res.violating == (0, 3, 6)

    def test_dense_graph_passes(self):
        res = tuple_lemma_check(complete_graph(4), 2)
        assert res.holds and not res.vacuous

    def test_vacuous_when_too_few_vertices(self):
        res = tuple_lemma_check(path_graph(3), 5)
        assert res.holds and res.vacuous and res.violating is None

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            tuple_lemma_check(path_graph(4), 0)

    def test_matches_oracle_on_every_small_class(self):
        checked = 0
        for n in range(1, 8):
            for G in enumerate_connected(n):
                for k in range(1, n + 2):
                    assert tuple_lemma_check(G, k) == brute_tuple_lemma(G, k), (graph6_encode(G), k)
                    checked += 1
        assert checked == 7777

    def test_matches_oracle_on_random_graphs(self):
        # sparse and dense G(n, p) samples, connected or not, so that both
        # verdicts occur and the violating tuples are compared too
        rng = random.Random(10)
        violated = disconnected = 0
        for _ in range(400):
            n = rng.randint(1, 14)
            p = rng.uniform(0.05, 0.6)
            G = from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            k = rng.randint(1, 6)
            res = tuple_lemma_check(G, k)
            assert res == brute_tuple_lemma(G, k), (graph6_encode(G), k)
            violated += not res.holds
            disconnected += len(naive_distances(G)[0]) < n
        assert violated >= 50 and disconnected >= 50

    def test_sizes_beyond_the_subset_walk(self):
        # C(30, 11) = 54,627,300 subsets for the first call
        assert tuple_lemma_check(cycle_graph(30), 10).holds
        assert tuple_lemma_check(cycle_graph(30), 9).violating == tuple(range(0, 30, 3))
        assert tuple_lemma_check(path_graph(40), 13).violating == tuple(range(0, 40, 3))

    def test_lemma_matches_edim_tier(self):
        # any connected graph with edim >= n-2 admits no such spread triple
        for n in range(3, 7):
            for G in enumerate_connected(n):
                if edge_metric_dimension(G).nonempty_value >= n - 2:
                    assert tuple_lemma_check(G, 2).holds, graph6_encode(G)


class TestDiameterTheorem:
    """The diameter theorems and the tuple lemma are sweep rows evaluated on
    one GraphRecord; each row returns None when its theorem holds."""

    def test_c5_report(self):
        r = GraphRecord(cycle_graph(5))
        assert (r.n, r.edim, r.diameter) == (5, 2, 2)
        k = r.n - r.edim
        assert k == 3 and 3 * k - 1 == 8 and r.diameter <= 8
        assert r.edim != r.n - 2  # the diameter <= 5 theorem does not apply
        assert _diam_le_3k_1(r) is None
        assert _diam_le_5(r) is None
        assert _tuple_lemma(r) is None

    def test_second_tier_diameter_cap(self):
        # edim = n-2 forces diameter at most 5
        for G in (path_graph(3), cycle_graph(4), complete_bipartite_graph(2, 3)):
            r = GraphRecord(G)
            assert r.edim == r.n - 2, graph6_encode(G)
            assert r.diameter <= 5
            assert _diam_le_5(r) is None
            assert _diam_le_3k_1(r) is None
            assert _tuple_lemma(r) is None


class TestOneDistanceMatrix:
    def test_audit_and_predicates_share_one_bfs(self, bfs_calls):
        G = cycle_graph(7)
        audit_graph(G)
        char_edim_n1(G)
        char_edim_ge_n2(G)
        tuple_lemma_check(G, 2)
        assert bfs_calls == [G]

    def test_radius_two_masks_match_bfs(self):
        # the masks come from adjacency alone; the oracle's BFS is the reference
        graphs = [G for n in range(1, 8) for G in enumerate_connected(n)]
        assert len(graphs) == 996
        graphs.append(from_edge_list(5, [(0, 1), (1, 2), (3, 4)]))  # disconnected
        for G in graphs:
            dist = naive_distances(G)
            expected = [sum(1 << x for x, d in dist[v].items() if 0 < d <= 2) for v in range(G.n)]
            assert _within_two(G) == expected, graph6_encode(G)

    def test_predicate_results_digest(self):
        # pins every verdict, failing triple and chosen witness over the 994
        # classes with 3 <= n <= 7, as first recorded before the radius-2 masks
        h = hashlib.sha256()
        count = 0
        for n in range(3, 8):
            for G in enumerate_connected(n):
                count += 1
                res = char_edim_ge_n2(G)
                witnesses = sorted((t, (w.triple, w.mode, w.u)) for t, w in res.witnesses.items())
                h.update(repr((res.holds, res.failing_triple, witnesses)).encode())
                for k in range(1, n + 1):
                    t = tuple_lemma_check(G, k)
                    h.update(repr((k, t.holds, t.vacuous, t.violating)).encode())
        assert count == 994
        assert h.hexdigest() == "5f5ec37a88ba53dc153a892505bb949317214b01a73d390b06166a1501cebe29"
