import hashlib
import itertools

import pytest

from metricdim.bounds import GraphRecord, audit_graph
from metricdim.characterizations import (
    char_edim_eq_n2,
    char_edim_ge_n2,
    char_edim_n1,
    non_mutual_neighbors,
    tuple_lemma_check,
)
from metricdim.enumerator import _diam_le_3k_1, _diam_le_5, _tuple_lemma, enumerate_connected
from metricdim.graph_core import (
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph6_encode,
    path_graph,
    star_graph,
)
from metricdim.solver import edge_metric_dimension


class TestNonMutualNeighbors:
    def test_adjacent_endpoints_included(self):
        # in K_4 every other vertex is a mutual neighbor of 0 and 1,
        # but each endpoint is adjacent to the other and not to itself
        assert non_mutual_neighbors(complete_graph(4), 0, 1) == {0, 1}

    def test_path_interior_pair(self):
        assert non_mutual_neighbors(path_graph(4), 1, 2) == {0, 1, 2, 3}

    def test_symmetric_difference_can_be_empty(self):
        assert non_mutual_neighbors(path_graph(3), 0, 2) == set()
        assert non_mutual_neighbors(cycle_graph(4), 0, 2) == set()

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError):
            non_mutual_neighbors(path_graph(3), 1, 1)


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
