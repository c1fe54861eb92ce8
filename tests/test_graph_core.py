import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricdim.graph_core import (
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    SizeLimitError,
    UNREACHABLE,
    bfs_all_pairs,
    chromatic_number,
    complete_bipartite_graph,
    complete_graph,
    connected_distances,
    cycle_graph,
    degeneracy,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    greedy_coloring,
    induced_subgraph,
    is_connected,
    max_balanced_biclique,
    max_clique,
    max_star,
    parse_edge_list_text,
    path_graph,
    relabeled,
    star_graph,
)
from metricdim.metric import edge_distance_vector

# random-ish but deterministic edge sets for property tests
graphs = st.integers(1, 9).flatmap(
    lambda n: st.builds(
        lambda edges: from_edge_list(n, sorted(set(edges))),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            max_size=n * (n - 1) // 2,
        ),
    )
)


class TestGraphBasics:
    def test_from_edge_list(self):
        G = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        assert G.n == 4
        assert G.num_edges == 3
        assert G.has_edge(1, 0) and not G.has_edge(0, 2)
        assert G.degree(1) == 2
        assert list(G.neighbors(1)) == [0, 2]
        assert G.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_rejects_bad_edges(self):
        with pytest.raises(GraphInputError, match="out of range"):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(GraphInputError, match="self-loop"):
            from_edge_list(3, [(1, 1)])
        with pytest.raises(GraphInputError, match="duplicate"):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_adjacency_validation(self):
        with pytest.raises(GraphInputError, match="asymmetric"):
            Graph(2, (2, 0))
        with pytest.raises(GraphInputError, match="self-loop"):
            Graph(1, (1,))

    def test_factories(self):
        assert path_graph(5).num_edges == 4
        assert cycle_graph(5).num_edges == 5
        assert complete_graph(5).num_edges == 10
        assert star_graph(4).degree(0) == 4
        assert complete_bipartite_graph(2, 3).num_edges == 6
        assert max_star(star_graph(7)) == 7


class TestGraph6:
    def test_known_encodings(self):
        assert graph6_encode(complete_graph(3)) == "Bw"
        assert graph6_encode(path_graph(3)) == "Bg"
        assert graph6_encode(complete_graph(1)) == "@"

    def test_decode_known(self):
        assert graph6_decode("Bw").edges() == [(0, 1), (0, 2), (1, 2)]
        assert graph6_decode("Bg").edges() == [(0, 1), (1, 2)]

    def test_decode_rejects_garbage(self):
        with pytest.raises(GraphInputError, match="empty"):
            graph6_decode("")
        with pytest.raises(GraphInputError, match="needs"):
            graph6_decode("Bwww")
        with pytest.raises(GraphInputError, match="byte"):
            graph6_decode("B" + chr(200))
        with pytest.raises(GraphInputError, match="padding"):
            # K_3 body with a nonzero padding bit forced on
            body = chr(63 + 0b111111)
            graph6_decode("B" + body)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            graph6_encode(from_edge_list(63, [(0, 1)]))

    @given(graphs)
    def test_roundtrip(self, G):
        assert graph6_decode(graph6_encode(G)) == G

    @given(graphs)
    def test_matches_networkx(self, G):
        ours = graph6_encode(G)
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        theirs = nx.to_graph6_bytes(H, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(back.edges()) == G.edges()


class TestEdgeListText:
    def test_roundtrip(self):
        G = from_edge_list(4, [(0, 1), (2, 3)])
        assert parse_edge_list_text("4 2\n0 1\n2 3\n") == G

    def test_parse_errors(self):
        with pytest.raises(GraphInputError, match="empty"):
            parse_edge_list_text("")
        with pytest.raises(GraphInputError, match="header"):
            parse_edge_list_text("3\n0 1\n")
        with pytest.raises(GraphInputError, match="announces"):
            parse_edge_list_text("3 2\n0 1\n")
        with pytest.raises(GraphInputError, match="edge line"):
            parse_edge_list_text("3 1\n0 1 2\n")

    def test_vertex_count_capped_before_allocation(self):
        with pytest.raises(SizeLimitError, match="edge-list input supports n <= 62"):
            parse_edge_list_text("1000000000 0\n")
        with pytest.raises(SizeLimitError):
            parse_edge_list_text("63 0\n")
        assert parse_edge_list_text("62 1\n0 61\n").n == 62


class TestDistances:
    @given(graphs)
    def test_bfs_matches_networkx(self, G):
        D = bfs_all_pairs(G)
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        lengths = dict(nx.all_pairs_shortest_path_length(H))
        for u in range(G.n):
            for v in range(G.n):
                expected = lengths[u].get(v, UNREACHABLE)
                assert D[u][v] == expected

    def test_connected_flag(self):
        assert bfs_all_pairs(path_graph(4)).connected
        assert not bfs_all_pairs(from_edge_list(4, [(0, 1), (2, 3)])).connected
        assert is_connected(path_graph(2))
        assert not is_connected(from_edge_list(2, []))

    def test_diameter(self):
        assert path_graph(6).distances.diameter == 5
        assert cycle_graph(6).distances.diameter == 3
        assert complete_graph(4).distances.diameter == 1
        with pytest.raises(DisconnectedGraphError, match="needs a connected graph"):
            connected_distances(from_edge_list(3, [(0, 1)]), "needs a connected graph")

    def test_edge_vertex_distance(self):
        # the edge-distance rule (smaller endpoint distance) on the cached matrix
        D = path_graph(5).distances
        assert edge_distance_vector(D, (1, 2), (0,)) == (1,)
        assert edge_distance_vector(D, (1, 2), (4,)) == (2,)
        assert edge_distance_vector(D, (1, 2), (2,)) == (0,)

    @given(graphs)
    def test_distances_computed_once_and_kept(self, G):
        D = G.distances
        assert D == bfs_all_pairs(G)
        assert G.distances is D

    def test_distances_leave_equality_and_hash_alone(self):
        read, unread = cycle_graph(5), cycle_graph(5)
        read.distances
        assert read == unread and hash(read) == hash(unread)
        assert "distances" in vars(read) and "distances" not in vars(unread)
        assert len({read, unread}) == 1


class TestRelabeling:
    def test_relabeled(self):
        G = path_graph(3)
        H = relabeled(G, (2, 1, 0))
        assert H.edges() == [(0, 1), (1, 2)]
        H = relabeled(G, (1, 0, 2))  # center moves to position 0
        assert H.edges() == [(0, 1), (0, 2)]

    def test_induced_subgraph(self):
        G = cycle_graph(5)
        H, mapping = induced_subgraph(G, [0, 1, 2, 4])
        assert mapping == {0: 0, 1: 1, 2: 2, 4: 3}
        assert H.edges() == [(0, 1), (0, 3), (1, 2)]


class TestCliqueStarBiclique:
    def test_max_clique_known(self):
        assert max_clique(complete_graph(5)) == (0, 1, 2, 3, 4)
        assert len(max_clique(cycle_graph(5))) == 2
        assert len(max_clique(path_graph(1))) == 1

    @given(graphs)
    def test_max_clique_matches_networkx(self, G):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        best = max(len(c) for c in nx.find_cliques(H))
        ours = max_clique(G)
        assert len(ours) == best
        for a in ours:
            for b in ours:
                assert a == b or G.has_edge(a, b)

    def test_max_balanced_biclique(self):
        assert max_balanced_biclique(complete_bipartite_graph(3, 3)) == 3
        assert max_balanced_biclique(complete_bipartite_graph(2, 5)) == 2
        assert max_balanced_biclique(path_graph(4)) == 1
        assert max_balanced_biclique(complete_graph(4)) == 2  # sides need not be independent
        assert max_balanced_biclique(path_graph(1)) == 0


class TestColoringDegeneracy:
    def test_chromatic_known(self):
        assert chromatic_number(complete_graph(4)) == 4
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(cycle_graph(6)) == 2
        assert chromatic_number(path_graph(1)) == 1
        assert chromatic_number(from_edge_list(3, [])) == 1

    @given(graphs)
    def test_chromatic_is_proper_and_minimal(self, G):
        chi = chromatic_number(G)
        assert chi <= greedy_coloring(G)
        if G.num_edges:
            assert chi >= 2
        # no proper coloring with chi-1 colors exists: cross-check by brute force
        if G.n <= 6 and chi > 1:
            from itertools import product

            assert not any(
                all(c[u] != c[v] for u, v in G.edges())
                for c in product(range(chi - 1), repeat=G.n)
            )

    def test_degeneracy_known(self):
        assert degeneracy(complete_graph(5)) == 4
        assert degeneracy(path_graph(5)) == 1
        assert degeneracy(cycle_graph(5)) == 2
        assert degeneracy(star_graph(9)) == 1

    @given(graphs)
    def test_degeneracy_matches_networkx(self, G):
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges())
        expected = max(nx.core_number(H).values()) if G.n else 0
        assert degeneracy(G) == expected


def test_star_import_binds_every_reexported_name():
    # the package re-exports by its import block alone, with no __all__ list
    import ast
    from pathlib import Path

    import metricdim

    tree = ast.parse(Path(metricdim.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    namespace = {}
    exec("from metricdim import *", namespace)
    assert len(names) == 58
    assert [name for name in names if name not in namespace] == []
