import hashlib
import io
import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricdim.cli import main
from metricdim.enumerator import enumerate_connected
from metricdim.graph_core import (
    GRAPH6_MAX_N,
    DisconnectedGraphError,
    Graph,
    GraphInputError,
    SizeLimitError,
    UNREACHABLE,
    bfs_all_pairs,
    bits,
    chromatic_number,
    connected_distances,
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
    parse_graph6_text,
    _connected_within,
)
from oracles import (
    _edge_vectors,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    first_fit_colour_count,
    has_edge,
    naive_distances,
    neighbors,
    path_graph,
    random_connected_graph,
    reference_bits,
    relabeled,
    star_graph,
)

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
        assert has_edge(G, 1, 0) and not has_edge(G, 0, 2)
        assert G.degree(1) == 2
        assert list(neighbors(G, 1)) == [0, 2]
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
        with pytest.raises(GraphInputError, match="nonnegative"):
            Graph(-1, ())
        with pytest.raises(GraphInputError, match="table length"):
            Graph(2, (2,))
        with pytest.raises(GraphInputError, match="row 0 references a vertex >= 2"):
            Graph(2, (4, 1))

    def test_factories(self):
        assert path_graph(5).num_edges == 4
        assert cycle_graph(5).num_edges == 5
        assert complete_graph(5).num_edges == 10
        assert star_graph(4).degree(0) == 4
        assert complete_bipartite_graph(2, 3).num_edges == 6
        assert max_star(star_graph(7)) == 7
        with pytest.raises(GraphInputError, match="at least 3 vertices"):
            cycle_graph(2)


class TestBits:
    @pytest.mark.parametrize("mask", [0, 1, 255, 256, (1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32,
                                      1 << 64, (1 << 200) + 5])
    def test_boundary_masks(self, mask):
        assert list(bits(mask)) == reference_bits(mask)

    def test_random_masks_of_every_width(self):
        rng = random.Random(27)
        for _ in range(2000):
            mask = rng.getrandbits(rng.randint(1, 130))
            assert list(bits(mask)) == reference_bits(mask), mask

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 16), -(1 << 40) - 3])
    def test_negative_mask_raises(self, mask):
        with pytest.raises(ValueError, match="negative mask"):
            bits(mask)

    def test_neighbors_and_edges_on_every_small_class(self):
        for n in range(1, 7):
            for G in enumerate_connected(n):
                for v in range(n):
                    assert list(neighbors(G, v)) == reference_bits(G.adj[v])
                assert G.edges() == [(u, v) for u in range(n) for v in range(u + 1, n) if G.adj[u] >> v & 1]


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
        H = graph6_decode(graph6_encode(G))
        assert H == G
        assert Graph(H.n, H.adj) == H and Graph(G.n, G.adj) == G

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


class TestGraph6EverySize:
    """The codec at every short-form size, and the tables graph6_decode and
    from_edge_list build without the Graph(n, adj) rescan."""

    @staticmethod
    def samples(n):
        rng = random.Random(n)
        pairs = [(u, v) for v in range(n) for u in range(v)]
        yield from_edge_list(n, [])
        yield complete_graph(n)
        for p in (0.1, 0.5, 0.9):
            yield from_edge_list(n, [e for e in pairs if rng.random() < p])

    @pytest.mark.parametrize("n", range(GRAPH6_MAX_N + 1))
    def test_matches_networkx(self, n):
        for G in self.samples(n):
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from(G.edges())
            theirs = nx.to_graph6_bytes(H, header=False).decode()
            assert graph6_encode(G) == theirs.strip()
            decoded = graph6_decode(theirs)
            assert decoded == G
            back = nx.from_graph6_bytes(graph6_encode(G).encode())
            assert back.number_of_nodes() == n
            assert sorted(tuple(sorted(e)) for e in back.edges()) == G.edges()
            # the checks both constructors skip would pass
            assert Graph(n, G.adj) == G and Graph(n, decoded.adj) == decoded

    @pytest.mark.parametrize("text,match", [
        ("B" + chr(127), "payload byte out of range"),  # one above "~"
        ("Bé", "payload byte out of range"),  # not ASCII
        ("~??~", "malformed graph6 header byte"),  # long form, n >= 63
    ], ids=["above-tilde", "non-ascii", "long-form"])
    def test_hostile_input(self, text, match, capsys, monkeypatch):
        with pytest.raises(GraphInputError, match=match) as info:
            graph6_decode(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
        code = main(["dim", "-"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {info.value}\n"


class TestGraph6Text:
    @pytest.mark.parametrize("text, message", [
        (">>graph6<<\n", "expected exactly one graph6 line, got 0"),
        ("Dhc\n>>graph6<<Dhc\n", "expected exactly one graph6 line, got 2"),
        (" >>graph6<<Dhc\n", "malformed graph6 header byte: '>'"),
        ("\n>>graph6<<Dhc\n", "malformed graph6 header byte: '>'"),
    ], ids=["header-only", "header-on-line-2", "space-first", "blank-line-first"])
    def test_header_only_at_the_start(self, text, message):
        with pytest.raises(GraphInputError) as info:
            parse_graph6_text(text)
        assert str(info.value) == message

    def test_one_line_among_blank_lines(self):
        C5 = graph6_decode("Dhc")
        assert parse_graph6_text(">>graph6<<Dhc\n") == C5
        assert parse_graph6_text("\n \r\n  Dhc \n\n\x0c\n") == C5
        assert parse_graph6_text(">>graph6<<\n\nDhc\n") == C5


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
        with pytest.raises(GraphInputError, match="two integers: '0 x'"):
            parse_edge_list_text("2 1\n0 x\n")

    def test_vertex_count_capped_before_allocation(self):
        with pytest.raises(SizeLimitError, match="edge-list input supports n <= 62"):
            parse_edge_list_text("1000000000 0\n")
        with pytest.raises(SizeLimitError):
            parse_edge_list_text("63 0\n")
        assert parse_edge_list_text("62 1\n0 61\n").n == 62

    def test_header_refused_before_the_edge_lines(self):
        # the edge lines are never read: "0 x" would raise its own error
        with pytest.raises(GraphInputError, match="^header announces 4 edges but 3 vertices allow at most 3$"):
            parse_edge_list_text("3 4\n0 x\n")
        with pytest.raises(GraphInputError, match="^vertex count must be nonnegative$"):
            parse_edge_list_text("-2 1\n0 x\n")
        assert parse_edge_list_text("3 3\n0 1\n1 2\n0 2\n").num_edges == 3
        with pytest.raises(GraphInputError, match="^header announces 0 edges but 2 lines follow$"):
            parse_edge_list_text("1 0\n\n0 x\r\n \x0c y\n")

    def test_lines_split_as_splitlines_does(self):
        text = "4 3\r\n0 1\x0b1 2\x85 \u20282 3\n\n"
        assert parse_edge_list_text(text) == from_edge_list(4, [(0, 1), (1, 2), (2, 3)])


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
        # the edge-distance rule (smaller endpoint distance) on the cached
        # matrix, against the oracle's edge vectors
        G = path_graph(5)
        D = G.distances
        for S, want in (((0,), (1,)), ((4,), (2,)), ((2,), (0,)), ((0, 4), (1, 2))):
            assert tuple(min(D[1][s], D[2][s]) for s in S) == want
            assert _edge_vectors(naive_distances(G), S, [(1, 2)]) == [want]

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


class TestConnectedWithin:
    def test_agrees_with_induced_subgraphs(self):
        # every vertex set, so every single-vertex deletion, of every class
        # with n <= 6, against the induced subgraph's BFS distances
        for n in range(1, 7):
            for G in enumerate_connected(n):
                for mask in range(1 << n):
                    H, _ = induced_subgraph(G, bits(mask))
                    assert _connected_within(G.adj, mask) == H.distances.connected

    def test_empty_mask(self):
        assert _connected_within(complete_graph(3).adj, 0) is False
        assert _connected_within((), 0) is False
        assert not is_connected(Graph(0, ()))


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
        with pytest.raises(GraphInputError, match="out of range"):
            induced_subgraph(G, [0, 5])


class TestCliqueStarBiclique:
    def test_max_clique_known(self):
        assert max_clique(complete_graph(5)) == (0, 1, 2, 3, 4)
        assert len(max_clique(cycle_graph(5))) == 2
        assert len(max_clique(path_graph(1))) == 1

    @pytest.mark.parametrize("stat,limit", [(max_clique, 64), (max_balanced_biclique, 24),
                                            (chromatic_number, 16)],
                             ids=["max_clique", "max_balanced_biclique", "chromatic_number"])
    def test_size_limits(self, stat, limit):
        stat(path_graph(limit))
        with pytest.raises(SizeLimitError, match=f"certified for n <= {limit}, got {limit + 1}"):
            stat(path_graph(limit + 1))

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
                assert a == b or has_edge(G, a, b)

    def test_max_balanced_biclique(self):
        assert max_balanced_biclique(complete_bipartite_graph(3, 3)) == 3
        assert max_balanced_biclique(complete_bipartite_graph(2, 5)) == 2
        assert max_balanced_biclique(path_graph(4)) == 1
        assert max_balanced_biclique(complete_graph(4)) == 2  # sides need not be independent
        assert max_balanced_biclique(path_graph(1)) == 0
        for cap in (0, -1):
            assert max_balanced_biclique(complete_bipartite_graph(3, 3), cap=cap) == 0


class TestColoringDegeneracy:
    def test_chromatic_known(self):
        assert chromatic_number(complete_graph(4)) == 4
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(cycle_graph(6)) == 2
        assert chromatic_number(path_graph(1)) == 1
        for n in range(6):  # edgeless, the empty graph included
            G = from_edge_list(n, [])
            assert chromatic_number(G) == min(n, 1)
            assert max_clique(G) == tuple(range(min(n, 1)))

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
    def test_greedy_is_first_fit(self, G):
        assert greedy_coloring(G) == first_fit_colour_count(G)

    def test_statistics_digest(self):
        # one digest of the per-class statistics over every class with
        # 3 <= n <= 8 and 200 seeded random graphs with 9 to 16 vertices
        rng = random.Random(27)
        graphs = [G for n in range(3, 9) for G in enumerate_connected(n)]
        graphs += [random_connected_graph(rng, rng.randint(9, 16)) for _ in range(200)]
        assert len(graphs) == 12_111 + 200
        digest = hashlib.sha256()
        for G in graphs:
            row = (graph6_encode(G), chromatic_number(G), greedy_coloring(G), degeneracy(G), max_clique(G))
            digest.update(repr(row).encode())
        assert digest.hexdigest() == "1515bf67ef3fe25a561fb7edfae63f008c3dca11c50aac3c639f1fba74e4ead0"

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
    assert len(names) == 55
    assert [name for name in names if name not in namespace] == []
