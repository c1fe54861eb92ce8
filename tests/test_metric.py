from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metricdim import graph_core, metric
from metricdim.enumerator import enumerate_connected
from metricdim.graph_core import (
    DisconnectedGraphError,
    GraphInputError,
    from_edge_list,
)
from metricdim.metric import is_edge_resolving, is_vertex_resolving, landmark_tuple

from oracles import (
    _edge_vectors,
    _vertex_vectors,
    complete_graph,
    cycle_graph,
    naive_distances,
    naive_is_edge_resolving,
    naive_is_vertex_resolving,
    path_graph,
    random_connected_graph,
    star_graph,
)


class TestLandmarkTuple:
    def test_sorts_and_validates(self):
        assert landmark_tuple([3, 0, 2], 5) == (0, 2, 3)
        assert landmark_tuple([], 5) == ()
        with pytest.raises(GraphInputError, match="out of range"):
            landmark_tuple([5], 5)
        with pytest.raises(GraphInputError, match="duplicate"):
            landmark_tuple([1, 1], 5)


class TestDistanceVectors:
    """The vectors a check compares, read off its failure witness."""

    def test_vertex_vector(self):
        # the path 0-1-2-3-4 with 5 joined to 2 and 4: vertices 3 and 5 are
        # both 3 from landmark 0 and 1 from landmark 4, in sorted order
        G = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (4, 5)])
        ok, witness = is_vertex_resolving(G, (4, 0))
        assert not ok
        assert (witness.a, witness.b, witness.shared_vector) == (3, 5, (3, 1))

    def test_edge_vector_takes_endpoint_min(self):
        # on the path 0-1-2-3-4, edges (0, 1) and (3, 4) sit 1 from vertex 2,
        # the nearer endpoint's distance
        ok, witness = is_edge_resolving(path_graph(5), (2,))
        assert not ok
        assert (witness.a, witness.b, witness.shared_vector) == ((0, 1), (3, 4), (1,))


class TestResolving:
    def test_vertex_known(self):
        ok, witness = is_vertex_resolving(path_graph(5), (0,))
        assert ok and witness is None
        ok, witness = is_vertex_resolving(star_graph(3), (1,))
        assert not ok
        # leaves 2 and 3 share distance 2 to landmark 1
        assert (witness.a, witness.b) == (2, 3)
        assert witness.shared_vector == (2,)
        assert witness.kind == "vertex"

    def test_edge_known(self):
        ok, _ = is_edge_resolving(cycle_graph(4), (0, 1))
        assert ok
        ok, witness = is_edge_resolving(complete_graph(3), (0,))
        assert not ok
        assert witness.kind == "edge"
        assert (witness.a, witness.b) == ((0, 1), (0, 2))
        assert witness.shared_vector == (0,)

    def test_witness_is_lexicographically_first(self):
        # all three vertices of K_3 collide on the empty landmark set;
        # the reported pair must be the smallest one
        ok, witness = is_vertex_resolving(complete_graph(3), ())
        assert not ok
        assert (witness.a, witness.b) == (0, 1)

    def test_empty_set_on_single_object(self):
        ok, _ = is_vertex_resolving(path_graph(1), ())
        assert ok
        ok, _ = is_edge_resolving(path_graph(2), ())
        assert ok  # a lone edge is distinguished vacuously

    def test_requires_connected(self):
        # connectivity is checked first, so even bad landmark ids meet it
        G = from_edge_list(4, [(0, 1), (2, 3)])
        for check in (is_vertex_resolving, is_edge_resolving):
            for S in ((0,), (9,), (1, 1), ()):
                with pytest.raises(DisconnectedGraphError):
                    check(G, S)
        with pytest.raises(GraphInputError, match="out of range"):
            is_vertex_resolving(path_graph(3), (9,))

    def test_bfs_runs_from_the_landmarks_only(self, bfs_calls, monkeypatch):
        sources = []

        def rows(G, srcs):
            sources.append(tuple(srcs))
            return graph_core._bfs_rows(G, srcs)

        monkeypatch.setattr(metric, "_bfs_rows", rows)
        G = cycle_graph(7)
        assert is_vertex_resolving(G, (3, 0))[0]
        assert is_edge_resolving(G, (0, 1, 3))[0]
        assert sources == [(0, 3), (0, 1, 3)]
        assert bfs_calls == []
        assert "distances" not in vars(G)

    def test_full_vertex_set_always_resolves(self):
        for G in (path_graph(4), cycle_graph(5), complete_graph(4)):
            ok, _ = is_vertex_resolving(G, tuple(range(G.n)))
            assert ok


@given(st.integers(0, 400), st.integers(2, 8), st.data())
def test_matches_naive_on_random_subsets(seed, n, data):
    import random

    G = random_connected_graph(random.Random(seed), n)
    S = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))))
    ok, witness = is_vertex_resolving(G, S)
    assert ok == naive_is_vertex_resolving(G, S)
    ok_e, witness_e = is_edge_resolving(G, S)
    assert ok_e == naive_is_edge_resolving(G, S)
    # returned witnesses must actually collide, on the oracle's own vectors
    dist = naive_distances(G)
    if witness is not None:
        vecs = _vertex_vectors(dist, S, G.n)
        assert vecs[witness.a] == vecs[witness.b] == witness.shared_vector
    if witness_e is not None:
        ea, eb = _edge_vectors(dist, S, [witness_e.a, witness_e.b])
        assert ea == eb == witness_e.shared_vector


def test_witness_is_the_first_colliding_pair_on_every_small_class():
    # md_star's deletion rounds rely on the witness starting at the lowest
    # colliding object; the oracle lists colliding pairs in lex order
    for n in range(1, 7):
        for G in enumerate_connected(n):
            dist, edges = naive_distances(G), G.edges()
            for S in (S for k in range(3) for S in combinations(range(n), k)):
                for check, objs, vecs in ((is_vertex_resolving, range(n), _vertex_vectors(dist, S, n)),
                                          (is_edge_resolving, edges, _edge_vectors(dist, S, edges))):
                    pairs = [(a, b, va) for (a, va), (b, vb) in combinations(zip(objs, vecs), 2) if va == vb]
                    ok, witness = check(G, S)
                    assert ok == (not pairs)
                    if pairs:
                        assert (witness.a, witness.b, witness.shared_vector) == pairs[0]
