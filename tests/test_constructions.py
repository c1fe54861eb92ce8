import itertools

import pytest

from metricdim.constructions import (
    ConstructionError,
    edim_biclique,
    edim_star,
    grid,
    grid_edge_landmarks,
    md_biclique,
    md_complete,
    md_star,
)
from metricdim.graph_core import (
    DisconnectedGraphError,
    SizeLimitError,
    bfs_all_pairs,
    graph6_encode,
    is_connected,
    max_balanced_biclique,
    max_clique,
    max_star,
)
from metricdim.metric import is_edge_resolving, is_vertex_resolving
from metricdim.solver import edge_metric_dimension, metric_dimension
from oracles import naive_metric_dimension


def assert_digit_wiring(out, base, tag_edges):
    """Every labeled vertex's adjacency to each indexed auxiliary vertex
    must match its digit string: tag_edges maps digit value -> role prefix."""
    role_ids = {role: v for v, role in out.roles.items() if "_" in role}
    for v, label in out.labels.items():
        if not out.roles[v].startswith(("leaf", "clique", "left", "right")):
            continue
        for i in range(1, len(label) + 1):
            digit = int(label[-i])  # positions count from the least significant end
            for d, prefix in tag_edges.items():
                aux = role_ids.get(f"{prefix}_{i}")
                if aux is None:
                    continue
                if out.roles[v] in ("left", "right") and not _same_side(out.roles[v], prefix):
                    continue
                expected = digit == d
                assert out.graph.has_edge(v, aux) == expected, (
                    f"vertex {v} label {label} digit_{i}={digit} vs {prefix}_{i}"
                )


def _same_side(role, prefix):
    return (role == "left") == (prefix == "u")


class TestMdComplete:
    def test_smallest(self):
        out = md_complete(1)
        assert out.graph.n == 3
        assert out.graph.edges() == [(0, 1), (0, 2)]
        assert out.landmarks == (2,)
        assert out.labels == {0: "0", 1: "1"}

    def test_k2_shape(self):
        out = md_complete(2)
        assert out.graph.n == 6
        assert out.graph.num_edges == 10
        assert graph6_encode(out.graph) == "E~j?"

    @pytest.mark.parametrize("k", range(1, 5))
    def test_certified_dimension(self, k):
        out = md_complete(k)
        assert metric_dimension(out.graph).value == k
        assert len(max_clique(out.graph)) == 2 ** k
        ok, _ = is_vertex_resolving(out.graph, out.landmarks)
        assert ok

    def test_digit_wiring(self):
        assert_digit_wiring(md_complete(3), 2, {0: "u"})

    def test_range(self):
        with pytest.raises(ConstructionError):
            md_complete(0)
        with pytest.raises(ConstructionError):
            md_complete(6)


class TestEdimStar:
    def test_smallest_is_path(self):
        out = edim_star(1)
        # u_1 - leaf0 - center - leaf1 as a path on 4 vertices
        assert out.graph.edges() == [(0, 2), (0, 3), (1, 2)]
        assert edge_metric_dimension(out.graph).value == 1

    @pytest.mark.parametrize("k", range(1, 5))
    def test_certified_dimension(self, k):
        out = edim_star(k)
        budget = 10**7 if out.graph.n > 20 else None
        assert edge_metric_dimension(out.graph, budget=budget).value == k
        assert max_star(out.graph) >= 2 ** k
        ok, _ = is_edge_resolving(out.graph, out.landmarks)
        assert ok

    def test_landmark_edges_at_distance_zero(self):
        out = edim_star(2)
        D = bfs_all_pairs(out.graph)
        for idx, u in enumerate(out.landmarks):
            for v, label in out.labels.items():
                if out.graph.has_edge(u, v):
                    assert min(D[u][u], D[v][u]) == 0

    def test_digit_wiring(self):
        assert_digit_wiring(edim_star(3), 2, {0: "u"})

    def test_range(self):
        with pytest.raises(ConstructionError):
            edim_star(0)
        with pytest.raises(ConstructionError):
            edim_star(6)


class TestMdStar:
    """Deleting a leaf changes distances, so md_star deletes colliding leaves
    one at a time on recomputed distances and keeps the graph connected.
    The prescribed landmarks s_1..s_k then resolve the surviving graph for
    every k, including k=1 and k=2, where deleting all base-graph
    collisions at once would disconnect the graph or leave a collision."""

    def test_k1_disconnects(self):
        # Deleting only leaf "0" keeps the star connected: the result is
        # the path s_1 r_1 "1" center "2", on which s_1 resolves.
        out = md_star(1)
        assert out.deleted == (("leaf", "0"),)
        assert out.graph.n == 5
        assert is_connected(out.graph)
        ok, _ = is_vertex_resolving(out.graph, out.landmarks)
        assert ok

    def test_k2_certificate_fails_but_dimension_holds(self):
        # The landmark certificate holds and the dimension is 2; the
        # solver's basis is the oracle's lex-smallest one.
        out = md_star(2)
        assert out.deleted == (("leaf", "01"), ("leaf", "11"), ("leaf", "20"))
        assert is_connected(out.graph)
        ok, _ = is_vertex_resolving(out.graph, out.landmarks)
        assert ok
        cert = metric_dimension(out.graph)
        assert cert.value == 2
        assert (cert.value, cert.basis) == naive_metric_dimension(out.graph)

    def test_k3_certificate_holds(self):
        out = md_star(3)
        assert is_connected(out.graph)
        ok, _ = is_vertex_resolving(out.graph, out.landmarks)
        assert ok
        cert = metric_dimension(out.graph, budget=10**7)
        assert cert.value == 3
        assert cert.basis == out.landmarks

    @pytest.mark.parametrize("k", range(1, 4))
    def test_surviving_center_degree(self, k):
        out = md_star(k)
        center = next(v for v, r in out.roles.items() if r == "center")
        assert out.graph.degree(center) >= 3 ** k - k - 1

    @pytest.mark.parametrize("k", range(1, 4))
    def test_deletion_bound(self, k):
        out = md_star(k)
        assert len(out.deleted) <= k + 1

    def test_digit_wiring(self):
        assert_digit_wiring(md_star(3), 3, {0: "s", 1: "r"})

    def test_failed_recheck_raises(self, monkeypatch):
        monkeypatch.setattr("metricdim.constructions.is_vertex_resolving",
                            lambda G, S: (False, None))
        with pytest.raises(ConstructionError, match="landmark set fails"):
            md_star(2)

    def test_range(self):
        with pytest.raises(ConstructionError):
            md_star(0)
        with pytest.raises(ConstructionError):
            md_star(4)


class TestBicliques:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_md_certificate(self, k):
        out = md_biclique(k)
        ok, _ = is_vertex_resolving(out.graph, out.landmarks)
        assert ok
        assert len(out.deleted) == 2
        side = 2 ** (k // 2)
        assert max_balanced_biclique(out.graph, cap=side) >= side - 1

    @pytest.mark.parametrize("k", range(2, 8))
    def test_edim_certificate(self, k):
        out = edim_biclique(k)
        ok, _ = is_edge_resolving(out.graph, out.landmarks)
        assert ok
        side = 2 ** (k // 2)
        assert max_balanced_biclique(out.graph, cap=side) >= side

    def test_k2_solved_exactly(self):
        out = md_biclique(2)
        assert metric_dimension(out.graph).value <= 2
        out = edim_biclique(2)
        assert edge_metric_dimension(out.graph).value <= 2

    def test_landmark_count(self):
        for k in range(2, 8):
            assert len(md_biclique(k).landmarks) == 2 * (k // 2)
            assert len(edim_biclique(k).landmarks) == 2 * (k // 2)

    def test_digit_wiring(self):
        assert_digit_wiring(edim_biclique(4), 2, {0: "u"})

    def test_range(self):
        for bad in (1, 8):
            with pytest.raises(ConstructionError):
                md_biclique(bad)
            with pytest.raises(ConstructionError):
                edim_biclique(bad)


GRID_CASES = [
    [2, 2],
    [2, 3],
    [3, 4],
    [4, 4],
    [5, 5],
    [7, 8],
    [2, 2, 2],
    [2, 3, 4],
    [3, 3, 3],
    [2, 2, 2, 2],
    [2, 2, 2, 3],
]


class TestGrid:
    def test_shape_3x4(self):
        G = grid([3, 4])
        assert G.n == 12
        assert G.num_edges == 17
        assert grid_edge_landmarks([3, 4]) == (0, 8)

    def test_coordinates_match_strides(self):
        # vertex ids number the lattice points in row-major order
        dims = [2, 3, 4]
        coords = list(itertools.product(*(range(r) for r in dims)))
        G = grid(dims)
        for u in range(G.n):
            for v in range(u + 1, G.n):
                manhattan = sum(abs(a - b) for a, b in zip(coords[u], coords[v]))
                assert G.has_edge(u, v) == (manhattan == 1)

    @pytest.mark.parametrize("dims", GRID_CASES, ids=lambda d: "x".join(map(str, d)))
    def test_landmarks_resolve_edges(self, dims):
        G = grid(dims)
        lms = grid_edge_landmarks(dims)
        assert len(lms) == len(dims)
        ok, _ = is_edge_resolving(G, lms)
        assert ok

    def test_2d_exact_edim(self):
        for dims in ([2, 2], [2, 3], [3, 4], [5, 5]):
            G = grid(dims)
            budget = 10**7 if G.n > 20 else None
            assert edge_metric_dimension(G, budget=budget).value == 2

    def test_single_path_grid(self):
        G = grid([2])
        assert G.n == 2 and G.num_edges == 1
        assert grid_edge_landmarks([2]) == (0,)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConstructionError):
            grid([])
        with pytest.raises(ConstructionError):
            grid([1, 3])
        with pytest.raises(SizeLimitError):
            grid([8, 8])


class TestConnectivityAndRoles:
    def test_all_families_connected_except_md_star_k1(self):
        outs = [md_complete(3), edim_star(3), md_star(1), md_star(2), md_star(3),
                md_biclique(4), edim_biclique(4)]
        for out in outs:
            assert is_connected(out.graph)

    def test_roles_cover_all_vertices(self):
        for out in (md_complete(2), edim_star(2), md_star(2), md_biclique(3)):
            assert sorted(out.roles) == list(range(out.graph.n))

    def test_deleted_recorded_with_roles(self):
        out = md_biclique(2)
        assert out.deleted == (("left", "1"), ("right", "1"))
