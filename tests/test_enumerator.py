import functools
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
from collections import Counter

import networkx as nx
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from metricdim import bounds, characterizations, enumerator
from metricdim.bounds import audit_graph
from metricdim.cli import main
from metricdim.enumerator import (
    CANONICAL_LIMIT,
    ENUMERATION_HARD_LIMIT,
    ENUMERATION_LIMIT,
    SWEEP_N_MIN,
    THEOREM_CHECKS,
    _connected_classes,
    canonical_graph6,
    canonical_relabeling,
    enumerate_connected,
    sweep,
    sweep_all,
)
from metricdim.graph_core import (
    Graph,
    GraphError,
    GraphInputError,
    SizeLimitError,
    from_edge_list,
    graph6_decode,
    graph6_encode,
    is_connected,
)
from oracles import (
    brute_canonical_graph6,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    has_edge,
    naive_colours,
    naive_connected_classes,
    path_graph,
    random_connected_graph,
    relabeled,
    star_graph,
)

# one representative per isomorphism class of connected graphs
EXPECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


class TestCanonicalForm:
    def test_known_strings(self):
        assert canonical_graph6(path_graph(3)) == "BW"
        assert canonical_graph6(cycle_graph(4)) == "C]"

    def test_canonical_relabeling_is_permutation(self):
        order = canonical_relabeling(cycle_graph(4))
        assert sorted(order) == [0, 1, 2, 3]

    def test_invariant_under_relabeling(self):
        rng = random.Random(7)
        for G in (path_graph(5), cycle_graph(6), star_graph(4)):
            base = canonical_graph6(G)
            for _ in range(10):
                order = list(range(G.n))
                rng.shuffle(order)
                assert canonical_graph6(relabeled(G, order)) == base

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force(self, n):
        for G in enumerate_connected(n):
            assert canonical_graph6(G) == brute_canonical_graph6(G)

    def test_matches_brute_force_random_n6(self):
        rng = random.Random(11)
        for _ in range(15):
            G = random_connected_graph(rng, 6)
            assert canonical_graph6(G) == brute_canonical_graph6(G)

    @pytest.mark.parametrize(
        "name", [f"random-{i}" for i in range(10)] + ["K7", "C7", "K3,4", "star7"]
    )
    def test_matches_brute_force_n7(self, name):
        named = {
            "K7": complete_graph(7),
            "C7": cycle_graph(7),
            "K3,4": complete_bipartite_graph(3, 4),
            "star7": star_graph(6),
        }
        rng = random.Random(f"canonical-n7-{name}")
        G = named[name] if name in named else random_connected_graph(rng, 7)
        order = list(range(7))
        rng.shuffle(order)
        G = relabeled(G, order)
        assert canonical_graph6(G) == brute_canonical_graph6(G)

    @pytest.mark.parametrize(
        "name", [f"n{n}-random-{i}" for n in (9, 10) for i in range(4)]
        + ["n9-K3,3-pendants", "n10-triangles-on-hub"]
    )
    def test_matches_brute_force_n9_n10(self, name):
        # up to CANONICAL_LIMIT, on graphs whose colour cells allow at most
        # a few thousand orders
        named = {
            "n9-K3,3-pendants": from_edge_list(
                9, [(a, b) for a in range(3) for b in range(3, 6)] + [(a, a + 6) for a in range(3)]),
            "n10-triangles-on-hub": from_edge_list(
                10, [(0, t) for t in (1, 4, 7)]
                + [e for t in (1, 4, 7) for e in ((t, t + 1), (t, t + 2), (t + 1, t + 2))]),
        }
        rng = random.Random(f"canonical-{name}")
        G = named.get(name)
        while G is None:  # a random graph with a non-discrete, small-celled colouring
            G = random_connected_graph(rng, int(name[1:name.index("-")]))
            cells = Counter(naive_colours(G)).values()
            if not 1 < math.prod(math.factorial(size) for size in cells) <= 720:
                G = None
        order = list(range(G.n))
        rng.shuffle(order)
        G = relabeled(G, order)
        assert canonical_graph6(G) == brute_canonical_graph6(G)

    def test_form_equality(self):
        a = canonical_graph6(cycle_graph(4))
        b = canonical_graph6(relabeled(cycle_graph(4), [2, 0, 3, 1]))
        assert a == b
        assert a != canonical_graph6(path_graph(4))

    def test_every_class_to_n7_under_relabelings(self):
        rng = random.Random(17)
        for n in range(1, 8):
            for G in enumerate_connected(n):
                for _ in range(3):
                    order = list(range(n))
                    rng.shuffle(order)
                    assert canonical_graph6(relabeled(G, order)) == graph6_encode(G)


@st.composite
def connected_graphs(draw):
    """A connected graph with 1..CANONICAL_LIMIT vertices: a random spanning
    tree plus random extra edges."""
    n = draw(st.integers(1, CANONICAL_LIMIT))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    return from_edge_list(n, sorted(edges))


def to_networkx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


class TestCanonicalFormProperties:
    """networkx decides isomorphism; the form must agree with it."""

    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_invariant_and_decodes_to_an_isomorphic_graph(self, G, rng):
        form = canonical_graph6(G)
        order = list(range(G.n))
        rng.shuffle(order)
        assert canonical_graph6(relabeled(G, order)) == form
        assert graph6_encode(relabeled(G, canonical_relabeling(G))) == form
        assert nx.is_isomorphic(to_networkx(graph6_decode(form)), to_networkx(G))

    @given(connected_graphs(), connected_graphs(), st.booleans(), st.randoms(use_true_random=False))
    def test_equal_forms_iff_isomorphic(self, G, other, move_an_edge, rng):
        # H is either an independent graph or G with one edge moved to a
        # non-edge and relabelled, which is often isomorphic to G
        H = other
        non_edges = [(u, v) for v in range(G.n) for u in range(v) if not has_edge(G, u, v)]
        if move_an_edge and non_edges:
            edges = set(G.edges()) - {rng.choice(G.edges())} | {rng.choice(non_edges)}
            order = list(range(G.n))
            rng.shuffle(order)
            H = relabeled(from_edge_list(G.n, sorted(edges)), order)
            assume(is_connected(H))
        same = canonical_graph6(G) == canonical_graph6(H)
        assert same == nx.is_isomorphic(to_networkx(G), to_networkx(H))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_counts(self, n):
        assert len(enumerate_connected(n)) == EXPECTED_COUNTS[n]

    def test_class_count_n8(self):
        # the one heavyweight case (about 2 s), cached for the rest of the
        # test run
        assert len(enumerate_connected(8)) == EXPECTED_COUNTS[8]

    def test_labelling_count_is_pinned(self, monkeypatch, in_process):
        # Every labelling goes through _label: one per parent for its
        # automorphisms, one per child that passes the score refusals.  The
        # orbit rule labels one attachment subset per orbit of the parent's
        # automorphisms (without it n <= 7 takes 2,198 labellings), and the
        # child's own automorphisms or the scores of C - m settle every score
        # tie at n <= 7, so the fallback labelling of C - m never runs:
        # building level n labels exactly one (n-1)-vertex graph per parent.
        sizes, total = [], 0
        real_label = enumerator._label
        monkeypatch.setattr(enumerator, "_label", lambda adj: sizes.append(len(adj)) or real_label(adj))
        _connected_classes.cache_clear()
        try:
            for n in range(1, 8):
                sizes.clear()
                assert len(_connected_classes(n)) == EXPECTED_COUNTS[n]
                assert sizes.count(n - 1) == EXPECTED_COUNTS.get(n - 1, 0)
                total += len(sizes)
        finally:
            _connected_classes.cache_clear()
        assert total == 1192

    def test_n8_classes_are_pinned(self):
        # sha256 recorded with the enumerator that labelled C - m on every
        # score tie; at n = 8, 38 ties still take that fallback
        digest = hashlib.sha256("\n".join(_connected_classes(8)).encode()).hexdigest()
        assert digest == "f5f3c140aec1aaae215464473cedb2c7ce12cb2775b9306772763c31383b12cb"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_labelling_every_child(self, n):
        assert _connected_classes(n) == naive_connected_classes(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_connected_no_duplicates(self, n):
        graphs = enumerate_connected(n)
        forms = [canonical_graph6(G) for G in graphs]
        assert all(is_connected(G) for G in graphs)
        assert len(set(forms)) == len(forms)
        assert [graph6_encode(G) for G in graphs] == sorted(forms)

    def test_every_class_already_canonical(self):
        for G in enumerate_connected(5):
            assert graph6_encode(G) == canonical_graph6(G)

    def test_size_limits(self):
        with pytest.raises(SizeLimitError):
            enumerate_connected(ENUMERATION_LIMIT + 1)
        with pytest.raises(SizeLimitError):
            enumerate_connected(ENUMERATION_HARD_LIMIT + 1, allow_large=True)
        with pytest.raises(SizeLimitError):
            enumerate_connected(0)
        with pytest.raises(SizeLimitError, match=f"n <= {CANONICAL_LIMIT}, got 11"):
            canonical_graph6(path_graph(CANONICAL_LIMIT + 1))


def _relabelled_classes(rng):
    """Every class with n <= 6 and every 10th class with n = 7, each under
    a random relabelling."""
    graphs = [G for n in range(1, 7) for G in enumerate_connected(n)] + enumerate_connected(7)[::10]
    for G in graphs:
        order = list(range(G.n))
        rng.shuffle(order)
        yield relabeled(G, order)


class TestLabellingAutomorphisms:
    def test_every_reported_map_preserves_adjacency(self):
        graphs = list(_relabelled_classes(random.Random(28)))
        rng = random.Random(29)
        graphs += [random_connected_graph(rng, n) for n in (8, 9, 10) for _ in range(10)]
        graphs += [complete_graph(8), cycle_graph(10), complete_bipartite_graph(4, 5), star_graph(9)]
        for G in graphs:
            for moved in enumerator._label(G.adj)[2]:
                perm = [moved.get(v, v) for v in range(G.n)]
                assert sorted(perm) == list(range(G.n))
                assert all(G.adj[perm[u]] >> perm[v] & 1 == G.adj[u] >> v & 1
                           for u in range(G.n) for v in range(G.n))

    def test_orbit_lies_within_the_automorphism_orbit(self):
        for G in _relabelled_classes(random.Random(30)):
            H = to_networkx(G)
            true_orbit = {v: 0 for v in range(G.n)}
            for iso in nx.algorithms.isomorphism.GraphMatcher(H, H).isomorphisms_iter():
                for v, w in iso.items():
                    true_orbit[v] |= 1 << w
            autos = enumerator._label(G.adj)[2]
            for v in range(G.n):
                orbit = enumerator._orbit(autos, v)
                assert orbit >> v & 1
                assert orbit & ~true_orbit[v] == 0


class TestSweeps:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            sweep("no-such-theorem", 5)

    def test_registered_ids(self):
        assert sorted(THEOREM_CHECKS) == [
            "char1-equiv",
            "char2-equiv",
            "clique-vs-edim-explore",
            "corollary-chromatic",
            "corollary-degeneracy",
            "corollary-edges-emd",
            "corollary-edges-md",
            "diam-le-3k-1",
            "diam-le-5",
            "edge-bound-new",
            "edge-bound-zubrilina",
            "eq-n2-equiv",
            "subgraph-bounds-self",
            "tuple-lemma",
            "vertex-bound-hernando",
        ]

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_threads_rejected(self, threads):
        with pytest.raises(GraphInputError):
            sweep("tuple-lemma", 4, threads=threads)

    def test_range_validated_before_work(self):
        with pytest.raises(SizeLimitError):
            sweep("tuple-lemma", ENUMERATION_LIMIT + 1)

    @pytest.mark.parametrize("n_max", [SWEEP_N_MIN - 1, -5])
    def test_range_below_smallest_size_rejected(self, n_max):
        with pytest.raises(GraphInputError, match="below the smallest swept size"):
            sweep("tuple-lemma", n_max)

    @pytest.mark.parametrize("theorem_id", sorted(THEOREM_CHECKS))
    def test_all_pass_through_n6(self, theorem_id):
        rep = sweep(theorem_id, 6)
        assert rep.passed, rep.failures[:3]
        assert rep.n_min == SWEEP_N_MIN
        assert rep.n_max == 6
        assert rep.graphs_checked == 2 + 6 + 21 + 112
        assert rep.counts_by_n == {3: 2, 4: 6, 5: 21, 6: 112}
        assert rep.solver_budget_exhaustions == 0

    def test_run_sweeps_n7_bytes(self):
        # the stdout of scripts/run_sweeps.py --max-n 7: one report per id,
        # from one sweep_all pass and from the per-id sweeps alike
        ids = sorted(THEOREM_CHECKS)
        for reports in (sweep_all(ids, 7), [sweep(theorem_id, 7) for theorem_id in ids]):
            stdout = "".join(rep.to_json() + "\n" for rep in reports)
            assert hashlib.sha256(stdout.encode()).hexdigest() == (
                "8db8be5710b059d5de7ffe3c6cb2122016185a176bd67620ea4e6a1aa99c9b4b")

    def test_one_bfs_per_class(self, bfs_calls, in_process):
        enumerator._sweep_pass.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 5)
        assert len(THEOREM_CHECKS) == 15
        assert len(bfs_calls) == 29
        assert len({graph6_encode(G) for G in bfs_calls}) == 29

    def test_one_characterization_per_class(self, monkeypatch, in_process):
        # each predicate runs once per class across all 15 sweeps, wherever
        # it is called from, and the radius-2 masks are built once per graph
        counts = Counter()
        real_masks = vars(Graph)["within_two"].func
        masks = functools.cached_property(lambda G: counts.update(["within_two"]) or real_masks(G))
        masks.__set_name__(Graph, "within_two")
        monkeypatch.setattr(Graph, "within_two", masks)
        for name in ("char_edim_n1", "char_edim_ge_n2"):
            real = getattr(characterizations, name)

            def counted(G, real=real, name=name):
                counts[name] += 1
                return real(G)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("metricdim") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        enumerator._sweep_pass.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 5)
        # within_two: once per graph, shared by char_edim_ge_n2 and tuple_lemma_check
        assert counts == {"char_edim_n1": 29, "char_edim_ge_n2": 29, "within_two": 29}

    def test_one_clique_per_class(self, monkeypatch, in_process):
        # the exact chromatic number and the explore sweep read one record field
        calls = []
        real = bounds.max_clique
        monkeypatch.setattr(bounds, "max_clique", lambda G: calls.append(G) or real(G))
        enumerator._sweep_pass.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 5)
        assert len(calls) == 29

    def test_per_id_sweeps_build_each_record_once(self, monkeypatch, in_process):
        built = record_spy(monkeypatch)
        enumerator._sweep_pass.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 6)
        assert len(built) == len({graph6_encode(r.graph) for r in built}) == 141

    def test_explore_data(self):
        rep = sweep("clique-vs-edim-explore", 6)
        assert rep.data == {"max_clique_by_edim": {"1": 2, "2": 3, "3": 4, "4": 5, "5": 6}}

    def test_summary_line(self):
        rep = sweep("char1-equiv", 5)
        assert rep.summary_line() == "char1-equiv: 29 graphs, n=3..5, PASS"

    def test_json_sorted_and_timing_free(self):
        rep = sweep("char1-equiv", 5)
        text = rep.to_json()
        payload = json.loads(text)
        assert list(payload) == [
            "counts_by_n",
            "data",
            "failures",
            "graphs_checked",
            "n_max",
            "n_min",
            "schema_version",
            "solver_budget_exhaustions",
            "theorem_id",
        ]
        assert payload["schema_version"] == 1
        assert payload["counts_by_n"] == {"3": 2, "4": 6, "5": 21}

    def test_sweep_starts_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        rep = sweep("tuple-lemma", 4, threads=8)
        assert rep.passed
        assert started == []

    def test_thread_count_does_not_change_output(self):
        for theorem_id in ("char2-equiv", "edge-bound-new", "clique-vs-edim-explore"):
            solo = sweep(theorem_id, 6, threads=1).to_json()
            enumerator._sweep_pass.cache_clear()  # a second pass, not a cache hit
            quad = sweep(theorem_id, 6, threads=4).to_json()
            assert solo == quad


def record_spy(monkeypatch):
    """The sweep records built from now on, in build order.  In-process only."""
    built = []

    class Spy(bounds.GraphRecord):
        def __init__(self, G, budget=None):
            super().__init__(G, budget)
            built.append(self)

    monkeypatch.setattr(enumerator, "GraphRecord", Spy)
    return built


# record values forged onto every graph, as functions of n
FORGED = {
    "zero": lambda n: {"dim_value": 0, "edim_value": 0},
    "edim=n-1": lambda n: {"edim_value": n - 1},
    "edim=n-2,D=6": lambda n: {"edim_value": n - 2, "diameter": 6},
    "edim=n-3": lambda n: {"edim_value": n - 3},
}


def forge_records(monkeypatch, forged):
    """Make every sweep record carry the FORGED[forged] values."""

    class Forged(bounds.GraphRecord):
        def __init__(self, G, budget=None):
            super().__init__(G, budget)
            for name, value in FORGED[forged](self.n).items():
                setattr(self, name, value)

    monkeypatch.setattr(enumerator, "GraphRecord", Forged)
    # uncached, so the forged passes stay local
    monkeypatch.setattr(enumerator, "_sweep_pass", enumerator._sweep_pass.__wrapped__)


class TestFailureDetails:
    """Force a violation through every checking sweep and pin the first
    failure's exact detail text, as `metricdim check` prints it."""

    @pytest.mark.parametrize(
        "theorem_id, forged, graph6, detail",
        [
            ("char1-equiv", "zero", "Bw", "predicate=True edim=0 n=3 pair=None"),
            ("char2-equiv", "edim=n-1", "CL", "predicate=False edim=3 n=4 triple=(0, 2, 3)"),
            ("eq-n2-equiv", "zero", "BW", "predicate=True edim=0 n=3"),
            ("tuple-lemma", "edim=n-1", "CL", "k=1 violating=(0, 1)"),
            ("diam-le-5", "edim=n-2,D=6", "BW", "edim=n-2 but diameter=6"),
            ("diam-le-3k-1", "edim=n-1", "CL", "k=1 diameter=3 bound=2"),
            ("edge-bound-new", "zero", "Bw", "m=3 bound=2 edim=0 D=1"),
            ("edge-bound-zubrilina", "zero", "Bw", "m=3 bound=2 edim=0 D=1"),
            ("vertex-bound-hernando", "zero", "Bw", "n=3 bound=2 dim=0 D=1"),
            ("subgraph-bounds-self", "zero", "Bw", "n=3 bound=2 dim=0 D=1"),
            ("subgraph-bounds-self", "edim=n-3", "Bw", "m=3 bound=2 edim=0 D=1"),
            ("corollary-edges-md", "zero", "BW", "2m=4 bound=0 dim=0"),
            ("corollary-edges-emd", "zero", "BW", "2m=4 bound=3 edim=0"),
            ("corollary-chromatic", "zero", "BW", "chromatic=2 bound=1 dim=0"),
            ("corollary-degeneracy", "zero", "BW", "degeneracy=1 bound=0 dim=0"),
            ("corollary-degeneracy", "edim=n-3", "Bw", "degeneracy=2 bound=1 edim=0"),
        ],
    )
    def test_forged_violation(self, capsys, monkeypatch, theorem_id, forged, graph6, detail):
        forge_records(monkeypatch, forged)
        code = main(["check", theorem_id, "--max-n", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["failures"][0] == {"graph6": graph6, "detail": detail}

    def test_forged_violation_as_table_and_csv(self, capsys, monkeypatch):
        forge_records(monkeypatch, "zero")
        detail = "predicate=True edim=0 n=3 pair=None"
        assert main(["--output", "table", "check", "char1-equiv", "--max-n", "3"]) == 1
        assert capsys.readouterr().out == (
            f"char1-equiv: 2 graphs, n=3..3, FAIL (1 failures)\n  Bw  {detail}\n")
        assert main(["--output", "csv", "check", "char1-equiv", "--max-n", "3"]) == 1
        assert capsys.readouterr().out == f"graph6,detail\nBw,{detail}\n"


class TestSweepAll:
    """sweep_all checks every requested id in one pass over the classes;
    sweep is its one-id case."""

    @staticmethod
    def per_id(n_max, **kwargs):
        return [sweep(theorem_id, n_max, **kwargs).to_json() for theorem_id in sorted(THEOREM_CHECKS)]

    def test_exhausted_pass_matches_per_id_sweeps(self):
        reports = sweep_all(sorted(THEOREM_CHECKS), 6, budget=0)
        assert all(rep.solver_budget_exhaustions == 2 + 6 + 21 + 112 for rep in reports)
        assert [rep.to_json() for rep in reports] == self.per_id(6, budget=0)

    @pytest.mark.parametrize("forged", sorted(FORGED))
    def test_forged_pass_matches_per_id_sweeps(self, monkeypatch, forged):
        forge_records(monkeypatch, forged)
        reports = sweep_all(sorted(THEOREM_CHECKS), 5)
        assert not all(rep.passed for rep in reports)
        for rep in reports:  # only the first failing row of a class is reported
            assert len({g6 for g6, _ in rep.failures}) == len(rep.failures)
        assert [rep.to_json() for rep in reports] == self.per_id(5)

    def test_reports_follow_the_given_order(self):
        ids = ["tuple-lemma", "char1-equiv", "tuple-lemma"]
        reports = sweep_all(ids, 4)
        assert [rep.theorem_id for rep in reports] == ids
        assert reports[0].to_json() == reports[2].to_json() == sweep("tuple-lemma", 4).to_json()

    def test_reports_share_the_pass_timings(self):
        reports = sweep_all(sorted(THEOREM_CHECKS), 5)
        assert len({(rep.elapsed_ms, rep.enumerate_ms) for rep in reports}) == 1

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_unknown_id_raises_before_any_solve(self, position):
        ids = ["char1-equiv", "tuple-lemma"]
        ids.insert(position, "no-such-theorem")
        enumerator._sweep_pass.cache_clear()
        with pytest.raises(KeyError, match="unknown theorem id 'no-such-theorem'"):
            sweep_all(ids, 5)
        assert enumerator._sweep_pass.cache_info().misses == 0

    def test_share_items_say_what_they_stand_for(self):
        # a parent item stands for its children, not itself; a class item for itself once
        assert enumerator._check_share([("A_", True)], None)[0] == {3: 2}
        counts, failures, _, _, items, _ = enumerator._check_share([("Bw", False), ("A_", True)], None)
        assert (counts, failures, items) == ({3: 3}, {}, 2)

    def test_one_pass_solves_each_class_once(self, monkeypatch, in_process):
        # the per-id sweeps that follow read the pass: no record is built again
        built = record_spy(monkeypatch)
        enumerator._sweep_pass.cache_clear()
        sweep_all(sorted(THEOREM_CHECKS), 7)
        assert len(built) == len({graph6_encode(r.graph) for r in built}) == 994
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 7)
        assert len(built) == 994

    def test_cache_holds_the_classes_per_id_callers_revisit(self):
        # fifteen (n_max, budget) passes stay cached while each is revisited
        keys = [(n_max, budget) for n_max in range(SWEEP_N_MIN, 8) for budget in (None, 0, 1)]
        enumerator._sweep_pass.cache_clear()
        for n_max, budget in keys:
            sweep("char1-equiv", n_max, budget=budget)
        for n_max, budget in keys:
            for theorem_id in sorted(THEOREM_CHECKS):
                sweep(theorem_id, n_max, budget=budget)
        info = enumerator._sweep_pass.cache_info()
        assert (info.misses, info.hits) == (len(keys), len(keys) * len(THEOREM_CHECKS))


SWEEPS_N7_SHA = "8db8be5710b059d5de7ffe3c6cb2122016185a176bd67620ea4e6a1aa99c9b4b"
SWEEPS_N8_SHA = "c18b6f9348de99cacad13a330383d5c6acd19f375a65b5daa7d755d0cdbb708f"  # run_sweeps.py --max-n 8


def stdout_sha(reports) -> str:
    """sha256 of the reports as scripts/run_sweeps.py prints them."""
    return hashlib.sha256("".join(rep.to_json() + "\n" for rep in reports).encode()).hexdigest()


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FORK3_CHILD = """
import hashlib, json, os
from metricdim import enumerator
from metricdim.enumerator import THEOREM_CHECKS, sweep_all
enumerator._WORKERS = 3
# each child's share is about 100 kB, more than a pipe holds, so a child
# that kept an earlier child's write end open would block that pipe's end
wide = [x for share in enumerator._fork_map(lambda share: ["x" * 1000 + str(x) for x in share], list(range(300)))
        for x in share]
reports = sweep_all(sorted(THEOREM_CHECKS), 7)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({
    "wide": sorted(wide) == sorted("x" * 1000 + str(x) for x in range(300)),
    "stdout": hashlib.sha256("".join(r.to_json() + "\\n" for r in reports).encode()).hexdigest(),
    "classes8": hashlib.sha256("\\n".join(enumerator._connected_classes(8)).encode()).hexdigest(),
    "left": left,
}))
"""


class TestForkedWorkers:
    """_fork_map splits each enumeration level and the sweep pass over
    forked workers; no output depends on how many there are."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """force(count): that many workers, with both caches emptied."""
        def force(count):
            monkeypatch.setattr(enumerator, "_WORKERS", count)
            _connected_classes.cache_clear()
            enumerator._sweep_pass.cache_clear()
        return force

    def test_class_tuples_at_one_and_two_workers(self, workers):
        tuples = []
        for count in (1, 2):
            workers(count)
            tuples.append([_connected_classes(n) for n in range(1, 9)])
        assert tuples[0] == tuples[1]
        assert [len(t) for t in tuples[1]] == [EXPECTED_COUNTS[n] for n in range(1, 9)]
        digest = hashlib.sha256("\n".join(tuples[1][-1]).encode()).hexdigest()
        assert digest == "f5f3c140aec1aaae215464473cedb2c7ce12cb2775b9306772763c31383b12cb"
        no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_sweeps_n7_bytes(self, workers, count):
        workers(count)
        ids = sorted(THEOREM_CHECKS)
        assert stdout_sha(sweep_all(ids, 7)) == SWEEPS_N7_SHA
        assert stdout_sha([sweep(theorem_id, 7) for theorem_id in ids]) == SWEEPS_N7_SHA
        no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_sweeps_n8_bytes(self, workers, count):
        workers(count)
        ids = sorted(THEOREM_CHECKS)
        assert stdout_sha(sweep_all(ids, 8)) == SWEEPS_N8_SHA
        assert stdout_sha([sweep(theorem_id, 8) for theorem_id in ids]) == SWEEPS_N8_SHA
        no_child_left()

    @pytest.mark.parametrize("deal", ["reversed", "shuffled"])
    def test_any_deal_gives_the_same_bytes(self, workers, monkeypatch, deal):
        workers(2)
        real = enumerator._deal
        if deal == "reversed":
            monkeypatch.setattr(enumerator, "_deal", lambda items, count: [
                share[::-1] for share in real(items[::-1], count)[::-1]])
        else:
            rng = random.Random(36)
            monkeypatch.setattr(enumerator, "_deal", lambda items, count: real(
                rng.sample(items, len(items)), count))
        reports = sweep_all(sorted(THEOREM_CHECKS), 7)
        assert reports[0].workers == 2
        assert stdout_sha(reports) == SWEEPS_N7_SHA
        no_child_left()

    def test_second_per_id_sweep_does_no_work(self, workers, monkeypatch):
        workers(2)
        first = sweep("char1-equiv", 6)
        assert first.workers == 2
        monkeypatch.setattr(enumerator, "_fork_map", None)  # a second pass would fail
        monkeypatch.setattr(enumerator, "_connected_classes", None)
        second = sweep("tuple-lemma", 6)
        assert second.passed and second.graphs_checked == first.graphs_checked == 141
        assert (second.elapsed_ms, second.workers) == (first.elapsed_ms, 2)
        assert enumerator._sweep_pass.cache_info().hits == 1

    def test_share_fills_one_field_at_a_time(self, monkeypatch):
        # every field a record's budget allows, one field at a time across
        # the share, once; every fourth record has budget 0, runs out and
        # gets the first three only
        calls = []

        def spy(name):
            real = vars(bounds.GraphRecord)[name].func
            prop = functools.cached_property(lambda r: calls.append((name, id(r))) or real(r))
            prop.__set_name__(bounds.GraphRecord, name)
            return prop

        def batch(n_max):
            return [bounds.GraphRecord(graph6_decode(g6), None if i % 4 else 0)
                    for i, g6 in enumerate(g6 for n in range(SWEEP_N_MIN, n_max + 1) for g6 in _connected_classes(n))]

        def field_order(records):  # budget 0 runs out on every class here
            return [(name, id(r)) for f, name in enumerate(bounds.GraphRecord.FIELDS)
                    for r in records if f < 3 or r.budget is None]

        expected = [[getattr(r, name) for name in bounds.GraphRecord.FIELDS[:None if i % 4 else 3]]
                    for i, r in enumerate(batch(6))]
        for name in bounds.GraphRecord.FIELDS:
            monkeypatch.setattr(bounds.GraphRecord, name, spy(name))
        records = batch(6)
        bounds.GraphRecord.fill(records)
        assert calls == field_order(records)
        for i, r in enumerate(records):
            filled = [name for name in bounds.GraphRecord.FIELDS if name in vars(r)]
            assert filled == list(bounds.GraphRecord.FIELDS if i % 4 else bounds.GraphRecord.FIELDS[:3])
            assert [vars(r)[name] for name in filled] == expected[i]
            assert r.budget_exhausted == (i % 4 == 0)
        calls.clear()
        bounds.GraphRecord.fill(records)
        assert calls == []  # exhausted records too
        # a sweep fills each chunk before any row reads it: no field is computed later
        monkeypatch.setattr(enumerator, "_WORKERS", 1)
        monkeypatch.setattr(enumerator, "_CHUNK", 50)
        built = record_spy(monkeypatch)
        enumerator._sweep_pass.cache_clear()
        sweep_all(sorted(THEOREM_CHECKS), 6)
        assert len(built) == 141
        assert calls == [call for i in range(0, 141, 50) for call in field_order(built[i:i + 50])]

    def test_exhausted_records_are_filled_once(self, workers):
        workers(2)
        reports = [sweep("char1-equiv", 7, budget=0) for _ in range(3)]
        assert reports[0].solver_budget_exhaustions == 994
        assert [rep.workers for rep in reports] == [2, 2, 2]
        assert len({rep.to_json() for rep in reports}) == 1
        info = enumerator._sweep_pass.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_records_read_before_the_sweep(self, workers, count):
        # audits run before the sweep (which fill the formula cache the
        # workers inherit) leave the reports unchanged
        workers(count)
        classes = [g6 for n in range(SWEEP_N_MIN, 8) for g6 in _connected_classes(n)]
        for g6 in classes[::3]:
            audit_graph(graph6_decode(g6)).checks
        assert stdout_sha(sweep_all(sorted(THEOREM_CHECKS), 7)) == SWEEPS_N7_SHA
        no_child_left()

    def test_three_workers_under_a_timeout(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", FORK3_CHILD], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "wide": True,
            "stdout": SWEEPS_N7_SHA,
            "classes8": "f5f3c140aec1aaae215464473cedb2c7ce12cb2775b9306772763c31383b12cb",
            "left": False,
        }

    def test_one_result_per_share(self, workers):
        workers(3)
        items = list(range(100))  # dealt snake-wise: shares of 34, 33 and 33
        results = enumerator._fork_map(lambda share: [(x, os.getpid()) for x in share], items)
        assert [sorted(x for x, _ in share) for share in results] == [
            [x for x in items if x % 6 in (share, 5 - share)] for share in range(3)]
        pids = [{pid for _, pid in share} for share in results]
        assert pids[0] == {os.getpid()}
        assert all(len(p) == 1 for p in pids) and len(set.union(*pids)) == 3
        no_child_left()

    @pytest.mark.parametrize("why", ["few items", "one CPU", "no fork", "threads"])
    def test_stays_in_process(self, monkeypatch, why):
        items = list(range(enumerator._FORK_MIN))
        if why == "few items":
            monkeypatch.setattr(enumerator, "_WORKERS", 2)
            items.pop()
        elif why == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif why == "no fork":
            monkeypatch.setattr(enumerator, "_WORKERS", 2)
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(enumerator, "_WORKERS", 2)
            release = threading.Event()
            waiter = threading.Thread(target=release.wait)
            waiter.start()
        try:
            assert enumerator._fork_map(lambda share: [os.getpid() for _ in share], items) == [[os.getpid()] * len(items)]
        finally:
            if why == "threads":
                release.set()
                waiter.join()

    @staticmethod
    def breaking(how):
        """A function that fails as ``how`` says in a forked worker only."""
        parent = os.getpid()

        def fail():
            if os.getpid() != parent:
                if how == "raise":
                    raise RuntimeError("broken share")
                os.kill(os.getpid(), signal.SIGKILL)

        return fail

    @pytest.mark.parametrize("how, message", [
        ("raise", r"worker process \d+ failed: RuntimeError: broken share"),
        ("kill", r"worker process \d+ failed: exit status -9"),
    ])
    def test_failed_worker_raises_graph_error(self, workers, how, message):
        workers(2)
        fail = self.breaking(how)
        with pytest.raises(GraphError, match=message):
            enumerator._fork_map(lambda share: fail() or list(share), list(range(100)))
        no_child_left()

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_check_exits_3_without_traceback(self, workers, monkeypatch, capsys, how):
        workers(2)
        fail, real = self.breaking(how), bounds.GraphRecord.fill
        monkeypatch.setattr(bounds.GraphRecord, "fill", staticmethod(lambda records: fail() or real(records)))
        assert main(["check", "char1-equiv", "--max-n", "6"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: worker process ") and "Traceback" not in err
        no_child_left()


# ru_maxrss keeps the peak of the process that spawned this one (Linux
# carries it across exec), so after heavy tests it reads pytest's own peak;
# VmHWM is this process's alone.
N9_CHILD = """
import json, resource
from metricdim.enumerator import THEOREM_CHECKS, sweep_all
reports = sweep_all(sorted(THEOREM_CHECKS), 9, allow_large=True)
try:
    with open("/proc/self/status") as status:
        peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"reports": [rep.to_json() for rep in reports], "peak_kib": peak_kib}))
"""


@pytest.mark.slow
def test_all_sweeps_n9_in_bounded_memory():
    # every theorem over the 261,080 classes with n = 9; minutes of CPU
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", N9_CHILD], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=3600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    reports = [json.loads(line) for line in result["reports"]]
    assert len(reports) == len(THEOREM_CHECKS)
    for rep in reports:
        assert rep["failures"] == [], rep["theorem_id"]
        assert rep["solver_budget_exhaustions"] == 0
        assert rep["counts_by_n"]["9"] == 261080
    assert result["peak_kib"] <= 64 * 1024
