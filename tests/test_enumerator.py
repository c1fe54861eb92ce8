import hashlib
import json
import random
import threading

import pytest

from metricdim import enumerator
from metricdim.cli import main
from metricdim.enumerator import (
    ENUMERATION_HARD_LIMIT,
    ENUMERATION_LIMIT,
    SWEEP_N_MIN,
    THEOREM_CHECKS,
    _connected_classes,
    canonical_graph6,
    canonical_relabeling,
    enumerate_connected,
    sweep,
)
from metricdim.graph_core import (
    GraphInputError,
    SizeLimitError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    graph6_encode,
    is_connected,
    path_graph,
    relabeled,
    star_graph,
)
from oracles import brute_canonical_graph6, naive_connected_classes, random_connected_graph

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

    def test_form_equality(self):
        a = canonical_graph6(cycle_graph(4))
        b = canonical_graph6(relabeled(cycle_graph(4), [2, 0, 3, 1]))
        assert a == b
        assert a != canonical_graph6(path_graph(4))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_counts(self, n):
        assert len(enumerate_connected(n)) == EXPECTED_COUNTS[n]

    def test_class_count_n8(self):
        # the one heavyweight case (about 12 s on 2 cores), cached for the
        # rest of the test run
        assert len(enumerate_connected(8)) == EXPECTED_COUNTS[8]

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
        # the stdout of scripts/run_sweeps.py --max-n 7: one report per id
        stdout = "".join(sweep(theorem_id, 7).to_json() + "\n" for theorem_id in sorted(THEOREM_CHECKS))
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "8db8be5710b059d5de7ffe3c6cb2122016185a176bd67620ea4e6a1aa99c9b4b")

    def test_one_bfs_per_class(self, bfs_calls):
        enumerator._record.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 5)
        assert len(THEOREM_CHECKS) == 15
        assert len(bfs_calls) == 29
        assert len({graph6_encode(G) for G in bfs_calls}) == 29

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
        timed = json.loads(rep.to_json(include_timing=True))
        assert list(timed) == sorted(timed)
        assert sorted(set(timed) - set(payload)) == ["elapsed_ms", "enumerate_ms"]
        assert 0 <= timed["enumerate_ms"] <= timed["elapsed_ms"]

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
            quad = sweep(theorem_id, 6, threads=4).to_json()
            assert solo == quad


# record values forged onto every graph, as functions of n
FORGED = {
    "zero": lambda n: {"dim": 0, "edim": 0},
    "edim=n-1": lambda n: {"edim": n - 1},
    "edim=n-2,D=6": lambda n: {"edim": n - 2, "diameter": 6},
    "edim=n-3": lambda n: {"edim": n - 3},
}


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
        real = enumerator._record.__wrapped__  # uncached, so the forgery stays local

        def forged_record(g6, budget):
            r = real(g6, budget)
            for name, value in FORGED[forged](r.n).items():
                setattr(r, name, value)
            return r

        monkeypatch.setattr(enumerator, "_record", forged_record)
        code = main(["check", theorem_id, "--max-n", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["failures"][0] == {"graph6": graph6, "detail": detail}
