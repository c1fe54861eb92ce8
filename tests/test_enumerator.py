import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter

import pytest

from metricdim import characterizations, enumerator
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
    sweep_all,
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
        # the stdout of scripts/run_sweeps.py --max-n 7: one report per id,
        # from one sweep_all pass and from the per-id sweeps alike
        ids = sorted(THEOREM_CHECKS)
        for reports in (sweep_all(ids, 7), [sweep(theorem_id, 7) for theorem_id in ids]):
            stdout = "".join(rep.to_json() + "\n" for rep in reports)
            assert hashlib.sha256(stdout.encode()).hexdigest() == (
                "8db8be5710b059d5de7ffe3c6cb2122016185a176bd67620ea4e6a1aa99c9b4b")

    def test_one_bfs_per_class(self, bfs_calls):
        enumerator._record.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 5)
        assert len(THEOREM_CHECKS) == 15
        assert len(bfs_calls) == 29
        assert len({graph6_encode(G) for G in bfs_calls}) == 29

    def test_one_characterization_per_class(self, monkeypatch):
        # each predicate runs once per class across all 15 sweeps, wherever
        # it is called from, and builds the radius-2 masks once per call
        counts = Counter()
        for name in ("char_edim_n1", "char_edim_ge_n2", "_within_two"):
            real = getattr(characterizations, name)

            def counted(G, real=real, name=name):
                counts[name] += 1
                return real(G)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("metricdim") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        enumerator._record.cache_clear()
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 5)
        # _within_two: once in char_edim_ge_n2 and once in tuple_lemma_check
        assert counts == {"char_edim_n1": 29, "char_edim_ge_n2": 29, "_within_two": 58}

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


def forge_records(monkeypatch, forged):
    """Make every sweep record carry the FORGED[forged] values."""
    real = enumerator._record.__wrapped__  # uncached, so the forgery stays local

    def forged_record(g6, budget):
        r = real(g6, budget)
        for name, value in FORGED[forged](r.n).items():
            setattr(r, name, value)
        return r

    monkeypatch.setattr(enumerator, "_record", forged_record)


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
        enumerator._record.cache_clear()
        with pytest.raises(KeyError, match="unknown theorem id 'no-such-theorem'"):
            sweep_all(ids, 5)
        assert enumerator._record.cache_info().misses == 0

    def test_one_pass_solves_each_class_once(self):
        # the per-id sweeps that follow find every n <= 7 class in the cache
        enumerator._record.cache_clear()
        sweep_all(sorted(THEOREM_CHECKS), 7)
        info = enumerator._record.cache_info()
        assert (info.misses, info.hits) == (994, 0)
        for theorem_id in sorted(THEOREM_CHECKS):
            sweep(theorem_id, 7)
        assert enumerator._record.cache_info().misses == 994

    def test_cache_holds_the_classes_per_id_callers_revisit(self):
        revisited = sum(EXPECTED_COUNTS[n] for n in range(SWEEP_N_MIN, 8))
        assert enumerator._record.cache_info().maxsize >= revisited


N9_CHILD = """
import json, resource
from metricdim.enumerator import THEOREM_CHECKS, sweep_all
reports = sweep_all(sorted(THEOREM_CHECKS), 9, allow_large=True)
print(json.dumps({"reports": [rep.to_json() for rep in reports],
                  "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
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
