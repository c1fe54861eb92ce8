"""End-to-end acceptance checks.

Each test covers one numbered criterion and emits exactly one summary line
(ACCEPTANCE criterion N: PASS/FAIL), echoed in the post-run acceptance
summary section so all ten verdicts stay visible under output capture.
A criterion test collects every sub-check failure before asserting, so its
assertion message lists all problems at once.
"""

import random
import time

from conftest import ACCEPTANCE_LINES

from metricdim import enumerator
from metricdim.bounds import (
    edge_bound_general_c,
    edge_bound_new,
    edge_bound_zubrilina,
)
from metricdim.constructions import (
    edim_biclique,
    edim_star,
    grid,
    grid_edge_landmarks,
    md_biclique,
    md_complete,
    md_star,
)
from metricdim.enumerator import THEOREM_CHECKS, enumerate_connected, sweep, sweep_all
from metricdim.graph_core import (
    DisconnectedGraphError,
    max_balanced_biclique,
    max_clique,
    max_star,
)
from metricdim.metric import is_edge_resolving, is_vertex_resolving
from metricdim.solver import edge_metric_dimension, metric_dimension
from oracles import (
    naive_edge_metric_dimension,
    naive_metric_dimension,
    random_connected_graph,
)

BIG = 10**7  # node budget for solves past the free-search size


def report(number, failures, elapsed, limit, detail):
    if elapsed > limit:
        failures.append(f"runtime {elapsed:.1f}s exceeds {limit}s")
    verdict = "PASS" if not failures else "FAIL"
    note = detail if not failures else "; ".join(failures)
    line = f"ACCEPTANCE criterion {number}: {verdict} - {note}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_construction_certificates():
    start = time.monotonic()
    failures = []
    for k in range(1, 5):
        out = md_complete(k)
        cert = metric_dimension(out.graph)
        if cert.value != k:
            failures.append(f"md_complete({k}) dim {cert.value} != {k}")
        if len(max_clique(out.graph)) < 2**k:
            failures.append(f"md_complete({k}) misses a {2**k}-clique")
        out = edim_star(k)
        budget = BIG if out.graph.n > 20 else None
        cert = edge_metric_dimension(out.graph, budget=budget)
        if cert.value != k:
            failures.append(f"edim_star({k}) edim {cert.value} != {k}")
        if max_star(out.graph) < 2**k:
            failures.append(f"edim_star({k}) max degree below {2**k}")
    report(1, failures, time.monotonic() - start, 60,
           "dim/edim certified exactly k for both families, k=1..4")


def test_criterion_02_star_deletion_certificates():
    start = time.monotonic()
    failures = []
    for k in range(1, 4):
        out = md_star(k)
        center = next(v for v, r in out.roles.items() if r == "center")
        if out.graph.degree(center) < 3**k - k - 1:
            failures.append(f"k={k}: center degree {out.graph.degree(center)}"
                            f" below {3**k - k - 1}")
        try:
            ok, witness = is_vertex_resolving(out.graph, out.landmarks)
        except DisconnectedGraphError:
            failures.append(f"k={k}: deletion disconnects the graph")
            continue
        if not ok:
            failures.append(
                f"k={k}: landmark set not resolving, vertices {witness.a} and"
                f" {witness.b} share {witness.shared_vector}")
        if k <= 2:
            cert = metric_dimension(out.graph)
            if cert.value > k:
                failures.append(f"k={k}: dim {cert.value} exceeds {k}")
    report(2, failures, time.monotonic() - start, 30,
           "post-deletion landmark certificates verified, k=1..3")


def test_criterion_03_biclique_certificates():
    start = time.monotonic()
    failures = []
    for k in range(2, 6):
        side = 2 ** (k // 2)
        out = md_biclique(k)
        ok, _ = is_vertex_resolving(out.graph, out.landmarks)
        if not ok:
            failures.append(f"md_biclique({k}) landmarks not vertex-resolving")
        if max_balanced_biclique(out.graph, cap=side) < side - 1:
            failures.append(f"md_biclique({k}) balanced biclique below {side - 1}")
        out = edim_biclique(k)
        ok, _ = is_edge_resolving(out.graph, out.landmarks)
        if not ok:
            failures.append(f"edim_biclique({k}) landmarks not edge-resolving")
        if max_balanced_biclique(out.graph, cap=side) < side:
            failures.append(f"edim_biclique({k}) balanced biclique below {side}")
    report(3, failures, time.monotonic() - start, 60,
           "vertex/edge-resolving certificates and biclique sizes, k=2..5")


GRID_LIST = [
    [2, 2], [2, 3], [3, 4], [4, 4], [5, 5], [7, 8],
    [2, 2, 2], [2, 3, 4], [3, 3, 3],
    [2, 2, 2, 2], [2, 2, 2, 3],
]


def test_criterion_04_grid_certificates():
    start = time.monotonic()
    failures = []
    for dims in GRID_LIST:
        G = grid(dims)
        name = "x".join(map(str, dims))
        lms = grid_edge_landmarks(dims)
        ok, _ = is_edge_resolving(G, lms)
        if not ok:
            failures.append(f"grid {name}: {len(dims)}-landmark set not edge-resolving")
        if len(dims) == 2:
            budget = BIG if G.n > 20 else None
            cert = edge_metric_dimension(G, budget=budget)
            if cert.value != 2:
                failures.append(f"grid {name}: edim {cert.value} != 2")
    report(4, failures, time.monotonic() - start, 120,
           f"{len(GRID_LIST)} grids certified, 2-D cases solved to edim=2")


EXPECTED_CLASS_COUNTS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_criterion_05_characterization_equivalence():
    start = time.monotonic()
    failures = []
    for n, want in EXPECTED_CLASS_COUNTS.items():
        got = len(enumerate_connected(n))
        if got != want:
            failures.append(f"n={n}: {got} classes, expected {want}")
    for theorem_id in ("char1-equiv", "char2-equiv", "eq-n2-equiv"):
        rep = sweep(theorem_id, 7)
        if rep.graphs_checked != 994:
            failures.append(f"{theorem_id}: swept {rep.graphs_checked} graphs, expected 994")
        for g6, detail in rep.failures:
            failures.append(f"{theorem_id}: {g6}: {detail}")
        if rep.solver_budget_exhaustions:
            failures.append(f"{theorem_id}: solver budget ran out")
    report(5, failures, time.monotonic() - start, 600,
           "both equivalences hold on all 994 connected graphs, n=3..7")


def test_criterion_06_diameter_theorems():
    start = time.monotonic()
    failures = []
    for theorem_id in ("diam-le-5", "diam-le-3k-1", "tuple-lemma"):
        rep = sweep(theorem_id, 7)
        for g6, detail in rep.failures:
            failures.append(f"{theorem_id}: {g6}: {detail}")
        if rep.solver_budget_exhaustions:
            failures.append(f"{theorem_id}: solver budget ran out")
    report(6, failures, time.monotonic() - start, 600,
           "diameter caps and spread-triple lemma hold on all 994 graphs")


AUDIT_SWEEPS = (
    "edge-bound-new",
    "edge-bound-zubrilina",
    "vertex-bound-hernando",
    "subgraph-bounds-self",
    "corollary-edges-md",
    "corollary-edges-emd",
    "corollary-chromatic",
    "corollary-degeneracy",
)


def test_criterion_07_bound_audits():
    start = time.monotonic()
    failures = []
    for theorem_id in AUDIT_SWEEPS:
        rep = sweep(theorem_id, 7)
        for g6, detail in rep.failures:
            failures.append(f"{theorem_id}: {g6}: {detail}")
        if rep.solver_budget_exhaustions:
            failures.append(f"{theorem_id}: solver budget ran out")
    report(7, failures, time.monotonic() - start, 600,
           f"{len(AUDIT_SWEEPS)} inequality audits clean on all 994 graphs")


def test_criterion_08_formula_cross_checks():
    start = time.monotonic()
    failures = []
    for k in range(1, 7):
        for D in range(2, 21):
            c = -(-D // 3) - 1
            if edge_bound_new(k, D) != edge_bound_general_c(k, D, c):
                failures.append(f"identity breaks at k={k}, D={D}")
            if edge_bound_new(k, D) > edge_bound_zubrilina(k, D):
                failures.append(f"sharpening breaks at k={k}, D={D}")
    # documented exception: at diameter 1 the older bound is smaller
    if (edge_bound_new(2, 1), edge_bound_zubrilina(2, 1)) != (5, 4):
        failures.append("diameter-1 reversal (5 > 4) not reproduced")
    report(8, failures, time.monotonic() - start, 1,
           "identity and sharpening verified on 1<=k<=6, 2<=D<=20, plus the D=1 reversal")


def test_criterion_09_solver_soundness():
    start = time.monotonic()
    failures = []
    rng = random.Random(20260822)
    for i in range(200):
        n = 2 + i % 9  # cycles through 2..10
        G = random_connected_graph(rng, n)
        got_dim = metric_dimension(G).value
        want_dim, _ = naive_metric_dimension(G)
        if got_dim != want_dim:
            failures.append(f"graph {i} (n={n}): dim {got_dim} != oracle {want_dim}")
        got_edim = edge_metric_dimension(G).value
        want_edim, _ = naive_edge_metric_dimension(G)
        if got_edim != want_edim:
            failures.append(f"graph {i} (n={n}): edim {got_edim} != oracle {want_edim}")
    report(9, failures, time.monotonic() - start, 300,
           "200 pseudorandom graphs agree with the all-subsets oracle on both dimensions")


def test_criterion_10_thread_determinism(monkeypatch):
    # one worker runs the pass in-process, two run it the same way in
    # forked workers; each worker count runs one fresh pass of every id
    start = time.monotonic()
    failures = []
    reports = {}
    for workers in (1, 2):
        monkeypatch.setattr(enumerator, "_WORKERS", workers)
        enumerator._sweep_pass.cache_clear()
        reports[workers] = sweep_all(sorted(THEOREM_CHECKS), 7)
    data = {r.theorem_id: r.data for r in reports[1]}
    assert len(data) == 15 and data["clique-vs-edim-explore"]  # its table is compared too
    for one, two in zip(reports[1], reports[2]):
        if two.workers != 2:
            failures.append(f"{one.theorem_id}: the pass was not split over 2 workers")
        if one.to_json() != two.to_json():
            failures.append(f"{one.theorem_id}: reports differ across worker counts")
    report(10, failures, time.monotonic() - start, 600,
           f"{len(reports[1])} sweep reports byte-identical at 1 and 2 forked workers")
