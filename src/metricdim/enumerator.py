"""Isomorph-free enumeration of small connected graphs and theorem sweeps.

The canonical form is the smallest graph6 string over the vertex orders
that list the cells of colour refinement (1-WL from the degrees) in
ascending colour order; the colouring is isomorphism-invariant, so the form
is canonical.  A level DP over partial placements computes it: the graph6
bitstring is a sequence of columns (a placed vertex's adjacency to the
earlier ones), so each step places a vertex of the current cell with the
smallest column, and the winning columns are the string.  States with the
same placed set that give every unplaced vertex the same column collapse,
as their futures agree; mapping one's order onto the other's is then an
automorphism.  A discrete partition needs no DP.

Enumeration is by canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Every connected graph has a non-cut
vertex, so each n-class C has a canonical deletion vertex m: among the
non-cut vertices with the highest (degree, sum of neighbour degrees), the
one placed first by the canonical labelling.  Deleting m leaves a connected
(n-1)-class, the canonical parent of C.  A new vertex x is attached to one
nonempty subset per orbit of every (n-1)-class P under the automorphisms
the labelling of P found (McKay's orbit rule), and the child is kept only
if deleting its m gives P again.  Children in which x does not score
highest among the non-cut vertices are refused before any labelling, most
of them before their rows are built: a vertex non-cut in P stays non-cut in
the child unless x's only neighbour is that vertex, so only P's cut
vertices need a walk on the child.  Each child is labelled once.  When x
scores highest alone it is m and the child is kept.  On a tie, m is found
by walking the labelling's order; if the child's found automorphisms map x
to m, then C - m is isomorphic to C - x = P and the child is kept.  Those
maps need not generate the whole group, so otherwise C - m is labelled and
its code compared with P's.  Each n-class is thus kept under exactly one
parent, so a per-parent set of canonical codes drops the remaining repeats.

``graph_core`` owns the graph6 codec (``_graph6_text`` packs the
labelling's code) and the walk that tests each deletion
(``_connected_within``).

Threads cannot share this pure-Python work, so it is split over forked
processes, one per CPU (``_fork_map``): an enumeration level by parent, and
a sweep in one pass whose items are the classes below n_max and, as
parents of their children, the (n_max - 1)-classes.  Workers check them a
chunk of records at a time against the rows each id holds in
THEOREM_CHECKS (``bounds`` owns those rows and the records) and send
back only counts, failures and maxima, so no output depends on the worker
count or the deal.
"""

from __future__ import annotations

import json
import marshal
import os
import sys
import time
from functools import lru_cache, reduce
from itertools import chain, groupby, islice
from typing import Callable, Optional, Sequence

from .bounds import THEOREM_CHECKS, GraphRecord
from .graph_core import (
    Graph,
    GraphError,
    GraphInputError,
    SizeLimitError,
    _Record,
    bits,
    graph6_decode,
    _connected_within,
    _graph6_text,
)

CANONICAL_LIMIT = 10
ENUMERATION_LIMIT = 8
ENUMERATION_HARD_LIMIT = 9
SCHEMA_VERSION = 1

# set bit positions of every mask over at most CANONICAL_LIMIT vertices
_BITS = tuple(tuple(bits(mask)) for mask in range(1 << CANONICAL_LIMIT))


def _refine(adj: tuple[int, ...]) -> list[int]:
    """1-WL colours: a signature is a vertex's colour and its neighbours'
    sorted colours, new colours rank the signatures, until the cell count
    stops growing.  Lists of one colour are equally long, so they order as
    their colour counts (base-16 digits from colour 0) in reverse: one int."""
    colour = [row.bit_count() for row in adj]
    cells = len(set(colour))
    while cells < len(adj):
        weight = [1 << 36 - 4 * c for c in colour]
        sig = [(c << 40) - sum([weight[u] for u in _BITS[row]]) for c, row in zip(colour, adj)]
        rank = {key: i for i, key in enumerate(sorted(set(sig)))}
        if len(rank) == cells:
            break
        colour, cells = [rank[key] for key in sig], len(rank)
    return colour


def _label(adj: tuple[int, ...]) -> tuple[tuple[int, ...], int, list[dict[int, int]]]:
    """(order, code, automorphisms): order maps new index -> old vertex, code
    is the graph6 bitstring (step i's column: i bits, new vertex i's adjacency
    to new vertices 0..i-1, earliest first), and each automorphism, one per
    collapse of the DP, maps the vertices it moves to their images."""
    n = len(adj)
    if n > CANONICAL_LIMIT:
        raise SizeLimitError(f"canonical form supports n <= {CANONICAL_LIMIT}, got {n}")
    colour = _refine(adj)
    ranked = sorted(range(n), key=colour.__getitem__)
    code = 0
    if len(set(colour)) == n:  # discrete: the one order, no DP
        position = {v: 1 << n - 1 - i for i, v in enumerate(ranked)}
        for i, v in enumerate(ranked):
            code = code << i | sum([position[u] for u in _BITS[adj[v]]]) >> n - i
        return tuple(ranked), code, []
    # One 16-bit field per vertex v, at bit 16v: its column toward the placed
    # sequence, or 0xFFFF once placed, so the fields also spell out the placed
    # set.  state: (order, fields, their placed part)
    spread = [sum([1 << 16 * u for u in _BITS[row]]) for row in adj]
    cells = {c: list(cell) for c, cell in groupby(ranked, colour.__getitem__)}
    states, autos = [((), 0, 0)], []
    for i, v in enumerate(ranked):  # place a vertex of v's cell
        best, extensions = 0xFFFF, []  # each state has an unplaced vertex in the cell
        for state in states:
            for c in cells[colour[v]]:
                col = state[1] >> 16 * c & 0xFFFF
                if col < best:
                    best, extensions = col, [(state, c)]
                elif col == best:
                    extensions.append((state, c))
        code = code << i | best
        nxt = {}
        for (placed, fields, filled), c in extensions:
            nfilled = filled | 0xFFFF << 16 * c
            nfields = (fields & ~nfilled) << 1 | spread[c] | nfilled
            if nfields in nxt:  # a collapse: map one order onto the other
                autos.append(dict(zip(placed + (c,), nxt[nfields][0])))
            else:
                nxt[nfields] = (placed + (c,), nfields, nfilled)
        states = list(nxt.values())
    return states[0][0], code, autos


def canonical_relabeling(G: Graph) -> tuple[int, ...]:
    """Vertex order (new index -> old vertex) of the canonical form."""
    return _label(G.adj)[0]


def canonical_graph6(G: Graph) -> str:
    """The canonical form: the labelling's code as graph6."""
    return _graph6_text(G.n, _label(G.adj)[1])


def _scores(adj: tuple[int, ...]) -> list[int]:
    """Isomorphism-invariant score per vertex: (degree, sum of neighbour
    degrees), packed into one int so scores compare in that order (the sum
    stays below 2**7 for n <= CANONICAL_LIMIT)."""
    deg = [row.bit_count() for row in adj]
    return [deg[v] << 7 | sum(deg[u] for u in _BITS[row]) for v, row in enumerate(adj)]


def _orbit(autos: list[dict[int, int]], v: int) -> int:
    """Mask of v's orbit under the group the maps generate; each map fixes
    the vertices it does not name."""
    orbit, todo = 1 << v, [v]
    while todo:
        u = todo.pop()
        for moved in autos:
            w = moved.get(u, u)
            if not orbit >> w & 1:
                orbit |= 1 << w
                todo.append(w)
    return orbit


# Fewer items than this stay in-process.  On 2 CPUs a sweep to n_max = 6 (50
# items) takes 13 ms forked and 19 ms in one process, one to n_max = 5 (14
# items) 4.4 ms forked and 4.1 ms in one process; forking the level-6
# enumeration (21 parents) saves about 2 ms of a sweep to n_max = 7.
_FORK_MIN = 16
# The worker count the tests force; None: one per CPU this process may use.
_WORKERS: Optional[int] = None


def _workers(count: int) -> int:
    """The processes ``_fork_map`` splits ``count`` items over: one per CPU
    in the affinity mask, or 1 (in-process) below _FORK_MIN items, without
    os.fork, or once the process runs other threads, which a fork would copy
    in whatever state they are in."""
    threading = sys.modules.get("threading")
    if count < _FORK_MIN or not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    if _WORKERS is not None:
        return _WORKERS
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _deal(items: Sequence, workers: int) -> list[list]:
    """One share per worker, dealt snake-wise (workers 0..w-1, then w-1..0,
    and so on), so that items sorted heaviest first split evenly."""
    cycle = 2 * workers
    return [[*items[share::cycle], *items[cycle - 1 - share::cycle]] for share in range(workers)]


def _fork_map(fn: Callable[[Sequence], object], items: Sequence) -> list:
    """``[fn(share) for share in _deal(items, workers)]``.  Share 0 runs here
    and every other share in a forked child, which writes its marshalled
    result to its pipe and leaves through os._exit.  The parent reads every
    pipe to its end and then reaps every child, on failure too; a child that
    raised or died makes it raise GraphError.  fn's results must marshal and
    be no str, which carries a child's failure."""
    workers = _workers(len(items))
    if workers == 1:
        return [fn(items)]
    shares = _deal(items, workers)
    children, results = [], []  # (pid, read end) per child; results per share
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        out = fn(share)
                    except Exception as exc:
                        out = f"{type(exc).__name__}: {exc}"
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps(out))
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)  # a later child would hold it open, and the pipe would never end
            children.append((pid, r))
        results.append(fn(shares[0]))
        for _, r in children:
            with open(r, "rb", closefd=False) as pipe:
                results.append(pipe.read())
    finally:
        statuses = []
        for pid, r in children:
            os.close(r)
            statuses.append(os.waitpid(pid, 0)[1])
    for i, (pid, _), status in zip(range(1, workers), children, statuses):
        out = marshal.loads(results[i]) if status == 0 else f"exit status {os.waitstatus_to_exitcode(status)}"
        if isinstance(out, str):
            raise GraphError(f"worker process {pid} failed: {out}")
        results[i] = out
    return results


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[str, ...]:
    """The canonical graph6 strings of the connected n-vertex classes,
    sorted: the children of every (n-1)-class, one parent per fork-map item,
    since each class is kept under exactly one parent."""
    if n == 1:
        return ("@",)  # K1
    shares = _fork_map(lambda parents: [kid for g6 in parents for kid in _children(g6)], _connected_classes(n - 1))
    return tuple(sorted(chain.from_iterable(shares)))


def _children(parent_g6: str) -> list[str]:
    """The canonical graph6 strings of the classes whose canonical parent is
    the class P of ``parent_g6``, in no particular order.

    P gets a new vertex x = n - 1 joined to one attachment set S per orbit.
    A vertex that is non-cut in P stays non-cut in the child C unless S is
    that vertex alone, so a child in which such a vertex outscores x is
    refused before its rows are built; only P's other vertices need a walk
    on C.  C is labelled once.  Its canonical deletion vertex m is the first
    top-scoring non-cut vertex in the canonical order; C is kept if m is x,
    or if the labelling's automorphisms map x to m (then C - m is C - x =
    P), or else if C - m labels to P's code: the found maps need not
    generate the whole group."""
    parent_adj = graph6_decode(parent_g6).adj
    x = len(parent_adj)
    n = x + 1
    others = [((1 << n) - 1) ^ 1 << v for v in range(n)]  # all vertices but v
    parent_scores = _scores(parent_adj)
    # per automorphism the labelling of P found: the image of every subset
    _, parent_code, parent_autos = _label(parent_adj)
    perms = {tuple(moved.get(v, v) for v in range(x)) for moved in parent_autos}
    images = [reduce(lambda table, w: table + [t | 1 << w for t in table], perm, [0]) for perm in perms]
    noncut = sum([1 << v for v in range(x) if _connected_within(parent_adj, others[v] ^ 1 << x)])
    best = max([parent_scores[v] for v in _BITS[noncut]], default=-1)  # scores only grow in C
    # x's score per attachment set S: per vertex of S, 128 plus its degree in C
    tops = reduce(lambda table, gain: table + [t + gain for t in table],
                  [129 + row.bit_count() for row in parent_adj], [0])
    kept: dict[int, bool] = {}  # child's canonical code -> accepted
    for nbrs in range(1, 1 << x):
        top = tops[nbrs]
        size = top >> 7
        # x is non-cut (deleting it leaves P); m must score at least as high.  A
        # vertex non-cut in P stays so in C unless S is that vertex alone.
        if size > 1 and best > top:
            continue
        if images and any(image[nbrs] < nbrs for image in images):  # not its orbit's least
            continue
        scores = [s + (nbrs >> v & 1) * (128 + size) + (row & nbrs).bit_count()
                  for v, (s, row) in enumerate(zip(parent_scores, parent_adj))]
        sure = noncut & ~nbrs if size == 1 else noncut  # non-cut in C too
        if any(scores[v] > top for v in _BITS[sure]):  # refused before C's rows exist
            continue
        adj = (*[row | 1 << x if nbrs >> v & 1 else row for v, row in enumerate(parent_adj)], nbrs)
        if any(scores[v] > top and _connected_within(adj, others[v]) for v in _BITS[others[x] ^ sure]):
            continue
        order, code, autos = _label(adj)
        if code in kept:
            continue
        # m: the first top-scoring non-cut vertex in canonical order
        m = next(v for v in order if v == x or scores[v] == top
                 and (sure >> v & 1 or _connected_within(adj, others[v])))
        if m == x or _orbit(autos, x) >> m & 1:
            kept[code] = True
            continue
        low = (1 << m) - 1  # vertices below m keep their bits, the others move down
        rest = tuple(row & low | row >> 1 & ~low for v, row in enumerate(adj) if v != m)
        kept[code] = sorted(_scores(rest)) == sorted(parent_scores) and _label(rest)[1] == parent_code
    return [_graph6_text(n, code) for code, accepted in kept.items() if accepted]


def _require_enumerable(n: int, allow_large: bool, message: str) -> None:
    """SizeLimitError(message, ``{n}``/``{limit}`` filled) unless 1 <= n <= limit."""
    limit = ENUMERATION_HARD_LIMIT if allow_large else ENUMERATION_LIMIT
    if not 1 <= n <= limit:
        raise SizeLimitError(message.format(n=n, limit=limit))


def enumerate_connected(n: int, allow_large: bool = False) -> list[Graph]:
    """One representative per isomorphism class of connected n-vertex
    graphs, ordered by canonical graph6 string.  n = 9 (261,080 classes,
    about 7 s on 2 CPUs) sits behind the allow_large flag."""
    _require_enumerable(n, allow_large, "enumeration supports 1 <= n <= {limit}, got n={n}")
    return [graph6_decode(s) for s in _connected_classes(n)]


# ---------------------------------------------------------------------------
# theorem sweeps
# ---------------------------------------------------------------------------


SWEEP_N_MIN = 3
_CHUNK = 256  # records a worker builds, fills and checks at a time


class SweepReport(_Record):
    """Outcome of one theorem sweep over all small connected graphs."""

    def __init__(self, theorem_id: str, n_min: int, n_max: int, graphs_checked: int, counts_by_n: dict[int, int],
                 failures: tuple[tuple[str, str], ...],  # (canonical graph6, detail)
                 solver_budget_exhaustions: int, elapsed_ms: float,
                 enumerate_ms: float,  # part of elapsed_ms spent building the class lists below n_max
                 data: dict | None = None,  # None: a new empty dict
                 shares: tuple[tuple[int, float], ...] = ()):  # (items, ms) per worker of the pass; not in the JSON
        self.__dict__.update(
            theorem_id=theorem_id, n_min=n_min, n_max=n_max, graphs_checked=graphs_checked, counts_by_n=counts_by_n,
            failures=failures, solver_budget_exhaustions=solver_budget_exhaustions, elapsed_ms=elapsed_ms,
            enumerate_ms=enumerate_ms, data={} if data is None else data, shares=shares)

    @property
    def workers(self) -> int:
        return len(self.shares)

    @property
    def passed(self) -> bool:
        return not self.failures and self.solver_budget_exhaustions == 0

    def to_json(self) -> str:
        return json.dumps({
            "schema_version": SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "graphs_checked": self.graphs_checked,
            "counts_by_n": {str(k): v for k, v in self.counts_by_n.items()},
            "failures": [{"graph6": g, "detail": d} for g, d in self.failures],
            "solver_budget_exhaustions": self.solver_budget_exhaustions,
            "data": self.data,
        }, sort_keys=True)

    def summary_line(self) -> str:
        exhausted = self.solver_budget_exhaustions
        extra = f", {exhausted} budget exhaustions" if exhausted else ""
        verdict = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures{extra})"
        return f"{self.theorem_id}: {self.graphs_checked} graphs, n={self.n_min}..{self.n_max}, {verdict}"


def _check_share(items: Sequence[tuple[str, bool]], budget: Optional[int]) -> tuple:
    """Run every id's rows on each (graph6, parent) item's classes: the
    children of a parent, the class itself otherwise, building, filling and
    checking the records _CHUNK at a time: (count by n, (graph6, detail)
    failures by id, exhaustions, largest clique by edim, items, seconds)."""
    started = time.perf_counter()
    counts, failures, exhausted, cliques = {}, {}, 0, {}
    stream = chain.from_iterable(_children(g6) if parent else (g6,) for g6, parent in items)
    while chunk := list(islice(stream, _CHUNK)):
        records = [GraphRecord(graph6_decode(g6), budget) for g6 in chunk]
        GraphRecord.fill(records)
        for g6, r in zip(chunk, records):
            counts[r.n] = counts.get(r.n, 0) + 1
            if r.budget_exhausted:
                exhausted += 1
                continue
            for theorem_id, rows in THEOREM_CHECKS.items():
                for row in rows:
                    detail = row(r)
                    if detail is not None:
                        failures.setdefault(theorem_id, []).append((g6, detail))
                        break
            k = max(r.edim_value, 1)
            cliques[k] = max(cliques.get(k, 0), r.clique)
    return counts, failures, exhausted, cliques, len(items), time.perf_counter() - started


@lru_cache(maxsize=16)
def _sweep_pass(n_max: int, budget: Optional[int]) -> tuple[dict, dict, dict, dict]:
    """One pass over every class with SWEEP_N_MIN <= n <= n_max that checks
    every registered id: (counts by n, largest clique by edim, sorted
    failures per id, the SweepReport fields all ids share).  The levels
    below n_max are enumerated here.  ``_fork_map`` deals (graph6, parent)
    items to ``_check_share``: each (n_max - 1)-class once as a parent,
    fewest edges first (sparse parents have the most children), then each
    class below n_max from SWEEP_N_MIN vertices on once as itself.  Counts
    are summed, failures sorted and maxima taken, so nothing depends on the
    worker count or the deal.  Cached per (n_max, budget), so that a caller
    that sweeps one id at a time solves each class once."""
    started = time.perf_counter()
    parents = sorted(_connected_classes(n_max - 1), key=lambda g6: graph6_decode(g6).num_edges)
    items = [(g6, True) for g6 in parents]
    items += [(g6, False) for n in range(SWEEP_N_MIN, n_max) for g6 in _connected_classes(n)]
    enumerated = time.perf_counter()
    shares = _fork_map(lambda share: _check_share(share, budget), items)
    counts = {n: sum(s[0].get(n, 0) for s in shares) for n in range(SWEEP_N_MIN, n_max + 1)}
    failures = {t: tuple(sorted(f for s in shares for f in s[1].get(t, ()))) for t in THEOREM_CHECKS}
    cliques = {str(k): max(s[3].get(k, 0) for s in shares) for k in sorted(set().union(*(s[3] for s in shares)))}
    common = dict(n_min=SWEEP_N_MIN, n_max=n_max, graphs_checked=sum(counts.values()),
                  solver_budget_exhaustions=sum(s[2] for s in shares),
                  elapsed_ms=(time.perf_counter() - started) * 1000.0,
                  enumerate_ms=(enumerated - started) * 1000.0,
                  shares=tuple((s[4], s[5] * 1000.0) for s in shares))
    return counts, cliques, failures, common


def sweep_all(theorem_ids, n_max: int, budget: Optional[int] = None,
              allow_large: bool = False) -> list[SweepReport]:
    """Check the given theorem ids over every connected graph with
    SWEEP_N_MIN <= n <= n_max.  One report per id, in the given order, read
    from the one cached pass that checks every id (``_sweep_pass``), with
    that pass's timings; failures are (canonical graph6, detail) pairs,
    sorted for run-to-run determinism."""
    theorem_ids = tuple(theorem_ids)
    for theorem_id in theorem_ids:
        if theorem_id not in THEOREM_CHECKS:
            raise KeyError(f"unknown theorem id {theorem_id!r}; known: {sorted(THEOREM_CHECKS)}")
    if budget is not None and budget < 0:
        raise GraphInputError(f"sweep budget must be at least 0, got budget={budget}")
    if n_max < SWEEP_N_MIN:
        raise GraphInputError(f"sweep range n_max={n_max} is below the smallest swept size {SWEEP_N_MIN}")
    _require_enumerable(n_max, allow_large, "sweep range n_max={n} exceeds enumeration limit {limit}")
    counts, cliques, failures, common = _sweep_pass(n_max, budget)
    return [SweepReport(theorem_id=theorem_id, counts_by_n=dict(counts), failures=failures[theorem_id],
                        data={"max_clique_by_edim": dict(cliques)} if theorem_id == "clique-vs-edim-explore" else {},
                        **common)
            for theorem_id in theorem_ids]


def sweep(theorem_id: str, n_max: int, threads: int = 1, budget: Optional[int] = None,
          allow_large: bool = False) -> SweepReport:
    """``sweep_all((theorem_id,), ...)[0]``: a lookup once any sweep at this
    (n_max, budget) ran.  The pass runs on one forked worker per CPU (see
    ``_fork_map``), whatever threads says: it is checked (at least 1) and
    otherwise unused, and stays because the benchmark workloads pass it."""
    if threads < 1:
        raise GraphInputError(f"sweep needs at least one thread, got threads={threads}")
    return sweep_all((theorem_id,), n_max, budget, allow_large)[0]
