"""Span tracer that wraps metricdim's public functions from outside.

``Tracer.install`` replaces each traced function in every ``metricdim``
module namespace (and in dicts of tuples there, such as the CLI's family
table) by a wrapper that records one span per call: name, wall start and
end, the span that caused it, the thread, and the thread's CPU time over
the call.  A span's self time is its CPU time minus that of its children
in the same thread, so time another thread holds the interpreter lock is
not charged to it.  A span opened on a pool thread with nothing open
there takes the innermost open span of the main thread as its parent.

The wrappers also keep the deterministic counters the rollup reports:
families and distinct families per hitting-set instance, search nodes,
budget exhaustions, how often the greedy upper bound was already optimal,
and how many distinct classes the canonical labelling produced.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, function, span name); several functions may share a span name
TRACED = [
    ("graph_core", "graph6_encode", "graph_core.graph6_encode"),
    ("graph_core", "graph6_decode", "graph_core.graph6_decode"),
    ("graph_core", "from_edge_list", "graph_core.from_edge_list"),
    ("graph_core", "bfs_all_pairs", "graph_core.bfs_all_pairs"),
    ("graph_core", "max_clique", "graph_core.max_clique"),
    ("graph_core", "chromatic_number", "graph_core.chromatic_number"),
    ("graph_core", "degeneracy", "graph_core.degeneracy"),
    ("enumerator", "canonical_graph6", "enumerator.canonical_graph6"),
    ("enumerator", "canonical_relabeling", "enumerator.canonical_relabeling"),
    ("enumerator", "sweep", "enumerator.sweep"),
    ("solver", "build_vertex_instance", "solver.build_vertex_instance"),
    ("solver", "build_edge_instance", "solver.build_edge_instance"),
    ("solver", "greedy_upper_bound", "solver.greedy_upper_bound"),
    ("solver", "min_hitting_set", "solver.min_hitting_set"),
    ("solver", "metric_dimension", "solver.metric_dimension"),
    ("solver", "edge_metric_dimension", "solver.edge_metric_dimension"),
    ("characterizations", "char_edim_n1", "characterizations.char_edim_n1"),
    ("characterizations", "char_edim_ge_n2", "characterizations.char_edim_ge_n2"),
    ("characterizations", "char_edim_eq_n2", "characterizations.char_edim_eq_n2"),
    ("characterizations", "tuple_lemma_check", "characterizations.tuple_lemma_check"),
    ("bounds", "audit_graph", "bounds.audit_graph"),
    ("metric", "is_vertex_resolving", "metric.is_vertex_resolving"),
    ("metric", "is_edge_resolving", "metric.is_edge_resolving"),
    ("constructions", "md_complete", "constructions.build"),
    ("constructions", "edim_star", "constructions.build"),
    ("constructions", "md_star", "constructions.build"),
    ("constructions", "md_biclique", "constructions.build"),
    ("constructions", "edim_biclique", "constructions.build"),
    ("constructions", "grid", "constructions.build"),
    ("constructions", "grid_edge_landmarks", "constructions.build"),
    ("cli", "main", "cli.main"),
]

# per-layer metrics: (name, unit); "<span>.calls", "<span>.self_s" and
# "<span>.total_s" come from the span rollup, the rest from the counters
PER_LAYER = [
    ("enumerator.canonical_graph6.calls", "count"),
    ("enumerator.canonical_graph6.self_s", "s"),
    ("enumerator.canonical_relabeling.calls", "count"),
    ("enumerator.canonical_relabeling.self_s", "s"),
    ("enumerator.classes_per_canonical_call", "ratio"),
    ("enumerator.sweep.calls", "count"),
    ("enumerator.sweep.self_s", "s"),
    ("graph_core.graph6_encode.calls", "count"),
    ("graph_core.graph6_encode.self_s", "s"),
    ("graph_core.from_edge_list.calls", "count"),
    ("graph_core.from_edge_list.self_s", "s"),
    ("graph_core.graph6_decode.calls", "count"),
    ("graph_core.graph6_decode.self_s", "s"),
    ("graph_core.bfs_all_pairs.calls", "count"),
    ("graph_core.bfs_all_pairs.self_s", "s"),
    ("graph_core.max_clique.self_s", "s"),
    ("graph_core.chromatic_number.self_s", "s"),
    ("graph_core.degeneracy.self_s", "s"),
    ("solver.greedy_upper_bound.self_s", "s"),
    ("solver.greedy_optimal_ratio", "ratio"),
    ("solver.min_hitting_set.calls", "count"),
    ("solver.min_hitting_set.self_s", "s"),
    ("solver.nodes_explored", "count"),
    ("solver.budget_exhaustions", "count"),
    ("solver.build_vertex_instance.self_s", "s"),
    ("solver.build_edge_instance.self_s", "s"),
    ("solver.families", "count"),
    ("solver.distinct_families", "count"),
    ("solver.metric_dimension.total_s", "s"),
    ("solver.edge_metric_dimension.total_s", "s"),
    ("characterizations.char_edim_n1.calls", "count"),
    ("characterizations.char_edim_n1.self_s", "s"),
    ("characterizations.char_edim_ge_n2.calls", "count"),
    ("characterizations.char_edim_ge_n2.self_s", "s"),
    ("characterizations.char_edim_eq_n2.calls", "count"),
    ("characterizations.char_edim_eq_n2.self_s", "s"),
    ("characterizations.tuple_lemma_check.calls", "count"),
    ("characterizations.tuple_lemma_check.self_s", "s"),
    ("bounds.audit_graph.calls", "count"),
    ("bounds.audit_graph.self_s", "s"),
    ("metric.is_vertex_resolving.calls", "count"),
    ("metric.is_vertex_resolving.self_s", "s"),
    ("metric.is_edge_resolving.calls", "count"),
    ("metric.is_edge_resolving.self_s", "s"),
    ("constructions.build.calls", "count"),
    ("constructions.build.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
]

# every count metric above: these repeat exactly for the same inputs
COUNT_METRICS = [name for name, unit in PER_LAYER if unit in ("count", "ratio")]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, cpu_s)
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self.families = 0
        self.distinct_families = 0
        self.nodes_explored = 0
        self.budget_exhaustions = 0
        self.greedy_attempts = 0
        self.greedy_optimal = 0
        self.canonical_outputs: set[str] = set()
        self._greedy = threading.local()
        self._lock = threading.Lock()  # sweep workers update the counters concurrently

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, ids, stacks, main = self.spans, self._ids, self._stacks, self._main
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                outer = stacks.get(main)
                parent = outer[-1] if outer and thread != main else None
            sid = next(ids)
            stack.append(sid)
            c0 = cpu()
            t0 = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, thread, c1 - c0))
                if after is not None:
                    after(args, None if error else result, error)
            return result

        return traced

    def _after_min_hitting_set(self, args, cert, error):
        masks = args[0].masks
        distinct = len(set(masks))
        greedy = getattr(self._greedy, "size", None)
        self._greedy.size = None
        with self._lock:
            self._count_instance(len(masks), distinct, greedy, cert, error)

    def _count_instance(self, families, distinct, greedy, cert, error):
        self.families += families
        self.distinct_families += distinct
        if cert is not None:
            self.nodes_explored += cert.nodes_explored
            if greedy is not None:
                self.greedy_attempts += 1
                self.greedy_optimal += greedy == cert.value
        elif hasattr(error, "nodes_explored"):
            self.nodes_explored += error.nodes_explored
            self.budget_exhaustions += 1

    def _after_greedy(self, args, result, error):
        if result is not None:
            self._greedy.size = len(result)

    def _after_canonical(self, args, result, error):
        if result is not None:
            self.canonical_outputs.add(result)

    def install(self):
        """Wrap every traced function in every loaded metricdim module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "metricdim" or key.startswith("metricdim.")]
        hooks = {
            "solver.min_hitting_set": self._after_min_hitting_set,
            "solver.greedy_upper_bound": self._after_greedy,
            "enumerator.canonical_graph6": self._after_canonical,
        }
        for module_name, func_name, span in TRACED:
            orig = getattr(sys.modules[f"metricdim.{module_name}"], func_name)
            wrapper = self._wrap(span, orig, hooks.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, entry in value.items():
                            if isinstance(entry, tuple) and any(x is orig for x in entry):
                                value[key] = tuple(wrapper if x is orig else x for x in entry)

    # -- results -----------------------------------------------------------

    def rollup(self) -> dict:
        """Per span name: calls, self_s and total_s (CPU seconds)."""
        thread_of = {sid: thread for sid, _, _, _, _, thread, _ in self.spans}
        child_cpu: dict[int, float] = {}
        for _, _, _, _, parent, thread, cpu in self.spans:
            if parent is not None and thread_of[parent] == thread:
                child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu
        out: dict[str, dict] = {}
        for sid, name, _, _, _, _, cpu in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += cpu
            row["self_s"] += cpu - child_cpu.get(sid, 0.0)
        return out

    def layer_metrics(self) -> dict[str, float]:
        rows = self.rollup()
        counters = {
            "solver.families": self.families,
            "solver.distinct_families": self.distinct_families,
            "solver.nodes_explored": self.nodes_explored,
            "solver.budget_exhaustions": self.budget_exhaustions,
            "solver.greedy_optimal_ratio":
                self.greedy_optimal / self.greedy_attempts if self.greedy_attempts else 0.0,
        }
        canon_calls = rows.get("enumerator.canonical_graph6", {}).get("calls", 0)
        counters["enumerator.classes_per_canonical_call"] = (
            len(self.canonical_outputs) / canon_calls if canon_calls else 0.0)
        out = {}
        for name, _ in PER_LAYER:
            if name in counters:
                out[name] = counters[name]
            else:
                span, field = name.rsplit(".", 1)
                out[name] = rows.get(span, {}).get(field, 0)
        return out

    def dump(self, path) -> None:
        """Write every span as [id, name, start, end, parent, thread, cpu_s];
        start and end are seconds from the first span's start."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        threads = {}
        base = min((s[2] for s in self.spans), default=0.0)
        rows = [[sid, index[name], t0 - base, t1 - base, parent,
                 threads.setdefault(thread, len(threads)), cpu]
                for sid, name, t0, t1, parent, thread, cpu in sorted(self.spans)]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "thread", "cpu_s"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
