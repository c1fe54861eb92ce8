"""Command-line interface for solving, verifying, constructing, and sweeping.

Exit codes are a stable contract:
  0  success / property holds
  1  property fails (non-resolving set, failed self-check, sweep failures)
  2  usage errors (bad arguments, unparseable graph, unknown theorem id)
  3  precondition violations (disconnected input, size limits), and a
     sweep worker process that failed
  4  solver budget exhausted (bounds are printed)

All output is deterministic for identical flags; sweep timing is never
printed for that reason.  JSON is the default output format and carries a
schema_version field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Optional

from .bounds import (
    edge_bound_new,
    edge_bound_zubrilina,
    subgraph_edge_bound,
    subgraph_vertex_bound,
    vertex_bound_hernando,
)
from .constructions import (
    ConstructionError,
    ConstructionOutput,
    edim_biclique,
    edim_star,
    grid,
    grid_edge_landmarks,
    md_biclique,
    md_complete,
    md_star,
)
from .graph_core import (
    Graph,
    GraphError,
    GraphInputError,
    SizeLimitError,
    graph6_encode,
    parse_edge_list_text,
    parse_graph6_text,
)
from .metric import is_edge_resolving, is_vertex_resolving, landmark_tuple
from .enumerator import SCHEMA_VERSION, THEOREM_CHECKS, sweep
from .solver import (
    LATTICE_LIMIT,
    BudgetExceededError,
    edge_metric_dimension,
    metric_dimension,
)

# bounds table limits: one row costs big-int work superlinear in k and D
BOUNDS_MAX_VALUE = 256
BOUNDS_MAX_ROWS = 4096


def _grid(dims) -> ConstructionOutput:
    return ConstructionOutput(grid(dims), grid_edge_landmarks(dims))


# family -> (maker, its parameter, the resolving check its landmarks certify)
CONSTRUCT_FAMILIES = {
    "md-complete": (md_complete, "k", is_vertex_resolving),
    "edim-star": (edim_star, "k", is_edge_resolving),
    "md-star": (md_star, "k", is_vertex_resolving),
    "md-biclique": (md_biclique, "k", is_vertex_resolving),
    "edim-biclique": (edim_biclique, "k", is_edge_resolving),
    "grid": (_grid, "dims", is_edge_resolving),
}


def _read_graph(path: str, fmt: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read graph input: {exc}")
    return parse_graph6_text(text) if fmt == "graph6" else parse_edge_list_text(text)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise GraphInputError(f"bad {what} list {text!r}; expected comma-separated integers")


def _parse_range(text: str, what: str) -> range:
    """Accept "3" or "2..20" inclusive."""
    try:
        lo, dots, hi = text.partition("..")
        lo = int(lo)
        hi = int(hi) if dots else lo
        if hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        raise GraphInputError(f"bad {what} range {text!r}; expected N or LO..HI")


def _emit(payload: dict, fmt: str, rows: Optional[list[dict]] = None):
    """Print one result.  JSON gets the whole payload; csv/table get the
    row list when one is supplied, otherwise a flat view of the payload."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    if rows is None:
        rows = [{k: v for k, v in payload.items() if not isinstance(v, (dict, list))}]
    if fmt == "csv":
        if rows:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return
    for row in rows:
        print("  ".join(f"{k}={v}" for k, v in row.items()))


def _witness_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    unpack = lambda obj: list(obj) if isinstance(obj, tuple) else obj
    return {
        "kind": witness.kind,
        "a": unpack(witness.a),
        "b": unpack(witness.b),
        "shared_vector": list(witness.shared_vector),
    }


def _cmd_dimension(args) -> int:
    G = _read_graph(args.graph, args.format)
    solve = metric_dimension if args.command == "dim" else edge_metric_dimension
    cert = solve(G, budget=args.budget)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "n": G.n,
        "m": G.num_edges,
        "value": cert.value,
        "nonempty_value": cert.nonempty_value,
        "basis": list(cert.basis),
        "optimal": cert.optimal,
        "nodes_explored": cert.nodes_explored,
    }
    _emit(payload, args.output)
    return 0


def cmd_verify(args) -> int:
    G = _read_graph(args.graph, args.format)
    landmarks = landmark_tuple(_parse_int_list(args.landmarks, "landmark"), G.n)
    checker = is_edge_resolving if args.edges else is_vertex_resolving
    ok, witness = checker(G, landmarks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "kind": "edge" if args.edges else "vertex",
        "landmarks": list(landmarks),
        "resolving": ok,
        "witness": _witness_json(witness),
    }
    _emit(payload, args.output)
    return 0 if ok else 1


def cmd_construct(args) -> int:
    maker, param, check = CONSTRUCT_FAMILIES[args.family]
    other = "dims" if param == "k" else "k"
    if getattr(args, other) is not None:
        raise GraphInputError(f"{args.family} construction takes --{param}, not --{other}")
    value = getattr(args, param)
    if value in (None, ""):
        raise GraphInputError(f"{args.family} construction requires --{param}")
    if isinstance(value, str):  # --dims arrives as text
        value = _parse_int_list(value, param)
    out = maker(value)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "construct",
        "family": args.family,
        param: value,
        "n": out.graph.n,
        "m": out.graph.num_edges,
        "graph6": graph6_encode(out.graph),
        "landmarks": list(out.landmarks),
        "roles": {str(v): r for v, r in sorted(out.roles.items())},
        "labels": {str(v): l for v, l in sorted(out.labels.items())},
        "deleted": [list(item) for item in out.deleted],
        "checked": bool(args.check),
        "check_ok": None,
        "witness": None,
    }
    code = 0
    if args.check:
        ok, witness = check(out.graph, out.landmarks)
        payload["check_ok"] = ok
        payload["witness"] = _witness_json(witness)
        if not ok:
            code = 1
    _emit(payload, args.output)
    return code


def cmd_check(args) -> int:
    if args.theorem_id not in THEOREM_CHECKS:
        raise GraphInputError(
            f"unknown theorem id {args.theorem_id!r}; known: {', '.join(sorted(THEOREM_CHECKS))}"
        )
    report = sweep(
        args.theorem_id,
        args.max_n,
        budget=args.budget,
        allow_large=args.allow_large,
    )
    if args.output == "json":
        print(report.to_json())
    elif args.output == "csv":
        rows = [{"graph6": g, "detail": d} for g, d in report.failures]
        writer = csv.DictWriter(sys.stdout, fieldnames=["graph6", "detail"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        if report.solver_budget_exhaustions:  # the rows are failures only
            print(report.summary_line(), file=sys.stderr)
    else:
        print(report.summary_line())
        for g6, detail in report.failures:
            print(f"  {g6}  {detail}")
    if report.failures:
        return 1
    if report.solver_budget_exhaustions:
        return 4
    return 0


def cmd_bounds(args) -> int:
    ks = _parse_range(args.k, "k")
    ds = _parse_range(args.d, "D")
    if ks[0] < 1 or ds[0] < 1:
        raise GraphInputError("bounds require k >= 1 and D >= 1")
    # checked on the ranges, before any row is built
    if max(ks[-1], ds[-1]) > BOUNDS_MAX_VALUE or len(ks) * len(ds) > BOUNDS_MAX_ROWS:
        raise SizeLimitError(f"bounds tables allow k, D <= {BOUNDS_MAX_VALUE} and at most "
                             f"{BOUNDS_MAX_ROWS} rows; got k <= {ks[-1]}, D <= {ds[-1]}")
    rows = [
        {
            "k": k,
            "D": D,
            "edge_new": edge_bound_new(k, D),
            "edge_zubrilina": edge_bound_zubrilina(k, D),
            "vertex_hernando": vertex_bound_hernando(k, D),
            "subgraph_vertex": subgraph_vertex_bound(k, D),
            "subgraph_edge": subgraph_edge_bound(k, D),
        }
        for k in ks
        for D in ds
    ]
    payload = {"schema_version": SCHEMA_VERSION, "command": "bounds", "rows": rows}
    _emit(payload, args.output, rows=rows)
    return 0


def _add_graph_input(sub):
    sub.add_argument("graph", help="graph file path, or - for stdin")
    sub.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        default="graph6",
        help="input encoding (no auto-detection; default graph6)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricdim",
        description="Exact metric and edge metric dimension toolkit",
    )
    parser.add_argument(
        "--output",
        choices=("json", "csv", "table"),
        default="json",
        help="output format (default json)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"solver budget: subsets tested up to {LATTICE_LIMIT} vertices, search nodes past "
             "(exit 4 when exhausted)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, kind in (("dim", "vertex"), ("edim", "edge")):
        p_solve = commands.add_parser(name, help=f"{kind} metric dimension with certificate")
        _add_graph_input(p_solve)
        p_solve.set_defaults(func=_cmd_dimension)

    p_verify = commands.add_parser("verify", help="check a landmark set, with witness on failure")
    _add_graph_input(p_verify)
    p_verify.add_argument("--landmarks", required=True, help="comma-separated vertex ids")
    p_verify.add_argument("--edges", action="store_true", help="check edge resolution instead of vertex")
    p_verify.set_defaults(func=cmd_verify)

    p_con = commands.add_parser("construct", help="generate an extremal family member")
    p_con.add_argument("family", choices=sorted(CONSTRUCT_FAMILIES))
    p_con.add_argument("--k", type=int, default=None, help="family parameter")
    p_con.add_argument("--dims", default=None, help="grid side lengths, comma-separated")
    p_con.add_argument("--check", action="store_true", help="verify the landmark certificate")
    p_con.set_defaults(func=cmd_construct)

    p_check = commands.add_parser("check", help="sweep a theorem over all small connected graphs")
    p_check.add_argument("theorem_id", help="registered theorem id")
    p_check.add_argument("--max-n", type=int, default=7, dest="max_n")
    p_check.add_argument("--allow-large", action="store_true", help="permit n up to 9")
    p_check.set_defaults(func=cmd_check)

    p_bounds = commands.add_parser("bounds", help="closed-form bound table over (k, D)")
    p_bounds.add_argument("--k", required=True, help="dimension value or range LO..HI")
    p_bounds.add_argument("--d", required=True, help="diameter value or range LO..HI")
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once: building a parser costs more than parsing
    a command line."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": "budget-exhausted",
                    "kind": exc.kind,
                    "lower_bound": exc.lower_bound,
                    "upper_bound": exc.upper_bound,
                    "nodes_explored": exc.nodes_explored,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 4
    except (GraphInputError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:  # DisconnectedGraphError, SizeLimitError, a failed worker
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
