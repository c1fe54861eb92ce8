#!/usr/bin/env python3
"""Paired benchmark of a parent checkout against this working tree.

    python3 scripts/bench_pairs.py --parent DIR --out BENCH_N.json \
        [--parent-commit ID] [--change-commit ID] [--workloads W ...] [--seeds 21-30]

For every workload (by default those BENCHMARK.json declares) and seed it
runs each side's own, unchanged ``perfbench/run.py --workload W --seed S
--seconds T``, with T the declared ``run_seconds``, one run at a time and
alternating which side goes first.  The JSON written to ``--out`` holds
every run and, per workload and end-to-end metric, each side's median and
quartiles, how many pairs the change won, a bound verdict and whether a
gain may be claimed.  The verdict is "within" or "exceeded" by the change's
median against the declared bound, or "unresolved" when the parent's
interquartile range is wider than the bound and the change's runs do not
all beat the parent's.  A gain needs at least nine tenths of the pairs
won, the medians further apart than the parent's interquartile range,
every run correct and no more failed operations than the parent.

Cached bytecode moves ``setup_s`` and ``peak_rss_mb`` by more than their
bounds, so the script exits 2 when either side's ``src/`` holds a
``__pycache__``, and runs every child with PYTHONDONTWRITEBYTECODE=1, so
that none is written.  The JSON also records each side's ``src/`` size in
lines and bytes, since ``setup_s`` compiles all of it on every spawn.

Each side is recorded with its commit: ``git describe --always --dirty``
of a checkout, or the id given by ``--parent-commit`` or
``--change-commit``, which a tree that is not a checkout (a ``git
archive`` export, say) needs.  The script exits 2 before any run when
either side has no commit, or is a checkout with uncommitted edits to
tracked files (``-dirty``), since no commit rebuilds that tree.  It also
exits 2 when the sides' ``BENCHMARK.json`` or ``perfbench/*.py`` differ:
each side runs its own ``perfbench/run.py``, so differing benchmark code
would measure two different programs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import seeds_arg  # noqa: E402

RUN_TIMEOUT_S = 900
SIDES = ("parent", "change")


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def src_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in (root / "src").rglob("*.py"))


def bytecode_caches(root: Path) -> list[Path]:
    return sorted((root / "src").rglob("__pycache__"))


def commit(root: Path) -> str | None:
    """``git describe --always --dirty`` of the checkout, None outside git."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def benchmark_code(root: Path) -> dict[str, bytes]:
    """The contents of BENCHMARK.json and perfbench/*.py, by path under root."""
    paths = [root / "BENCHMARK.json", *sorted((root / "perfbench").glob("*.py"))]
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in paths if path.is_file()}


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of the checkout at ``root``; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric: both sides' spread, the change's wins, the bound
    verdict and whether a gain may be claimed."""
    sound = (all(p[s]["correct"] for p in pairs for s in SIDES)
             and sum(p["change"]["failed"] for p in pairs) <= sum(p["parent"]["failed"] for p in pairs))
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        worse = sign * (after["median"] - before["median"])
        iqr = before["q3"] - before["q1"]
        allowed = metric["bound"] * before["median"]
        if iqr > allowed and max(sign * c for c in change) >= min(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within" if worse <= allowed else "exceeded"
        summary[name] = {
            "unit": metric["unit"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "pairs": len(pairs),
            "relative_change": (after["median"] - before["median"]) / before["median"],
            "bound": verdict,
            "gain_claimable": sound and wins >= 0.9 * len(pairs) and -worse > iqr,
        }
    return summary


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("21-30"), help="N or LO-HI")
    for side in SIDES:
        parser.add_argument(f"--{side}-commit", help=f"commit id of the {side} tree, if it is not a git checkout")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py under {parent}", file=sys.stderr)
        return 2
    seconds = declared["run_seconds"]

    roots = {"parent": parent, "change": ROOT}
    described = {side: commit(root) for side, root in roots.items()}
    commits = {side: vars(args)[f"{side}_commit"] or described[side] for side in SIDES}
    unnamed = [side for side, name in commits.items() if not name]
    for side in unnamed:
        print(f"error: {roots[side]} is not a git checkout; name the {side} side's commit "
              f"with --{side}-commit", file=sys.stderr)
    dirty = [side for side, name in described.items() if name and name.endswith("-dirty")]
    for side in dirty:
        print(f"error: the {side} side, {roots[side]}, has uncommitted edits ({described[side]}), "
              f"so no commit rebuilds it; commit them and run again", file=sys.stderr)
    code = [benchmark_code(root) for root in roots.values()]
    differ = sorted(name for name in code[0].keys() | code[1].keys() if code[0].get(name) != code[1].get(name))
    if differ:
        print(f"error: the sides' benchmark code differs in {', '.join(differ)}; each side runs its own "
              f"perfbench/run.py, so they would measure two different programs", file=sys.stderr)
    caches = [cache for root in roots.values() for cache in bytecode_caches(root)]
    for cache in caches:
        print(f"error: {cache} holds cached bytecode, which skews setup_s and peak_rss_mb; "
              f"remove it and run again", file=sys.stderr)
    if unnamed or dirty or differ or caches:
        return 2
    workloads = {}
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(roots[side], workload, seed, seconds)
                print(f"# {workload} seed {seed} {side}: wall_s "
                      f"{pair[side]['metrics']['wall_s']:.3f}", file=sys.stderr, flush=True)
            pairs.append(pair)
        workloads[workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "metrics": summarize(pairs, declared["end_to_end"]),
            "pairs": pairs,
        }

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "commits": commits,
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "src_bytes": {side: src_bytes(root) for side, root in roots.items()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                  f" {m['unit']}, change won {m['change_wins']}/{m['pairs']},"
                  f" bound {m['bound']}, gain claimable {m['gain_claimable']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
