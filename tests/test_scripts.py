import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name,args", [("run_sweeps.py", ["--max-n", "4"]), ("constructions_gallery.py", [])])
def test_runs_from_a_plain_checkout(name, args, tmp_path):
    # the script puts src/ on its own path, as layer_times.py does, so it
    # needs no PYTHONPATH or install, from any working directory
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_script(name, *args).stdout


class TestRunSweeps:
    @pytest.mark.parametrize("args,message", [
        (["--max-n", "3", "--threads", "0"], "unrecognized arguments: --threads 0"),
        (["--max-n", "2"], "sweep range n_max=2 is below the smallest swept size 3"),
        (["--max-n", "12"], "sweep range n_max=12 exceeds enumeration limit"),
        (["--max-n", "9"], "sweep range n_max=9 exceeds enumeration limit 8"),
        (["--max-n", "10", "--allow-large"], "sweep range n_max=10 exceeds enumeration limit 9"),
    ])
    def test_unusable_arguments_are_usage_errors(self, args, message):
        proc = run_script("run_sweeps.py", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(f"run_sweeps.py: error: {message}")

    def test_n7_stdout_bytes(self):
        # the script's own stdout, not just the in-process sweep() reports
        proc = run_script("run_sweeps.py", "--max-n", "7")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 15
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "8db8be5710b059d5de7ffe3c6cb2122016185a176bd67620ea4e6a1aa99c9b4b")

    def test_timing_phases_on_stderr(self):
        # the timings go to stderr only: stdout is a plain run's, byte for byte
        proc = run_script("run_sweeps.py", "--max-n", "6", "--timing")
        assert proc.returncode == 0, proc.stderr
        plain = run_script("run_sweeps.py", "--max-n", "6")
        assert plain.returncode == 0, plain.stderr
        assert proc.stdout == plain.stdout
        assert len(proc.stdout.splitlines()) == 15
        *summaries, timing = proc.stderr.splitlines()
        assert summaries == plain.stderr.splitlines()
        assert len(summaries) == 15
        match = re.fullmatch(r"timing: (\d+) workers, enumeration \d+\.\d ms, pass \d+\.\d ms "
                             r"\((\d+ items \d+\.\d ms(, )?)+\)", timing)
        assert match, timing
        assert timing.count(" items ") == int(match[1])
        # the 21 five-vertex classes as parents, then the 2 + 6 + 21 classes with 3-5 vertices
        assert sum(map(int, re.findall(r"(\d+) items", timing))) == 50

    @pytest.mark.slow
    def test_n8_stdout_bytes(self):
        proc = run_script("run_sweeps.py", "--max-n", "8")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 15
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "c18b6f9348de99cacad13a330383d5c6acd19f375a65b5daa7d755d0cdbb708f")


class TestLayerTimes:
    def test_prints_one_json_line_of_every_layer(self):
        proc = run_script("layer_times.py", "--n", "5")
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        report = json.loads(line)
        assert (report["n"], report["classes"], report["repeats"]) == (5, 21, 5)
        assert sorted(report["us_per_class"]) == sorted([
            "enumerate", "graph6_decode", "canonical_graph6", "bfs", "build_vertex_instance", "build_edge_instance", "greedy_upper_bound",
            "_minimal_families", "min_hitting_set", "metric_dimension", "edge_metric_dimension",
            "char_edim_n1", "char_edim_ge_n2", "tuple_lemma_check", "max_clique", "chromatic_number",
            "degeneracy", "is_vertex_resolving", "is_edge_resolving"])
        assert all(us > 0 for us in report["us_per_class"].values())
        record = [report["us_per_class"][name] for name in (
            "graph6_decode", "bfs", "char_edim_n1", "char_edim_ge_n2", "tuple_lemma_check", "max_clique",
            "chromatic_number", "degeneracy")]
        assert report["record_layers"] == pytest.approx(sum(record), abs=0.01)
        assert report["record_fill_us"] > 0
        # the branch-and-bound layers, on the fixed pool past the lattice
        assert report["pool_instances"] == 16
        assert sorted(report["pool_us_per_instance"]) == ["_minimal_families", "_transpose", "greedy_upper_bound",
                                                          "min_hitting_set"]
        assert all(us > 0 for us in report["pool_us_per_instance"].values())
        assert report["pool_nodes_explored"] == 9066  # deterministic: the pool's search nodes
        # the lattice solve, on the fixed pool of 10 to 16 vertices
        assert report["lattice_instances"] == 28
        assert list(report["lattice_us_per_instance"]) == ["min_hitting_set"]
        assert report["lattice_us_per_instance"]["min_hitting_set"] > 0
        # the cold start, in fresh children
        assert report["import_ms"] > 0 and report["import_peak_rss_mb"] > 0
        assert isinstance(report["import_bytecode_cached"], bool)
        assert sorted(report) == ["classes", "import_bytecode_cached", "import_ms", "import_peak_rss_mb",
                                  "lattice_instances", "lattice_us_per_instance", "n", "pool_instances",
                                  "pool_nodes_explored", "pool_us_per_instance", "record_fill_us", "record_layers",
                                  "repeats", "us_per_class"]

    def test_size_without_classes_is_a_usage_error(self):
        proc = run_script("layer_times.py", "--n", "9")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == "layer_times.py: error: enumeration supports 1 <= n <= 8, got n=9"
        proc = run_script("layer_times.py", "--n", "2")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == "layer_times.py: error: the record layers need n >= 3, got n=2"


class TestConstructionsGallery:
    def test_every_member_resolves(self):
        proc = run_script("constructions_gallery.py")
        assert proc.returncode == 0, proc.stderr
        summaries = [ln for ln in proc.stdout.splitlines() if not ln.startswith("    graph6: ")]
        assert len(summaries) == 35
        assert all(" resolves " in ln for ln in summaries)
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "e87c5c3414373b81c5185f350582a9a9171c23bee864cb478afa71bb42be9274")


def test_traced_names_resolve():
    # perfbench/tracer.py wraps these names from outside; one that moves or
    # goes breaks `perfbench/run.py --trace 1` and perfbench/selftest.py.
    # TRACED is read from the source, so nothing under perfbench/ runs.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(target, "id", None) for target in node.targets] == ["TRACED"])
    assert traced
    for module, name, _ in traced:
        assert callable(getattr(importlib.import_module(f"metricdim.{module}"), name, None)), (module, name)
    # the sweep-n7 workload passes threads=
    inspect.signature(importlib.import_module("metricdim.enumerator").sweep).bind("char1-equiv", 3, threads=2)


def _load_script(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    DECLARED = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]

    @staticmethod
    def pairs(parent, change, correct=True, failed=(0, 0)):
        return [{"parent": {"metrics": {"wall_s": p}, "correct": True, "failed": failed[0]},
                 "change": {"metrics": {"wall_s": c}, "correct": correct, "failed": failed[1]}}
                for p, c in zip(parent, change)]

    def test_gain_needs_nine_tenths_of_wins_and_a_gap_past_the_iqr(self):
        bench = _load_script("bench_pairs")
        parent = [1.30, 1.32, 1.28, 1.35, 1.31, 1.29, 1.33, 1.30, 1.34, 1.27]
        row = bench.summarize(self.pairs(parent, [0.8] * 9 + [1.4]), self.DECLARED)["wall_s"]
        assert (row["change_wins"], row["pairs"]) == (9, 10)
        assert row["gain_claimable"] and row["bound"] == "within"
        assert row["parent"]["median"] == pytest.approx(1.305)
        row = bench.summarize(self.pairs(parent, [0.8] * 8 + [1.4] * 2), self.DECLARED)["wall_s"]
        assert row["change_wins"] == 8 and not row["gain_claimable"]
        # winning every pair by less than the parent's spread claims nothing
        row = bench.summarize(self.pairs(parent, [p - 0.001 for p in parent]), self.DECLARED)["wall_s"]
        assert row["change_wins"] == 10 and not row["gain_claimable"]

    def test_gain_needs_correct_runs_and_no_more_failures(self):
        bench = _load_script("bench_pairs")
        parent, change = [1.3, 1.32, 1.28, 1.31], [0.8] * 4
        assert bench.summarize(self.pairs(parent, change, failed=(1, 1)),
                               self.DECLARED)["wall_s"]["gain_claimable"]
        for pairs in (self.pairs(parent, change, correct=False),
                      self.pairs(parent, change, failed=(0, 1))):
            row = bench.summarize(pairs, self.DECLARED)["wall_s"]
            assert row["change_wins"] == 4 and not row["gain_claimable"]

    def test_bound_is_relative_to_the_parent_median(self):
        bench = _load_script("bench_pairs")
        row = bench.summarize(self.pairs([1.0] * 4, [1.3] * 4), self.DECLARED)["wall_s"]
        assert row["bound"] == "exceeded" and row["relative_change"] == pytest.approx(0.3)
        assert bench.seeds_arg("21-23") == [21, 22, 23] and bench.seeds_arg("7") == [7]

    def test_a_parent_spread_wider_than_the_bound_leaves_the_bound_unresolved(self):
        bench = _load_script("bench_pairs")
        parent = [1.0, 2.0, 1.0, 2.0]
        row = bench.summarize(self.pairs(parent, [1.1, 1.9, 1.2, 1.8]), self.DECLARED)["wall_s"]
        assert row["bound"] == "unresolved"
        # unless every change run beats every parent run
        row = bench.summarize(self.pairs(parent, [0.5, 0.6, 0.5, 0.6]), self.DECLARED)["wall_s"]
        assert row["bound"] == "within"

    @staticmethod
    def tree(root, source):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "src" / "pkg").mkdir(parents=True)
        (root / "src" / "pkg" / "mod.py").write_text(source)
        return root

    def test_refuses_trees_that_hold_cached_bytecode(self, tmp_path, monkeypatch, capsys):
        bench = _load_script("bench_pairs")
        monkeypatch.setattr(bench, "bench", None)  # no run may start
        parent = self.tree(tmp_path / "parent", "x = 1\n")
        cache = parent / "src" / "pkg" / "__pycache__"
        cache.mkdir()
        out = tmp_path / "out.json"
        assert bench.main(["--parent", str(parent), "--out", str(out)]) == 2
        assert f"error: {cache} holds cached bytecode" in capsys.readouterr().err
        assert cache.is_dir() and not out.exists()  # named, not deleted

    def test_refuses_a_side_without_a_commit(self, tmp_path, monkeypatch, capsys):
        # trees exported from git are not checkouts: each needs its commit named
        bench = _load_script("bench_pairs")
        monkeypatch.setattr(bench, "bench", None)  # no run may start
        parent, change = self.tree(tmp_path / "parent", "x = 1\n"), self.tree(tmp_path / "change", "x = 1\n")
        (change / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": self.DECLARED}))
        monkeypatch.setattr(bench, "ROOT", change)
        out = tmp_path / "out.json"
        for named, missing in (([], ["parent", "change"]), (["--parent-commit", "abc1234"], ["change"]),
                               (["--change-commit", "def5678"], ["parent"])):
            assert bench.main(["--parent", str(parent), "--out", str(out), *named]) == 2
            err = capsys.readouterr().err
            assert [side for side in ("parent", "change") if f"with --{side}-commit" in err] == missing
            assert not out.exists()

    def test_records_source_lines_and_bytes_per_side(self, tmp_path, monkeypatch):
        bench = _load_script("bench_pairs")
        parent = self.tree(tmp_path / "parent", "x = 1\ny = 2\n")
        change = self.tree(tmp_path / "change", "x = 1\n")
        for root in (parent, change):  # like for like: the same benchmark on both sides
            (root / "BENCHMARK.json").write_text(json.dumps(
                {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": self.DECLARED}))
        monkeypatch.setattr(bench, "ROOT", change)
        monkeypatch.setattr(bench, "bench", lambda root, workload, seed, seconds: {
            "correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": 1.0}})
        out = tmp_path / "out.json"
        assert bench.main(["--parent", str(parent), "--out", str(out), "--seeds", "1-2",
                           "--parent-commit", "abc1234", "--change-commit", "def5678"]) == 0
        report = json.loads(out.read_text())
        assert report["commits"] == {"parent": "abc1234", "change": "def5678"}
        assert report["src_lines"] == {"parent": 2, "change": 1}
        assert report["src_bytes"] == {"parent": 12, "change": 6}

    def test_refuses_a_checkout_with_uncommitted_edits(self, tmp_path, monkeypatch, capsys):
        # "<id>-dirty" names no tree that a commit rebuilds
        bench = _load_script("bench_pairs")
        monkeypatch.setattr(bench, "bench", None)  # no run may start
        parent, change = self.tree(tmp_path / "parent", "x = 1\n"), self.tree(tmp_path / "change", "x = 1\n")
        for root in (parent, change):
            (root / "BENCHMARK.json").write_text(json.dumps(
                {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": self.DECLARED}))
            git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
            for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
                subprocess.run([*git, *cmd], cwd=root, check=True, capture_output=True)
        monkeypatch.setattr(bench, "ROOT", change)
        out = tmp_path / "out.json"
        (change / "src" / "pkg" / "mod.py").write_text("x = 2\n")
        assert bench.main(["--parent", str(parent), "--out", str(out), "--change-commit", "def5678"]) == 2
        err = capsys.readouterr().err
        assert f"error: the change side, {change}, has uncommitted edits" in err
        assert "the parent side" not in err and not out.exists()

    def test_refuses_sides_whose_benchmark_code_differs(self, tmp_path, monkeypatch, capsys):
        # each side runs its own perfbench/run.py: different code measures a different program
        bench = _load_script("bench_pairs")
        monkeypatch.setattr(bench, "bench", None)  # no run may start
        parent, change = self.tree(tmp_path / "parent", "x = 1\n"), self.tree(tmp_path / "change", "x = 1\n")
        declared = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": self.DECLARED}
        (parent / "BENCHMARK.json").write_text(json.dumps({**declared, "run_seconds": 2}))
        (change / "BENCHMARK.json").write_text(json.dumps(declared))
        (change / "perfbench" / "run.py").write_text("print()\n")
        (change / "perfbench" / "extra.py").write_text("")
        (parent / "perfbench" / "notes.txt").write_text("not code")
        monkeypatch.setattr(bench, "ROOT", change)
        out = tmp_path / "out.json"
        commits = ["--parent-commit", "abc1234", "--change-commit", "def5678"]
        assert bench.main(["--parent", str(parent), "--out", str(out), *commits]) == 2
        err = capsys.readouterr().err
        assert ("error: the sides' benchmark code differs in "
                "BENCHMARK.json, perfbench/extra.py, perfbench/run.py;") in err
        assert not out.exists()
