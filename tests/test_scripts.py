import os
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


class TestRunSweeps:
    @pytest.mark.parametrize("args,message", [
        (["--max-n", "3", "--threads", "0"], "unrecognized arguments: --threads 0"),
        (["--max-n", "2"], "sweep range n_max=2 is below the smallest swept size 3"),
        (["--max-n", "12"], "sweep range n_max=12 exceeds enumeration limit"),
    ])
    def test_unusable_arguments_are_usage_errors(self, args, message):
        proc = run_script("run_sweeps.py", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(f"run_sweeps.py: error: {message}")


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
