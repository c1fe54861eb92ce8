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
        (["--max-n", "3", "--threads", "0"], "sweep needs at least one thread"),
        (["--max-n", "2"], "sweep range n_max=2 is below the smallest swept size 3"),
        (["--max-n", "12"], "sweep range n_max=12 exceeds enumeration limit"),
    ])
    def test_unusable_arguments_are_usage_errors(self, args, message):
        proc = run_script("run_sweeps.py", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith(f"run_sweeps.py: error: {message}")
