import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from metricdim.cli import BOUNDS_MAX_ROWS, BOUNDS_MAX_VALUE, main
from metricdim.graph_core import Graph, graph6_encode
from metricdim.metric import ResolutionWitness

from oracles import cycle_graph, path_graph, star_graph


@pytest.fixture
def g6_file(tmp_path):
    def write(G, name="graph.g6"):
        path = tmp_path / name
        path.write_text(graph6_encode(G) + "\n")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(argv):
    """The CLI on argv in a child process under a 1 GiB address-space cap, so
    that hostile input cannot take the machine's memory before a limit check
    refuses it; the finished process and its wall time in seconds."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "metricdim.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=60, preexec_fn=cap_memory)
    return proc, time.perf_counter() - started


def test_import_leaves_out_dataclasses_and_inspect():
    # every metricdim process starts with this import; those two modules
    # (and ast, dis and tokenize behind them) cost about 1 MiB and 6 ms there
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import metricdim, metricdim.cli; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "metricdim.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


class TestDimEdim:
    def test_dim_json(self, capsys, g6_file):
        code, out, _ = run(capsys, ["dim", g6_file(path_graph(4))])
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "dim"
        assert payload["schema_version"] == 1
        assert (payload["n"], payload["m"]) == (4, 3)
        assert payload["value"] == 1
        assert payload["nonempty_value"] == 1
        assert payload["basis"] == [0]
        assert payload["optimal"] is True
        # canonical serialization: keys sorted, no timing
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_edim_single_edge_empty_basis(self, capsys, g6_file):
        code, out, _ = run(capsys, ["edim", g6_file(path_graph(2))])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0
        assert payload["nonempty_value"] == 1
        assert payload["basis"] == []

    def test_stdin_graph6(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(cycle_graph(5)) + "\n"))
        code, out, _ = run(capsys, ["dim", "-"])
        assert code == 0
        assert json.loads(out)["value"] == 2

    @pytest.mark.parametrize("command", [["dim"], ["edim"], ["verify", "--landmarks", "0,1"]],
                             ids=["dim", "edim", "verify"])
    def test_networkx_file_header_is_read(self, capsys, tmp_path, command):
        # networkx writes the optional ">>graph6<<" header by default
        import networkx as nx

        path = tmp_path / "nx.g6"
        nx.write_graph6(nx.cycle_graph(5), str(path))
        assert path.read_bytes() == b">>graph6<<Dhc\n"
        bare = tmp_path / "bare.g6"
        bare.write_text("Dhc\n")
        results = [run(capsys, [command[0], str(p), *command[1:]]) for p in (path, bare)]
        assert results[0] == results[1] and results[0][0] == 0

    @pytest.mark.parametrize("text, message", [
        (">>graph6<<\n", "expected exactly one graph6 line, got 0"),
        ("Dhc\n>>graph6<<Dhc\n", "expected exactly one graph6 line, got 2"),
        (" >>graph6<<Dhc\n", "malformed graph6 header byte: '>'"),
        ("\n>>graph6<<Dhc\n", "malformed graph6 header byte: '>'"),
    ], ids=["header-only", "header-on-line-2", "space-first", "blank-line-first"])
    def test_graph6_header_only_at_the_start(self, capsys, tmp_path, text, message):
        path = tmp_path / "graph.g6"
        path.write_text(text)
        assert run(capsys, ["dim", str(path)]) == (2, "", f"error: {message}\n")

    def test_edgelist_format(self, capsys, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, ["edim", str(path), "--format", "edgelist"])
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_csv_output(self, capsys, g6_file):
        code, out, _ = run(capsys, ["--output", "csv", "dim", g6_file(cycle_graph(6))])
        assert code == 0
        header, row = out.splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["value"] == "2"
        assert record["command"] == "dim"


class TestVerify:
    def test_pass(self, capsys, g6_file):
        code, out, _ = run(capsys, ["verify", g6_file(path_graph(4)), "--landmarks", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["resolving"] is True
        assert payload["witness"] is None

    def test_fail_reports_witness(self, capsys, g6_file):
        code, out, _ = run(
            capsys, ["verify", g6_file(path_graph(4)), "--landmarks", "1", "--edges"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["kind"] == "edge"
        assert payload["resolving"] is False
        assert payload["witness"] == {
            "a": [0, 1],
            "b": [1, 2],
            "kind": "edge",
            "shared_vector": [0],
        }

    def test_bad_landmark_is_usage_error(self, capsys, g6_file):
        code, _, err = run(capsys, ["verify", g6_file(path_graph(3)), "--landmarks", "9"])
        assert code == 2
        assert "out of range" in err


class TestConstruct:
    def test_md_complete(self, capsys):
        code, out, _ = run(capsys, ["construct", "md-complete", "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["graph6"] == "E~j?"
        assert payload["landmarks"] == [4, 5]
        assert payload["checked"] is False

    def test_check_pass(self, capsys):
        code, out, _ = run(capsys, ["construct", "edim-star", "--k", "2", "--check"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] is True
        assert payload["check_ok"] is True

    def test_check_md_star_k2_passes(self, capsys):
        # md_star deletes colliding leaves one at a time, so the k=2
        # certificate re-checks on the returned graph
        code, out, _ = run(capsys, ["construct", "md-star", "--k", "2", "--check"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] is True
        assert payload["check_ok"] is True

    def test_check_md_star_k1_passes(self, capsys):
        # the k=1 graph stays connected, so the check runs and passes
        code, out, _ = run(capsys, ["construct", "md-star", "--k", "1", "--check"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checked"] is True
        assert payload["check_ok"] is True

    def test_md_star_k1_without_check_reports_deletions(self, capsys):
        # only leaf "0" is deleted: dropping leaf "1" too would cut r_1-s_1 off
        code, out, _ = run(capsys, ["construct", "md-star", "--k", "1"])
        assert code == 0
        assert json.loads(out)["deleted"] == [["leaf", "0"]]

    def test_md_star_failed_recheck_is_usage_error(self, capsys, monkeypatch):
        center = ResolutionWitness("vertex", 9, 10, (1, 1))  # names a non-leaf
        monkeypatch.setattr("metricdim.constructions.is_vertex_resolving",
                            lambda G, S: (False, center))
        code, out, err = run(capsys, ["construct", "md-star", "--k", "2"])
        assert code == 2
        assert out == ""
        assert "md_star(2)" in err

    def test_grid(self, capsys):
        code, out, _ = run(capsys, ["construct", "grid", "--dims", "2,3,4", "--check"])
        assert code == 0
        payload = json.loads(out)
        assert payload["landmarks"] == [0, 8, 12]
        assert payload["check_ok"] is True

    @pytest.mark.parametrize("dims, code", [
        (",".join(["2"] * 20000), 3),
        (",".join(["9" * 3000] * 2), 3),
        (",".join(["2"] * 6), 3),
        (",".join(["2"] * 20000 + ["1"]), 2),
    ], ids=["20000-sides", "two-3000-digit-sides", "64-vertices", "a-side-of-1"])
    def test_hostile_grid_exits_promptly(self, dims, code):
        # the vertex count is refused before the product of all sides, which
        # has thousands of digits, is built or printed
        proc, seconds = run_capped(["construct", "grid", "--dims", dims])
        assert seconds < 10
        assert (proc.returncode, proc.stdout) == (code, "")
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: grid ")
        assert len(proc.stderr) < 200  # no side list or product is echoed
        assert "Traceback" not in proc.stderr

    def test_param_errors(self, capsys):
        assert run(capsys, ["construct", "grid"])[0] == 2  # --dims required
        assert run(capsys, ["construct", "md-complete"])[0] == 2  # --k required
        assert run(capsys, ["construct", "md-complete", "--k", "9"])[0] == 2
        code, out, err = run(capsys, ["construct", "grid", "--dims", "2,x"])
        assert (code, out) == (2, "")
        assert err == "error: bad dims list '2,x'; expected comma-separated integers\n"

    @pytest.mark.parametrize("argv, flag", [
        (["md-complete", "--k", "2", "--dims", "3,3"], "--dims"),
        (["edim-biclique", "--dims", "2", "--k", "3", "--check"], "--dims"),
        (["grid", "--dims", "2,2", "--k", "9"], "--k"),
        (["grid", "--k", "2"], "--k"),
    ])
    def test_other_family_flag_is_refused(self, capsys, argv, flag):
        code, out, err = run(capsys, ["construct", *argv])
        assert (code, out) == (2, "")
        family, own = argv[0], "--k" if flag == "--dims" else "--dims"
        assert err == f"error: {family} construction takes {own}, not {flag}\n"

    def test_failed_check_reports_witness(self, capsys, monkeypatch):
        from metricdim import cli

        witness = ResolutionWitness("vertex", 0, 1, (1,))
        maker, param, _ = cli.CONSTRUCT_FAMILIES["md-complete"]
        monkeypatch.setitem(cli.CONSTRUCT_FAMILIES, "md-complete",
                            (maker, param, lambda G, S: (False, witness)))
        code, out, _ = run(capsys, ["construct", "md-complete", "--k", "2", "--check"])
        assert code == 1
        payload = json.loads(out)
        assert (payload["checked"], payload["check_ok"]) == (True, False)
        assert payload["witness"] == {"kind": "vertex", "a": 0, "b": 1, "shared_vector": [1]}


# every `construct` request per family: no parameter, each parameter from
# below to above the family's range, --check off and on, every output format
CONSTRUCT_REQUESTS = {
    "md-complete": ("--k", [str(k) for k in range(-1, 7)]),
    "edim-star": ("--k", [str(k) for k in range(-1, 7)]),
    "md-star": ("--k", [str(k) for k in range(-1, 5)]),
    "md-biclique": ("--k", [str(k) for k in range(0, 9)]),
    "edim-biclique": ("--k", [str(k) for k in range(0, 9)]),
    "grid": ("--dims", ["", "0", "1", "2", "1,3", "2,x", "2,2", "2,3", "3,4", "4,4", "5,5",
                        "7,8", "8,8", "2,2,2", "2,3,4", "3,3,3", "2,2,2,2", "2,2,2,2,2",
                        "62", "63", "2,31"]),
}

# sha256 of each family's transcript: a new value is a change of output
CONSTRUCT_SHA256 = {
    "md-complete": "c39e3886030c3f78e267cc151cb1ac45ff30b15f416fd7e330087a7c8d749425",
    "edim-star": "e606bb21fd60153712340e0eff8d29ec2e8a79c45e1bffd3c75bcef485310260",
    "md-star": "a44736d8e450dfb96e4cc87931a4acd59c83756ae4e3b00ee61032440d41955f",
    "md-biclique": "57f23937670b6f13403e5a4cf9ee7e397276e477f2b662557d8c70143e22c6b9",
    "edim-biclique": "234a683df8cd26acfd0dd5ef21e51fa1174bdeff951094f6b616599b86df1370",
    "grid": "25daaebf4dbe5c05c4cf431b9979037e3aef65246e930b0a4a7b4bee525cca00",
}


class TestConstructPin:
    @pytest.mark.parametrize("family", sorted(CONSTRUCT_REQUESTS))
    def test_output_bytes(self, capsys, family):
        flag, values = CONSTRUCT_REQUESTS[family]
        transcript = []
        for fmt in ("json", "table", "csv"):
            for check in ([], ["--check"]):
                for param in [[]] + [[flag, value] for value in values]:
                    argv = ["--output", fmt, "construct", family, *param, *check]
                    code, out, err = run(capsys, argv)
                    transcript.append(f"{' '.join(argv)}\n{code}\n{out}{err}")
        digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
        assert digest == CONSTRUCT_SHA256[family]


class TestCheck:
    def test_sweep_pass(self, capsys):
        code, out, _ = run(capsys, ["check", "tuple-lemma", "--max-n", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem_id"] == "tuple-lemma"
        assert payload["graphs_checked"] == 29
        assert payload["failures"] == []
        assert "elapsed_ms" not in payload

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, ["check", "bogus-theorem", "--max-n", "4"])
        assert code == 2
        assert "unknown theorem id" in err

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, ["--output", "table", "check", "char1-equiv", "--max-n", "5"])
        assert code == 0
        assert out.startswith("char1-equiv: 29 graphs, n=3..5, PASS")

    def test_budget_exhaustion_exits_4_and_is_named(self, capsys):
        argv = ["--budget", "0", "check", "tuple-lemma", "--max-n", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 4
        payload = json.loads(out)
        assert (payload["failures"], payload["solver_budget_exhaustions"]) == ([], 8)
        code, out, _ = run(capsys, ["--output", "table", *argv])
        assert (code, out) == (4, "tuple-lemma: 8 graphs, n=3..4, FAIL (0 failures, 8 budget exhaustions)\n")

    def test_csv_output_lists_failures_only(self, capsys):
        code, out, err = run(capsys, ["--output", "csv", "check", "tuple-lemma", "--max-n", "4"])
        assert (code, out, err) == (0, "graph6,detail\n", "")

    def test_csv_names_budget_exhaustions_on_stderr(self, capsys):
        # stdout keeps the failure rows alone; the count goes to stderr
        code, out, err = run(capsys, ["--output", "csv", "--budget", "0", "check", "tuple-lemma", "--max-n", "4"])
        assert (code, out) == (4, "graph6,detail\n")
        assert err == "tuple-lemma: 8 graphs, n=3..4, FAIL (0 failures, 8 budget exhaustions)\n"

    def test_threads_option_is_gone(self, capsys):
        code, out, err = run(capsys, ["--threads", "2", "check", "tuple-lemma", "--max-n", "4"])
        assert (code, out) == (2, "")
        assert "metricdim: error: argument command: invalid choice: '2'" in err
        code, out, err = run(capsys, ["check", "tuple-lemma", "--max-n", "4", "--threads", "2"])
        assert (code, out) == (2, "")
        assert "metricdim: error: unrecognized arguments: --threads 2" in err

    def test_max_n_below_smallest_size_rejected(self, capsys):
        code, out, err = run(capsys, ["check", "tuple-lemma", "--max-n", "-5"])
        assert (code, out) == (2, "")
        assert err.startswith("error: sweep range n_max=-5 is below the smallest swept size 3")


class TestBounds:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, ["bounds", "--k", "2", "--d", "1..2"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == {
            "k": 2,
            "D": 1,
            "edge_new": 5,
            "edge_zubrilina": 4,
            "vertex_hernando": 3,
            "subgraph_vertex": 4,
            "subgraph_edge": 4,
        }
        assert rows[1]["edge_new"] == 8

    def test_range_grid(self, capsys):
        # the README example
        code, out, _ = run(capsys, ["bounds", "--k", "1..3", "--d", "2..6"])
        assert code == 0
        assert [(row["k"], row["D"]) for row in json.loads(out)["rows"]] == [
            (k, D) for k in range(1, 4) for D in range(2, 7)]

    def test_table_lines(self, capsys):
        code, out, _ = run(capsys, ["--output", "table", "bounds", "--k", "2", "--d", "1"])
        assert code == 0
        assert out.splitlines()[0].startswith("k=2  D=1  edge_new=5")

    def test_bad_range(self, capsys):
        assert run(capsys, ["bounds", "--k", "2..x", "--d", "1"])[0] == 2

    @pytest.mark.parametrize("k,d", [
        (str(BOUNDS_MAX_VALUE), "1"),
        ("1", str(BOUNDS_MAX_VALUE)),
        ("1..64", "193..256"),
    ])
    def test_largest_accepted_tables(self, capsys, k, d):
        assert BOUNDS_MAX_ROWS == 64 * 64
        assert run(capsys, ["bounds", "--k", k, "--d", d])[0] == 0

    @pytest.mark.parametrize("k,d", [
        (str(BOUNDS_MAX_VALUE + 1), "1"),
        ("1", f"1..{BOUNDS_MAX_VALUE + 1}"),
        ("1..64", "1..65"),
    ])
    def test_past_the_limits(self, capsys, k, d):
        code, out, err = run(capsys, ["bounds", "--k", k, "--d", d])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: bounds tables allow k, D <= {BOUNDS_MAX_VALUE} "
                              f"and at most {BOUNDS_MAX_ROWS} rows")

    @pytest.mark.parametrize("k,d", [("1..1000000000", "1"), ("6000", "6000")],
                             ids=["billion-rows", "k-and-D-6000"])
    def test_hostile_tables_exit_3_promptly(self, k, d):
        # a build of the table (a billion rows, or one costly big-int row)
        # would take the memory the cap allows before the limit check
        proc, seconds = run_capped(["bounds", "--k", k, "--d", d])
        assert seconds < 10
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: bounds tables allow")


class TestExitCodes:
    def test_budget_exhaustion(self, capsys, g6_file):
        code, out, err = run(capsys, ["--budget", "1", "dim", g6_file(cycle_graph(10))])
        assert code == 4
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "budget-exhausted"
        assert payload["kind"] == "vertex"
        assert payload["lower_bound"] >= 1
        assert payload["upper_bound"] >= payload["lower_bound"]

    def test_negative_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))  # K3
        code, out, err = run(capsys, ["--budget", "-3", "dim", "-"])
        assert (code, out) == (2, "")
        assert err == "error: search budget must be at least 0, got -3\n"
        code, out, err = run(capsys, ["--budget", "-3", "check", "tuple-lemma", "--max-n", "4"])
        assert (code, out) == (2, "")
        assert err == "error: sweep budget must be at least 0, got budget=-3\n"

    def test_budget_help_names_the_lattice_limit(self):
        from metricdim.cli import build_parser
        from metricdim.solver import LATTICE_LIMIT

        (action,) = [a for a in build_parser()._actions if a.dest == "budget"]
        assert action.help == ("solver budget: subsets tested up to 16 vertices, search nodes past "
                               "(exit 4 when exhausted)")
        assert f" up to {LATTICE_LIMIT} vertices," in action.help

    def test_zero_budget_stays_valid(self, capsys, g6_file):
        assert run(capsys, ["--budget", "0", "dim", g6_file(path_graph(1))])[0] == 0
        assert run(capsys, ["--budget", "0", "dim", g6_file(cycle_graph(6))])[0] == 4

    def test_disconnected_input(self, capsys, g6_file):
        G = Graph(n=4, adj=(2, 1, 8, 4))
        code, _, err = run(capsys, ["dim", g6_file(G)])
        assert code == 3
        assert "connected" in err

    def test_oversized_edge_list_header(self, capsys, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("1000000000 0\n")
        code, out, err = run(capsys, ["dim", str(path), "--format", "edgelist"])
        assert (code, out) == (3, "")
        assert "n <= 62" in err

    @pytest.mark.parametrize("fmt, head, line, count, message", [
        ("edgelist", "62 5000000\n", "0 1\n", 5_000_000,
         "header announces 5000000 edges but 62 vertices allow at most 1891"),
        ("edgelist", "62 1\n", "0 1\n", 5_000_000, "header announces 1 edges but 5000000 lines follow"),
        ("graph6", "", "A_\n", 6_700_000, "expected exactly one graph6 line, got 6700000"),
    ], ids=["edge-count", "edge-lines", "graph6-lines"])
    def test_hostile_input_exits_2_promptly(self, tmp_path, fmt, head, line, count, message):
        # a 20 MB file read by a child under a 256 MiB address-space cap: a
        # list of every line (about 400 MiB) or of every edge cannot fit
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

        path = tmp_path / "hostile"
        path.write_text(head + line * count)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "metricdim.cli", "dim", str(path), "--format", fmt],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
        )
        assert time.perf_counter() - started < 10
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
    @pytest.mark.parametrize("command", [["dim"], ["edim"], ["verify", "--landmarks", "0"]],
                             ids=["dim", "edim", "verify"])
    def test_non_ascii_file_is_usage_error(self, capsys, tmp_path, command, fmt):
        path = tmp_path / "binary.g6"
        path.write_bytes(b"\xff\xfe\n")
        code, out, err = run(capsys, [command[0], str(path), *command[1:], "--format", fmt])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read graph input: ")
        assert len(err.splitlines()) == 1

    def test_malformed_graph6(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("\x7f\x7f\n")
        code, _, err = run(capsys, ["dim", str(path)])
        assert code == 2

    def test_oversized_sweep(self, capsys):
        code, _, err = run(capsys, ["check", "tuple-lemma", "--max-n", "12"])
        assert code == 3
        assert "enumeration" in err or "sweep" in err
