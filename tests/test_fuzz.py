"""Property-based fuzzing of the graph parsers and the command line.

Every parser input ends in a Graph or a GraphError, and every command line
built from the real subcommands ends in an exit code of the contract (0-4)
with no exception escaping ``cli.main``.  Sizes stay small: at most 9
vertices, sweeps to n = 5, and bounds tables of a few thousand cheap rows.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricdim.cli import CONSTRUCT_FAMILIES, main
from metricdim.enumerator import THEOREM_CHECKS
from metricdim.graph_core import Graph, GraphError, graph6_decode, parse_edge_list_text

SMALL = st.integers(-2, 9)
GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def graph6_shaped(draw):
    """A header for 0..9 vertices and a payload of the right length."""
    n = draw(st.integers(0, 9))
    need = (n * (n - 1) // 2 + 5) // 6
    return chr(63 + n) + draw(st.text(GRAPH6_CHARS, min_size=need, max_size=need))


@st.composite
def edge_list_shaped(draw):
    """An "n m" header and edge lines of small, possibly invalid, integers."""
    n = draw(SMALL)
    edges = draw(st.lists(st.tuples(SMALL, SMALL), max_size=12))
    m = draw(st.one_of(st.just(len(edges)), SMALL))
    body = "".join(f"{u} {v}\n" for u, v in edges)
    return f"{n} {m}\n{body}" + draw(st.sampled_from(["", "\n", " x\n"]))


GRAPH_TEXT = st.one_of(
    graph6_shaped(),
    edge_list_shaped(),
    st.text(GRAPH6_CHARS, max_size=24),
    st.text(max_size=40),
)


def _parses_or_graph_error(parse, text):
    try:
        graph = parse(text)
    except GraphError:
        return
    assert isinstance(graph, Graph)


@given(GRAPH_TEXT)
def test_graph6_decode_gives_graph_or_graph_error(text):
    _parses_or_graph_error(graph6_decode, text)


@given(GRAPH_TEXT)
def test_parse_edge_list_text_gives_graph_or_graph_error(text):
    _parses_or_graph_error(parse_edge_list_text, text)


GLOBAL_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--output"), st.sampled_from(["json", "csv", "table", "xml"])),
        st.tuples(st.just("--budget"), st.integers(-3, 5000).map(str)),
    ),
    max_size=3,
).map(lambda pairs: [word for pair in pairs for word in pair])


@st.composite
def graph_command(draw, source):
    """dim, edim or verify on ``source`` (a path, or - for stdin)."""
    name = draw(st.sampled_from(["dim", "edim", "verify"]))
    argv = [name, source] + draw(st.sampled_from([[], ["--format", "graph6"], ["--format", "edgelist"]]))
    if name == "verify":
        argv += ["--landmarks", draw(st.text("0123456789,-x ", max_size=8))]
        argv += draw(st.sampled_from([[], ["--edges"]]))
    return argv


# LO..HI with at most 81 values from -2..350: past both table limits, yet
# cheap to evaluate in full
RANGE = st.one_of(
    st.integers(-2, 350).map(str),
    st.tuples(st.integers(-2, 270), st.integers(-1, 80)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.sampled_from(["x", "..", "3..", "..3", "1..2..3"]),
)
CHECK = st.sampled_from([[], ["--check"]])
OTHER_COMMAND = st.one_of(
    st.builds(lambda family, k, check: ["construct", family, "--k", k] + check,
              st.sampled_from(sorted(CONSTRUCT_FAMILIES)), SMALL.map(str), CHECK),
    st.builds(lambda dims, check: ["construct", "grid", "--dims", dims] + check,
              st.text("0123456789,", max_size=6), CHECK),
    st.builds(lambda theorem_id, n: ["check", theorem_id, "--max-n", str(n)],
              st.sampled_from(sorted(THEOREM_CHECKS) + ["no-such-id"]), st.integers(2, 5)),
    st.builds(lambda k, d: ["bounds", "--k", k, "--d", d], RANGE, RANGE),
)


def _exit_code(argv, stdin):
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = saved


STDIN = st.one_of(
    GRAPH_TEXT.map(io.StringIO),
    # bytes as a real stdin delivers them, decoded on read
    st.binary(max_size=40).map(lambda raw: io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")),
)


@settings(max_examples=100)
@given(GLOBAL_OPTIONS, graph_command("-"), STDIN)
def test_cli_on_stdin_ends_in_a_contract_exit_code(options, command, stdin):
    assert _exit_code(options + command, stdin) in range(5)


@settings(max_examples=100)
@given(GLOBAL_OPTIONS, OTHER_COMMAND)
def test_cli_construct_check_bounds_end_in_a_contract_exit_code(options, command):
    assert _exit_code(options + command, io.StringIO("")) in range(5)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


@settings(max_examples=100)
@given(data=st.data(), content=st.one_of(st.binary(max_size=40), GRAPH_TEXT.map(str.encode)))
def test_cli_on_a_file_of_any_bytes_ends_in_a_contract_exit_code(graph_file, data, content):
    graph_file.write_bytes(content)
    options = data.draw(GLOBAL_OPTIONS)
    command = data.draw(graph_command(str(graph_file)))
    assert _exit_code(options + command, io.StringIO("")) in range(5)
