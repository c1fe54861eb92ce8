import pytest
from hypothesis import HealthCheck, settings

from metricdim import graph_core

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# verdict lines appended by the acceptance tests, echoed after the run so
# they stay visible even though passing tests have their stdout captured
ACCEPTANCE_LINES: list[str] = []


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def bfs_calls(monkeypatch):
    """The graphs ``graph_core.bfs_all_pairs`` is called on, in call order."""
    calls = []
    real = graph_core.bfs_all_pairs

    def counted(G):
        calls.append(G)
        return real(G)

    monkeypatch.setattr(graph_core, "bfs_all_pairs", counted)
    return calls
