import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from suptest import supervisor
from suptest.harness import SutAdapter

from helpers import child_pids


@pytest.fixture(autouse=True)
def no_leaked_sut(request):
    """Fail a test that leaves a SUT running: a child process running or
    unreaped, or a thread still running.  A SUT held by a fixture that
    outlives the test, whose function-scoped fixtures are torn down by now,
    is that fixture's to stop."""
    before, threads = child_pids(), set(threading.enumerate())
    yield
    held = {value.process.pid for value in request.node.funcargs.values()
            if isinstance(value, SutAdapter) and value.process is not None}
    leaked = child_pids() - before - held
    if leaked:
        pytest.fail(f"test left child processes {sorted(leaked)} running or unreaped")
    running = set(threading.enumerate()) - threads
    if running:
        pytest.fail(f"test left threads {sorted(t.name for t in running)} running")


@pytest.fixture
def m0():
    from helpers import m0 as make
    return make()


@pytest.fixture(scope="session")
def welding_cell_path():
    from importlib.resources import files
    return str(files("suptest").joinpath("data/welding-cell.cb"))


@pytest.fixture(scope="session")
def welding_cell(welding_cell_path):
    return supervisor.load_behavior(welding_cell_path)


def pytest_terminal_summary(terminalreporter):
    lines = getattr(sys.modules.get("test_acceptance"), "RECORDED_LINES", None)
    if lines:
        terminalreporter.section("qualification record")
        for line in lines:
            terminalreporter.write_line(line)
