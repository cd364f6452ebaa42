import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, running or not:
    the net.csv writer forks one child per call and must always wait for
    it."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left an unreaped child process (pid {pid}, "
                "0 if still running)")
