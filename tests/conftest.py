import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, running or not:
    the net.csv writer and the CSV reader fork one child per call through
    ``cli._forked``, which must always wait for it, also when the caller's
    half or the child fails."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left an unreaped child process (pid {pid}, "
                "0 if still running)")
