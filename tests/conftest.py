import errno
import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, running or not:
    the net.csv writer and the CSV reader fork one child per call through
    ``cli._forked``, which must always wait for it, also when the caller's
    part or the child fails.  The writer's child is forked before the net
    advances and formats levels until the run's end message; the run
    waits for it after formatting the levels the child has not reached.
    Whatever the child could not do, the run does after its own part;
    where no child can be started (see ``no_child``), that is the whole
    child's part, and there is none to reap."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left an unreaped child process (pid {pid}, "
                "0 if still running)")


@pytest.fixture(params=["raises", "absent"])
def no_child(request, monkeypatch):
    """No child process can be started: ``os.fork`` raises EAGAIN, as at
    the process limit, or is absent, as on a platform without it."""
    if request.param == "absent":
        monkeypatch.delattr(os, "fork")
    else:
        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        monkeypatch.setattr(os, "fork", fork)
