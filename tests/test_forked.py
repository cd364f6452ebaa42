"""``with cli._forked(child): <the parent's part>``: ``child`` runs in a
forked child while this process runs the block, the parent's part, or,
where no child could be started or it exited nonzero, in this process
after the block.  The child is reaped when the block ends, however it
ends (the autouse ``no_unreaped_child`` fixture checks that after every
test)."""

import mmap
import os
import signal

import pytest

from vortigen import cli


class Log:
    """``part(name, fail)`` returns a callable that records ``name`` with
    the pid that ran it: in a shared map when it ran in a forked child,
    which the parent cannot see otherwise; then it raises ``ValueError``
    if ``fail`` says so for that pid."""

    def __init__(self):
        self.pid, self.here = os.getpid(), []
        self.shared = mmap.mmap(-1, 64)

    def part(self, name, fail=lambda forked: False):
        def run():
            forked = os.getpid() != self.pid
            if forked:
                self.shared.write(name.encode() + b"\n")
            else:
                self.here.append(name)
            if fail(forked):
                raise ValueError(f"{name} failed")
            return name
        return run

    @property
    def forked(self):
        return self.shared[:].rstrip(b"\0").decode().split()


def test_result_is_the_parents_alone():
    log = Log()
    with cli._forked(log.part("child")) as entered:
        result = log.part("parent")()
    assert entered is None and result == "parent"
    assert log.forked == ["child"] and log.here == ["parent"]


def test_child_exiting_1_is_redone_after_the_parent():
    log = Log()
    with cli._forked(log.part("child", fail=lambda forked: forked)):
        log.part("parent")()
    assert log.forked == ["child"] and log.here == ["parent", "child"]


def test_child_killed_by_a_signal_is_redone():
    log = Log()
    redo = log.part("child")

    def child():
        if os.getpid() != log.pid:
            os.kill(os.getpid(), signal.SIGKILL)
        redo()
    with cli._forked(child):
        log.part("parent")()
    assert log.forked == [] and log.here == ["parent", "child"]


def test_failed_redo_propagates():
    log = Log()
    child = log.part("child", fail=lambda forked: True)
    with pytest.raises(ValueError, match="child failed"):
        with cli._forked(child):
            log.part("parent")()
    assert log.forked == ["child"] and log.here == ["parent", "child"]


def test_no_child_runs_both_parts_here(no_child):
    log = Log()
    with cli._forked(log.part("child")):
        log.part("parent")()
    assert log.forked == [] and log.here == ["parent", "child"]


@pytest.mark.parametrize("child_fails", [False, True])
def test_parent_raising_skips_the_redo(child_fails):
    log = Log()
    child = log.part("child", fail=lambda forked: child_fails)
    parent = log.part("parent", fail=lambda forked: True)
    with pytest.raises(ValueError, match="parent failed"):
        with cli._forked(child):
            parent()
    assert log.forked == ["child"] and log.here == ["parent"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parent_raising_without_a_child(no_child):
    log = Log()
    parent = log.part("parent", fail=lambda forked: True)
    with pytest.raises(ValueError, match="parent failed"):
        with cli._forked(log.part("child")):
            parent()
    assert log.here == ["parent"]
