"""The two-process body parse of ``cli._read_rows`` against its one-process
parse.

``_read_rows`` parses a body's earlier lines in this process and the rest
in a forked child (``cli._read_body``); where the child fails, this
process parses the rest itself.  It parses the whole body again in one
process when the body does not split, either half is refused or a half's
row count is not its line count.  Each case here
compares the reader with that one-process parse, which
``tests/test_read_rows.py`` checks against the ``csv`` oracle: the table
bitwise, or the exception type and message byte for byte, and no warning.
Bodies shorter than ``cli._SPLIT_ROWS`` lines are parsed in one process;
here that count is lowered to 2, so that short bodies split.
"""

import ast
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_read_rows import check_against_oracle, csv_text, plain_text
from vortigen import cli

COLUMNS = ("x", "rho", "u", "p")
HEADER = ",".join(COLUMNS)
ROWS = ["0.5,1.25,-3,2", "1.5,1.5,0,2.5", "2.5,0.75,1e-3,1",
        "3.5,2,7,3.25", "4.5,1,-0.5,1.5", "5.5,0.5,2,4"]
SPLIT_ROWS = cli._SPLIT_ROWS


@pytest.fixture(autouse=True)
def split_short_bodies(monkeypatch):
    monkeypatch.setattr(cli, "_SPLIT_ROWS", 2)


def outcome(path):
    """("ok", shape, bytes) or ("error", type, message)."""
    try:
        arr = cli._read_rows(path, COLUMNS)
    except Exception as exc:  # compared, by type and text, to one process
        return ("error", type(exc).__name__, str(exc))
    return ("ok", arr.shape, arr.tobytes())


def check(tmp_path, monkeypatch, text, forks):
    """The reader's outcome on ``text``, which must equal the one-process
    outcome, emit no warning and fork ``forks`` times."""
    path = tmp_path / "rows.csv"
    path.write_bytes(text.encode())
    forked, real = [], cli._forked
    with monkeypatch.context() as m:
        m.setattr(cli, "_forked", lambda *a: forked.append(a) or real(*a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(path)
    assert caught == [], [str(w.message) for w in caught]
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_body", lambda path, n: None)
        assert got == outcome(path)
    assert len(forked) == forks
    return got


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
@pytest.mark.parametrize("final_newline", [True, False])
def test_short_bodies(tmp_path, monkeypatch, rows, final_newline):
    text = "\n".join([HEADER, *ROWS[:rows]]) + "\n" * final_newline
    got = check(tmp_path, monkeypatch, text, forks=int(rows >= 2))
    assert got[:2] == ("ok", (rows, 4))


@settings(max_examples=300, deadline=None, database=None)
@given(case=st.one_of(csv_text().map(lambda c: (*c, False)),
                      plain_text().map(lambda c: (*c, True))))
def test_split_reader_is_a_subset_of_the_oracle(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("rows", [SPLIT_ROWS - 1, SPLIT_ROWS])
def test_row_threshold(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(cli, "_SPLIT_ROWS", SPLIT_ROWS)
    text = "\n".join([HEADER, *["1,2,3,4"] * rows]) + "\n"
    got = check(tmp_path, monkeypatch, text, forks=int(rows == SPLIT_ROWS))
    assert got[:2] == ("ok", (rows, 4))


def test_split_at_the_midpoint(tmp_path):
    # the tail starts with the first line that starts at or after the
    # body's midpoint: ROWS[3] for the ROWS body
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([HEADER, *ROWS]) + "\n")
    assert cli._split_body(path) == (3, 3)
    path.write_text("\n".join([HEADER, *["1,2,3,4"] * 7]))
    assert cli._split_body(path) == (4, 3)  # 55 bytes: line 4 starts at 32


def test_crlf(tmp_path, monkeypatch):
    got = check(tmp_path, monkeypatch, "\r\n".join([HEADER, *ROWS]) + "\r\n",
                forks=0)
    assert got[:2] == ("ok", (6, 4))


@pytest.mark.parametrize("at", range(len(ROWS) + 1))
@pytest.mark.parametrize("line, forks", [("", 0), ("  ", 1), ("\t", 1)])
def test_blank_and_whitespace_lines(tmp_path, monkeypatch, at, line, forks):
    # a blank line is skipped (the body is parsed in one process, since
    # max_rows skips blank lines); a whitespace-only line is a row of one
    # field, refused with its file line
    rows = ROWS[:at] + [line] + ROWS[at:]
    got = check(tmp_path, monkeypatch, "\n".join([HEADER, *rows]) + "\n",
                forks)
    if line:
        assert got[:2] == ("error", "ParseError")
        assert got[2].endswith("expected 4 fields, got 1")
    else:
        assert got[:2] == ("ok", (6, 4))


@pytest.mark.parametrize("at", range(len(ROWS)))
@pytest.mark.parametrize("column, value, kind", [
    (0, "1_0", "ParseError"),          # bad literal
    (2, "0x10", "ParseError"),
    (1, "1,2", "ParseError"),          # a field too many
    (3, None, "ParseError"),           # a field too few
    (2, "nan", "ParseError"),          # not finite
    (0, "1e400", "ParseError"),
    (1, "0", "NonPhysicalState"),      # rho not positive
    (3, "-2.5", "NonPhysicalState"),   # p not positive
])
def test_refusal_in_either_half(tmp_path, monkeypatch, at, column, value,
                                kind):
    # every line is tried, so the defect sits in the head, in the tail
    # and on the split line
    fields = ROWS[at].split(",")
    if value is None:
        del fields[column]
    else:
        fields[column] = value
    rows = ROWS[:at] + [",".join(fields)] + ROWS[at + 1:]
    got = check(tmp_path, monkeypatch, "\n".join([HEADER, *rows]) + "\n",
                forks=1)
    assert got[:2] == ("error", kind)
    assert got[2].startswith(f"{tmp_path / 'rows.csv'}:{at + 2}: ")


@pytest.mark.parametrize("blank", [True, False])
def test_blank_line_on_a_chunk_boundary(tmp_path, monkeypatch, blank):
    # the newline count reads 64 KiB at a time: a blank line that starts a
    # chunk still keeps the body in one process
    rows = ["1,2,3,4"] * (1 << 13)  # 8 bytes each: the first chunk exactly
    text = "\n".join([HEADER, *rows, *[""] * blank, *rows[:1000]]) + "\n"
    got = check(tmp_path, monkeypatch, text, forks=int(not blank))
    assert got[:2] == ("ok", ((1 << 13) + 1000, 4))


def loadtxt_calls_with_failing_child(monkeypatch):
    """The keyword arguments of each ``np.loadtxt`` call in this process,
    appended as they come; a forked child that calls it exits 1."""
    parent_pid, loadtxt, calls = os.getpid(), np.loadtxt, []

    def child_exits_1(*args, **kwargs):
        if os.getpid() != parent_pid:
            os._exit(1)
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", child_exits_1)
    return calls


@pytest.mark.parametrize("body", ["\n".join(ROWS) + "\n",
                                  "\n".join(ROWS[:4] + ["1,nan,2,3"])])
def test_failed_child_is_reparsed(tmp_path, monkeypatch, body):
    path = tmp_path / "rows.csv"
    path.write_text(HEADER + "\n" + body)
    want = outcome(path)
    calls = loadtxt_calls_with_failing_child(monkeypatch)
    assert outcome(path) == want
    # this process parsed its half, then the child's
    assert [(c["skiprows"], c.get("max_rows")) for c in calls] == \
        [(1, 3), (4, None)]


def test_failed_child_with_a_refused_half(tmp_path, monkeypatch):
    # the child's half is refused here too: the whole body is parsed again,
    # so the refusal is the one-process parse's
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([HEADER, *ROWS[:4], "1,2,3", *ROWS[4:]]) + "\n")
    want = outcome(path)
    calls = loadtxt_calls_with_failing_child(monkeypatch)
    assert outcome(path) == want
    assert want[:2] == ("error", "ParseError")
    assert [(c["skiprows"], c.get("max_rows")) for c in calls] == \
        [(1, 4), (5, None), (1, None)]


def test_no_child_is_one_process(tmp_path, monkeypatch, no_child):
    # where no child can be started, the body is read as in one process
    text = "\n".join([HEADER, *ROWS]) + "\n"
    got = check(tmp_path, monkeypatch, text, forks=1)
    assert got[:2] == ("ok", (len(ROWS), 4))


def test_one_fork_path():
    # the net.csv writer and the CSV reader fork through one helper
    forks, helper = [], None
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "fork"
                    or isinstance(node, ast.ImportFrom)
                    and any(a.name == "fork" for a in node.names)):
                forks.append((path.name, node.lineno))
            if isinstance(node, ast.FunctionDef) and node.name == "_forked":
                helper = (path.name, node.lineno, node.end_lineno)
    assert len(forks) == 1 and helper is not None, forks
    assert forks[0][0] == helper[0] and helper[1] < forks[0][1] <= helper[2]
