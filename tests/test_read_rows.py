"""Subset test of the CSV row reader.

``cli._read_rows`` parses a body with one ``np.loadtxt`` call.
``oracle_read_rows`` below is the ``csv.reader`` + ``float()`` reader it
replaced, kept as the reference for what a row means.  The reader accepts
less than the oracle did: quoted fields, ``1_0`` and non-ASCII digits are
refused.  On generated CSV text, whatever the reader accepts the oracle
accepts with a bitwise-equal array, whatever the oracle refuses the reader
refuses with the same exception type (or with a ``ParseError`` for a token
only the oracle reads, where the oracle went on to refuse ``rho`` or ``p``
as not positive), bodies of plain float literals are accepted, every
refusal names the file line, and the reader emits no warning.
"""

import csv
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortigen import cli
from vortigen.errors import NonPhysicalState, ParseError


def oracle_read_rows(path, expected):
    """The ``csv.reader`` + ``float()`` reader, unchanged."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != list(expected):
                raise ParseError(
                    f"{path}: header must be exactly {','.join(expected)}")
            data = []
            blank = []  # number of data rows read before each blank line
            for ln, row in enumerate(reader, start=2):
                if not row:
                    blank.append(len(data))
                    continue
                if len(row) != len(expected):
                    raise ParseError(f"{path}:{ln}: expected "
                                     f"{len(expected)} fields, got {len(row)}")
                try:
                    data.append([float(v) for v in row])
                except ValueError as exc:
                    raise ParseError(f"{path}:{ln}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    arr = np.array(data, dtype=float).reshape(len(data), len(expected))
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        i, j = bad[0]
        ln = i + 2 + sum(b <= i for b in blank)
        raise ParseError(f"{path}:{ln}: column {expected[j]} is not finite "
                         f"({arr[i, j]})")
    if any(np.any(arr[:, j] <= 0.0) for j, name in enumerate(expected)
           if name in ("rho", "p")):
        raise NonPhysicalState(f"{path}: rho and p must be positive")
    return arr


def outcome(reader, path, expected):
    """("ok", shape, bytes) or ("error", type, message)."""
    try:
        arr = reader(path, expected)
    except Exception as exc:  # compared, by type, to the oracle
        return ("error", type(exc).__name__, str(exc))
    return ("ok", arr.shape, arr.tobytes())


# values whose text both parsers read the same way
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-307),  # subnormals and near them
    st.sampled_from([1e300, -1e300, 1e-300, 5e-324, -0.0, 0.1]),
)
formatted = st.builds(lambda v, fmt: fmt(v), finite, st.sampled_from([
    repr, lambda v: "%.17g" % v, lambda v: "%.3e" % v, lambda v: "%g" % v,
    lambda v: f" {v!r}  ", lambda v: f"+{abs(v)!r}"]))
# syntax only float() accepts, non-finite values, and tokens both refuse
odd = st.sampled_from([
    '"1"', '"2.5"', "1_0", "1_000.5", "١", "２", "nan", "NaN",
    "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
    "0.1000000000000000055511151231257827", "", " ", "abc", "0x10", "1d5",
    "#1", "1 2", "1e", ".", "−1", "'1'", "1,5", "\t1", "1\xa0", "\x0c2",
    "3\x00", "\ufeff1", "1" * 400])
cell = st.one_of(formatted, formatted, formatted, odd)
terminators = st.sampled_from(["\n", "\n", "\r\n", "\r"])
headers = st.sampled_from([("a", "b"), ("x", "rho", "u", "p"),
                           ("x", "y", "fx", "fy")])


def join_lines(draw, expected, lines):
    """The header of ``expected`` and ``lines`` with drawn line ends, the
    last one sometimes left off."""
    header = (" , " if draw(st.booleans()) else ",").join(expected)
    ends = [draw(terminators) for _ in range(len(lines) + 1)]
    text = "".join(ln + end for ln, end in zip([header] + lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@st.composite
def csv_text(draw):
    """Header, data rows, blank, whitespace-only and ``#`` lines, mixed
    line ends."""
    expected = draw(headers)
    ncols = len(expected)
    uniform = draw(st.sampled_from([ncols, ncols, ncols, ncols - 1,
                                    ncols + 1]))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces",
                                                   "comment", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        elif kind == "comment":
            lines.append("# note")
        else:
            n = (draw(st.integers(1, ncols + 2)) if kind == "ragged"
                 else uniform)
            lines.append(",".join(draw(cell) for _ in range(n)))
    return expected, join_lines(draw, expected, lines)


# what the program's own writers and every test scenario write; magnitudes
# up to 1e300 keep "%.3e" from rounding past the largest float
plain_value = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=0.0, max_value=1e-307),
    st.sampled_from([5e-324, -0.0, 0.1]))
positive_value = st.floats(min_value=5e-324, max_value=1e300)
plain_format = st.sampled_from([repr, lambda v: "%.17g" % v,
                                lambda v: "%g" % v, lambda v: "%.3e" % v])


@st.composite
def plain_text(draw):
    """Rows of plain float literals, positive under ``rho`` and ``p``, and
    blank lines, mixed line ends."""
    expected = draw(headers)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        fmt = draw(plain_format)
        lines.append(",".join(
            fmt(draw(positive_value if name in ("rho", "p") else plain_value))
            for name in expected))
    return expected, join_lines(draw, expected, lines)


def check_against_oracle(expected, text, plain=False):
    """The reader's outcome on ``text`` and the file it read, checked
    against the oracle's outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(oracle_read_rows, path, expected)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(cli._read_rows, path, expected)
    assert caught == [], [str(w.message) for w in caught]
    if got[0] == "ok":
        assert got == want, (text, want[:2])
    if want[0] == "error":
        # the one other type: a token only float() reads is refused before
        # the oracle's positivity check could refuse the file
        narrowed = (want[1] == "NonPhysicalState" and got[1] == "ParseError"
                    and "could not convert string" in got[2])
        assert got[0] == "error" and (got[1] == want[1] or narrowed), (
            text, got, want)
    if plain:
        assert got[0] == "ok", (text, got)
    if got[0] == "error":  # every refusal names the file line
        assert re.match(re.escape(f"{path}:") + r"\d+: ", got[2]), got
    return got, path


@settings(max_examples=600, deadline=None, database=None)
@given(case=st.one_of(csv_text().map(lambda c: (*c, False)),
                      plain_text().map(lambda c: (*c, True))))
def test_reader_is_a_subset_of_the_oracle(case):
    check_against_oracle(*case)


CONVERT = ":{}: column {}: could not convert string {} to float64"
SHORT = ":{}: expected 2 fields, got 1"


# the message, after the file name, of each refused body; the line is the
# file's, counted from the header as line 1
@pytest.mark.parametrize("body, message", [
    ("", None),                                 # header only: no rows
    ("1,2,3\n4,5,6\n", ":2: expected 2 fields, got 3"),
    ("1,2,3\n4,5\n", ":2: expected 2 fields, got 3"),
    ('"1",2\n3,4\n', CONVERT.format(2, "a", "'\"1\"'")),  # quoted field
    ("1_0,2\n", CONVERT.format(2, "a", "'1_0'")),  # digit separator
    ("١,2\n", CONVERT.format(2, "a", "'١'")),     # non-ASCII digit
    ("1,2\n\n\n3,١\n", CONVERT.format(5, "b", "'١'")),  # after blank lines
    ("1,2\r\n\r\n3,4\r\n", None),               # CRLF and a blank line
    ("1,2\r3,4", None),                         # lone CR, no final newline
    ("1,2\n\n1e400,2\n", ":4: column a is not finite (inf)"),
    ("nan,1\n", ":2: column a is not finite (nan)"),
    ("5e-324,0.1000000000000000055511151231257827\n", None),
    ("1,2\n  \n3,4\n", SHORT.format(3)),         # whitespace-only line
    ("1,2\n3\n", SHORT.format(3)),              # ragged
    ("1,2\n\n3\n", SHORT.format(4)),            # ragged after a blank line
    ("1,2\n# note\n", SHORT.format(3)),          # no comment syntax
    ("-4.7e16\n  \n1_0\n", SHORT.format(2)),   # short first row, bad later
])
def test_reader_cases(body, message):
    got, path = check_against_oracle(("a", "b"), "a,b\n" + body)
    if message is None:
        assert got[0] == "ok"
    else:
        assert got == ("error", "ParseError", f"{path}{message}")
