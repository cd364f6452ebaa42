"""Differential test of the CSV row reader.

``cli._read_rows`` parses a body with ``np.loadtxt`` and falls back to a
``csv.reader`` loop for anything ``loadtxt`` refuses.  ``oracle_read_rows``
below is the reader as it was before the fast path, kept as the reference:
on generated CSV text the two must accept and refuse the same files, give
bitwise-equal arrays and raise the same exception with the same message,
and the reader must emit no warning.
"""

import csv
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
    except Exception as exc:  # compared, type and message, to the oracle
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


@st.composite
def csv_text(draw):
    """Header, data rows, blank, whitespace-only and ``#`` lines, mixed
    line ends."""
    expected = draw(st.sampled_from([("a", "b"), ("x", "rho", "u", "p"),
                                     ("x", "y", "fx", "fy")]))
    header = ",".join(expected)
    if draw(st.booleans()):
        header = header.replace(",", " , ")
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
    ends = [draw(terminators) for _ in range(len(lines) + 1)]
    text = "".join(ln + end for ln, end in zip([header] + lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return expected, text


def assert_same_as_oracle(expected, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(oracle_read_rows, path, expected)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outcome(cli._read_rows, path, expected)
    assert got == want, (text, got[:2], want[:2])
    assert caught == [], [str(w.message) for w in caught]
    return got[0]


@settings(max_examples=500, deadline=None, database=None)
@given(case=csv_text())
def test_reader_agrees_with_oracle(case):
    assert_same_as_oracle(*case)


@pytest.mark.parametrize("body, accepted", [
    ("", True),                                 # header only: no rows
    ("1,2,3\n4,5,6\n", False),                  # uniform wrong column count
    ('"1",2\n3,4\n', True),                     # quoted field
    ("1_0,2\n", True),                          # underscore
    ("١,2\n", True),                            # non-ASCII digit
    ("1,2\r\n\r\n3,4\r\n", True),               # CRLF and a blank line
    ("1,2\r3,4", True),                         # lone CR, no final newline
    ("1e400,2\n", False),                       # overflows to inf
    ("nan,1\n", False),
    ("5e-324,0.1000000000000000055511151231257827\n", True),
    ("1,2\n  \n3,4\n", False),                  # whitespace-only line
    ("1,2\n3\n", False),                        # ragged
    ("1,2\n# note\n", False),                   # no comment syntax
])
def test_reader_cases(body, accepted):
    result = assert_same_as_oracle(("a", "b"), "a,b\n" + body)
    assert (result == "ok") == accepted
