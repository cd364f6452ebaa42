"""Scenario-driven command line: ingestion, pipelines, reports.

Subcommands
-----------
* ``solve-moc``: advance the characteristic net from 1-D initial data,
  write the net CSV, pseudostructure residuals and envelope report.
* ``diagnose``: full 2-D pipeline on a field CSV (plus optional snapshot
  manifest): trajectories, form coefficients, commutator, attribution,
  eddy-free criterion, regime and equilibrium classification.
* ``verify-jumps``: built-in synthesis sweep of one jump relation over a
  refinement ladder.
* ``detect-shock``: envelope prediction (analytic) and detection (net).
* ``report``: pretty-print a run report.

Every command but ``report`` reads one config (``_config``): ``diagnose``
its file, the others the one their flags make.  ``detect-shock`` advances
its net alone; the others run one pipeline, ``run_scenario``, which
returns the dict that ``run_report.json`` holds.  Every run command makes
its output directory before it reads its input.  Each stage writes its
own files, and each run prints its report, the text ``report`` prints.
The 1-D stage takes each level of the net as it is made, so its memory
grows with the node count, not with the net: a forked child formats the
level into ``net.csv``, and the run folds it into the residuals and, once
the net is done, formats the levels the child has not reached (the net
advances in the block of ``_net_csv``).  Work shared with a forked
child is a block, ``with _forked(child):``; what the child could not do,
the run does after the block.

All outputs are deterministic for identical inputs (floats are written
with 17 significant digits, no locale).  A run writes its files into one
hidden staging directory inside the output directory (``_staged_run``)
and renames them into place together once every stage has passed, so a
failed run writes nothing.  The environment variable ``VORTIGEN_OUT``
overrides every output directory.  Exit codes: 0 success, 2 validation
error, 3 numerical failure (including a failed jump check, a non-finite
result and an arithmetic fault such as a float overflow or a division by
zero) or a failed allocation.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import mmap
import os
import re
import select
import shutil
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import evoform, jumps, moc
from .errors import (
    GridInferenceError,
    MissingSnapshots,
    NonConvergence,
    NonFiniteResult,
    NonPhysicalState,
    ParseError,
    VortigenError,
)
from .evoform import (
    ATTRIBUTION_ORDER,
    A1Variant,
    CroccoSign,
    ForceKind,
    ForceModel,
    TransportModel,
)
from .exact import CenteredFan
from .fields import FieldSet, Snapshot, StructuredGrid2D, trace_streamlines
from .thermo import GasModel, PrimitiveState

__all__ = ["ScenarioConfig", "load_fields", "run_scenario", "main"]


@contextmanager
def _staged_run(output_dir):
    """The staging directory of a run writing into ``output_dir``
    (``VORTIGEN_OUT`` if set): a hidden directory inside it, made with the
    output directory and its missing parents.  When the block completes,
    every file staged there is renamed into place; if it raises, the stage
    and the directories made for it are removed, so a failed run writes
    nothing."""
    out = Path(os.environ.get("VORTIGEN_OUT", output_dir or "."))
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stage = None
    try:
        stage = Path(tempfile.mkdtemp(prefix=".vortigen-", dir=out))
        yield stage
        for path in stage.iterdir():
            os.replace(path, out / path.name)
        stage.rmdir()
    except BaseException:
        if stage is not None:
            shutil.rmtree(stage)
        for d in made:
            d.rmdir()
        raise


@contextmanager
def _forked(child: Callable[[], object]):
    """Run ``child`` in a forked process (POSIX ``os.fork``) while this one
    runs the block: ``with _forked(child): <this process's part>``.

    The child leaves only through ``os._exit``, 0 if ``child`` returned and
    1 if it raised, so it never runs the caller's cleanup, ``atexit`` or a
    flush of inherited buffers.  Where no child can be started (no
    ``os.fork``, or it raises ``OSError``) or the child exits nonzero, this
    process runs ``child`` after the block, and its exception propagates.
    The child is reaped when the block ends, however it ends; an exception
    from the block skips that redo."""
    try:
        pid = os.fork()
    except (AttributeError, OSError):
        pid = -1
    if not pid:
        code = 1
        try:
            child()
            code = 0
        finally:
            os._exit(code)
    try:
        yield
    finally:
        failed = pid < 0 or os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if failed:
        child()


def _write_json(path: Path, obj):
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult(f"{path}: result is not finite") from None
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None


# ---------------------------------------------------------------------------
# ingestion


def _read_rows(path, expected: Sequence[str]) -> np.ndarray:
    """Finite float rows of a CSV whose header is exactly ``expected``;
    ``rho`` and ``p`` columns must be positive.

    The body is parsed by ``np.loadtxt``: rows of plain float literals
    separated by commas, empty lines skipped.  Anything else, quoted
    fields, ``1_0`` and non-ASCII digits included, is a ``ParseError``
    naming the file and its line.  ``_read_body`` parses it in two
    processes; where it gives no table, one parse of the whole body does,
    so every refusal is that parse's.
    """
    n = len(expected)

    def refused(row, what, kind=ParseError):
        with open(path) as fh:  # loadtxt's rows: nonempty lines after line 1
            rows = [(ln, text) for ln, text in enumerate(fh, start=1)
                    if ln > 1 and text != "\n"]
        first = rows[0][1].count(",") + 1  # loadtxt's width for every row
        if first != n:  # so the first row is the first bad one
            row, what, kind = 0, f"expected {n} fields, got {first}", ParseError
        return kind(f"{path}:{rows[row][0]}: {what}")

    try:
        with open(path) as fh:
            header = fh.readline()
        if [h.strip() for h in header.split(",")] != list(expected):
            raise ParseError(
                f"{path}:1: header must be exactly {','.join(expected)}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            arr = _read_body(path, n)
            if arr is None:
                arr = np.loadtxt(path, delimiter=",", skiprows=1,
                                 comments=None, ndmin=2, dtype=float)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # conv counts rows from 0, cols from 1
        conv = re.match(r"(.*) at row (\d+), column (\d+)\.$", str(exc), re.S)
        cols = re.search(r"changed from (\d+) to (\d+) at row (\d+)", str(exc))
        if conv:
            j = int(conv[3]) - 1
            what = f"column {expected[j] if j < n else j + 1}: {conv[1]}"
            raise refused(int(conv[2]), what) from None
        if cols:
            raise refused(int(cols[3]) - 1,
                          f"expected {n} fields, got {cols[2]}") from None
        raise ParseError(f"{path}: {exc}") from None
    if not len(arr):
        return np.empty((0, n))
    if arr.shape[1] != n:
        raise refused(0, f"expected {n} fields, got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise refused(i, f"column {expected[j]} is not finite ({arr[i, j]})")
    positive = np.isin(expected, ("rho", "p"))
    if (arr[:, positive] <= 0.0).any():
        i, j = np.argwhere((arr <= 0.0) & positive)[0]
        raise refused(i, f"column {expected[j]} must be positive, got "
                      f"{arr[i, j]}", NonPhysicalState)
    return arr


# Bodies of fewer lines are parsed in one process: measured end to end on
# source-flow fields, forking lost up to 33k rows and tied at 66k
_SPLIT_ROWS = 1 << 16


def _split_body(path) -> Optional[Tuple[int, int]]:
    """Lines of the body of ``path`` before the first line that starts at
    or after the body's midpoint, and from it on, counted in chunks; None
    if either count is 0, if the body has fewer than ``_SPLIT_ROWS`` lines,
    or if the file has a carriage return or a blank body line, which a
    newline count does not see as ``np.loadtxt`` does (a lone CR ends a
    line, and ``max_rows`` skips blank lines)."""
    buf = bytearray(1 << 16)
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():
            return None
        pos = fh.tell()
        mid = pos + (os.fstat(fh.fileno()).st_size - pos) // 2
        lines, head, ended = 0, 0, True  # ended: a line ends at pos
        while size := fh.readinto(buf):
            lf = np.frombuffer(buf, np.uint8, size) == 10
            if (buf.find(b"\r", 0, size) >= 0 or (ended and lf[0])
                    or (lf[1:] & lf[:-1]).any()):
                return None
            if not head and pos + size >= mid:
                k = buf.find(b"\n", max(mid - 1 - pos, 0), size)
                if k >= 0:
                    head = lines + int(np.count_nonzero(lf[:k + 1]))
            lines += int(np.count_nonzero(lf))
            ended = bool(lf[-1])
            pos += size
    lines += not ended
    if lines < _SPLIT_ROWS or not 0 < head < lines:
        return None
    return head, lines - head


def _read_body(path, n: int) -> Optional[np.ndarray]:
    """The ``n``-column body of ``path`` parsed in two processes: a child
    forked by ``_forked`` parses the lines from ``_split_body``'s split on
    (``skiprows``) while this one parses those before it (``max_rows``) as
    the block; both write into one table in a shared anonymous map.  None
    if the body does not split, either half was refused or a half's row
    count is not its line count."""
    cut = _split_body(path)
    if cut is None:
        return None
    head, tail = cut
    table = np.frombuffer(mmap.mmap(-1, (head + tail) * n * 8))
    table = table.reshape(head + tail, n)

    def parse(part, **skip):
        arr = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                         dtype=float, **skip)
        if arr.shape != table[part].shape:
            raise ValueError("a half's row count is not its line count")
        table[part] = arr

    try:
        with _forked(lambda: parse(slice(head, None), skiprows=1 + head)):
            parse(slice(head), skiprows=1, max_rows=head)
    except (OSError, ValueError):
        return None
    return table


def _node_tol(nodes, h) -> float:
    """How far two coordinates on an axis of spacing ``h`` may differ:
    relative to the coordinates, but never a sizeable part of a step."""
    return min(1e-9 * max(abs(nodes[0]), abs(nodes[-1]), h), 1e-3 * h)


def _read_grid_csv(path, columns: Sequence[str],
                   like: Optional[StructuredGrid2D] = None):
    """Scattered (x, y, values...) rows -> uniform grid + node arrays; when
    ``like`` is given, the grid must have its node counts, and its node
    coordinates must agree with ``like``'s to ``_node_tol``."""
    arr = _read_rows(path, ["x", "y", *columns])
    if not len(arr):
        raise ParseError(f"{path}: no data rows")

    def axis(vals):
        uniq = np.unique(vals)
        if len(uniq) < 3:
            raise GridInferenceError(f"{path}: need >= 3 distinct coordinates")
        steps = np.diff(uniq)
        h = steps[0]
        if np.any(np.abs(steps - h) > _node_tol(uniq, h)):
            raise GridInferenceError(f"{path}: irregular spacing")
        return uniq, h

    xs, hx = axis(arr[:, 0])
    ys, hy = axis(arr[:, 1])
    if len(arr) != len(xs) * len(ys):
        raise GridInferenceError(
            f"{path}: {len(arr)} rows do not fill a {len(xs)}x{len(ys)} grid")
    grid = StructuredGrid2D(nx=len(xs), ny=len(ys), x0=float(xs[0]),
                            y0=float(ys[0]), hx=float(hx), hy=float(hy))
    if like is not None and not (
            grid.shape == like.shape
            and np.all(np.abs(grid.x - like.x) <= _node_tol(like.x, like.hx))
            and np.all(np.abs(grid.y - like.y) <= _node_tol(like.y, like.hy))):
        raise ParseError(f"{path}: grid differs from the field grid")
    ix = np.rint((arr[:, 0] - grid.x0) / grid.hx).astype(int)
    iy = np.rint((arr[:, 1] - grid.y0) / grid.hy).astype(int)
    flat = iy * grid.nx + ix
    seen = np.zeros(grid.nx * grid.ny, dtype=bool)
    seen[flat[(ix < grid.nx) & (iy < grid.ny)]] = True
    if not seen.all():  # len(arr) rows fill every node only if distinct
        raise GridInferenceError(f"{path}: duplicate or missing grid nodes")
    fields = {}
    for k, name in enumerate(columns):
        f = np.empty(grid.nx * grid.ny)
        f[flat] = arr[:, 2 + k]
        fields[name] = f.reshape(grid.shape)
    return grid, fields


def load_fields(path, manifest: Optional[str] = None) -> FieldSet:
    """Load a ``x,y,rho,u,v,p`` node CSV, optionally with a snapshot manifest.

    The manifest is JSON ``{"snapshots": [{"t": ..., "path": ...}, ...]}``
    with finite, strictly increasing times; snapshot paths are relative to
    the manifest's directory and must share the main file's grid.
    """
    grid, f = _read_grid_csv(path, ("rho", "u", "v", "p"))
    snapshots = None
    if manifest is not None:
        spec = _read_json(manifest, "manifest")
        entries = spec.get("snapshots") if isinstance(spec, dict) else None
        if not isinstance(entries, list) or not entries:
            raise ParseError(f"{manifest}: needs a nonempty 'snapshots' list")
        base = Path(manifest).parent
        snapshots = []
        for k, ent in enumerate(entries):
            try:
                t = ent["t"]
                sub = base / ent["path"]
            except (KeyError, TypeError) as exc:
                raise ParseError(f"{manifest}: bad snapshot entry: {exc}") from None
            if not _finite(t):
                raise ParseError(f"{manifest}: snapshots[{k}].t must be a "
                                 f"finite number, got {json.dumps(t)}")
            t = float(t)
            if snapshots and not t > snapshots[-1].t:
                raise ParseError(f"{manifest}: snapshot times must increase")
            _, sf = _read_grid_csv(sub, ("rho", "u", "v", "p"), grid)
            snapshots.append(Snapshot(t=t, rho=sf["rho"], u=sf["u"],
                                      v=sf["v"], p=sf["p"]))
        times = [snap.t for snap in snapshots]
        if not _spacing_ok(times):
            raise ParseError(f"{manifest}: snapshot times {times} too close or "
                             "too far apart (a gap, or a product of two, is "
                             "subnormal, 0 or not finite)")
    return FieldSet(grid, rho=f["rho"], u=f["u"], v=f["v"], p=f["p"],
                    snapshots=snapshots)


def load_initial_1d(path):
    """1-D initial data CSV with header ``x,rho,u,p``."""
    arr = _read_rows(path, ["x", "rho", "u", "p"])
    if len(arr) < 3:
        raise ParseError(f"{path}: need at least 3 samples")
    x = arr[:, 0]
    if np.any(x[1:] <= x[:-1]):  # np.diff would overflow on wide gaps
        raise ParseError(f"{path}: x samples must be strictly increasing")
    if not _spacing_ok(x):
        raise ParseError(f"{path}: x spacings too small or too far apart "
                         "(a product of two is subnormal, 0 or not finite)")
    return x, arr[:, 1], arr[:, 2], arr[:, 3]


def _spacing_ok(x) -> bool:
    """Whether stencils on the increasing points ``x``, which divide by
    products of two distances, keep their digits: each product of adjacent
    gaps and the span squared (the gap of two points) is normal and finite."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        dx = np.diff(x)
        d = dx if len(x) < 3 else np.append(dx[:-1] * dx[1:], (x[-1] - x[0]) ** 2)
    return bool(np.all((d >= np.finfo(float).tiny) & (d < np.inf)))


# ---------------------------------------------------------------------------
# scenario configuration


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number (not a bool)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _seed_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(seed, list) and len(seed) == 2 and all(map(_finite, seed))
        for seed in value)


class Kind(NamedTuple):
    """What a config value must be: ``what`` as the error message says it,
    ``test`` on the JSON value, ``convert`` to the value a run uses (as
    given by default), and ``text`` from a flag's text (argparse's type)."""

    what: str
    test: Callable[[object], bool]
    convert: Callable = lambda value: value
    text: Callable = str


def _one_of(options) -> Kind:
    """One of the strings ``options``, or of the values of the enum class
    ``options``, each of which converts to its member."""
    members = {getattr(o, "value", o): o for o in options}
    return Kind("one of " + ", ".join(members),
                lambda value: isinstance(value, str) and value in members,
                members.get)


def _above(bound, convert=lambda value: value) -> Kind:
    """A finite number greater than ``bound``."""
    return Kind(f"finite and > {bound}", lambda v: _finite(v) and v > bound,
                convert, float)


_FINITE = Kind("a finite number", _finite, float, float)
_POSITIVE = _above(0)
_INDEX = Kind("an integer >= 0", lambda v: type(v) is int and v >= 0, text=int)
_COUNT = Kind("an integer >= 1", lambda v: type(v) is int and v >= 1, text=int)
_PATH = Kind("a path string", lambda value: isinstance(value, str))
_REQUIRED = object()  # the default of a key that must be given


class Key(NamedTuple):
    """An entry of ``CONFIG_KEYS``: what the value must be, its default
    when absent or null, and the command-line flag that sets it, if any."""

    kind: Kind
    default: object = None
    flag: Optional[str] = None

    def read(self, name: str, value):
        if value is None and self.default is not _REQUIRED:
            return self.default
        if not self.kind.test(value):
            raise ParseError(f"{name} must be {self.kind.what}, got {value!r}")
        return self.kind.convert(value)


# Every key a scenario config may hold, by dotted name (section.key).
# Paths resolve against the config's directory; all but output_dir must
# exist.
CONFIG_KEYS = {
    "scenario_id": Key(Kind("a string", lambda v: isinstance(v, str))),
    "gas.gamma": Key(_above(1, float), 1.4, "--gamma"),
    "gas.R": Key(_above(0, float), 287.05, "--R"),
    "forces.kind": Key(_one_of(ForceKind), ForceKind.NONE),
    "forces.path": Key(_PATH),
    "transport.mu": Key(_FINITE, 0.0),
    "transport.k": Key(_FINITE, 0.0),
    "crocco_sign": Key(_one_of(CroccoSign), CroccoSign.CONSISTENT),
    "a1_variant": Key(_one_of(A1Variant), A1Variant.PAPER_LITERAL),
    # null: ten times the truncation estimate of the field
    "tolerances.equilibrium": Key(_POSITIVE),
    "tolerances.jump_rel_error": Key(_POSITIVE, 1e-2, "--tol"),
    "tolerances.corrector": Key(_POSITIVE, 1e-12),
    "fields": Key(_PATH, None, "--fields"),
    "manifest": Key(_PATH, None, "--manifest"),
    "initial_data": Key(_PATH, None, "--init"),
    "trajectories.seeds": Key(Kind("a list of finite [x, y] pairs",
                                   _seed_list)),
    "trajectories.step": Key(_POSITIVE),
    "trajectories.max_len": Key(_POSITIVE),
    "include_time_term": Key(Kind("true, false or null",
                                  lambda v: type(v) is bool)),
    "time_index": Key(_INDEX, 0),
    "t_end": Key(_POSITIVE, None, "--t-end"),
    "jump_checks.relation": Key(_one_of(("contact", "char")), _REQUIRED,
                                "--relation"),
    "jump_checks.refine": Key(_COUNT, 3, "--refine"),
    "output_dir": Key(_PATH, None, "--out"),
}
# absent or null: ideal (no viscous A1) and no jump checks; any other
# section absent or null takes the defaults of its keys
_OPTIONAL_SECTIONS = ("transport", "jump_checks")


@dataclass
class ScenarioConfig:
    """A checked run configuration (see README for the JSON schema):
    ``values`` nests the keys of ``CONFIG_KEYS`` as the JSON does, and
    ``gas`` and ``transport`` are built from their sections."""

    values: dict
    gas: GasModel
    transport: Optional[TransportModel]
    config_path: str = "config"

    @classmethod
    def from_file(cls, path, overrides: Optional[dict] = None) -> "ScenarioConfig":
        """Read a JSON config; relative path ``overrides`` (command-line
        flags) resolve against the working directory."""
        raw = _read_json(path, "config")
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: config must be a JSON object")
        raw.update({k: os.path.abspath(v) for k, v in (overrides or {}).items()
                    if v is not None})
        try:
            return cls.from_dict(raw, str(path))
        except (ParseError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict, path: str = "config") -> "ScenarioConfig":
        """Read the config object ``raw`` of file ``path`` by ``CONFIG_KEYS``:
        each value converted or defaulted (``scenario_id`` to the file's
        stem), relative paths resolved against the file's directory, and
        None for an optional section that is absent.  A section that is
        not an object, a key not in the table and a value its entry refuses
        each raise a ParseError that names them."""
        tree = {"": {}}  # section ("" for the top level) -> {key: Key}
        for name, key in CONFIG_KEYS.items():
            head, _, leaf = name.rpartition(".")
            tree.setdefault(head, {})[leaf] = key
        objects = {head: raw.get(head) if head else raw for head in tree}
        for head, obj in objects.items():
            if obj is not None and not isinstance(obj, dict):
                raise ParseError(f"{head} must be a JSON object")
            known = [*tree[head], *(() if head else list(tree)[1:])]
            prefix = head and head + "."
            for leaf in obj or ():
                if leaf not in known:
                    near = difflib.get_close_matches(leaf, known, n=1)
                    hint = f" (did you mean {prefix}{near[0]}?)" if near else ""
                    raise ParseError(f"unknown key {prefix}{leaf}{hint}")
        values = {}
        for head, keys in tree.items():
            if objects[head] is None and head in _OPTIONAL_SECTIONS:
                values[head] = None
                continue
            into = values.setdefault(head, {}) if head else values
            for leaf, key in keys.items():
                name = (head and head + ".") + leaf
                into[leaf] = key.read(name, (objects[head] or {}).get(leaf))
                if key.kind is _PATH and into[leaf] is not None:
                    into[leaf] = str(Path(path).parent / into[leaf])
                    if name != "output_dir" and not Path(into[leaf]).exists():
                        raise ParseError(
                            f"referenced path does not exist: {into[leaf]}")
        if values["scenario_id"] is None:
            values["scenario_id"] = Path(path).stem
        transport = values["transport"]
        return cls(values, GasModel(**values["gas"]),
                   None if transport is None else TransportModel(**transport),
                   path)

    def build_forces(self, grid: StructuredGrid2D) -> ForceModel:
        kind, path = self.values["forces"]["kind"], self.values["forces"]["path"]
        if kind is ForceKind.NONE:
            return ForceModel.none()
        if path is None:
            raise ParseError(f"force kind {kind.value!r} needs a 'path' CSV")
        if kind is ForceKind.POTENTIAL:
            _, f = _read_grid_csv(path, ("phi",), grid)
            return ForceModel.potential(f["phi"])
        _, f = _read_grid_csv(path, ("fx", "fy"), grid)
        return ForceModel.tabulated(f["fx"], f["fy"])


def _default_seeds(fs: FieldSet) -> List[List[float]]:
    g = fs.grid
    x = g.x0 + 0.3 * (g.xmax - g.x0)
    ys = [g.y0 + f * (g.ymax - g.y0) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
    return [[x, y] for y in ys]


def _event_dict(ev) -> Optional[dict]:
    return None if ev is None else dataclasses.asdict(ev)


def _float_column(values):
    """``(spec, row values)`` for one float column of a trajectory CSV.
    Floats are written ``%.17g``; when at most half are distinct, each
    distinct bit pattern (``-0.0`` apart from ``0.0``) is formatted once.
    ``np.sort``, not ``np.unique``, whose hash path is far slower here."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    flat = np.sort(bits)
    distinct = np.delete(flat, np.flatnonzero(flat[1:] == flat[:-1]) + 1)
    if 2 * distinct.size > flat.size:  # formatting in the row is faster
        return "%.17g", bits.view(np.float64).tolist()
    text = np.array(["%.17g" % v for v in distinct.view(np.float64).tolist()],
                    dtype=object)
    return "%s", text[np.searchsorted(distinct, bits)].tolist()


def _write_trajectory_csv(path: Path, K):
    """One row per sample of the form ``K`` that ``commutator`` returns."""
    names = [n for n in ATTRIBUTION_ORDER if n in K.attribution]
    names += sorted(n for n in K.attribution if n not in names)
    header = ["xi1", "A1", "Anu", "K", *names]
    cols = [_float_column(v) for v in (
        K.xi, K.a1, K.anu, K.K, *[K.attribution[n] for n in names])]
    row = ",".join(spec for spec, _ in cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join(map(row.__mod__, zip(*[vals for _, vals in cols]))))


_NET_HEADER = ("level,index,t,x,u,a,s,cplus_parent,cminus_parent,"
               "c0_parent\n")


class _NetText:
    """The rows of a net's levels as ``net.csv`` holds them, from the
    spool file open at ``fd``: the initial node count n0 (int64), then
    level k as six float64 rows of n0 - k values, t, x, u, a, s and
    c0_parent, at byte 8 + 48 (k n0 - k (k - 1) / 2).

    Floats are written ``%.17g``.  Each float column is formatted through a
    cache of the text of every bit pattern (``-0.0`` apart from ``0.0``) it
    has met, until a level after the first finds none of its values there;
    from then on it is formatted in the row.  The bytes are the same either
    way."""

    def __init__(self, fd: int):
        self.fd = fd
        self.n0 = n0 = int.from_bytes(os.pread(fd, 8, 0), "little")
        self.index = [f"{i}," for i in range(n0)]
        self.pairs = [f"{i},{i + 1}," for i in range(n0)]
        self.ends = [f"{c}\n" for c in range(-1, n0 + 1)]  # by c0_parent + 1
        self.caches = [{} for _ in "txuas"]
        self.levels = 0  # formatted so far

    def split(self, done: int, levels: int) -> int:
        """The node midpoint c >= ``done`` of the levels from ``done`` to
        ``levels``: the first level at which those before it hold at least
        half of their nodes."""
        half = sum(self.n0 - k for k in range(done, levels)) / 2
        c, nodes = done, 0
        while nodes < half:
            nodes += self.n0 - c
            c += 1
        return c

    def level(self, k: int) -> str:
        """The rows of level k, read from the spool."""
        m = self.n0 - k
        record = np.frombuffer(os.pread(
            self.fd, 48 * m, 8 + 48 * (k * self.n0 - k * (k - 1) // 2)))
        record = record.reshape(6, m)
        specs, cols = [], []
        for q, cache in enumerate(self.caches):
            if cache is not None:
                bits = record[q].view(np.int64).tolist()
                text = list(map(cache.get, bits))
                misses = text.count(None)
                if misses < m or not self.levels:
                    if misses:
                        values = record[q].tolist()
                        for i, t in enumerate(text):
                            if t is None:
                                text[i] = cache.setdefault(bits[i],
                                                           "%.17g," % values[i])
                    specs.append("%s")
                    cols.append(text)
                    continue
                self.caches[q] = None
            specs.append("%.17g,")
            cols.append(record[q].tolist())
        self.levels += 1
        c0 = record[5].astype(np.int64).tolist()
        pairs = self.pairs if k else [f"{c},{c}," for c in c0]
        row = f"{k},%s{''.join(specs)}%s%s"
        return "".join(map(row.__mod__, zip(
            self.index, *cols, pairs, [self.ends[c + 1] for c in c0])))


@contextmanager
def _net_csv(path: Path):
    """Write to ``path`` the net whose levels the block announces, while it
    announces them: ``with _net_csv(path) as on_level:`` yields the hook
    that the block calls as ``on_level(net, k)`` once for each level k as
    it is made, as ``moc.advance_net`` does.  Parent indices refer to the
    previous level, -1 on the initial level.

    Two processes format the levels (``_forked``), both through
    ``_NetText``.  ``on_level`` appends the level to the spool file
    ``net.spool`` beside ``path`` in the run's stage and writes one byte to
    a pipe, so this process never waits for the child.  The child, forked
    before the block starts, writes the header and then each level as soon
    as it is announced.  At each level it looks, without blocking, for the
    end byte this process sends once the block is done, and replies with
    the split c, the node midpoint of the levels it has not written
    (``_NetText.split``).  The child writes the levels before c, this
    process those from c on to ``net.csv.tail``, which it appends once the
    child is reaped; then it removes the part file and the spool.  Without
    a reply c is 0; where the child failed, this process writes the header
    and the levels before c itself."""
    tail = path.with_name(path.name + ".tail")
    spool_path = path.with_name("net.spool")
    split = None  # set in this process once the block is done
    spooled = 0  # levels so far

    def write_levels(into, levels, header=""):
        text = _NetText(spool.fileno())
        with open(into, "w", newline="") as fh:
            fh.write(header)
            for k in levels:
                fh.write(text.level(k))

    def child():
        if split is not None:  # the redo, after this process's part
            write_levels(path, range(split), _NET_HEADER)
            return
        os.close(levels_w)
        os.close(split_r)
        with open(path, "w", newline="") as fh:
            fh.write(_NET_HEADER)
            text, done, made = None, 0, 0
            while True:
                if done == made or select.select([levels_r], [], [], 0)[0]:
                    news = os.read(levels_r, 1 << 16)
                    if not news:
                        raise EOFError("the run ended before the net")
                    made += news.count(b"L")
                    text = text or _NetText(spool.fileno())
                    if news.endswith(b"E"):
                        break
                if done < made:
                    fh.write(text.level(done))
                    done += 1
            c = text.split(done, made)
            os.write(split_w, c.to_bytes(8, "little"))
            for k in range(done, c):
                fh.write(text.level(k))

    def on_level(net, k):
        nonlocal spooled
        if not k:
            spool.write(net.level_size(0).to_bytes(8, "little"))
        spool.write(np.array((net.t[k], net.x[k], net.u[k], net.a[k],
                              net.s[k], net.c0_parent[k]), float))
        spool.flush()
        spooled = k + 1
        with suppress(BrokenPipeError):  # no child reads the pipe
            os.write(levels_w, b"L")

    with open(spool_path, "w+b") as spool:
        levels_r, levels_w = os.pipe()
        split_r, split_w = os.pipe()
        with _forked(child):
            os.close(levels_r)
            os.close(split_w)
            try:
                yield on_level
                split = 0
                with suppress(BrokenPipeError):
                    os.write(levels_w, b"E")
                    split = int.from_bytes(os.read(split_r, 8), "little")
                write_levels(tail, range(split, spooled))
            finally:
                os.close(levels_w)
                os.close(split_r)
    with open(path, "ab") as fh, open(tail, "rb") as part:
        shutil.copyfileobj(part, fh)
    os.unlink(tail)
    os.unlink(spool_path)


def _solve_1d(cfg: ScenarioConfig, *hooks):
    """Load the config's 1-D initial data and advance its net, calling
    ``hooks`` in turn as ``moc.advance_net``'s ``on_level``; returns the
    net and the analytic straight-characteristic envelope estimate.

    Without ``t_end`` the net runs to 1.5x the analytic envelope time,
    else for one slowest-sound crossing of the data.
    """
    v = cfg.values
    initial = moc.nodes_from_primitive(*load_initial_1d(v["initial_data"]),
                                       cfg.gas)
    analytic = moc.detect_envelope(initial)
    t_end = v["t_end"]
    if t_end is None:
        x, _, a, _ = initial
        t_end = (1.5 * analytic.t_star if analytic is not None
                 else float(x[-1] - x[0]) / float(np.min(a)))
    net = moc.advance_net(initial, t_end=t_end, m=cfg.gas,
                          corrector_tol=v["tolerances"]["corrector"],
                          on_level=lambda net, k: [f(net, k) for f in hooks])
    return net, analytic


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute the configured pipeline and write report plus CSVs; the
    files appear together once every stage has passed, or not at all.
    Returns the report, the dict that ``run_report.json`` holds."""
    with _staged_run(cfg.values["output_dir"]) as stage:
        return _run_stages(cfg, stage)


def _run_stages(cfg: ScenarioConfig, out: Path) -> dict:
    """The stages, in order, writing into ``out``.  2-D fields: ingest,
    Lagrange test, A1, tolerance, tracing, A_nu sampled on the tiles the
    trajectories cross, then per trajectory the commutator, its CSV and its
    class.  1-D data: the net, written to its CSV and folded into its
    residuals as it advances, then the envelope.  Then the jump checks and
    the report."""
    t_start = time.perf_counter()
    v = cfg.values
    report = dict.fromkeys((
        "lagrange", "max_K", "tolerance", "classification", "dominant",
        "regime", "envelope", "net_levels", "moc_residuals",
        "identical_on_pseudostructure"), None)
    report.update(scenario_id=v["scenario_id"], jump_checks=[])

    if v["fields"] is not None:
        fs = load_fields(v["fields"], v["manifest"])
        forces = cfg.build_forces(fs.grid)
        if v["include_time_term"] and (fs.snapshots is None
                                      or len(fs.snapshots) < 2):
            raise MissingSnapshots(
                "config requests the nonstationary term but the field set "
                "has no snapshot series")
        if fs.snapshots is not None and v["time_index"] >= len(fs.snapshots):
            raise ParseError(
                f"{cfg.config_path}: time_index {v['time_index']} is outside "
                f"the {len(fs.snapshots)} snapshots")

        rep = evoform.lagrange_criterion(fs, forces)
        report["lagrange"] = {**dataclasses.asdict(rep),
                              "predicts_equilibrium": rep.predicts_equilibrium}

        if cfg.transport is not None:
            a1 = evoform.viscous_a1(fs, cfg.transport, cfg.gas, v["a1_variant"])
        else:
            a1 = evoform.ideal_a1()

        report["tolerance"] = v["tolerances"]["equilibrium"]
        if report["tolerance"] is None:
            report["tolerance"] = evoform.equilibrium_tolerance(fs, cfg.gas)

        tr = v["trajectories"]
        seeds = tr["seeds"] if tr["seeds"] is not None else _default_seeds(fs)
        try:
            trajs = trace_streamlines(fs, seeds, step=tr["step"],
                                      max_len=tr["max_len"])
        except ValueError as exc:  # the max_len / step budget
            raise ParseError(f"{cfg.config_path}: trajectories.{exc}") from None
        traced = [(ti, traj) for ti, traj in enumerate(trajs)
                  if not isinstance(traj, VortigenError)]
        if not traced:
            raise ParseError("no trajectory could be traced from the seeds")
        # A_nu only on the tiles the trajectories cross, all seeds at once
        anu = evoform.sample_anu(
            fs, forces, cfg.gas, np.concatenate([t.points for _, t in traced]),
            sign=v["crocco_sign"], time_index=v["time_index"],
            include_time_term=v["include_time_term"])
        worst, end = None, 0
        for ti, traj in traced:
            start, end = end, end + len(traj)
            K = evoform.commutator({name: s[:, start:end]
                                    for name, s in anu.items()},
                                   a1, traj, fs.grid)
            _write_trajectory_csv(out / f"trajectory_{ti:03d}.csv", K)
            cls = evoform.equilibrium_classifier(K, report["tolerance"])
            if worst is None or cls.magnitude > worst.magnitude:
                worst = cls
        del anu  # (6, n) per term for every point: free before later stages
        report["max_K"] = worst.magnitude
        report["classification"] = worst.kind
        report["dominant"] = worst.dominant

        speed = fs.speed
        j = int(np.argmax(speed))
        a = np.sqrt(cfg.gas.gamma * fs.p.flat[j] / fs.rho.flat[j])
        report["regime"] = evoform.classify_regime(speed.flat[j], a).value

    if v["initial_data"] is not None:
        fold = moc.ResidualFold()
        with _net_csv(out / "net.csv") as spool:  # the child hears first
            net, analytic = _solve_1d(cfg, spool, fold)
            report["moc_residuals"] = fold.result()  # while the child formats
        report["net_levels"] = net.n_levels
        report["envelope"] = {"detected": net.envelope is not None,
                              "event": _event_dict(net.envelope),
                              "analytic": _event_dict(analytic)}
        _write_json(out / "envelope.json", report["envelope"])
        _write_json(out / "residuals.json", report["moc_residuals"])
        # the identical relation holds on the trajectory pseudostructure when
        # the transported quantity is conserved to discretization accuracy
        s_scale = max(float(np.max(net.s[0])), 1e-300)
        report["identical_on_pseudostructure"] = (
            report["moc_residuals"]["C0"] <= 1e-3 * s_scale)

    if v["jump_checks"] is not None:
        relation = v["jump_checks"]["relation"]
        report["jump_checks"] = _jump_check_sweep(
            relation, cfg.gas.gamma, v["jump_checks"]["refine"],
            v["tolerances"]["jump_rel_error"])
        _write_json(out / "jump_reports.json",
                    {"relation": relation, "reports": report["jump_checks"]})

    report["wall_time_s"] = time.perf_counter() - t_start
    _write_json(out / "run_report.json", report)
    return report


# ---------------------------------------------------------------------------
# subcommands


def _config(args) -> ScenarioConfig:
    """The config of a run command: ``diagnose``'s file, or the config
    that the flags of the other commands make."""
    if args.command == "diagnose":
        return ScenarioConfig.from_file(args.config, overrides=args.keys)
    raw = {"scenario_id": args.command}
    for name, value in args.keys.items():
        head, _, leaf = name.rpartition(".")
        (raw.setdefault(head, {}) if head else raw)[leaf] = value
    return ScenarioConfig.from_dict(raw)


def _cmd_run(args) -> int:
    """Run the config of the command and print its report; a failed jump
    check exits 3 once every file is written."""
    cfg = _config(args)
    report = run_scenario(cfg)
    print("\n".join(_report_lines(report)))
    failed = [rec for rec in report["jump_checks"] if not rec["passed"]]
    if failed:
        rec, tol = failed[0], cfg.values["tolerances"]["jump_rel_error"]
        print(f"numerical failure: {rec['relation']} jump check failed at "
              f"h = {rec['grid_h']:.6g}: rel_error = {rec['rel_error']:.3e} > "
              f"tol = {tol:.6g} ({len(failed)} of {len(report['jump_checks'])} "
              "levels failed)", file=sys.stderr)
    return 3 if failed else 0


def _cmd_detect_shock(args) -> int:
    """The envelope report alone; the net is not written."""
    cfg = _config(args)
    with _staged_run(cfg.values["output_dir"]) as stage:
        net, analytic = _solve_1d(cfg)
        event = net.envelope
        _write_json(stage / "envelope_report.json", {
            "detected": event is not None,
            "numeric": _event_dict(event),
            "analytic": _event_dict(analytic),
        })
    print(f"envelope: t* = {event.t_star:.6g}, x* = {event.x_star:.6g}, "
          f"family {event.family}" if event else "no envelope before t_end")
    return 0


def _jump_check_sweep(relation: str, gamma: float, refine: int,
                      tol: float) -> List[dict]:
    """Built-in synthesis sweep of one jump relation over a refinement
    ladder; returns one report record per refinement level."""
    gas = GasModel(gamma=gamma, R=1.0)
    reports = []
    for level in range(refine):
        if relation == "contact":
            ny = 50 * 2 ** level + 1
            grid = StructuredGrid2D(9, ny, x0=0.0, y0=0.0, hx=0.125,
                                    hy=1.0 / (ny - 1))
            base = PrimitiveState(rho=1.0, u=(1.0, 0.0), p=1.0)
            fs = jumps.synthesize_contact_field(base, 1.0, grid, gas)
            surf = jumps.Surface(jumps.SurfaceKind.TRAJECTORY, (0.0, 1.0))
            wd = jumps.measure_discontinuity(
                fs, gas, surf, (0.5, grid.y[(ny - 1) // 2]))
            rep = jumps.contact_jump_check(wd, base, gas, tol=tol)
            h = grid.hy
        else:
            n = 60 * 2 ** level + 1
            fan = CenteredFan(gamma=gamma, a0=1.0, u_tail=-0.4)
            grid = StructuredGrid2D(n, n, x0=0.3, y0=0.5, hx=1.4 / (n - 1),
                                    hy=1.2 / (n - 1))
            X, T = np.meshgrid(grid.x, grid.y)
            u, a = fan.sound_speed_field(X, T)
            s = np.full(grid.shape, fan.s0)
            rho = (a * a / (gas.gamma * fan.s0)) ** (1.0 / (gas.gamma - 1.0))
            p = fan.s0 * rho ** gas.gamma
            norm = np.hypot(1.0, fan.a0)
            surf = jumps.Surface(jumps.SurfaceKind.CHARACTERISTIC_PLUS,
                                 (1.0 / norm, -fan.a0 / norm))
            pt = (fan.a0, 1.0)
            wd = jumps.WeakDiscontinuity(surf, {
                name: jumps.measure_jump(f, grid, surf, pt)
                for name, f in (("u", u), ("a", a), ("s", s), ("p", p))})
            rep = jumps.char_jump_check(wd, gas, tol=tol)
            h = max(grid.hx, grid.hy)
        reports.append({**rep.to_record(), "grid_h": h})
    return reports


def _report_lines(rep: dict) -> List[str]:
    lines = [f"scenario: {rep.get('scenario_id')}"]
    lag = rep.get("lagrange")
    if lag:
        lines.append("eddy-free conditions: "
                     + ", ".join(f"{k}={v}" for k, v in sorted(lag.items())))
    if rep.get("classification") is not None:
        line = (f"classification: {rep['classification']} "
                f"(max|K| = {rep['max_K']:.6g}, tol = {rep['tolerance']:.6g})")
        if rep.get("dominant"):
            line += f", dominant source: {rep['dominant']}"
        lines.append(line)
    if rep.get("regime"):
        lines.append(f"regime at peak speed: {rep['regime']}")
    if rep.get("net_levels") is not None:
        lines.append(f"characteristic net: {rep['net_levels']} levels")
    env = rep.get("envelope")
    if env is not None:
        if env.get("detected"):
            ev = env["event"]
            lines.append(f"envelope: t* = {ev['t_star']:.6g}, "
                         f"x* = {ev['x_star']:.6g} ({ev['family']})")
        else:
            lines.append("envelope: none detected")
    if rep.get("moc_residuals"):
        res = rep["moc_residuals"]
        lines.append("pseudostructure residuals: " + ", ".join(
            f"{k}={res[k]:.3e}" for k in ("C0", "C+", "C-")))
        lines.append(f"identical relation on trajectory pseudostructure: "
                     f"{rep.get('identical_on_pseudostructure')}")
    for rec in rep.get("jump_checks") or ():
        lines.append(f"{rec['relation']} jump check at h = {rec['grid_h']:.6g}:"
                     f" rel_error = {rec['rel_error']:.3e}"
                     f" ({'pass' if rec['passed'] else 'FAIL'})")
    lines.append(f"wall time: {rep.get('wall_time_s', 0.0):.3f} s")
    return lines


def _cmd_report(args) -> int:
    path = Path(args.run) / "run_report.json"
    rep = _read_json(path, "run report")
    try:
        lines = _report_lines(rep)
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise ParseError(f"{path}: not a run report: {exc!r}") from None
    print("\n".join(lines))
    return 0


def _flags(p, *names: str, **kwargs):
    """Add the flags of the ``CONFIG_KEYS`` entries ``names`` to ``p``;
    ``main`` checks and defaults each as its config key.  Paths given as
    flags resolve against the working directory."""
    for name in names:
        p.add_argument(CONFIG_KEYS[name].flag, type=CONFIG_KEYS[name].kind.text,
                       help=f"as config key {name}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortigen",
        description="Compressible-flow nonequilibrium diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("solve-moc", "advance a characteristic net"),
                        ("detect-shock", "envelope detection on 1-D data")):
        p = sub.add_parser(name, help=help_)
        _flags(p, "initial_data", "output_dir", required=True)
        _flags(p, "gas.gamma", "gas.R")
        _flags(p, "t_end", required=name == "solve-moc")
        p.set_defaults(func=_cmd_run if name == "solve-moc"
                       else _cmd_detect_shock)

    p = sub.add_parser("diagnose", help="run the 2-D diagnostic pipeline")
    p.add_argument("--config", required=True, help="scenario config JSON")
    _flags(p, "fields", "manifest", "output_dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify-jumps", help="jump-relation refinement sweep")
    _flags(p, "jump_checks.relation", "output_dir", required=True)
    _flags(p, "gas.gamma", "jump_checks.refine", "tolerances.jump_rel_error")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.keys = {}  # each flag's checked value, by its config key
    try:
        for name, key in CONFIG_KEYS.items():
            dest = key.flag and key.flag.lstrip("-").replace("-", "_")
            if dest in vars(args):
                args.keys[name] = key.read(f"{key.flag}: {name}",
                                           getattr(args, dest))
        # float faults raise, and exit 3 below; underflow is still ignored
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (NonConvergence, NonFiniteResult, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's names the array it could not make
        print(f"out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return 3
    except (VortigenError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
