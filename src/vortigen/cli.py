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

All outputs are deterministic for identical inputs (floats are written
with 17 significant digits, no locale) and written atomically
(temp-file-then-rename).  The environment variable ``VORTIGEN_OUT``
overrides every output directory.  Exit codes: 0 success, 2 validation
error, 3 numerical failure (including a non-finite result).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

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
    ForceModel,
    TransportModel,
)
from .exact import CenteredFan
from .fields import FieldSet, Snapshot, StructuredGrid2D, frame_along, trace_streamlines
from .thermo import EntropyConvention, GasModel, PrimitiveState, derive_state

__all__ = ["ScenarioConfig", "RunReport", "load_fields", "run_scenario", "main"]


@contextmanager
def _atomic_write(path: Path):
    """Text file handle whose content replaces ``path`` only when complete;
    the file gets the mode a plain ``open`` would give it under the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            # mkstemp creates 0600; setting the umask is the way to read it
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj):
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult(f"{path}: result is not finite") from None
    with _atomic_write(path) as fh:
        fh.write(text + "\n")


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None


def _out_dir(default) -> Path:
    """``VORTIGEN_OUT`` if set, else ``default``."""
    return Path(os.environ.get("VORTIGEN_OUT", default))


# ---------------------------------------------------------------------------
# ingestion


def _read_rows(path, expected: Sequence[str]) -> np.ndarray:
    """Finite float rows of a CSV whose header is exactly ``expected``;
    ``rho`` and ``p`` columns must be positive."""
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


def _read_grid_csv(path, columns: Sequence[str],
                   like: Optional[StructuredGrid2D] = None):
    """Scattered (x, y, values...) rows -> uniform grid + node arrays; the
    grid must match ``like`` (to 1e-12) when given."""
    arr = _read_rows(path, ["x", "y", *columns])
    if not len(arr):
        raise ParseError(f"{path}: no data rows")

    def axis(vals):
        uniq = np.unique(vals)
        if len(uniq) < 3:
            raise GridInferenceError(f"{path}: need >= 3 distinct coordinates")
        steps = np.diff(uniq)
        h = steps[0]
        if np.any(np.abs(steps - h) > 1e-9 * max(abs(uniq[0]), abs(uniq[-1]), h)):
            raise GridInferenceError(f"{path}: irregular spacing")
        return uniq, h

    xs, hx = axis(arr[:, 0])
    ys, hy = axis(arr[:, 1])
    if len(arr) != len(xs) * len(ys):
        raise GridInferenceError(
            f"{path}: {len(arr)} rows do not fill a {len(xs)}x{len(ys)} grid")
    grid = StructuredGrid2D(nx=len(xs), ny=len(ys), x0=float(xs[0]),
                            y0=float(ys[0]), hx=float(hx), hy=float(hy))
    if like is not None and not np.allclose(
            dataclasses.astuple(grid), dataclasses.astuple(like),
            rtol=0.0, atol=1e-12):
        raise ParseError(f"{path}: grid differs from the field grid")
    ix = np.rint((arr[:, 0] - grid.x0) / grid.hx).astype(int)
    iy = np.rint((arr[:, 1] - grid.y0) / grid.hy).astype(int)
    flat = iy * grid.nx + ix
    if len(np.unique(flat)) != len(arr):
        raise GridInferenceError(f"{path}: duplicate or missing grid nodes")
    fields = {}
    for k, name in enumerate(columns):
        f = np.empty(grid.shape)
        f[iy, ix] = arr[:, 2 + k]
        fields[name] = f
    return grid, fields


def load_fields(path, manifest: Optional[str] = None) -> FieldSet:
    """Load a ``x,y,rho,u,v,p`` node CSV, optionally with a snapshot manifest.

    The manifest is JSON ``{"snapshots": [{"t": ..., "path": ...}, ...]}``
    with strictly increasing times; snapshot paths are relative to the
    manifest's directory and must share the main file's grid.
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
        for ent in entries:
            try:
                t = float(ent["t"])
                sub = base / ent["path"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{manifest}: bad snapshot entry: {exc}") from None
            if snapshots and not t > snapshots[-1].t:
                raise ParseError(f"{manifest}: snapshot times must increase")
            _, sf = _read_grid_csv(sub, ("rho", "u", "v", "p"), grid)
            snapshots.append(Snapshot(t=t, rho=sf["rho"], u=sf["u"],
                                      v=sf["v"], p=sf["p"]))
    return FieldSet(grid, rho=f["rho"], u=f["u"], v=f["v"], p=f["p"],
                    snapshots=snapshots)


def load_initial_1d(path):
    """1-D initial data CSV with header ``x,rho,u,p``."""
    arr = _read_rows(path, ["x", "rho", "u", "p"])
    if len(arr) < 3:
        raise ParseError(f"{path}: need at least 3 samples")
    if np.any(np.diff(arr[:, 0]) <= 0.0):
        raise ParseError(f"{path}: x samples must be strictly increasing")
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


# ---------------------------------------------------------------------------
# scenario configuration


def _number(name: str, value, default=None) -> Optional[float]:
    """A finite config number (a JSON number, not a bool) as float, or
    ``default`` when absent or null; else a ParseError naming the field."""
    if value is None:
        return default
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ParseError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _choice(name: str, value, options: dict):
    """``options[value]`` for a config enum field, else a ParseError naming
    the field and its allowed values."""
    if isinstance(value, str) and value in options:
        return options[value]
    raise ParseError(f"{name} must be one of {', '.join(options)}, "
                     f"got {value!r}")


@dataclass
class ScenarioConfig:
    """Validated run configuration (see README for the JSON schema)."""

    scenario_id: str
    gas: GasModel
    forces_spec: dict
    transport: Optional[TransportModel]
    crocco_sign: CroccoSign
    a1_variant: A1Variant
    tolerances: dict
    fields_path: Optional[str]
    manifest_path: Optional[str]
    initial_data_path: Optional[str]
    seeds: Optional[List[List[float]]]
    traj_step: Optional[float]
    traj_max_len: Optional[float]
    include_time_term: Optional[bool]
    time_index: int
    t_end: Optional[float]
    jump_checks: Optional[dict]
    output_dir: str

    @classmethod
    def from_file(cls, path, overrides: Optional[dict] = None) -> "ScenarioConfig":
        """Read a JSON config; its relative paths resolve against its own
        directory, relative path ``overrides`` (command-line flags) against
        the working directory."""
        raw = _read_json(path, "config")
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: config must be a JSON object")
        raw.update({k: os.path.abspath(v) for k, v in (overrides or {}).items()
                    if v is not None})
        try:
            return cls.from_dict(raw, default_id=Path(path).stem,
                                 base=Path(path).parent)
        except (ParseError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict, default_id: str = "scenario",
                  base: Optional[Path] = None) -> "ScenarioConfig":
        base = base or Path(".")

        def section(name, default=None):
            val = raw.get(name)
            if val is not None and not isinstance(val, dict):
                raise ParseError(f"{name} must be a JSON object")
            return default if val is None else val

        def resolve(name, p):
            if p is None:
                return None
            if not isinstance(p, str):
                raise ParseError(f"{name} must be a path string")
            p = Path(p)
            return str(p if p.is_absolute() else base / p)

        gas_raw = section("gas", {})
        gas = GasModel(
            gamma=_number("gas.gamma", gas_raw.get("gamma"), 1.4),
            R=_number("gas.R", gas_raw.get("R"), 287.05),
            entropy_convention=_choice(
                "gas.entropy_convention",
                gas_raw.get("entropy_convention", "entropy_function"),
                {"entropy_function": EntropyConvention.ENTROPY_FUNCTION,
                 "specific": EntropyConvention.SPECIFIC}),
            s_ref=_number("gas.s_ref", gas_raw.get("s_ref"), 0.0))

        forces_spec = dict(section("forces", {"kind": "none"}))
        _choice("forces.kind", forces_spec.get("kind"),
                dict.fromkeys(("none", "potential", "tabulated")))
        if "path" in forces_spec:
            forces_spec["path"] = resolve("forces.path", forces_spec["path"])

        tr = section("transport")
        transport = None if tr is None else TransportModel(
            mu=_number("transport.mu", tr.get("mu"), 0.0),
            k=_number("transport.k", tr.get("k"), 0.0))

        sign = _choice("crocco_sign", raw.get("crocco_sign", "consistent"),
                       {"consistent": CroccoSign.CONSISTENT,
                        "paper": CroccoSign.PAPER_LITERAL})
        variant = _choice("a1_variant", raw.get("a1_variant", "paper"),
                          {"paper": A1Variant.PAPER_LITERAL,
                           "standard": A1Variant.STANDARD_PRODUCTION})

        tol = {"equilibrium": None, "jump_rel_error": 1e-2, "corrector": 1e-12}
        tol.update(section("tolerances", {}))
        for name, val in tol.items():
            if not (val is None and name == "equilibrium"
                    or _number(f"tolerances.{name}", val, 0.0) > 0.0):
                raise ParseError(f"tolerance {name} must be positive")

        traj = section("trajectories", {})
        seeds = traj.get("seeds")
        if seeds is not None and not (isinstance(seeds, list) and all(
                isinstance(seed, list) and len(seed) == 2 for seed in seeds)):
            raise ParseError("trajectories.seeds must be a list of finite "
                             "[x, y] pairs")
        seeds = seeds and [[_number("trajectories.seeds", c) for c in seed]
                           for seed in seeds]
        jump_checks = section("jump_checks")
        if jump_checks is not None:
            _choice("jump_checks.relation", jump_checks.get("relation"),
                    dict.fromkeys(("contact", "char")))
            _number("jump_checks.refine", jump_checks.get("refine", 3))
        cfg = cls(
            scenario_id=str(raw.get("scenario_id", default_id)),
            gas=gas,
            forces_spec=forces_spec,
            transport=transport,
            crocco_sign=sign,
            a1_variant=variant,
            tolerances=tol,
            fields_path=resolve("fields", raw.get("fields")),
            manifest_path=resolve("manifest", raw.get("manifest")),
            initial_data_path=resolve("initial_data", raw.get("initial_data")),
            seeds=seeds,
            traj_step=_number("trajectories.step", traj.get("step")),
            traj_max_len=_number("trajectories.max_len", traj.get("max_len")),
            include_time_term=raw.get("include_time_term"),
            time_index=int(_number("time_index", raw.get("time_index"), 0)),
            t_end=_number("t_end", raw.get("t_end")),
            jump_checks=jump_checks,
            output_dir=resolve("output_dir", raw.get("output_dir")) or ".",
        )
        for p in (cfg.fields_path, cfg.manifest_path, cfg.initial_data_path,
                  cfg.forces_spec.get("path")):
            if p is not None and not Path(p).exists():
                raise ParseError(f"referenced path does not exist: {p}")
        return cfg

    def build_forces(self, grid: StructuredGrid2D) -> ForceModel:
        kind = self.forces_spec["kind"]
        if kind == "none":
            return ForceModel.none()
        path = self.forces_spec.get("path")
        if path is None:
            raise ParseError(f"force kind {kind!r} needs a 'path' CSV")
        _, f = _read_grid_csv(
            path, ("phi",) if kind == "potential" else ("fx", "fy"), grid)
        if kind == "potential":
            return ForceModel.potential(f["phi"])
        return ForceModel.tabulated(f["fx"], f["fy"])


@dataclass
class RunReport:
    """Serializable scenario outcome; classification is recomputable from
    ``max_K`` and ``tolerance``."""

    scenario_id: str
    lagrange: Optional[dict] = None
    max_K: Optional[float] = None
    tolerance: Optional[float] = None
    classification: Optional[str] = None
    dominant: Optional[str] = None
    regime: Optional[str] = None
    envelope: Optional[dict] = None
    moc_residuals: Optional[dict] = None
    identical_on_pseudostructure: Optional[bool] = None
    jump_checks: List[dict] = field(default_factory=list)
    wall_time_s: float = 0.0


def _default_seeds(fs: FieldSet) -> List[List[float]]:
    g = fs.grid
    x = g.x0 + 0.3 * (g.xmax - g.x0)
    ys = [g.y0 + f * (g.ymax - g.y0) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
    return [[x, y] for y in ys]


def _event_dict(ev) -> Optional[dict]:
    return None if ev is None else dataclasses.asdict(ev)


def _write_trajectory_csv(path: Path, xi, a1_samples, anu_samples, K):
    names = [n for n in ATTRIBUTION_ORDER if n in K.attribution]
    extra = [n for n in K.attribution if n not in names]
    names += sorted(extra)
    header = ["xi1", "A1", "Anu", "K", *names]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with _atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([row % tuple(r) for r in np.column_stack(
            [xi, a1_samples, anu_samples, K.K,
             *[K.attribution[n] for n in names]]).tolist()]))


def _write_net_csv(path: Path, net: moc.CharNet):
    """Stream the net one level (one write) at a time; parent indices refer
    to the previous level, -1 on the initial level."""
    with _atomic_write(path) as fh:
        fh.write("level,index,t,x,u,a,s,cplus_parent,cminus_parent,c0_parent\n")
        for k in range(net.n_levels):
            n = net.level_size(k)
            parents = ([[-1] * n] * 3 if k == 0 else
                       [range(n), range(1, n + 1), net.c0_parent[k].tolist()])
            row = f"{k},%d" + ",%.17g" * 5 + ",%d,%d,%d\n"
            fh.write("".join(map(row.__mod__, zip(
                range(n), net.t[k].tolist(), net.x[k].tolist(),
                net.u[k].tolist(), net.a[k].tolist(), net.s[k].tolist(),
                *parents))))


def _solve_1d(init_path, gas: GasModel, t_end: Optional[float],
              corrector_tol: float = 1e-12):
    """Load 1-D initial data and advance its characteristic net; returns
    the net and the analytic straight-characteristic envelope estimate.

    Without ``t_end`` the net runs to 1.5x the analytic envelope time,
    else for one slowest-sound crossing of the data.
    """
    x, rho, u, p = load_initial_1d(init_path)
    nodes = moc.nodes_from_primitive(x, rho, u, p, gas)
    analytic = moc.detect_envelope(nodes)
    if t_end is None:
        a_min = float(np.min(np.sqrt(gas.gamma * p / rho)))
        t_end = (1.5 * analytic.t_star if analytic is not None
                 else float(x[-1] - x[0]) / a_min)
    net = moc.advance_net(nodes, t_end=t_end, m=gas,
                          corrector_tol=corrector_tol)
    return net, analytic


def _write_net_outputs(out: Path, net: moc.CharNet, analytic):
    """Write net.csv and envelope.json; return (residuals, envelope)."""
    _write_net_csv(out / "net.csv", net)
    envelope = {"detected": net.envelope is not None,
                "event": _event_dict(net.envelope),
                "analytic": _event_dict(analytic)}
    _write_json(out / "envelope.json", envelope)
    return {fam: moc.pseudostructure_residual(net, fam)
            for fam in ("C0", "C+", "C-")}, envelope


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the configured pipeline and write report plus CSVs."""
    t_start = time.perf_counter()
    out = _out_dir(cfg.output_dir)
    report = RunReport(scenario_id=cfg.scenario_id)

    if cfg.fields_path is not None:
        fs = load_fields(cfg.fields_path, cfg.manifest_path)
        forces = cfg.build_forces(fs.grid)
        if cfg.include_time_term and (fs.snapshots is None
                                      or len(fs.snapshots) < 2):
            raise MissingSnapshots(
                "config requests the nonstationary term but the field set "
                "has no snapshot series")

        rep = evoform.lagrange_criterion(fs, forces)
        report.lagrange = {**dataclasses.asdict(rep),
                           "predicts_equilibrium": rep.predicts_equilibrium}

        if cfg.transport is not None:
            a1 = evoform.viscous_a1(fs, cfg.transport, cfg.gas, cfg.a1_variant)
        else:
            a1 = evoform.ideal_a1()

        report.tolerance = cfg.tolerances["equilibrium"]
        if report.tolerance is None:
            report.tolerance = evoform.equilibrium_tolerance(fs, cfg.gas)

        seeds = cfg.seeds if cfg.seeds is not None else _default_seeds(fs)
        worst = None
        for ti, traj in enumerate(trace_streamlines(
                fs, seeds, step=cfg.traj_step, max_len=cfg.traj_max_len)):
            if isinstance(traj, VortigenError):
                continue
            frame = frame_along(traj)
            anu = evoform.crocco_normal_coefficient(
                fs, traj, frame, forces, cfg.gas, sign=cfg.crocco_sign,
                time_index=cfg.time_index,
                include_time_term=cfg.include_time_term)
            K = evoform.commutator(
                evoform.FormCoefficients(anu, a1, cfg.crocco_sign),
                traj, frame, fs)
            a1_samples = a1.sample_along(traj, fs.grid)
            _write_trajectory_csv(out / f"trajectory_{ti:03d}.csv",
                                  traj.arclength, a1_samples, anu.samples, K)
            cls = evoform.equilibrium_classifier(K, report.tolerance)
            if worst is None or cls.magnitude > worst.magnitude:
                worst = cls
        if worst is None:
            raise ParseError("no trajectory could be traced from the seeds")
        report.max_K = worst.magnitude
        report.classification = worst.kind
        report.dominant = worst.dominant

        j = int(np.argmax(fs.speed))
        q = PrimitiveState(rho=float(fs.rho.flat[j]),
                           u=(float(fs.u.flat[j]), float(fs.v.flat[j])),
                           p=float(fs.p.flat[j]))
        report.regime = evoform.classify_regime(derive_state(q, cfg.gas)).value

    if cfg.initial_data_path is not None:
        net, analytic = _solve_1d(cfg.initial_data_path, cfg.gas, cfg.t_end,
                                  cfg.tolerances["corrector"])
        report.moc_residuals, report.envelope = _write_net_outputs(
            out, net, analytic)
        # the identical relation holds on the trajectory pseudostructure when
        # the transported quantity is conserved to discretization accuracy
        s_scale = max(float(np.max(net.s[0])), 1e-300)
        report.identical_on_pseudostructure = (
            report.moc_residuals["C0"] <= 1e-3 * s_scale)

    if cfg.jump_checks is not None:
        report.jump_checks = _jump_check_sweep(
            cfg.jump_checks["relation"], cfg.gas.gamma,
            int(cfg.jump_checks.get("refine", 3)),
            cfg.tolerances["jump_rel_error"])

    report.wall_time_s = time.perf_counter() - t_start
    _write_json(out / "run_report.json", dataclasses.asdict(report))
    return report


# ---------------------------------------------------------------------------
# subcommands


def _cmd_1d(args) -> int:
    """``solve-moc`` writes the net with its envelope and residuals,
    ``detect-shock`` the envelope report alone."""
    out = _out_dir(args.out)
    net, analytic = _solve_1d(args.init, GasModel(gamma=args.gamma, R=args.R),
                              args.t_end)
    if args.command == "solve-moc":
        residuals, envelope = _write_net_outputs(out, net, analytic)
        _write_json(out / "residuals.json", residuals)
        print(f"net: {net.n_levels} levels, envelope: "
              f"{'yes' if envelope['detected'] else 'no'} -> {out}")
        return 0
    event = net.envelope
    _write_json(out / "envelope_report.json", {
        "detected": event is not None,
        "numeric": _event_dict(event),
        "analytic": _event_dict(analytic),
    })
    if event:
        print(f"envelope: t* = {event.t_star:.6g}, x* = {event.x_star:.6g}, "
              f"family {event.family}")
    else:
        print("no envelope before t_end")
    return 0


def _cmd_diagnose(args) -> int:
    cfg = ScenarioConfig.from_file(args.config, overrides={
        "fields": args.fields, "manifest": args.manifest,
        "output_dir": args.out,
    })
    report = run_scenario(cfg)
    parts = [report.scenario_id]
    if report.classification is not None:
        parts.append(report.classification
                     + (f" (dominant: {report.dominant})"
                        if report.dominant else "")
                     + f", max|K| = {report.max_K:.6g},"
                     f" tol = {report.tolerance:.6g}")
    if report.envelope is not None:
        parts.append("envelope detected" if report.envelope["detected"]
                      else "no envelope")
    print(": ".join(parts))
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
            rep = jumps.contact_jump_check(wd, derive_state(base, gas), gas,
                                           tol=tol)
            rep = dataclasses.replace(rep, grid_h=grid.hy)
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
            rep = dataclasses.replace(rep, grid_h=max(grid.hx, grid.hy))
        reports.append(rep.to_record())
    return reports


def _cmd_verify_jumps(args) -> int:
    out = _out_dir(args.out)
    reports = _jump_check_sweep(args.relation, args.gamma, args.refine,
                                args.tol)
    for rec in reports:
        print(f"h = {rec['grid_h']:.6g}: rel_error = {rec['rel_error']:.3e} "
              f"({'pass' if rec['passed'] else 'FAIL'})")
    _write_json(out / "jump_reports.json",
                {"relation": args.relation, "reports": reports})
    return 0 if all(r["passed"] for r in reports) else 3


def _cmd_report(args) -> int:
    rep = _read_json(Path(args.run) / "run_report.json", "run report")
    print(f"scenario: {rep.get('scenario_id')}")
    lag = rep.get("lagrange")
    if lag:
        print("eddy-free conditions: "
              + ", ".join(f"{k}={v}" for k, v in sorted(lag.items())))
    if rep.get("classification") is not None:
        line = (f"classification: {rep['classification']} "
                f"(max|K| = {rep['max_K']:.6g}, tol = {rep['tolerance']:.6g})")
        if rep.get("dominant"):
            line += f", dominant source: {rep['dominant']}"
        print(line)
    if rep.get("regime"):
        print(f"regime at peak speed: {rep['regime']}")
    env = rep.get("envelope")
    if env is not None:
        if env.get("detected"):
            ev = env["event"]
            print(f"envelope: t* = {ev['t_star']:.6g}, x* = {ev['x_star']:.6g}"
                  f" ({ev['family']})")
        else:
            print("envelope: none detected")
    if rep.get("moc_residuals"):
        res = rep["moc_residuals"]
        print("pseudostructure residuals: "
              + ", ".join(f"{k}={res[k]:.3e}" for k in ("C0", "C+", "C-")))
        print(f"identical relation on trajectory pseudostructure: "
              f"{rep.get('identical_on_pseudostructure')}")
    print(f"wall time: {rep.get('wall_time_s', 0.0):.3f} s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortigen",
        description="Compressible-flow nonequilibrium diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, t_end, help_ in (
            ("solve-moc", {"required": True}, "advance a characteristic net"),
            ("detect-shock", {"default": None},
             "envelope detection on 1-D data")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--init", required=True,
                       help="initial data CSV (x,rho,u,p)")
        p.add_argument("--gamma", type=float, default=1.4)
        p.add_argument("--R", type=float, default=287.05)
        p.add_argument("--t-end", type=float, **t_end)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_1d)

    p = sub.add_parser("diagnose", help="run the 2-D diagnostic pipeline")
    p.add_argument("--fields", help="field CSV (x,y,rho,u,v,p)")
    p.add_argument("--manifest", help="snapshot manifest JSON")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("verify-jumps", help="jump-relation refinement sweep")
    p.add_argument("--relation", choices=("contact", "char"), required=True)
    p.add_argument("--gamma", type=float, default=1.4)
    p.add_argument("--refine", type=int, default=3)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_jumps)

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "verify-jumps" and args.tol is None:
        args.tol = 1e-2 if args.relation == "contact" else 0.02
    try:
        return args.func(args)
    except (NonConvergence, NonFiniteResult) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (VortigenError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
