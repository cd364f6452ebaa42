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
error, 3 numerical failure.
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import evoform, jumps, moc
from .errors import (
    GridInferenceError,
    MissingSnapshots,
    NonConvergence,
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


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows):
    """Floats as ``%.17g``, other values as ``str``, typed by the first row."""
    lines = [",".join(header)]
    if rows:
        template = ",".join(
            "%.17g" if isinstance(v, (float, np.floating)) else "%s"
            for v in rows[0])
        lines.extend(template % tuple(row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ingestion


def _read_rows(path, expected: Sequence[str]) -> List[List[float]]:
    """Float rows of a CSV whose header is exactly ``expected``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != list(expected):
                raise ParseError(
                    f"{path}: header must be exactly {','.join(expected)}")
            data = []
            for ln, row in enumerate(reader, start=2):
                if not row:
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
    return data


def _read_grid_csv(path, columns: Sequence[str]):
    """Scattered (x, y, values...) rows -> uniform grid + node arrays."""
    data = _read_rows(path, ["x", "y", *columns])
    if not data:
        raise ParseError(f"{path}: no data rows")
    arr = np.asarray(data)

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


def _same_grid(a: StructuredGrid2D, b: StructuredGrid2D) -> bool:
    return (a.nx == b.nx and a.ny == b.ny
            and abs(a.x0 - b.x0) <= 1e-12 and abs(a.y0 - b.y0) <= 1e-12
            and abs(a.hx - b.hx) <= 1e-12 and abs(a.hy - b.hy) <= 1e-12)


def load_fields(path, manifest: Optional[str] = None) -> FieldSet:
    """Load a ``x,y,rho,u,v,p`` node CSV, optionally with a snapshot manifest.

    The manifest is JSON ``{"snapshots": [{"t": ..., "path": ...}, ...]}``
    with strictly increasing times; snapshot paths are relative to the
    manifest's directory and must share the main file's grid.
    """
    grid, f = _read_grid_csv(path, ("rho", "u", "v", "p"))
    snapshots = None
    if manifest is not None:
        try:
            with open(manifest) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read manifest {manifest}: {exc}") from None
        entries = spec.get("snapshots")
        if not isinstance(entries, list) or not entries:
            raise ParseError(f"{manifest}: needs a nonempty 'snapshots' list")
        base = Path(manifest).parent
        snapshots = []
        last_t = None
        for ent in entries:
            try:
                t = float(ent["t"])
                sub = base / ent["path"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{manifest}: bad snapshot entry: {exc}") from None
            if last_t is not None and t <= last_t:
                raise ParseError(f"{manifest}: snapshot times must increase")
            last_t = t
            sgrid, sf = _read_grid_csv(sub, ("rho", "u", "v", "p"))
            if not _same_grid(grid, sgrid):
                raise ParseError(f"{sub}: snapshot grid differs from {path}")
            snapshots.append(Snapshot(t=t, rho=sf["rho"], u=sf["u"],
                                      v=sf["v"], p=sf["p"]))
    if np.any(f["rho"] <= 0.0) or np.any(f["p"] <= 0.0):
        raise NonPhysicalState(f"{path}: rho and p must be positive")
    return FieldSet(grid, rho=f["rho"], u=f["u"], v=f["v"], p=f["p"],
                    snapshots=snapshots)


def load_initial_1d(path):
    """1-D initial data CSV with header ``x,rho,u,p``."""
    rows = _read_rows(path, ["x", "rho", "u", "p"])
    if len(rows) < 3:
        raise ParseError(f"{path}: need at least 3 samples")
    arr = np.asarray(rows)
    if np.any(np.diff(arr[:, 0]) <= 0.0):
        raise ParseError(f"{path}: x samples must be strictly increasing")
    if np.any(arr[:, 1] <= 0.0) or np.any(arr[:, 3] <= 0.0):
        raise NonPhysicalState(f"{path}: rho and p must be positive")
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]


# ---------------------------------------------------------------------------
# scenario configuration


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
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read config {path}: {exc}") from None
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        try:
            return cls.from_dict(raw, default_id=Path(path).stem,
                                 base=Path(path).parent)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict, default_id: str = "scenario",
                  base: Optional[Path] = None) -> "ScenarioConfig":
        base = base or Path(".")

        def resolve(p):
            if p is None:
                return None
            p = Path(p)
            return str(p if p.is_absolute() else base / p)

        gas_raw = raw.get("gas", {})
        conv = {"entropy_function": EntropyConvention.ENTROPY_FUNCTION,
                "specific": EntropyConvention.SPECIFIC}[
            gas_raw.get("entropy_convention", "entropy_function")]
        gas = GasModel(gamma=float(gas_raw.get("gamma", 1.4)),
                       R=float(gas_raw.get("R", 287.05)),
                       entropy_convention=conv,
                       s_ref=float(gas_raw.get("s_ref", 0.0)))

        forces_spec = dict(raw.get("forces", {"kind": "none"}))
        if forces_spec.get("kind") not in ("none", "potential", "tabulated"):
            raise ParseError(f"unknown force kind {forces_spec.get('kind')!r}")
        if "path" in forces_spec:
            forces_spec["path"] = resolve(forces_spec["path"])

        transport = None
        if raw.get("transport") is not None:
            tr = raw["transport"]
            transport = TransportModel(mu=float(tr.get("mu", 0.0)),
                                       k=float(tr.get("k", 0.0)))

        sign = {"consistent": CroccoSign.CONSISTENT,
                "paper": CroccoSign.PAPER_LITERAL}[
            raw.get("crocco_sign", "consistent")]
        variant = {"paper": A1Variant.PAPER_LITERAL,
                   "standard": A1Variant.STANDARD_PRODUCTION}[
            raw.get("a1_variant", "paper")]

        tol = {"equilibrium": None, "jump_rel_error": 1e-2, "corrector": 1e-12}
        tol.update(raw.get("tolerances", {}))
        for name, val in tol.items():
            if val is not None and not float(val) > 0.0:
                raise ParseError(f"tolerance {name} must be positive")

        traj = raw.get("trajectories", {})
        seeds = traj.get("seeds")
        if seeds is not None and not (isinstance(seeds, list) and all(
                isinstance(seed, list) and len(seed) == 2 and all(
                    type(c) in (int, float) and abs(c) <= sys.float_info.max
                    for c in seed)
                for seed in seeds)):
            raise ParseError("trajectories.seeds must be a list of finite "
                             "[x, y] pairs")
        cfg = cls(
            scenario_id=raw.get("scenario_id", default_id),
            gas=gas,
            forces_spec=forces_spec,
            transport=transport,
            crocco_sign=sign,
            a1_variant=variant,
            tolerances=tol,
            fields_path=resolve(raw.get("fields")),
            manifest_path=resolve(raw.get("manifest")),
            initial_data_path=resolve(raw.get("initial_data")),
            seeds=seeds,
            traj_step=traj.get("step"),
            traj_max_len=traj.get("max_len"),
            include_time_term=raw.get("include_time_term"),
            time_index=int(raw.get("time_index", 0)),
            t_end=raw.get("t_end"),
            jump_checks=raw.get("jump_checks"),
            output_dir=raw.get("output_dir", "."),
        )
        if cfg.jump_checks is not None \
                and cfg.jump_checks.get("relation") not in ("contact", "char"):
            raise ParseError("jump_checks.relation must be contact or char")
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
        if kind == "potential":
            g, f = _read_grid_csv(path, ("phi",))
            if not _same_grid(grid, g):
                raise ParseError(f"{path}: force grid differs from field grid")
            return ForceModel.potential(f["phi"])
        g, f = _read_grid_csv(path, ("fx", "fy"))
        if not _same_grid(grid, g):
            raise ParseError(f"{path}: force grid differs from field grid")
        return ForceModel.tabulated(f["fx"], f["fy"])


@dataclass
class RunReport:
    """Serializable scenario outcome; classification is recomputable from
    ``max_K`` and ``tolerance``."""

    scenario_id: str
    lagrange: Optional[dict]
    max_K: Optional[float]
    tolerance: Optional[float]
    classification: Optional[str]
    dominant: Optional[str]
    regime: Optional[str]
    envelope: Optional[dict]
    moc_residuals: Optional[dict]
    identical_on_pseudostructure: Optional[bool]
    jump_checks: List[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _default_seeds(fs: FieldSet) -> List[List[float]]:
    g = fs.grid
    x = g.x0 + 0.3 * (g.xmax - g.x0)
    ys = [g.y0 + f * (g.ymax - g.y0) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
    return [[x, y] for y in ys]


def _event_dict(ev) -> Optional[dict]:
    if ev is None:
        return None
    return {"t_star": ev.t_star, "x_star": ev.x_star, "family": ev.family}


def _write_trajectory_csv(path: Path, xi, a1_samples, anu_samples, K):
    names = [n for n in ATTRIBUTION_ORDER if n in K.attribution]
    extra = [n for n in K.attribution if n not in names]
    names += sorted(extra)
    header = ["xi1", "A1", "Anu", "K", *names]
    rows = np.column_stack([xi, a1_samples, anu_samples, K.K,
                            *[K.attribution[n] for n in names]]).tolist()
    _write_csv(path, header, rows)


def _write_net_csv(path: Path, net: moc.CharNet):
    header = ["level", "index", "t", "x", "u", "a", "s",
              "cplus_parent", "cminus_parent", "c0_parent"]
    rows = []
    for k in range(net.n_levels):
        for i in range(net.level_size(k)):
            if k == 0:
                cp = cm = c0 = -1
            else:
                cp, cm = i, i + 1
                c0 = int(net.c0_parent[k][i])
            rows.append([k, i, float(net.t[k][i]), float(net.x[k][i]),
                         float(net.u[k][i]), float(net.a[k][i]),
                         float(net.s[k][i]), cp, cm, c0])
    _write_csv(path, header, rows)


def _default_t_end(analytic, x, rho, p, gamma: float) -> float:
    """1.5x the analytic envelope time, else one slowest-sound crossing."""
    if analytic is not None:
        return 1.5 * analytic.t_star
    return float(x[-1] - x[0]) / float(np.min(np.sqrt(gamma * p / rho)))


def _write_net_outputs(out: Path, net: moc.CharNet, analytic):
    """Write net.csv and envelope.json; return (residuals, envelope)."""
    _write_net_csv(out / "net.csv", net)
    event = net.envelope or moc.detect_envelope(net)
    envelope = {"detected": event is not None, "event": _event_dict(event),
                "analytic": _event_dict(analytic)}
    _write_json(out / "envelope.json", envelope)
    return {fam: moc.pseudostructure_residual(net, fam)
            for fam in ("C0", "C+", "C-")}, envelope


def _run_moc_part(cfg: ScenarioConfig, out: Path):
    x, rho, u, p = load_initial_1d(cfg.initial_data_path)
    nodes = moc.nodes_from_primitive(x, rho, u, p, cfg.gas)
    analytic = moc.detect_envelope(nodes)
    t_end = (float(cfg.t_end) if cfg.t_end is not None
             else _default_t_end(analytic, x, rho, p, cfg.gas.gamma))
    net = moc.advance_net(nodes, t_end=t_end, m=cfg.gas,
                          corrector_tol=cfg.tolerances["corrector"])
    residuals, envelope = _write_net_outputs(out, net, analytic)
    # the identical relation holds on the trajectory pseudostructure when
    # the transported quantity is conserved to discretization accuracy
    s_scale = max(float(np.max(net.s[0])), 1e-300)
    identical = residuals["C0"] <= 1e-3 * s_scale
    return net, residuals, envelope, identical


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the configured pipeline and write report plus CSVs."""
    t_start = time.perf_counter()
    out = Path(os.environ.get("VORTIGEN_OUT", cfg.output_dir))

    lagrange = max_K = tolerance = classification = dominant = regime = None
    envelope = moc_residuals = identical = None

    if cfg.fields_path is not None:
        fs = load_fields(cfg.fields_path, cfg.manifest_path)
        forces = cfg.build_forces(fs.grid)
        if cfg.include_time_term and (fs.snapshots is None
                                      or len(fs.snapshots) < 2):
            raise MissingSnapshots(
                "config requests the nonstationary term but the field set "
                "has no snapshot series")

        rep = evoform.lagrange_criterion(fs, forces)
        lagrange = {**dataclasses.asdict(rep),
                    "predicts_equilibrium": rep.predicts_equilibrium}

        if cfg.transport is not None:
            a1 = evoform.viscous_a1(fs, cfg.transport, cfg.gas, cfg.a1_variant)
        else:
            a1 = evoform.ideal_a1()

        tolerance = cfg.tolerances["equilibrium"]
        if tolerance is None:
            tolerance = evoform.equilibrium_tolerance(fs, cfg.gas)

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
            cls = evoform.equilibrium_classifier(K, tolerance)
            if worst is None or cls.magnitude > worst.magnitude:
                worst = cls
        if worst is None:
            raise ParseError("no trajectory could be traced from the seeds")
        max_K = worst.magnitude
        classification = worst.kind
        dominant = worst.dominant

        j = int(np.argmax(fs.speed))
        q = PrimitiveState(rho=float(fs.rho.flat[j]),
                           u=(float(fs.u.flat[j]), float(fs.v.flat[j])),
                           p=float(fs.p.flat[j]))
        regime = evoform.classify_regime(derive_state(q, cfg.gas)).value

    if cfg.initial_data_path is not None:
        _, moc_residuals, envelope, identical = _run_moc_part(cfg, out)

    jump_records = []
    if cfg.jump_checks is not None:
        jump_records = _jump_check_sweep(
            cfg.jump_checks["relation"], cfg.gas.gamma,
            int(cfg.jump_checks.get("refine", 3)),
            cfg.tolerances["jump_rel_error"])

    report = RunReport(
        scenario_id=cfg.scenario_id,
        lagrange=lagrange,
        max_K=max_K,
        tolerance=tolerance,
        classification=classification,
        dominant=dominant,
        regime=regime,
        envelope=envelope,
        moc_residuals=moc_residuals,
        identical_on_pseudostructure=identical,
        jump_checks=jump_records,
        wall_time_s=time.perf_counter() - t_start,
    )
    _write_json(out / "run_report.json", report.to_json())
    return report


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve_moc(args) -> int:
    out = Path(os.environ.get("VORTIGEN_OUT", args.out))
    gas = GasModel(gamma=args.gamma, R=args.R)
    x, rho, u, p = load_initial_1d(args.init)
    nodes = moc.nodes_from_primitive(x, rho, u, p, gas)
    net = moc.advance_net(nodes, t_end=args.t_end, m=gas)
    residuals, envelope = _write_net_outputs(out, net,
                                             moc.detect_envelope(nodes))
    _write_json(out / "residuals.json", residuals)
    print(f"net: {net.n_levels} levels, envelope: "
          f"{'yes' if envelope['detected'] else 'no'} -> {out}")
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
    out = Path(os.environ.get("VORTIGEN_OUT", args.out))
    reports = _jump_check_sweep(args.relation, args.gamma, args.refine,
                                args.tol)
    for rec in reports:
        print(f"h = {rec['grid_h']:.6g}: rel_error = {rec['rel_error']:.3e} "
              f"({'pass' if rec['passed'] else 'FAIL'})")
    _write_json(out / "jump_reports.json",
                {"relation": args.relation, "reports": reports})
    return 0 if all(r["passed"] for r in reports) else 3


def _cmd_detect_shock(args) -> int:
    out = Path(os.environ.get("VORTIGEN_OUT", args.out))
    gas = GasModel(gamma=args.gamma, R=args.R)
    x, rho, u, p = load_initial_1d(args.init)
    nodes = moc.nodes_from_primitive(x, rho, u, p, gas)
    analytic = moc.detect_envelope(nodes)
    t_end = (args.t_end if args.t_end is not None
             else _default_t_end(analytic, x, rho, p, gas.gamma))
    net = moc.advance_net(nodes, t_end=t_end, m=gas)
    event = net.envelope or moc.detect_envelope(net)
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


def _cmd_report(args) -> int:
    path = Path(args.run) / "run_report.json"
    try:
        with open(path) as fh:
            rep = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
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

    p = sub.add_parser("solve-moc", help="advance a characteristic net")
    p.add_argument("--init", required=True, help="initial data CSV (x,rho,u,p)")
    p.add_argument("--gamma", type=float, default=1.4)
    p.add_argument("--R", type=float, default=287.05)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve_moc)

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

    p = sub.add_parser("detect-shock", help="envelope detection on 1-D data")
    p.add_argument("--init", required=True)
    p.add_argument("--gamma", type=float, default=1.4)
    p.add_argument("--R", type=float, default=287.05)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect_shock)

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
    except NonConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (VortigenError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
