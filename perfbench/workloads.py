"""Seeded inputs, command lines and output checks of the four workloads.

Every input is built here from closed forms (the 2-D fields) or from
``vortigen.exact.SimpleWave`` (the 1-D profiles); nothing is taken from
the test suite, so refactoring the tests cannot change what the benchmark
runs.  The seed jitters physical parameters by up to 3 % and keeps each
workload's known outcome, which the checks compare against closed-form
references:

* ``diag2d_source513``: a homentropic potential source has a uniform
  stagnation enthalpy and no vorticity, so the commutator vanishes to
  truncation accuracy (``locally_equilibrium``) and the Lagrange test
  predicts equilibrium.
* ``diag2d_couette_dense``: plane Couette flow with viscous heating is
  driven by transport, so it is ``nonequilibrium`` with a transport term
  dominant; the built-in centered-fan jump sweep passes at every level.
* ``moc1d_compress821``: the sine simple wave has ``lam = u + a`` with
  ``dlam/dx = -2 pi A cos(2 pi x)``, so the C+ envelope forms at
  ``t* = 1 / (2 pi A)``; entropy is uniform, so the identical relation
  holds on the trajectory pseudostructure.
* ``moc1d_expand1201``: a monotone ``tanh`` expansion has ``dlam/dx > 0``
  for both families, so no envelope forms.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

GAMMA = 1.4
R_GAS = 1.0
DEFAULT_SEED = 0
JITTER = 0.03
TRANSPORT_TERMS = ("heatflux_divergence", "conduction_production",
                   "viscous_production")
# run_report.json carries the run's own wall time; it is the one
# nondeterministic field of any output
VOLATILE_KEY = "wall_time_s"
_VOLATILE_LINE = re.compile(rb'^ *"%s": [^\n]*\n' % VOLATILE_KEY.encode(),
                            re.MULTILINE)
# report numbers are compared within REL_TOL relative; below ABS_SCALE in
# magnitude (rounding-level residuals and relative errors) within
# REL_TOL * ABS_SCALE absolute
REL_TOL = 1e-12
ABS_SCALE = 0.1


@dataclass
class Prepared:
    """One workload's generated inputs for one seed.

    ``argv(out)`` is the ``vortigen`` command line writing into ``out``;
    ``expect`` holds the closed-form expectations the checks compare to.
    """

    workload: str
    params: Dict[str, float]
    argv: Callable[[Path], List[str]]
    expect: Dict[str, object]
    unit: str  # what work_per_s counts: "trajectories" or "net_nodes"


def _jitter(rng: np.random.Generator, value: float) -> float:
    return float(value * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def _write_rows(path: Path, header: str, columns) -> None:
    data = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, data, fmt="%.17g", delimiter=",")


def _write_fields(path: Path, x, y, rho, u, v, p) -> None:
    X, Y = np.meshgrid(x, y)
    _write_rows(path, "x,y,rho,u,v,p",
                [a.ravel() for a in (X, Y, rho, u, v, p)])


def _write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _diagnose_argv(cfg_path: Path):
    return lambda out: ["diagnose", "--config", str(cfg_path),
                        "--out", str(out)]


# ---------------------------------------------------------------------------
# generators


def build_source(work: Path, rng: np.random.Generator, small: bool) -> Prepared:
    """Steady homentropic source U = c (x, y) / r^2 on [1, 2]^2 with the
    density that makes h0 uniform; five default seeds, inviscid."""
    n = 65 if small else 513
    strength = _jitter(rng, 0.3)
    h_inf = _jitter(rng, 3.5)
    s0 = _jitter(rng, 1.0)
    x = 1.0 + np.arange(n) / (n - 1)
    X, Y = np.meshgrid(x, x)
    r2 = X ** 2 + Y ** 2
    u = strength * X / r2
    v = strength * Y / r2
    h = h_inf - 0.5 * (u ** 2 + v ** 2)
    rho = ((GAMMA - 1.0) * h / (GAMMA * s0)) ** (1.0 / (GAMMA - 1.0))
    p = s0 * rho ** GAMMA
    _write_fields(work / "fields.csv", x, x, rho, u, v, p)
    cfg = work / "scenario.json"
    _write_config(cfg, {"scenario_id": "source", "fields": "fields.csv",
                        "gas": {"gamma": GAMMA, "R": R_GAS}})
    return Prepared(
        workload="diag2d_source513",
        params={"n": n, "strength": strength, "h_inf": h_inf, "s0": s0},
        argv=_diagnose_argv(cfg),
        expect={"classification": "locally_equilibrium",
                "predicts_equilibrium": True, "trajectories": 5},
        unit="trajectories",
    )


def build_couette(work: Path, rng: np.random.Generator, small: bool) -> Prepared:
    """Plane Couette flow u = U0 y with viscous heating, walls at T0:
    T(y) = T0 + mu U0^2 / (2k) y (1 - y) at uniform pressure; dense
    seeding across the channel plus the centered-fan jump sweep."""
    n, n_seeds, refine = (33, 8, 1) if small else (129, 64, 3)
    mu, k = 0.1, 0.05
    U0 = _jitter(rng, 1.0)
    T0 = _jitter(rng, 1.0)
    p0 = _jitter(rng, 1.0)
    x = np.arange(n) / (n - 1)
    X, Y = np.meshgrid(x, x)
    T = T0 + (mu * U0 ** 2 / (2.0 * k)) * Y * (1.0 - Y)
    rho = p0 / (R_GAS * T)
    _write_fields(work / "fields.csv", x, x, rho, U0 * Y, np.zeros_like(Y),
                  np.full_like(Y, p0))
    seeds = [[0.1, float(yy)] for yy in np.linspace(0.05, 0.95, n_seeds)]
    cfg = work / "scenario.json"
    _write_config(cfg, {
        "scenario_id": "couette", "fields": "fields.csv",
        "gas": {"gamma": GAMMA, "R": R_GAS},
        "transport": {"mu": mu, "k": k},
        "trajectories": {"seeds": seeds},
        "jump_checks": {"relation": "char", "refine": refine},
    })
    return Prepared(
        workload="diag2d_couette_dense",
        params={"n": n, "seeds": n_seeds, "refine": refine, "U0": U0,
                "T0": T0, "p0": p0},
        argv=_diagnose_argv(cfg),
        expect={"classification": "nonequilibrium",
                "dominant_in": TRANSPORT_TERMS, "jump_records": refine,
                "trajectories": n_seeds},
        unit="trajectories",
    )


def _simple_wave_init(path: Path, u0, a_ref: float, s0: float, x) -> None:
    from vortigen.exact import SimpleWave
    from vortigen.thermo import GasModel

    wave = SimpleWave(u0, gamma=GAMMA, a_ref=a_ref, s0=s0)
    xs, rho, u, p = wave.primitive_profile(x, GasModel(gamma=GAMMA, R=R_GAS))
    _write_rows(path, "x,rho,u,p", [xs, rho, u, p])


def build_compress(work: Path, rng: np.random.Generator, small: bool) -> Prepared:
    """Sine simple-wave compression u0 = -A sin(2 pi x) 2/(gamma+1) on
    [-0.55, 3.55], ``diagnose`` with t_end 3 (the net stops at the C+
    envelope near t* = 1/(2 pi A))."""
    n = 101 if small else 821
    amp = _jitter(rng, 0.1)
    a_ref = _jitter(rng, 1.0)
    s0 = _jitter(rng, 1.0)
    _simple_wave_init(
        work / "init.csv",
        lambda x: -amp * math.sin(2.0 * math.pi * x) * 2.0 / (GAMMA + 1.0),
        a_ref, s0, np.linspace(-0.55, 3.55, n))
    cfg = work / "scenario.json"
    _write_config(cfg, {"scenario_id": "compression",
                        "initial_data": "init.csv", "t_end": 3.0,
                        "gas": {"gamma": GAMMA, "R": R_GAS}})
    return Prepared(
        workload="moc1d_compress821",
        params={"n": n, "amplitude": amp, "a_ref": a_ref, "s0": s0},
        argv=_diagnose_argv(cfg),
        expect={"envelope_family": "C+",
                "t_star": 1.0 / (2.0 * math.pi * amp), "t_star_rel": 0.02,
                "identical": True},
        unit="net_nodes",
    )


def build_expand(work: Path, rng: np.random.Generator, small: bool) -> Prepared:
    """Monotone simple-wave expansion u0 = B tanh((x - 2)/w) on [0, 4],
    ``detect-shock`` with the default t_end (the net runs until the
    domain of determinacy is used up)."""
    n = 151 if small else 1201
    amp = _jitter(rng, 0.1)
    width = _jitter(rng, 0.5)
    a_ref = _jitter(rng, 1.0)
    init = work / "init.csv"
    _simple_wave_init(init, lambda x: amp * math.tanh((x - 2.0) / width),
                      a_ref, 1.0, np.linspace(0.0, 4.0, n))
    return Prepared(
        workload="moc1d_expand1201",
        params={"n": n, "amplitude": amp, "width": width, "a_ref": a_ref},
        argv=lambda out: ["detect-shock", "--init", str(init),
                          "--gamma", repr(GAMMA), "--R", repr(R_GAS),
                          "--out", str(out)],
        expect={},
        unit="net_nodes",
    )


WORKLOADS: Dict[str, Callable[[Path, np.random.Generator, bool], Prepared]] = {
    "diag2d_source513": build_source,
    "diag2d_couette_dense": build_couette,
    "moc1d_compress821": build_compress,
    "moc1d_expand1201": build_expand,
}


def prepare(name: str, seed: int, work: Path, small: bool = False) -> Prepared:
    """Generate one workload's inputs under ``work`` from ``seed``."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](work, rng, small)


# ---------------------------------------------------------------------------
# output checks


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def deterministic_digests(out: Path) -> Dict[str, str]:
    """SHA-256 of every output file, JSON reports without their
    ``wall_time_s`` line, so reruns of one input must agree byte for byte."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = _VOLATILE_LINE.sub(b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def report_numbers(out: Path) -> Dict[str, float]:
    """Every number of the run's JSON reports, keyed by its path."""
    flat: Dict[str, float] = {}

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key, val in obj.items():
                if key != VOLATILE_KEY:
                    walk(f"{prefix}.{key}", val)
        elif isinstance(obj, list):
            for i, val in enumerate(obj):
                walk(f"{prefix}[{i}]", val)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            flat[prefix] = float(obj)

    for path in sorted(out.glob("*.json")):
        walk(path.name, _load_json(path))
    return flat


def check_outcome(prep: Prepared, out: Path) -> List[str]:
    """Compare one run's outputs with the closed-form expectations;
    returns the failures (empty when the run is correct)."""
    exp = prep.expect
    errors: List[str] = []

    def need(cond, msg):
        if not cond:
            errors.append(msg)

    try:
        if prep.workload.startswith("diag2d"):
            rep = _load_json(out / "run_report.json")
            need(rep.get("classification") == exp["classification"],
                 f"classification {rep.get('classification')!r}, "
                 f"expected {exp['classification']!r}")
            if "predicts_equilibrium" in exp:
                got = (rep.get("lagrange") or {}).get("predicts_equilibrium")
                need(got is exp["predicts_equilibrium"],
                     f"lagrange predicts_equilibrium {got!r}")
            if "dominant_in" in exp:
                need(rep.get("dominant") in exp["dominant_in"],
                     f"dominant term {rep.get('dominant')!r} is not transport")
            if "jump_records" in exp:
                recs = rep.get("jump_checks") or []
                need(len(recs) == exp["jump_records"]
                     and all(r.get("passed") is True for r in recs),
                     f"jump records {[r.get('passed') for r in recs]}")
            n_traj = len(list(out.glob("trajectory_*.csv")))
            need(n_traj == exp["trajectories"],
                 f"{n_traj} trajectories written, expected "
                 f"{exp['trajectories']}")
        elif prep.workload == "moc1d_compress821":
            rep = _load_json(out / "run_report.json")
            env = rep.get("envelope") or {}
            ev = env.get("event") or {}
            need(env.get("detected") is True, "no envelope detected")
            need(ev.get("family") == exp["envelope_family"],
                 f"envelope family {ev.get('family')!r}")
            t_star = ev.get("t_star")
            need(isinstance(t_star, float) and abs(t_star - exp["t_star"])
                 <= exp["t_star_rel"] * exp["t_star"],
                 f"t* = {t_star!r}, closed form {exp['t_star']:.6g}")
            need(rep.get("identical_on_pseudostructure") is exp["identical"],
                 "identical relation fails on the trajectory pseudostructure")
            need((out / "net.csv").is_file(), "net.csv missing")
        else:
            rep = _load_json(out / "envelope_report.json")
            need(rep.get("detected") is False and rep.get("numeric") is None
                 and rep.get("analytic") is None,
                 f"envelope reported on a monotone expansion: {rep}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors


def compare_reference(ref: dict, digests: Dict[str, str],
                      numbers: Dict[str, float]) -> List[str]:
    """Compare a default-seed run with the recorded reference: the file
    digests named in ``ref["sha256"]`` exactly, every recorded report
    number equal to rounding (``REL_TOL``, see ``ABS_SCALE``)."""
    errors = []
    for name, want in ref.get("sha256", {}).items():
        got = digests.get(name)
        if got != want:
            errors.append(f"{name}: sha256 {got} != recorded {want}")
    for key, want in ref.get("numbers", {}).items():
        got = numbers.get(key)
        if got is None:
            errors.append(f"{key}: missing, recorded {want!r}")
        elif abs(got - want) > REL_TOL * max(abs(got), abs(want), ABS_SCALE):
            errors.append(f"{key}: {got!r} != recorded {want!r}")
    return errors
