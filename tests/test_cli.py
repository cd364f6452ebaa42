import dataclasses
import errno
import json
import mmap
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vortigen import cli
from vortigen.errors import GridInferenceError, ParseError
from vortigen.exact import SimpleWave
from vortigen.fields import FieldSet
from vortigen.thermo import GasModel

from nets import collect_net
from scenarios import GAMMA, couette_flow, source_flow

M = GasModel(gamma=GAMMA, R=1.0)


def write_grid_csv(path, grid, **columns):
    """A node CSV of ``grid``: x, y and the named (ny, nx) node fields."""
    lines = [",".join(["x", "y", *columns])]
    for j in range(grid.ny):
        for i in range(grid.nx):
            vals = (grid.x[i], grid.y[j], *(f[j, i] for f in columns.values()))
            lines.append(",".join(format(v, ".17g") for v in vals))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_fields_csv(path, fs: FieldSet):
    write_grid_csv(path, fs.grid, rho=fs.rho, u=fs.u, v=fs.v, p=fs.p)


def write_uniform_csv(path, nx=9, ny=9, rho=1.0, u=1.0, v=0.0, p=1.0,
                      h=None, x0=0.0):
    hx, hy = (1.0 / (nx - 1), 1.0 / (ny - 1)) if h is None else (h, h)
    lines = ["x,y,rho,u,v,p"]
    for j in range(ny):
        for i in range(nx):
            lines.append(",".join(format(val, ".17g") for val in
                                  (x0 + i * hx, j * hy, rho, u, v, p)))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_init_csv(path, x, rho, u, p):
    lines = ["x,rho,u,p"]
    for vals in zip(x, rho, u, p):
        lines.append(",".join(format(v, ".17g") for v in vals))
    path.write_text("\n".join(lines) + "\n")
    return path


def compression_init(path, n=821):
    w = SimpleWave(lambda x: -0.1 * np.sin(2 * np.pi * x) * 2.0 / (GAMMA + 1.0),
                   gamma=GAMMA)
    x, rho, u, p = w.primitive_profile(np.linspace(-0.55, 3.55, n), M)
    return write_init_csv(path, x, rho, u, p)


def diagnose_snapshots(dirpath, times, speeds):
    """Run ``diagnose`` on 9x9 uniform fields with a manifest of one
    snapshot per time, given as JSON text (json.dumps cannot write 1e999),
    at the matching speed u; returns the exit code and the manifest."""
    write_uniform_csv(dirpath / "f.csv")
    entries = []
    for i, (t, u) in enumerate(zip(times, speeds)):
        write_uniform_csv(dirpath / f"s{i}.csv", u=u)
        entries.append(f'{{"t": {t}, "path": "s{i}.csv"}}')
    man = dirpath / "m.json"
    man.write_text('{"snapshots": [%s]}' % ", ".join(entries))
    cfgp = write_config(dirpath, fields="f.csv", manifest="m.json")
    return cli.main(["diagnose", "--config", str(cfgp)]), man


def write_config(dirpath, **cfg):
    path = dirpath / "config.json"
    path.write_text(json.dumps({"gas": {"gamma": GAMMA, "R": 1.0},
                                "output_dir": str(dirpath / "out"), **cfg}))
    return path


class TestLoadFields:
    def test_uniform_roundtrip(self, tmp_path):
        path = write_uniform_csv(tmp_path / "f.csv", nx=3, ny=3)
        fs = cli.load_fields(path)
        assert fs.grid.nx == 3 and fs.grid.ny == 3
        assert np.all(fs.rho == 1.0) and np.all(fs.u == 1.0)

    def test_missing_node(self, tmp_path):
        path = tmp_path / "f.csv"
        write_uniform_csv(path, nx=3, ny=3)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(GridInferenceError):
            cli.load_fields(path)

    def test_duplicate_node(self, tmp_path):
        path = write_uniform_csv(tmp_path / "f.csv", nx=3, ny=3)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [lines[1]]) + "\n")
        with pytest.raises(GridInferenceError, match="duplicate or missing"):
            cli.load_fields(path)

    def test_node_index_past_the_axis_end(self, tmp_path):
        # a spacing tolerance relative to |x| would let the x axis
        # 1e6 + (0, 1, 6) * 1e-4 pass, and its last node round to index 6
        # of 3
        path = tmp_path / "f.csv"
        lines = ["x,y,rho,u,v,p"] + [
            f"{1e6 + k * 1e-4!r},{y},1,1,0,1"
            for y in (0.0, 0.5, 1.0) for k in (0, 1, 6)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridInferenceError, match="irregular spacing"):
            cli.load_fields(path)

    def test_irregular_axis_far_from_the_origin(self, tmp_path):
        # a spacing tolerance relative to |x| ~ 1e6 would exceed the step
        # 1e-4 itself and move the third column by 0.4 steps
        path = tmp_path / "f.csv"
        path.write_text("x,y,rho,u,v,p\n" + "".join(
            f"{1e6 + k * 1e-4!r},{y},1,1,0,1\n"
            for y in (0.0, 0.5, 1.0) for k in (0, 1, 2.4)))
        with pytest.raises(GridInferenceError, match="irregular spacing"):
            cli.load_fields(path)

    def test_node_drift_past_the_axis_end(self, tmp_path):
        # every step is within 1e-3 of the first, but over 600 nodes they
        # add up to more than half a step: the last node rounds to index
        # 600 of 600, which must be reported, not used as an index
        h = 1e-4
        xs = [1e6, 1e6 + h] + [1e6 + h + k * h * (1 + 9e-4)
                               for k in range(1, 599)]
        path = tmp_path / "f.csv"
        path.write_text("x,y,rho,u,v,p\n" + "".join(
            f"{x!r},{y},1,1,0,1\n" for y in (0.0, 0.5, 1.0) for x in xs))
        with pytest.raises(GridInferenceError, match="duplicate or missing"):
            cli.load_fields(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y,rho,u,p\n0,0,1,1,1\n")
        with pytest.raises(ParseError):
            cli.load_fields(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "f.csv"
        write_uniform_csv(path, nx=3, ny=3)
        path.write_text(path.read_text().replace("1,", "oops,", 1))
        with pytest.raises(ParseError):
            cli.load_fields(path)

    def test_irregular_spacing(self, tmp_path):
        path = tmp_path / "f.csv"
        lines = ["x,y,rho,u,v,p"]
        for x in (0.0, 0.5, 0.7):
            for y in (0.0, 0.5, 1.0):
                lines.append(f"{x},{y},1,1,0,1")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridInferenceError):
            cli.load_fields(path)

    def test_manifest_decreasing_times(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv")
        write_uniform_csv(tmp_path / "s0.csv")
        write_uniform_csv(tmp_path / "s1.csv")
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"snapshots": [
            {"t": 1.0, "path": "s0.csv"}, {"t": 0.5, "path": "s1.csv"}]}))
        with pytest.raises(ParseError):
            cli.load_fields(fpath, str(man))

    def test_manifest_loads_series(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv")
        write_uniform_csv(tmp_path / "s0.csv")
        write_uniform_csv(tmp_path / "s1.csv", u=1.5)
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"snapshots": [
            {"t": 0.0, "path": "s0.csv"}, {"t": 0.5, "path": "s1.csv"}]}))
        fs = cli.load_fields(fpath, str(man))
        assert len(fs.snapshots) == 2
        assert np.all(fs.snapshots[1].u == 1.5)

    def test_nonphysical_snapshot(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv")
        write_uniform_csv(tmp_path / "s0.csv")
        write_uniform_csv(tmp_path / "s1.csv", rho=-1.0)
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"snapshots": [
            {"t": 0.0, "path": "s0.csv"}, {"t": 0.5, "path": "s1.csv"}]}))
        with pytest.raises(cli.NonPhysicalState, match="s1.csv"):
            cli.load_fields(fpath, str(man))

    def test_nonphysical(self, tmp_path):
        path = tmp_path / "f.csv"
        write_uniform_csv(path, rho=1.0)
        path.write_text(path.read_text().replace(",1,1,0,1", ",-1,1,0,1", 1))
        with pytest.raises(cli.NonPhysicalState, match=re.escape(
                f"{path}:2: column rho must be positive, got -1.0")):
            cli.load_fields(path)

    @pytest.mark.parametrize("h", [1e-3, 1e-13])
    @pytest.mark.parametrize("x0, same", [(0.0, True), (0.5, False)])
    def test_snapshot_grid_matches_to_a_part_of_a_step(self, tmp_path, h,
                                                       x0, same):
        # x0 is in cells: half a cell off is refused at every spacing
        fpath = write_uniform_csv(tmp_path / "f.csv", h=h)
        write_uniform_csv(tmp_path / "s0.csv", h=h)
        write_uniform_csv(tmp_path / "s1.csv", h=h, x0=x0 * h, u=1.5)
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"snapshots": [
            {"t": 0.0, "path": "s0.csv"}, {"t": 0.5, "path": "s1.csv"}]}))
        if same:
            assert len(cli.load_fields(fpath, str(man)).snapshots) == 2
        else:
            with pytest.raises(ParseError, match="s1.csv: grid differs"):
                cli.load_fields(fpath, str(man))

    @pytest.mark.parametrize("times, k, shown", [
        (["0", "1e999"], 1, "Infinity"),
        (["0", "1", "1e999"], 2, "Infinity"),
        (["0", '" 1.0 "'], 1, '" 1.0 "'),
        (["0", "true"], 1, "true"),
        (["NaN", "1"], 0, "NaN"),
    ])
    def test_manifest_time_must_be_finite_number(self, tmp_path, capsys,
                                                 times, k, shown):
        rc, man = diagnose_snapshots(tmp_path, times,
                                     [1.0 + 0.5 * i for i in range(len(times))])
        assert rc == 2
        assert capsys.readouterr().err.strip().endswith(
            f"{man}: snapshots[{k}].t must be a finite number, got {shown}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("times, runs", [
        (["0", "1e-320"], False),
        (["0", "1e-300", "2e-300"], False),
        (["0", "1e200", "2e200"], False),
        (["0", "1e160", "2e160"], False),
        (["0", "1", "1e300"], False),
        (["0", "1e-160", "2e-160"], False),  # h1 h2 = 1e-320 is subnormal
        (["0", "1e-300"], True),
        (["0", "1e300"], True),
        (["0", "1e-150", "2e-150"], True),
        (["0"], True),
    ])
    def test_manifest_times_too_close_or_far_apart(self, tmp_path, capsys,
                                                   times, runs):
        # the time derivative divides by the gaps and by products of two
        rc, man = diagnose_snapshots(tmp_path, times,
                                     np.linspace(1.0, 1.5, len(times)))
        if runs:
            assert rc == 0
            return
        assert rc == 2
        shown = [float(t) for t in times]
        assert capsys.readouterr().err.strip().endswith(
            f"{man}: snapshot times {shown} too close or too far apart "
            "(a gap, or a product of two, is subnormal, 0 or not finite)")
        assert not (tmp_path / "out").exists()


class TestScenarios:
    def test_uniform_flow_locally_equilibrium(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfgp = write_config(tmp_path, fields="f.csv")
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["classification"] == "locally_equilibrium"
        assert rep["envelope"] is None
        assert rep["lagrange"]["predicts_equilibrium"] is True
        assert rep["regime"] == "elliptic"  # |u| = 1 < a = sqrt(1.4)

    def test_classification_recomputable(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfgp = write_config(tmp_path, fields="f.csv")
        cli.main(["diagnose", "--config", str(cfgp)])
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        expect = ("locally_equilibrium" if rep["max_K"] <= rep["tolerance"]
                  else "nonequilibrium")
        assert rep["classification"] == expect

    def test_compression_scenario_envelope(self, tmp_path):
        init = compression_init(tmp_path / "init.csv")
        cfgp = write_config(tmp_path, initial_data="init.csv", t_end=3.0)
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["envelope"]["detected"] is True
        t_star = rep["envelope"]["event"]["t_star"]
        assert t_star == pytest.approx(1.0 / (0.2 * np.pi), rel=0.02)
        assert rep["identical_on_pseudostructure"] is True
        assert (tmp_path / "out" / "net.csv").exists()

    def test_couette_scenario_transport_dominant(self, tmp_path):
        fs, _ = couette_flow(mu=0.1, k=0.05)
        write_fields_csv(tmp_path / "f.csv", fs)
        cfgp = write_config(
            tmp_path, fields="f.csv",
            transport={"mu": 0.1, "k": 0.05},
            trajectories={"seeds": [[0.1, 0.3], [0.1, 0.7]]})
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["classification"] == "nonequilibrium"
        assert rep["dominant"] in ("conduction_production",
                                   "viscous_production", "heatflux_divergence")
        traj_csv = (tmp_path / "out" / "trajectory_000.csv").read_text()
        header = traj_csv.splitlines()[0].split(",")
        assert header[:4] == ["xi1", "A1", "Anu", "K"]
        assert "conduction_production" in header

    def test_crocco_sign_config_plumbing(self, tmp_path):
        # shear flow: the literal sign gives Anu = 2 sigma^2 y / T along a
        # horizontal trajectory, the consistent sign cancels it
        from scenarios import shear_flow
        fs, sigma, T0 = shear_flow()
        write_fields_csv(tmp_path / "f.csv", fs)
        y_seed = 1.0
        results = {}
        for sign in ("paper", "consistent"):
            cfgp = write_config(
                tmp_path, fields="f.csv", crocco_sign=sign,
                output_dir=str(tmp_path / f"out_{sign}"),
                trajectories={"seeds": [[0.1, y_seed]]})
            assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
            csv_text = (tmp_path / f"out_{sign}" /
                        "trajectory_000.csv").read_text().splitlines()
            cols = csv_text[0].split(",")
            anu = [float(r.split(",")[cols.index("Anu")]) for r in csv_text[1:]]
            results[sign] = np.array(anu)
        expected = 2.0 * sigma ** 2 * y_seed / T0
        assert np.max(np.abs(results["paper"] - expected)) <= 0.01 * expected
        assert np.max(np.abs(results["consistent"])) <= 1e-8

    def test_jump_checks_in_report(self, tmp_path):
        cfgp = write_config(
            tmp_path, jump_checks={"relation": "contact", "refine": 2})
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert len(rep["jump_checks"]) == 2
        assert all(r["passed"] for r in rep["jump_checks"])
        errs = [r["rel_error"] for r in rep["jump_checks"]]
        assert errs[1] < errs[0]

    def test_manifest_pipeline_nonstationarity(self, tmp_path):
        # diaphragm-break pair through the full file-based pipeline
        from scenarios import diaphragm_snapshot_pair
        fs = diaphragm_snapshot_pair()
        for i, snap in enumerate(fs.snapshots):
            snap_fs = type(fs)(fs.grid, snap.rho, snap.u, snap.v, snap.p)
            write_fields_csv(tmp_path / f"snap{i}.csv", snap_fs)
        write_fields_csv(tmp_path / "f.csv",
                         type(fs)(fs.grid, fs.rho, fs.u, fs.v, fs.p))
        (tmp_path / "m.json").write_text(json.dumps({"snapshots": [
            {"t": s.t, "path": f"snap{i}.csv"}
            for i, s in enumerate(fs.snapshots)]}))
        cfgp = write_config(
            tmp_path, fields="f.csv", manifest="m.json", time_index=1,
            trajectories={"seeds": [[0.55, 0.02]], "max_len": 0.5})
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["classification"] == "nonequilibrium"
        assert rep["dominant"] == "nonstationarity"
        assert rep["lagrange"]["stationary"] is False

    def test_missing_snapshots_exits_2(self, tmp_path, capsys):
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfgp = write_config(tmp_path, fields="f.csv",
                                 include_time_term=True)
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 2
        assert "nonstationary" in capsys.readouterr().err

    def test_nonexistent_path_exits_2(self, tmp_path):
        cfgp = write_config(tmp_path, fields="missing.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2

    def test_invalid_gas_model_exits_2(self, tmp_path):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv",
                                 gas={"gamma": 0.9, "R": 1.0})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2

    def test_all_seeds_stagnant_exits_2(self, tmp_path):
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17, u=0.0, v=0.0)
        cfgp = write_config(tmp_path, fields="f.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2

    @pytest.mark.parametrize("seeds", [5, [[0.1]], [[0.1, float("nan")]],
                                       [[0.1, "0.5"]]])
    def test_malformed_seeds_exit_2(self, tmp_path, capsys, seeds):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv",
                                 trajectories={"seeds": seeds})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err and "trajectories.seeds" in err

    def test_derived_fields_built_once_per_run(self, tmp_path, monkeypatch):
        # guards against per-seed recomputation of the node fields, and
        # against sampling a node stack or building a frame twice per seed
        import vortigen
        from vortigen import evoform, fields
        fs, _ = couette_flow(mu=0.1, k=0.05, nx=33, ny=33)
        write_fields_csv(tmp_path / "f.csv", fs)
        counts = {}
        fn = fields.gradient

        def counted(*a, **kw):
            counts["gradient"] += 1
            return fn(*a, **kw)
        for mod in vars(vortigen).values():
            if getattr(mod, "gradient", None) is fn:
                monkeypatch.setattr(mod, "gradient", counted)
        sampled, framed = [], []
        monkeypatch.setattr(evoform, "interp_bilinear", lambda *a: (
            sampled.append(1) or fields.interp_bilinear(*a)))
        monkeypatch.setattr(evoform, "frame_along", lambda traj: (
            framed.append(1) or fields.frame_along(traj)))
        sample_anu, anu_runs = evoform.sample_anu, []
        monkeypatch.setattr(evoform, "sample_anu", lambda *a, **kw: (
            anu_runs.append(1) or sample_anu(*a, **kw)))
        seen, per_seed = [], []
        for n in (8, 64):
            counts.update(gradient=0)
            sampled.clear()
            framed.clear()
            anu_runs.clear()
            seeds = [[0.1, y] for y in np.linspace(0.05, 0.95, n)]
            cfgp = write_config(
                tmp_path, fields="f.csv", transport={"mu": 0.1, "k": 0.05},
                trajectories={"seeds": seeds},
                output_dir=str(tmp_path / f"out{n}"))
            assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
            assert len(list((tmp_path / f"out{n}").glob("trajectory_*"))) == n
            seen.append(dict(counts))
            per_seed.append((len(sampled) / n, len(framed) / n))
            assert len(anu_runs) == 1
        assert seen[0] == seen[1]
        # three A1 gradient stacks and the A1 field (sample_anu samples the
        # A_nu terms of all seeds at once, off this count); one frame
        assert per_seed == [(4, 1), (4, 1)]

    def test_anu_stacks_built_only_on_tiles(self, tmp_path, monkeypatch):
        # the A_nu term stacks are built on the tiles the trajectories
        # cross, never on the whole grid
        from vortigen import evoform, fields
        write_fields_csv(tmp_path / "f.csv", source_flow(257))
        shapes, build = [], evoform.crocco_normal_coefficient
        monkeypatch.setattr(evoform, "crocco_normal_coefficient",
                            lambda fs, *a, **kw: (shapes.append(fs.grid.shape)
                                                  or build(fs, *a, **kw)))
        cfgp = write_config(tmp_path, fields="f.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        assert len(list((tmp_path / "out").glob("trajectory_*"))) == 5
        # a tile's nodes and a two-node halo on each side
        widest = fields.TILE_CELLS + 1 + 2 * 2
        assert shapes and (257, 257) not in shapes
        assert max(max(shape) for shape in shapes) <= widest

    def test_tracer_path_by_live_seeds(self, tmp_path, monkeypatch):
        # the five default seeds go on in floats from their start; with
        # _BATCH_SEEDS or more, the batched step runs until fewer are live,
        # and each seed still live then goes on in floats
        from vortigen import fields
        handoffs, make = [], fields._float_rk4

        def float_rk4(fs, vtol):
            unit_velocity, trace = make(fs, vtol)
            return unit_velocity, lambda *a: handoffs.append(a[-1]) or trace(*a)
        monkeypatch.setattr(fields, "_float_rk4", float_rk4)
        write_fields_csv(tmp_path / "f.csv", source_flow(33))
        cfgp = write_config(tmp_path, fields="f.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        assert handoffs == [0.0] * 5
        handoffs.clear()
        n = 2 * fields._BATCH_SEEDS
        seeds = [[1.3, 1.05 + 0.9 * k / (n - 1)] for k in range(n)]
        cfgp = write_config(tmp_path, fields="f.csv",
                            output_dir=str(tmp_path / "many"),
                            trajectories={"seeds": seeds})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        assert len(list((tmp_path / "many").glob("trajectory_*"))) == n
        assert 0 < len(handoffs) < fields._BATCH_SEEDS
        assert len(set(handoffs)) == 1 and handoffs[0] > 0

    def test_residuals_computed_once_per_solve(self, tmp_path, monkeypatch):
        # one fold gives all three families' residuals, read once
        from vortigen import moc
        folds, result = [], moc.ResidualFold.result
        monkeypatch.setattr(moc.ResidualFold, "result", lambda self: (
            folds.append(self) or result(self)))
        init = compression_init(tmp_path / "init.csv", n=101)
        out = tmp_path / "out"
        assert cli.main(["solve-moc", "--init", str(init), "--t-end", "3.0",
                         "--out", str(out)]) == 0
        assert len(folds) == 1
        res = json.loads((out / "residuals.json").read_text())
        assert res == result(folds[0])

    def test_unsorted_initial_data_exits_2(self, tmp_path):
        path = tmp_path / "init.csv"
        path.write_text("x,rho,u,p\n0.0,1,0,1\n0.2,1,0,1\n0.1,1,0,1\n")
        assert cli.main(["solve-moc", "--init", str(path), "--t-end", "0.1",
                         "--out", str(tmp_path / "o")]) == 2


class TestForceFiles:
    """``forces.kind`` potential and tabulated read their node CSV from
    ``forces.path``; the force term of A_nu is built on the tiles the
    trajectories cross, from the force windowed to each tile."""

    @pytest.mark.parametrize("kind", ["potential", "tabulated"])
    def test_trajectories_match_the_full_grid_evaluation(self, tmp_path,
                                                          kind):
        from vortigen import evoform, fields
        write_fields_csv(tmp_path / "f.csv", source_flow(129))
        fs = cli.load_fields(tmp_path / "f.csv")
        X, Y = np.meshgrid(fs.grid.x, fs.grid.y)
        if kind == "potential":
            cols = {"phi": np.sin(3 * X) * np.cos(2 * Y) + 0.5 * X * Y}
            forces = evoform.ForceModel.potential(cols["phi"])
        else:
            cols = {"fx": X * np.cos(2 * Y), "fy": np.sin(3 * X) - 0.2 * Y}
            forces = evoform.ForceModel.tabulated(cols["fx"], cols["fy"])
        write_grid_csv(tmp_path / "force.csv", fs.grid, **cols)
        cfgp = write_config(tmp_path, fields="f.csv",
                            forces={"kind": kind, "path": "force.csv"})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        anu = evoform.crocco_normal_coefficient(fs, forces, M)
        assert "force" in anu
        trajs = fields.trace_streamlines(fs, cli._default_seeds(fs))
        tiles = set()
        for ti, traj in enumerate(trajs):
            K = evoform.commutator(
                {name: fields.interp_bilinear(g, fs.grid, traj.points)
                 for name, g in anu.items()},
                evoform.ideal_a1(), traj, fs.grid)
            # bit for bit (a bool: a text diff of two such files is slow)
            path = tmp_path / "out" / f"trajectory_{ti:03d}.csv"
            header = path.read_text().partition("\n")[0]
            names = header.split(",")[4:]
            expect = np.column_stack([K.xi, K.a1, K.anu, K.K,
                                      *[K.attribution[n] for n in names]])
            back = np.loadtxt(path, delimiter=",", skiprows=1)
            assert header == trajectory_csv_reference(K).partition("\n")[0]
            assert np.array_equal(float_bits(back), float_bits(expect))
            i, j, _, _ = fields._cells(fs.grid, *traj.points.T)
            tiles.update(zip((i // fields.TILE_CELLS).tolist(),
                             (j // fields.TILE_CELLS).tolist()))
        assert len(tiles) == 4

    def test_force_without_a_path_exits_2(self, tmp_path, capsys):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv",
                            forces={"kind": "potential"})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == \
            "error: force kind 'potential' needs a 'path' CSV\n"
        assert not (tmp_path / "out").exists()

    def test_force_on_another_grid_exits_2(self, tmp_path, capsys):
        from vortigen.fields import StructuredGrid2D
        write_uniform_csv(tmp_path / "f.csv")  # 9x9 nodes
        grid = StructuredGrid2D(11, 11, hx=0.1, hy=0.1)
        zero = np.zeros(grid.shape)
        force = write_grid_csv(tmp_path / "force.csv", grid, fx=zero, fy=zero)
        cfgp = write_config(tmp_path, fields="f.csv",
                            forces={"kind": "tabulated", "path": "force.csv"})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == \
            f"error: {force}: grid differs from the field grid\n"
        assert not (tmp_path / "out").exists()


def written_files(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


def write_net_csv(path, net):
    """``cli._net_csv`` of a finished net: the block announces each level
    of ``net`` in turn."""
    with cli._net_csv(path) as on_level:
        for k in range(net.n_levels):
            on_level(net, k)


def spy_levels(monkeypatch, act):
    """Patch ``cli._NetText.level`` to run ``act(k)`` first in the writer's
    child; returns the list of the levels that this process formats."""
    parent_pid, level, written = os.getpid(), cli._NetText.level, []

    def patched(self, k):
        if os.getpid() == parent_pid:
            written.append(k)
        else:
            act(k)
        return level(self, k)
    monkeypatch.setattr(cli._NetText, "level", patched)
    return written


class TestFailedRunWritesNothing:
    def two_stage_config(self, tmp_path, init_rows):
        write_uniform_csv(tmp_path / "f.csv", nx=33, ny=33)
        (tmp_path / "init.csv").write_text("x,rho,u,p\n" + init_rows)
        return write_config(tmp_path, fields="f.csv", initial_data="init.csv",
                            t_end=0.1)

    def test_bad_initial_data_after_2d_stage(self, tmp_path):
        cfgp = self.two_stage_config(tmp_path,
                                     "0.0,1,0,1\n0.2,1,0,1\n0.1,1,0,1\n")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert written_files(tmp_path / "out") == []

    def test_net_failure_after_2d_stage(self, tmp_path, monkeypatch):
        from vortigen import moc
        from vortigen.errors import NonConvergence

        def fail(*args, **kwargs):
            raise NonConvergence("corrector did not converge")
        monkeypatch.setattr(moc, "advance_net", fail)
        cfgp = self.two_stage_config(tmp_path, "".join(
            f"{x},1,0,1\n" for x in np.linspace(0.0, 1.0, 21)))
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 3
        assert written_files(tmp_path / "out") == []

    def test_solve_moc_failure_after_net_csv(self, tmp_path, monkeypatch):
        from vortigen import moc
        from vortigen.errors import NonConvergence

        def fail(*args, **kwargs):
            raise NonConvergence("residual failed")
        monkeypatch.setattr(moc.ResidualFold, "result", fail)
        x = np.linspace(0.0, 1.0, 21)
        init = write_init_csv(tmp_path / "init.csv", x, np.ones(21),
                              np.zeros(21), np.ones(21))
        out = tmp_path / "o"
        assert cli.main(["solve-moc", "--init", str(init), "--t-end", "0.1",
                         "--out", str(out)]) == 3
        assert written_files(out) == []

    def test_corrector_failure_mid_net(self, tmp_path, monkeypatch, capfd):
        # the corrector fails making level 5 while the writer's child,
        # slowed, still formats the levels before it: the run exits 3 with
        # one line, stages nothing and reaps the child
        from vortigen import moc
        from vortigen.errors import NonConvergence
        started = mmap.mmap(-1, 8)  # 1 + the last level the child started

        def act(k):
            started[:] = (k + 1).to_bytes(8, "little")
            time.sleep(0.05)
        spy_levels(monkeypatch, act)
        advance, made, child_at = moc._advance_level, [], []

        def failing(*args):
            made.append(len(made) + 1)  # the level this call makes
            if made[-1] == 5:
                child_at.append(int.from_bytes(started[:], "little"))
                raise NonConvergence("corrector did not converge")
            return advance(*args)
        monkeypatch.setattr(moc, "_advance_level", failing)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["solve-moc", "--init", str(compression_init(
            tmp_path / "init.csv", n=41)), "--gamma", str(GAMMA), "--R",
            "1.0", "--t-end", "1.0", "--out", str(out)]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: corrector did not converge\n"
        assert written_files(out) == []
        assert made == [1, 2, 3, 4, 5] and child_at[0] < 5, child_at
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_removes_only_directories_it_made(self, tmp_path,
                                                      monkeypatch):
        from vortigen import moc
        from vortigen.errors import NonConvergence

        def fail(*args, **kwargs):
            raise NonConvergence("residual failed")
        monkeypatch.setattr(moc.ResidualFold, "result", fail)
        x = np.linspace(0.0, 1.0, 21)
        init = write_init_csv(tmp_path / "init.csv", x, np.ones(21),
                              np.zeros(21), np.ones(21))
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "earlier.txt").write_text("x\n")
        for out in (kept / "new" / "deeper", kept):
            assert cli.main(["solve-moc", "--init", str(init), "--t-end",
                             "0.1", "--out", str(out)]) == 3
        assert written_files(kept) == ["earlier.txt"]

    @pytest.mark.parametrize("message", [
        "Unable to allocate 450. MiB for an array with shape (7681, 7681) "
        "and data type float64", ""], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command", ["solve-moc", "verify-jumps"])
    def test_failed_allocation_exits_3(self, tmp_path, monkeypatch, capsys,
                                       command, message):
        # solve-moc fails after staging net.csv, verify-jumps in its sweep
        from vortigen import moc

        def fail(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(moc.ResidualFold, "result", fail)
        monkeypatch.setattr(cli, "_jump_check_sweep", fail)
        out = tmp_path / "out"
        argv = (["solve-moc", "--init", str(compression_init(
                    tmp_path / "init.csv", n=41)), "--t-end", "0.5"]
                if command == "solve-moc" else
                ["verify-jumps", "--relation", "char", "--refine", "9"])
        assert cli.main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"out of memory: {message or 'an allocation failed'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("half", ["child", "parent"])
    def test_failed_net_csv_half(self, tmp_path, monkeypatch, capfd, half):
        # the net.csv writer forks: a disk-full write of a level in the
        # child's part (level 0, which the child writes first: it fails,
        # and the parent fails again writing the child's levels) or in the
        # parent's (the child slowed, so the parent has levels left to
        # write) exits 2 with the one line a one-process write prints,
        # errno text included, no spool or part file left and the child
        # reaped
        init = compression_init(tmp_path / "init.csv", n=41)
        out = tmp_path / "out"
        out.mkdir()
        parent_pid, level = os.getpid(), cli._NetText.level
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                       str(out / "net.csv"))

        def failing(self, k):
            if half == "child" and k == 0:
                raise full
            if half == "parent" and os.getpid() == parent_pid:
                raise full
            if os.getpid() != parent_pid:
                time.sleep(0.02)
            return level(self, k)
        monkeypatch.setattr(cli._NetText, "level", failing)
        assert cli.main(["solve-moc", "--init", str(init), "--gamma",
                         str(GAMMA), "--R", "1.0", "--t-end", "1.0",
                         "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {full}\n"
        assert written_files(out) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_net_csv_without_a_child(self, tmp_path, no_child):
        # where no child can be started, this process writes every level,
        # and net.csv keeps its bytes
        from vortigen import moc
        x, rho, u, p = cli.load_initial_1d(
            compression_init(tmp_path / "init.csv", n=101))
        net = collect_net(moc.nodes_from_primitive(x, rho, u, p, M),
                          t_end=3.0, m=M)
        with cli._staged_run(tmp_path) as stage:
            write_net_csv(stage / "net.csv", net)
        assert (tmp_path / "net.csv").read_bytes() \
            == net_csv_reference(net).encode()
        assert written_files(tmp_path) == ["init.csv", "net.csv"]

    def check_child_is_redone(self, tmp_path, monkeypatch, capfd, act):
        """A run whose writing child runs ``act(k)`` before it writes level
        k has the bytes of a run without it, and its parent writes every
        level, in its own part or in the redo of the child's."""
        init = compression_init(tmp_path / "init.csv", n=41)
        argv = ["solve-moc", "--init", str(init), "--gamma", str(GAMMA),
                "--R", "1.0", "--t-end", "1.0", "--out"]
        assert cli.main(argv + [str(tmp_path / "one")]) == 0
        written = spy_levels(monkeypatch, act)
        assert cli.main(argv + [str(tmp_path / "two")]) == 0
        assert capfd.readouterr().err == ""
        assert ((tmp_path / "two" / "net.csv").read_bytes()
                == (tmp_path / "one" / "net.csv").read_bytes())
        assert written_files(tmp_path / "two") == written_files(
            tmp_path / "one")
        levels = json.loads((tmp_path / "one" / "run_report.json")
                            .read_text())["net_levels"]
        assert sorted(written) == list(range(levels))

    def test_failed_net_csv_child_is_redone(self, tmp_path, monkeypatch,
                                            capfd):
        # a child killed before its reply: no split comes, so the parent
        # writes every level to the part file and the redo the header
        self.check_child_is_redone(tmp_path, monkeypatch, capfd, lambda k:
                                   os.kill(os.getpid(), signal.SIGKILL))

    def test_child_killed_after_its_reply_is_redone(self, tmp_path,
                                                    monkeypatch, capfd):
        # the child slowed, so that it replies with levels left to write,
        # and killed at the first level it writes after its reply: the
        # parent writes the levels from the split on, the redo those
        # before it
        replied, write = [], os.write

        def sending(fd, data):
            if len(data) == 8:  # the split, the child's one 8-byte write
                replied.append(True)
            return write(fd, data)
        monkeypatch.setattr(os, "write", sending)

        def act(k):
            if replied:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.02)
        self.check_child_is_redone(tmp_path, monkeypatch, capfd, act)

    def test_slow_child_leaves_the_parent_most_levels(self, tmp_path,
                                                      monkeypatch):
        # a child slowed at every level is far behind when the net is
        # done: the parent writes the levels from the node midpoint of
        # those left, the most of them, and net.csv keeps its bytes
        from vortigen import moc
        written = spy_levels(monkeypatch, lambda k: time.sleep(0.02))
        out = tmp_path / "out"
        init = compression_init(tmp_path / "init.csv", n=101)
        assert cli.main(["solve-moc", "--init", str(init), "--gamma",
                         str(GAMMA), "--R", "1.0", "--t-end", "3.0",
                         "--out", str(out)]) == 0
        net = collect_net(moc.nodes_from_primitive(
            *cli.load_initial_1d(init), M), t_end=3.0, m=M)
        n = json.loads((out / "run_report.json").read_text())["net_levels"]
        assert n == net.n_levels
        assert written == list(range(written[0], n))
        assert len(written) > n / 2
        assert (out / "net.csv").read_bytes() \
            == net_csv_reference(net).encode()
        assert written_files(out) == ["envelope.json", "net.csv",
                                      "residuals.json", "run_report.json"]


class TestSubcommands:
    def test_solve_moc_uniform_straight(self, tmp_path):
        x = np.linspace(0.0, 1.0, 21)
        init = write_init_csv(tmp_path / "init.csv", x, np.ones(21),
                              np.zeros(21), np.full(21, 1.0 / GAMMA))  # a = 1
        out = tmp_path / "out"
        rc = cli.main(["solve-moc", "--init", str(init), "--gamma", str(GAMMA),
                       "--R", "1.0", "--t-end", "0.3", "--out", str(out)])
        assert rc == 0
        rows = (out / "net.csv").read_text().splitlines()
        assert rows[0] == ("level,index,t,x,u,a,s,"
                           "cplus_parent,cminus_parent,c0_parent")
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        # straight C+ characteristics: x - t constant along each chain
        chain0 = data[data[:, 1] == 0]
        np.testing.assert_allclose(chain0[:, 3] - chain0[:, 2], chain0[0, 3],
                                   atol=1e-12)
        env = json.loads((out / "envelope.json").read_text())
        assert env["detected"] is False
        res = json.loads((out / "residuals.json").read_text())
        assert res["C0"] <= 1e-12

    def test_verify_jumps_contact_decreasing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["verify-jumps", "--relation", "contact", "--gamma",
                       "1.4", "--refine", "3", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "jump_reports.json").read_text())
        errs = [r["rel_error"] for r in rep["reports"]]
        assert len(errs) == 3
        assert errs[0] > errs[1] > errs[2]
        assert all(r["passed"] for r in rep["reports"])
        assert all("grid_h" in r for r in rep["reports"])

    def test_verify_jumps_char(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["verify-jumps", "--relation", "char", "--refine", "2",
                       "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "jump_reports.json").read_text())
        assert all(r["passed"] for r in rep["reports"])

    def test_detect_shock(self, tmp_path):
        init = compression_init(tmp_path / "init.csv")
        out = tmp_path / "out"
        rc = cli.main(["detect-shock", "--init", str(init), "--gamma",
                       str(GAMMA), "--R", "1.0", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "envelope_report.json").read_text())
        assert rep["detected"] is True
        assert rep["numeric"]["t_star"] == pytest.approx(
            1.0 / (0.2 * np.pi), rel=0.02)
        assert rep["analytic"]["t_star"] == pytest.approx(
            1.0 / (0.2 * np.pi), rel=0.01)

    def test_report_prints(self, tmp_path, capsys):
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfg = {"gas": {"gamma": GAMMA, "R": 1.0}, "fields": "f.csv",
               "output_dir": str(tmp_path / "out")}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(cfg))
        cli.main(["diagnose", "--config", str(cfgp)])
        capsys.readouterr()
        rc = cli.main(["report", "--run", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "classification: locally_equilibrium" in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve-moc", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["solve-moc", "diagnose"])
    def test_report_printed_once(self, tmp_path, command):
        # in a process of its own, so that a forked net.csv writer that
        # flushed the inherited stdout or ran atexit would show
        init = compression_init(tmp_path / "init.csv", n=101)
        out = tmp_path / "out"
        if command == "solve-moc":
            argv = ["solve-moc", "--init", str(init), "--gamma", str(GAMMA),
                    "--R", "1.0", "--t-end", "3.0", "--out", str(out)]
        else:
            argv = ["diagnose", "--config", str(write_config(
                tmp_path, initial_data="init.csv", t_end=3.0))]
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "vortigen.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads((out / "run_report.json").read_text())
        assert proc.stdout == "\n".join(cli._report_lines(report)) + "\n"
        assert written_files(out) == ["envelope.json", "net.csv",
                                      "residuals.json", "run_report.json"]

    def test_vortigen_out_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("VORTIGEN_OUT", str(override))
        out = tmp_path / "ignored"
        rc = cli.main(["verify-jumps", "--relation", "contact", "--refine",
                       "1", "--out", str(out)])
        assert rc == 0
        assert (override / "jump_reports.json").exists()
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        init = compression_init(tmp_path / "init.csv", n=206)
        out = tmp_path / "out"
        argv = ["solve-moc", "--init", str(init), "--gamma", str(GAMMA),
                "--R", "1.0", "--t-end", "1.0", "--out", str(out)]
        runs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            report = json.loads(files.pop("run_report.json"))
            report.pop("wall_time_s")
            runs.append((files, report))
        (first, rep1), (second, rep2) = runs
        assert sorted(first) == ["envelope.json", "net.csv", "residuals.json"]
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
        assert rep1 == rep2

    def test_report_json_deterministic_fields(self, tmp_path):
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfg = {"gas": {"gamma": GAMMA, "R": 1.0}, "fields": "f.csv",
               "output_dir": str(tmp_path / "out")}
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(cfg))
        cli.main(["diagnose", "--config", str(cfgp)])
        rep1 = json.loads((tmp_path / "out" / "run_report.json").read_text())
        cli.main(["diagnose", "--config", str(cfgp)])
        rep2 = json.loads((tmp_path / "out" / "run_report.json").read_text())
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert rep1 == rep2


def replace_cell(path, line, column, token):
    """Put ``token`` into one cell of a CSV (line numbers from 1)."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = token
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def net_csv_reference(net):
    """Reference: the row-list builder the streamed net.csv writer replaced."""
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
    template = ",".join("%.17g" if isinstance(v, float) else "%s"
                        for v in rows[0])
    return "\n".join([",".join(header)]
                     + [template % tuple(r) for r in rows]) + "\n"


def trajectory_csv_reference(K):
    """Reference: the trajectory CSV writer that formatted every float in
    its row."""
    names = [n for n in cli.ATTRIBUTION_ORDER if n in K.attribution]
    extra = [n for n in K.attribution if n not in names]
    names += sorted(extra)
    header = ["xi1", "A1", "Anu", "K", *names]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    body = np.column_stack([K.xi, K.a1, K.anu, K.K,
                            *[K.attribution[n] for n in names]]).tolist()
    return ",".join(header) + "\n" + "".join([row % tuple(r) for r in body])


class TestOnePassPipeline:
    @pytest.mark.parametrize("n", [101, 206])  # crossing / degenerate end
    def test_net_csv_bytes_match_row_builder(self, tmp_path, n):
        from vortigen import moc
        x, rho, u, p = cli.load_initial_1d(
            compression_init(tmp_path / "init.csv", n=n))
        net = collect_net(moc.nodes_from_primitive(x, rho, u, p, M),
                          t_end=3.0, m=M)
        assert net.envelope is not None
        with cli._staged_run(tmp_path) as stage:
            write_net_csv(stage / "net.csv", net)
        assert (tmp_path / "net.csv").read_bytes() \
            == net_csv_reference(net).encode()

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_net_csv_bytes_of_one_and_two_levels(self, tmp_path, levels):
        # nets of a few levels, whichever process writes each of them
        from vortigen import moc
        x, rho, u, p = cli.load_initial_1d(
            compression_init(tmp_path / "init.csv", n=101))
        net = collect_net(moc.nodes_from_primitive(x, rho, u, p, M),
                          t_end=3.0, m=M)
        net = dataclasses.replace(net, **{
            q: getattr(net, q)[:levels]
            for q in ("x", "t", "u", "a", "s", "labels", "c0_parent")})
        assert net.n_levels == levels
        with cli._staged_run(tmp_path) as stage:
            write_net_csv(stage / "net.csv", net)
        assert (tmp_path / "net.csv").read_bytes() \
            == net_csv_reference(net).encode()
        assert written_files(tmp_path) == ["init.csv", "net.csv"]

    @pytest.mark.parametrize("n", [101, 206, 0])  # 0: expansion, no envelope
    def test_detect_shock_scans_each_level_pair_once(self, tmp_path,
                                                      monkeypatch, n):
        from vortigen import moc
        scanned, nets = [], []
        scan, advance = moc._scan_level_pair, moc.advance_net
        monkeypatch.setattr(moc, "_scan_level_pair", lambda net, k, *carry:
                            scanned.append(k) or scan(net, k, *carry))
        monkeypatch.setattr(moc, "advance_net", lambda *a, **kw: nets.append(
            advance(*a, **kw)) or nets[-1])
        if n:
            init = compression_init(tmp_path / "init.csv", n=n)
        else:
            w = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=GAMMA)
            init = write_init_csv(tmp_path / "init.csv", *w.primitive_profile(
                np.linspace(-1.0, 1.0, 101), M))
        assert cli.main(["detect-shock", "--init", str(init), "--gamma",
                         str(GAMMA), "--R", "1.0",
                         "--out", str(tmp_path / "out")]) == 0
        assert len(nets) == 1
        assert (nets[0].envelope is None) == (n == 0)
        assert scanned == list(range(nets[0].n_levels - 1))

    def test_detect_shock_memory_grows_with_the_node_count(self, tmp_path):
        # a 601-node expansion runs to its last level, 180,901 nodes: the
        # whole net peaks near 10.5 MiB, three levels below 1 MiB
        w = SimpleWave(lambda x: 0.1 * np.tanh((x - 2.0) / 0.5), gamma=GAMMA)
        init = write_init_csv(tmp_path / "init.csv", *w.primitive_profile(
            np.linspace(0.0, 4.0, 601), M))
        tracemalloc.start()
        try:
            code = cli.main(["detect-shock", "--init", str(init), "--gamma",
                             str(GAMMA), "--R", "1.0",
                             "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2 ** 20

    def test_solve_moc_memory_grows_with_the_node_count(self, tmp_path):
        # the same expansion to its last level: kept whole, the net made the
        # run peak near 13.6 MiB; three levels, the residual fold and the
        # levels this process formats into net.csv stay near 3.8 MiB (4.2
        # with a slow child, 6.5 with none, when this process formats all)
        w = SimpleWave(lambda x: 0.1 * np.tanh((x - 2.0) / 0.5), gamma=GAMMA)
        init = write_init_csv(tmp_path / "init.csv", *w.primitive_profile(
            np.linspace(0.0, 4.0, 601), M))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(["solve-moc", "--init", str(init), "--gamma",
                             str(GAMMA), "--R", "1.0", "--t-end", "100.0",
                             "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads((out / "run_report.json").read_text()) \
            ["net_levels"] == 601
        assert peak < 8 * 2 ** 20


# values whose text is easy to get wrong: signed zeros, subnormals, the
# ends of the range and integral floats (1.0 is written 1)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0, 2.0, 1e16,
                  -123456789.0, 0.1, float("inf"), float("nan")]


def float_bits(v):
    return np.asarray(v, dtype=np.float64).view(np.int64)


@st.composite
def float_column(draw, n):
    """n floats with a drawn number of distinct bit patterns: heavily
    repeated, all distinct, or at and one either side of the half-distinct
    threshold where the writers switch from formatting each distinct value
    once to formatting in the row."""
    form = draw(st.sampled_from(["repeated", "distinct", "half-1", "half",
                                 "half+1"]))
    d = {"repeated": draw(st.integers(1, max(1, n // 8))), "distinct": n,
         "half-1": n // 2 - 1, "half": n // 2, "half+1": n // 2 + 1}[form]
    d = min(max(d, 1), n)
    values = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
        min_size=d, max_size=d, unique_by=lambda v: int(float_bits(v))))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    column = values + [rnd.choice(values) for _ in range(n - d)]
    rnd.shuffle(column)
    return np.array(column, dtype=np.float64)


class TestFloatColumns:
    """Both CSV writers against their references: the same bytes, whichever
    way each column is formatted."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_net_csv_bytes_match_reference(self, tmp_path_factory, data):
        from vortigen import moc
        n0 = data.draw(st.integers(1, 12))
        sizes = list(range(n0, n0 - data.draw(st.integers(1, n0)), -1))
        split = np.cumsum(sizes)[:-1]
        cols = {q: np.split(data.draw(float_column(sum(sizes))), split)
                for q in "txuas"}
        c0 = [np.full(n0, -1)] + [np.arange(m) for m in sizes[1:]]
        net = moc.CharNet(gamma=GAMMA, c0_parent=c0, **cols)
        path = tmp_path_factory.mktemp("net") / "net.csv"
        with cli._staged_run(path.parent) as stage:
            write_net_csv(stage / path.name, net)
        assert path.read_bytes() == net_csv_reference(net).encode()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_trajectory_csv_bytes_match_reference(self, tmp_path_factory,
                                                  data):
        from types import SimpleNamespace
        n = data.draw(st.integers(1, 40))
        xi, a1, anu, k_total, *terms = [data.draw(float_column(n))
                                        for _ in range(7)]
        names = ["zz_extra", "viscous_production", "pressure_baroclinic"]
        K = SimpleNamespace(xi=xi, a1=a1, anu=anu, K=k_total,
                            attribution=dict(zip(names, terms)))
        for col in (xi, a1, anu, k_total, *terms):
            spec, _ = cli._float_column(col)
            n_distinct = np.unique(float_bits(col)).size
            assert spec == ("%s" if 2 * n_distinct <= n else "%.17g")
        path = tmp_path_factory.mktemp("traj") / "trajectory_000.csv"
        with cli._staged_run(path.parent) as stage:
            cli._write_trajectory_csv(stage / path.name, K)
        assert path.read_bytes() == trajectory_csv_reference(K).encode()

    def test_net_csv_reads_back_bitwise(self, tmp_path):
        from vortigen import moc
        x, rho, u, p = cli.load_initial_1d(
            compression_init(tmp_path / "init.csv"))
        net = collect_net(moc.nodes_from_primitive(x, rho, u, p, M),
                          t_end=3.0, m=M)
        with cli._staged_run(tmp_path) as stage:
            write_net_csv(stage / "net.csv", net)
        back = np.loadtxt(tmp_path / "net.csv", delimiter=",", skiprows=1)
        for j, q in enumerate((net.t, net.x, net.u, net.a, net.s), start=2):
            assert np.array_equal(float_bits(back[:, j]),
                                  float_bits(np.concatenate(q)))

    def test_couette_trajectory_reads_back_bitwise(self, tmp_path,
                                                   monkeypatch):
        fs, _ = couette_flow(mu=0.1, k=0.05)
        write_fields_csv(tmp_path / "f.csv", fs)
        cfgp = write_config(tmp_path, fields="f.csv",
                            transport={"mu": 0.1, "k": 0.05},
                            trajectories={"seeds": [[0.1, 0.3]]})
        written, write = [], cli._write_trajectory_csv
        monkeypatch.setattr(cli, "_write_trajectory_csv", lambda *a:
                            written.append(a[1]) or write(*a))
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        K = written[0]
        path = tmp_path / "out" / "trajectory_000.csv"
        assert path.read_bytes() == trajectory_csv_reference(K).encode()
        names = path.read_text().splitlines()[0].split(",")[4:]
        expect = np.column_stack([K.xi, K.a1, K.anu, K.K,
                                  *[K.attribution[n] for n in names]])
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(float_bits(back), float_bits(expect))


class TestInputValidation:
    def test_nan_velocity_in_1d_init_exits_2(self, tmp_path, capsys):
        path = compression_init(tmp_path / "init.csv", n=21)
        replace_cell(path, 9, 2, "nan")
        # a blank line before the bad row must not shift the line number
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + [""] + lines[4:]) + "\n")
        out = tmp_path / "out"
        rc = cli.main(["detect-shock", "--init", str(path), "--out", str(out)])
        assert rc == 2
        assert f"{path}:10: column u is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_inf_in_field_csv_exits_2(self, tmp_path, capsys):
        path = write_uniform_csv(tmp_path / "f.csv")
        replace_cell(path, 4, 5, "inf")
        cfgp = write_config(tmp_path, fields="f.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert f"{path}:4: column p is not finite" in capsys.readouterr().err

    def test_non_finite_report_value_exits_3(self, tmp_path):
        with pytest.raises(cli.NonFiniteResult, match="r.json"):
            cli._write_json(tmp_path / "r.json", {"a": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "config.json"
        cfgp.write_text("[1, 2]")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err and "config must be a JSON object" in err

    @pytest.mark.parametrize("section", ["gas", "forces", "transport",
                                         "tolerances", "trajectories",
                                         "jump_checks"])
    def test_non_object_section_exits_2(self, tmp_path, capsys, section):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv", **{section: [1, 2]})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err and f"{section} must be a JSON object" in err

    @pytest.mark.parametrize("cfg, field, allowed", [
        ({"crocco_sign": "bogus"}, "crocco_sign", "consistent, paper"),
        ({"a1_variant": "bogus"}, "a1_variant", "paper, standard"),
    ])
    def test_unknown_enum_value_exits_2(self, tmp_path, capsys, cfg, field,
                                        allowed):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv", **cfg)
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err
        assert f"{field} must be one of {allowed}, got 'bogus'" in err


class TestPathsAndModes:
    def test_output_dir_resolves_against_config_dir(self, tmp_path,
                                                     monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        write_uniform_csv(sub / "f.csv", nx=17, ny=17)
        (sub / "a.json").write_text(json.dumps({
            "gas": {"gamma": GAMMA, "R": 1.0}, "fields": "f.csv",
            "output_dir": "run"}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["diagnose", "--config", "sub/a.json"]) == 0
        assert (sub / "run" / "run_report.json").exists()
        assert not (tmp_path / "run").exists()

    def test_path_flags_resolve_against_cwd(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        write_uniform_csv(sub / "f.csv", nx=17, ny=17)
        write_uniform_csv(sub / "s0.csv", nx=17, ny=17)
        write_uniform_csv(sub / "s1.csv", nx=17, ny=17, u=1.5)
        (sub / "m.json").write_text(json.dumps({"snapshots": [
            {"t": 0.0, "path": "s0.csv"}, {"t": 0.5, "path": "s1.csv"}]}))
        (sub / "a.json").write_text(json.dumps({
            "gas": {"gamma": GAMMA, "R": 1.0}, "output_dir": "run"}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["diagnose", "--config", "sub/a.json",
                         "--fields", "sub/f.csv", "--manifest", "sub/m.json",
                         "--out", "out"]) == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["lagrange"]["stationary"] is False  # the manifest was read
        assert not (sub / "run").exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_outputs_get_the_umask_mode(self, tmp_path, umask, mode):
        import os
        import stat
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            rc = cli.main(["verify-jumps", "--relation", "contact",
                           "--refine", "1", "--out", str(out)])
        finally:
            os.umask(old)
        assert rc == 0
        # the temp files were renamed, none left over
        paths = sorted(out.iterdir())
        assert [p.name for p in paths] == ["jump_reports.json",
                                           "run_report.json"]
        for path in paths:
            assert stat.S_IMODE(path.stat().st_mode) == mode

    @pytest.mark.parametrize("command", ["detect-shock", "solve-moc"])
    def test_out_naming_a_file_exits_before_the_input_is_read(
            self, tmp_path, capsys, command):
        init = tmp_path / "init.csv"
        init.write_text("x,rho,u,p\n0.0,1,0,1\n0.5,1,zero,1\n")
        out = tmp_path / "out"
        out.write_text("x\n")
        assert cli.main([command, "--init", str(init), "--t-end", "0.1",
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 17] File exists: '{out}'\n"
        assert out.read_text() == "x\n"


def write_two_snapshot_case(dirpath):
    """9x9 uniform field with a two-snapshot manifest."""
    write_uniform_csv(dirpath / "f.csv")
    write_uniform_csv(dirpath / "s0.csv")
    write_uniform_csv(dirpath / "s1.csv", u=1.5)
    (dirpath / "m.json").write_text(json.dumps({"snapshots": [
        {"t": 0.0, "path": "s0.csv"}, {"t": 0.5, "path": "s1.csv"}]}))


class TestConfigValues:
    @pytest.mark.parametrize("value", [5, 2, -1, 2.5])
    def test_bad_time_index_exits_2(self, tmp_path, capsys, value):
        write_two_snapshot_case(tmp_path)
        cfgp = write_config(tmp_path, fields="f.csv", manifest="m.json",
                            time_index=value)
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err and "time_index" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("manifest", [None, "m.json"])
    @pytest.mark.parametrize("value", ["no", 1, 0, [True]])
    def test_bad_include_time_term_exits_2(self, tmp_path, capsys, value,
                                           manifest):
        write_two_snapshot_case(tmp_path)
        cfgp = write_config(tmp_path, fields="f.csv", manifest=manifest,
                            include_time_term=value)
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err
        assert "include_time_term must be true, false or null" in err

    @pytest.mark.parametrize("value", [0, -2, 1.7])
    def test_bad_jump_refine_in_config_exits_2(self, tmp_path, capsys, value):
        cfgp = write_config(
            tmp_path, jump_checks={"relation": "contact", "refine": value})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err and "jump_checks.refine" in err
        assert not (tmp_path / "out").exists()

    def test_null_jump_refine_is_the_default(self, tmp_path):
        cfgp = write_config(
            tmp_path, jump_checks={"relation": "contact", "refine": None})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert len(rep["jump_checks"]) == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_verify_jumps_refine_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert cli.main(["verify-jumps", "--relation", "contact",
                         "--refine", value, "--out", str(out)]) == 2
        assert "--refine" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[1]",
        json.dumps({"scenario_id": "x", "max_K": None, "tolerance": 1.0,
                    "classification": "locally_equilibrium"}),
        "[" * 100000 + "]" * 100000,  # too deep for the JSON decoder
    ], ids=["list", "null_max_K", "deep"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "run_report.json"
        path.write_text(text)
        assert cli.main(["report", "--run", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err and captured.out == ""


class TestRunBounds:
    """Values that made a run hang, or exit 0 with nonsense, exit 2."""

    def test_infinite_initial_entropy_exits_2(self, tmp_path, capsys):
        # s = p / rho**gamma is inf for rho = p = 1e-300
        n = 21
        init = write_init_csv(tmp_path / "tiny.csv", np.linspace(0, 1, n),
                              np.full(n, 1e-300), np.zeros(n),
                              np.full(n, 1e-300))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["solve-moc", "--init", str(init), "--t-end", "0.1",
                           "--out", str(out)])
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: need finite a > 0 and s > 0 at every initial node\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_t_end_flag_exits_2(self, tmp_path, capsys, value):
        init = compression_init(tmp_path / "init.csv", n=21)
        out = tmp_path / "out"
        rc = cli.main(["solve-moc", "--init", str(init), "--t-end", value,
                       "--out", str(out)])
        assert rc == 2
        assert "t_end must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [-1, 0])
    def test_bad_t_end_in_config_exits_2(self, tmp_path, capsys, value):
        write_uniform_csv(tmp_path / "f.csv")
        compression_init(tmp_path / "init.csv", n=21)
        cfgp = write_config(tmp_path, fields="f.csv", initial_data="init.csv",
                            t_end=value)
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert "t_end must be finite and > 0" in capsys.readouterr().err
        assert written_files(tmp_path / "out") == []

    @pytest.mark.parametrize("key, value", [
        ("step", 0), ("step", -0.1), ("max_len", 0)])
    def test_bad_trajectory_length_exits_2(self, tmp_path, key, value):
        # a zero step never advanced the arclength: run it in a child
        # process, so that a hang fails the test instead of the suite
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv",
                            trajectories={key: value})
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "vortigen.cli", "diagnose", "--config",
             str(cfgp)], capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {cfgp}: trajectories.{key} must be "
                               f"finite and > 0, got {value!r}\n")
        assert written_files(tmp_path / "out") == []

    def test_trajectory_step_budget_exits_2(self, tmp_path):
        # a tiny positive step takes 5.66e9 RK4 steps per seed over the
        # default max_len of the unit square: refused before any tracing
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv",
                            trajectories={"step": 1e-9})
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "vortigen.cli", "diagnose", "--config",
             str(cfgp)], capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: {cfgp}: trajectories.max_len / step must be at most "
            f"1,000,000 RK4 steps per seed, got 5.65685 / 1e-09 = 5.66e+09\n")
        assert written_files(tmp_path / "out") == []

    def test_steps_lost_to_rounding_exit_2(self, tmp_path, capsys):
        # a max_len below the points' spacing leaves every seed its seed
        # alone: the run names the seeds, not a config key
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = write_config(tmp_path, fields="f.csv",
                            trajectories={"max_len": 1e-300})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == (
            "error: no trajectory could be traced from the seeds\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, spacing", [
        (9, 1e-300),  # adjacent spacings multiply to 0: 0/0 weights
        # the span squared overflows, and so do the outer stencil
        # denominators: the weights lose a node and s decays by 1/4 a level
        (100, 1e154),
        # adjacent spacings multiply to subnormals: the weights keep too few
        # digits and the corrector does not converge
        (821, 1e-160),
    ], ids=["tiny", "huge", "subnormal"])
    def test_unusable_spacing_exits_2(self, tmp_path, capsys, n, spacing):
        # the interpolation stencils divide by products of node distances:
        # spacings that make one subnormal, 0 or infinite are refused at
        # ingestion
        i = np.arange(n)
        init = write_init_csv(tmp_path / "spaced.csv", i * spacing, np.ones(n),
                              0.01 * np.sin(i / 50), np.ones(n))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["solve-moc", "--init", str(init), "--t-end",
                           repr(10 * spacing), "--out", str(out)])
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {init}: x spacings ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_gap_exits_2(self, tmp_path, capsys):
        # increasing x whose first gap, 2e308, overflows: the order check
        # must not subtract, so the spacing refusal names the file
        init = write_init_csv(tmp_path / "wide.csv", [-1e308, 1e308, 1.5e308],
                              np.ones(3), np.zeros(3), np.ones(3))
        out = tmp_path / "out"
        rc = cli.main(["solve-moc", "--init", str(init), "--t-end", "1",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {init}: x spacings ") and err.count("\n") == 1
        assert not out.exists()


class TestArithmeticFaults:
    """Scalar arithmetic that overflows or divides by zero exits 3; extreme
    but valid states that need no such arithmetic run."""

    @pytest.mark.parametrize("field", [
        {"u": 1e200, "v": 1e200},  # v_max ** 2 overflows
        {"h": 1e-300},  # grid spacing ** 3 underflows to 0
    ], ids=["huge_velocity", "tiny_spacing"])
    def test_diagnose_exits_3(self, tmp_path, capsys, field):
        write_uniform_csv(tmp_path / "f.csv", **field)
        cfgp = write_config(tmp_path, fields="f.csv")
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, regime", [
        ({"rho": 1e-300, "p": 1e-300}, "elliptic"),  # rho ** gamma is 0
        ({"rho": 1e300}, "hyperbolic"),  # rho ** gamma overflows
    ], ids=["tiny_state", "huge_density"])
    def test_extreme_uniform_state_runs(self, tmp_path, capsys, field, regime):
        # The regime reads the node's speed and sound speed; no entropy
        # function is formed on the way, so neither state over- or
        # underflows.
        write_uniform_csv(tmp_path / "f.csv", **field)
        cfgp = write_config(tmp_path, fields="f.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0 and capsys.readouterr().err == "" and caught == []
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["classification"] == "locally_equilibrium"
        assert rep["regime"] == regime


class TestConfigTable:
    """Every config key and flag is read through ``cli.CONFIG_KEYS``."""

    @pytest.mark.parametrize("cfg, message", [
        ({"trajectores": {"step": -5}, "tolerances": {"equilibrum": 1e-3},
          "gas": {"gama": 3.0}},
         "unknown key trajectores (did you mean trajectories?)"),
        ({"forces": {"kind": "potential", "pth": "phi.csv"}},
         "unknown key forces.pth (did you mean forces.path?)"),
        ({"jump_checks": {"relation": "contact", "refin": 1}},
         "unknown key jump_checks.refin (did you mean jump_checks.refine?)"),
        ({"tolerances": {"equilibrum": 1e-3}},
         "unknown key tolerances.equilibrum (did you mean "
         "tolerances.equilibrium?)"),
        ({"gas": {"gamma": GAMMA, "R": 1.0, "zz": 1}}, "unknown key gas.zz"),
        ({"gas": {"gamma": GAMMA, "R": 1.0, "entropy_convention": "specific"}},
         "unknown key gas.entropy_convention"),
        ({"gas": {"gamma": GAMMA, "R": 1.0, "s_ref": 7.0}},
         "unknown key gas.s_ref"),
        ({"scenario_id": {"a": 1}},
         "scenario_id must be a string, got {'a': 1}"),
        ({"gas": {"gamma": 0.9, "R": 1.0}},
         "gas.gamma must be finite and > 1, got 0.9"),
        ({"gas": {"gamma": GAMMA, "R": 0}}, "gas.R must be finite and > 0, got 0"),
    ], ids=["misspellings", "forces.pth", "jump_checks.refin",
            "tolerances.equilibrum", "no_hint", "entropy_convention", "s_ref",
            "scenario_id", "gamma_0.9", "R_0"])
    def test_bad_config_exits_2(self, tmp_path, capsys, cfg, message):
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfgp = write_config(tmp_path, fields="f.csv", **cfg)
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == f"error: {cfgp}: {message}\n"
        assert written_files(tmp_path / "out") == []

    @pytest.mark.parametrize("argv, message", [
        (["verify-jumps", "--relation", "char", "--tol", "inf"],
         "--tol: tolerances.jump_rel_error must be finite and > 0, got inf"),
        (["verify-jumps", "--relation", "char", "--tol", "-1"],
         "--tol: tolerances.jump_rel_error must be finite and > 0, got -1.0"),
        (["verify-jumps", "--relation", "contact", "--tol", "nan"],
         "--tol: tolerances.jump_rel_error must be finite and > 0, got nan"),
        (["verify-jumps", "--relation", "char", "--gamma", "inf"],
         "--gamma: gas.gamma must be finite and > 1, got inf"),
        (["verify-jumps", "--relation", "contact", "--gamma", "0.5"],
         "--gamma: gas.gamma must be finite and > 1, got 0.5"),
        (["verify-jumps", "--relation", "bogus"],
         "--relation: jump_checks.relation must be one of contact, char, "
         "got 'bogus'"),
        (["solve-moc", "--init", "INIT", "--t-end", "0.1", "--R", "inf"],
         "--R: gas.R must be finite and > 0, got inf"),
        (["detect-shock", "--init", "INIT", "--R", "inf"],
         "--R: gas.R must be finite and > 0, got inf"),
        (["detect-shock", "--init", "INIT", "--R", "-1"],
         "--R: gas.R must be finite and > 0, got -1.0"),
    ], ids=["tol_inf", "tol_negative", "tol_nan", "gamma_inf", "gamma_0.5",
            "relation", "solve_moc_R_inf", "detect_shock_R_inf",
            "detect_shock_R_negative"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, argv, message):
        init = compression_init(tmp_path / "init.csv", n=21)
        out = tmp_path / "out"
        argv = [str(init) if a == "INIT" else a for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([*argv, "--out", str(out)])
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flags_take_the_config_defaults(self, tmp_path):
        # verify-jumps without --gamma, --refine and --tol, and a config
        # naming only the relation, run the same sweep
        rc = cli.main(["verify-jumps", "--relation", "char",
                       "--out", str(tmp_path / "flags")])
        assert rc == 0
        flags = json.loads((tmp_path / "flags" / "jump_reports.json")
                           .read_text())
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps({"jump_checks": {"relation": "char"},
                                    "output_dir": "cfg"}))
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        rep = json.loads((tmp_path / "cfg" / "run_report.json").read_text())
        assert len(flags["reports"]) == 3
        assert flags["reports"] == rep["jump_checks"]
        assert (tmp_path / "cfg" / "jump_reports.json").read_bytes() \
            == (tmp_path / "flags" / "jump_reports.json").read_bytes()

    def test_readme_config_block_lists_the_table_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Scenario config (JSON)")[1]
        block = block.split("```jsonc\n")[1].split("```")[0]
        doc = json.loads(re.sub(r"//.*", "", block))

        def dotted(obj, prefix=""):
            for key, value in obj.items():
                if isinstance(value, dict):
                    yield from dotted(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert sorted(dotted(doc)) == sorted(cli.CONFIG_KEYS)


class TestRunViews:
    """``diagnose``, ``solve-moc`` and ``verify-jumps`` run one pipeline,
    ``cli.run_scenario``, and print the report of their run."""

    def test_solve_moc_is_diagnose_of_its_keys(self, tmp_path):
        init = compression_init(tmp_path / "init.csv", n=101)
        flags, cfg = tmp_path / "flags", tmp_path / "cfg"
        assert cli.main(["solve-moc", "--init", str(init), "--gamma",
                         str(GAMMA), "--R", "1.0", "--t-end", "3.0",
                         "--out", str(flags)]) == 0
        cfgp = tmp_path / "config.json"
        cfgp.write_text(json.dumps({"gas": {"gamma": GAMMA, "R": 1.0},
                                    "initial_data": "init.csv", "t_end": 3.0,
                                    "output_dir": "cfg"}))
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        assert written_files(flags) == written_files(cfg) == [
            "envelope.json", "net.csv", "residuals.json", "run_report.json"]
        for name in ("net.csv", "envelope.json", "residuals.json"):
            assert (flags / name).read_bytes() == (cfg / name).read_bytes()
        reports = [json.loads((out / "run_report.json").read_text())
                   for out in (flags, cfg)]
        for rep in reports:
            rep.pop("wall_time_s")
        assert reports[0].pop("scenario_id") == "solve-moc"
        assert reports[1].pop("scenario_id") == "config"
        assert reports[0] == reports[1]
        assert reports[0]["envelope"]["detected"] is True
        assert reports[0]["net_levels"] == len(set(
            line.split(",")[0] for line in
            (flags / "net.csv").read_text().splitlines()[1:]))

    def test_detect_shock_reports_the_envelope_of_diagnose(self, tmp_path):
        # detect-shock stays a command of its own; without t_end both it and
        # diagnose's 1-D stage run the net to 1.5x the analytic estimate
        init = compression_init(tmp_path / "init.csv", n=161)
        shock, diag = tmp_path / "shock", tmp_path / "diag"
        assert cli.main(["detect-shock", "--init", str(init), "--gamma",
                         str(GAMMA), "--R", "1.0", "--out", str(shock)]) == 0
        cfgp = write_config(tmp_path, initial_data="init.csv",
                            output_dir=str(diag))
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
        report = json.loads((shock / "envelope_report.json").read_text())
        envelope = json.loads((diag / "envelope.json").read_text())
        assert report["detected"] is True
        assert report == {"detected": envelope["detected"],
                          "numeric": envelope["event"],
                          "analytic": envelope["analytic"]}

    @pytest.mark.parametrize("case", ["couette", "1d"])
    def test_run_scenario_returns_its_report(self, tmp_path, case):
        # the returned dict is the one run_report.json holds
        if case == "couette":
            fs, _ = couette_flow(mu=0.1, k=0.05, nx=33, ny=33)
            write_fields_csv(tmp_path / "f.csv", fs)
            cfgp = write_config(tmp_path, fields="f.csv",
                                transport={"mu": 0.1, "k": 0.05},
                                jump_checks={"relation": "char", "refine": 1})
        else:
            compression_init(tmp_path / "init.csv", n=101)
            cfgp = write_config(tmp_path, initial_data="init.csv", t_end=3.0)
        report = cli.run_scenario(cli.ScenarioConfig.from_file(cfgp))
        written = json.loads((tmp_path / "out" / "run_report.json").read_text())
        report.pop("wall_time_s")
        written.pop("wall_time_s")
        assert report == written
        assert (report["classification"] is None) == (case == "1d")

    @pytest.mark.parametrize("command", ["detect-shock", "solve-moc"])
    def test_missing_init_is_one_line(self, tmp_path, capsys, command):
        # both commands read their flags as one config
        missing = tmp_path / "absent.csv"
        assert cli.main([command, "--init", str(missing), "--t-end", "1.0",
                         "--out", str(tmp_path / "out")]) == 2
        run = capsys.readouterr()
        assert run.out == ""
        assert run.err == f"error: referenced path does not exist: {missing}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["diagnose", "solve-moc",
                                         "verify-jumps"])
    def test_stdout_is_the_report(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        init = compression_init(tmp_path / "init.csv", n=101)
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        argv = {
            "diagnose": ["diagnose", "--config", str(write_config(
                tmp_path, fields="f.csv", initial_data="init.csv", t_end=3.0,
                jump_checks={"relation": "char", "refine": 1}))],
            "solve-moc": ["solve-moc", "--init", str(init), "--t-end", "0.5",
                          "--out", str(out)],
            "verify-jumps": ["verify-jumps", "--relation", "contact",
                             "--refine", "2", "--out", str(out)],
        }[command]
        assert cli.main(argv) == 0
        run = capsys.readouterr()
        assert run.err == ""
        assert cli.main(["report", "--run", str(out)]) == 0
        assert run.out == capsys.readouterr().out
        scenario = "config" if command == "diagnose" else command
        assert run.out.startswith(f"scenario: {scenario}\n")

    @pytest.mark.parametrize("command", ["verify-jumps", "diagnose"])
    def test_failed_jump_check_exits_3_with_one_line(self, tmp_path, capsys,
                                                     command):
        out = tmp_path / "out"
        if command == "verify-jumps":
            argv = ["verify-jumps", "--relation", "contact", "--refine", "1",
                    "--tol", "1e-9", "--out", str(out)]
        else:
            argv = ["diagnose", "--config", str(write_config(
                tmp_path, jump_checks={"relation": "contact", "refine": 1},
                tolerances={"jump_rel_error": 1e-9}))]
        assert cli.main(argv) == 3
        run = capsys.readouterr()
        assert run.err == (
            "numerical failure: contact jump check failed at h = 0.02: "
            "rel_error = 7.217e-04 > tol = 1e-09 (1 of 1 levels failed)\n")
        # the run is still reported and written
        assert "contact jump check at h = 0.02: rel_error = 7.217e-04 (FAIL)" \
            in run.out.splitlines()
        rep = json.loads((out / "jump_reports.json").read_text())
        assert [r["passed"] for r in rep["reports"]] == [False]
