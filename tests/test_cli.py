import json

import numpy as np
import pytest

from vortigen import cli
from vortigen.errors import GridInferenceError, ParseError
from vortigen.exact import SimpleWave
from vortigen.fields import FieldSet
from vortigen.thermo import GasModel

from scenarios import GAMMA, couette_flow

M = GasModel(gamma=GAMMA, R=1.0)


def write_fields_csv(path, fs: FieldSet):
    g = fs.grid
    lines = ["x,y,rho,u,v,p"]
    for j in range(g.ny):
        for i in range(g.nx):
            vals = (g.x[i], g.y[j], fs.rho[j, i], fs.u[j, i], fs.v[j, i],
                    fs.p[j, i])
            lines.append(",".join(format(v, ".17g") for v in vals))
    path.write_text("\n".join(lines) + "\n")


def write_uniform_csv(path, nx=9, ny=9, rho=1.0, u=1.0, v=0.0, p=1.0):
    lines = ["x,y,rho,u,v,p"]
    for j in range(ny):
        for i in range(nx):
            lines.append(",".join(format(val, ".17g") for val in
                                  (i / (nx - 1), j / (ny - 1), rho, u, v, p)))
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

    def test_nonphysical(self, tmp_path):
        path = tmp_path / "f.csv"
        write_uniform_csv(path, rho=1.0)
        path.write_text(path.read_text().replace(",1,1,0,1", ",-1,1,0,1", 1))
        with pytest.raises(cli.NonPhysicalState):
            cli.load_fields(path)


class TestScenarios:
    def write_config(self, tmp_path, **kw):
        cfg = {
            "gas": {"gamma": GAMMA, "R": 1.0},
            "output_dir": str(tmp_path / "out"),
        }
        cfg.update(kw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_uniform_flow_locally_equilibrium(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfgp = self.write_config(tmp_path, fields="f.csv")
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert rep["classification"] == "locally_equilibrium"
        assert rep["envelope"] is None
        assert rep["lagrange"]["predicts_equilibrium"] is True
        assert rep["regime"] == "elliptic"  # |u| = 1 < a = sqrt(1.4)

    def test_classification_recomputable(self, tmp_path):
        fpath = write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17)
        cfgp = self.write_config(tmp_path, fields="f.csv")
        cli.main(["diagnose", "--config", str(cfgp)])
        rep = json.loads((tmp_path / "out" / "run_report.json").read_text())
        expect = ("locally_equilibrium" if rep["max_K"] <= rep["tolerance"]
                  else "nonequilibrium")
        assert rep["classification"] == expect

    def test_compression_scenario_envelope(self, tmp_path):
        init = compression_init(tmp_path / "init.csv")
        cfgp = self.write_config(tmp_path, initial_data="init.csv", t_end=3.0)
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
        cfgp = self.write_config(
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
            cfgp = self.write_config(
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
        cfgp = self.write_config(
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
        cfgp = self.write_config(
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
        cfgp = self.write_config(tmp_path, fields="f.csv",
                                 include_time_term=True)
        rc = cli.main(["diagnose", "--config", str(cfgp)])
        assert rc == 2
        assert "nonstationary" in capsys.readouterr().err

    def test_nonexistent_path_exits_2(self, tmp_path):
        cfgp = self.write_config(tmp_path, fields="missing.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2

    def test_invalid_gas_model_exits_2(self, tmp_path):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = self.write_config(tmp_path, fields="f.csv",
                                 gas={"gamma": 0.9, "R": 1.0})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2

    def test_all_seeds_stagnant_exits_2(self, tmp_path):
        write_uniform_csv(tmp_path / "f.csv", nx=17, ny=17, u=0.0, v=0.0)
        cfgp = self.write_config(tmp_path, fields="f.csv")
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2

    @pytest.mark.parametrize("seeds", [5, [[0.1]], [[0.1, float("nan")]],
                                       [[0.1, "0.5"]]])
    def test_malformed_seeds_exit_2(self, tmp_path, capsys, seeds):
        write_uniform_csv(tmp_path / "f.csv")
        cfgp = self.write_config(tmp_path, fields="f.csv",
                                 trajectories={"seeds": seeds})
        assert cli.main(["diagnose", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert str(cfgp) in err and "trajectories.seeds" in err

    def test_derived_fields_built_once_per_run(self, tmp_path, monkeypatch):
        # guards against per-seed recomputation of the node fields
        import vortigen
        from vortigen import fields, thermo
        fs, _ = couette_flow(mu=0.1, k=0.05, nx=33, ny=33)
        write_fields_csv(tmp_path / "f.csv", fs)
        counts = {}
        for fn in (thermo.derive_fields, fields.gradient):
            def counted(*a, _fn=fn, **kw):
                counts[_fn.__name__] += 1
                return _fn(*a, **kw)
            for mod in vars(vortigen).values():
                if getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, counted)
        seen = []
        for n in (8, 64):
            counts.update(derive_fields=0, gradient=0)
            seeds = [[0.1, y] for y in np.linspace(0.05, 0.95, n)]
            cfgp = self.write_config(
                tmp_path, fields="f.csv", transport={"mu": 0.1, "k": 0.05},
                trajectories={"seeds": seeds},
                output_dir=str(tmp_path / f"out{n}"))
            assert cli.main(["diagnose", "--config", str(cfgp)]) == 0
            assert len(list((tmp_path / f"out{n}").glob("trajectory_*"))) == n
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["derive_fields"] <= 3

    def test_unsorted_initial_data_exits_2(self, tmp_path):
        path = tmp_path / "init.csv"
        path.write_text("x,rho,u,p\n0.0,1,0,1\n0.2,1,0,1\n0.1,1,0,1\n")
        assert cli.main(["solve-moc", "--init", str(path), "--t-end", "0.1",
                         "--out", str(tmp_path / "o")]) == 2


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
        assert cli.main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

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
