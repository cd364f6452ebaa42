"""Property tests of the command line on small generated configs, 1-D
CSV rows and run reports: every input runs or is refused with exit code 2
or 3, never with a traceback, and no written JSON carries a NaN or an
infinity."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vortigen import cli

BAD_CELLS = ["nan", "inf", "-inf", "1e999", "0", "-1", "1e-320", "1e300",
             "abc", ""]
NAN, INF = float("nan"), float("inf")


@st.composite
def init_rows(draw):
    """3-6 rows of mostly valid (x, rho, u, p) samples, sometimes with one
    cell replaced by a bad token."""
    n = draw(st.integers(3, 6))
    xs = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n,
                              unique=True)))
    cells = [[repr(x), repr(draw(st.floats(0.1, 10.0))),
              repr(draw(st.floats(-2.0, 2.0))),
              repr(draw(st.floats(0.1, 10.0)))] for x in xs]
    if draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        col = draw(st.integers(0, 3))
        cells[row][col] = draw(st.sampled_from(BAD_CELLS))
    return cells


def section(values, junk=([], "text", 7)):
    """A config section: an object built from ``values`` or a non-object."""
    return st.one_of(st.fixed_dictionaries({}, optional=values),
                     st.sampled_from(junk))


configs = st.fixed_dictionaries({}, optional={
    "gas": section({
        "gamma": st.sampled_from([1.4, 5 / 3, 1.0, NAN, INF, "1.4", None]),
        "R": st.sampled_from([1.0, 0.0, -1.0, NAN]),
        "entropy_convention": st.sampled_from(
            ["entropy_function", "specific", "bogus", 3])}),
    "crocco_sign": st.sampled_from(["consistent", "paper", "bogus", [1]]),
    "a1_variant": st.sampled_from(["paper", "standard", "bogus", None]),
    "t_end": st.sampled_from([None, 0.0, 0.05, 1.0, -1.0, NAN, INF, "1"]),
    "time_index": st.sampled_from([0, 1, 5, -1, 1.5, 2.5, "x", [0], True,
                                   None]),
    "include_time_term": st.sampled_from([None, True, False, "no", 1, 0,
                                          [True]]),
    "tolerances": section({"corrector": st.sampled_from(
        [1e-12, 1e-3, 0.0, -1.0, None, NAN, "x"])}),
    "transport": section({"mu": st.sampled_from([0.1, -1.0, "x"])}),
    "forces": section({"kind": st.sampled_from(["none", "bogus", 1])}),
    "trajectories": section({"step": st.sampled_from([0.1, "x", INF])}),
    "jump_checks": st.one_of(
        st.just({"relation": "contact", "refine": 1}),
        section({"relation": st.sampled_from(["contact", "bogus", 2]),
                 "refine": st.sampled_from([1, 0, -1, 1.7, "2", True, None,
                                            [1]])})),
    "scenario_id": st.sampled_from(["demo", 5, [1]]),
})


def run(argv):
    """Exit code and stderr of one ``cli.main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


def assert_finite_json(out: Path):
    for path in out.glob("*.json"):
        def reject(token, path=path):
            raise AssertionError(f"{path.name} holds {token}")
        json.loads(path.read_text(), parse_constant=reject)


# extreme but finite samples overflow on purpose; the run must still end
# with exit code 0, 2 or 3
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None)
@given(rows=init_rows(), cfg=configs)
def test_cli_exits_cleanly_on_generated_input(rows, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "init.csv").write_text(
            "x,rho,u,p\n" + "".join(",".join(r) + "\n" for r in rows))
        cfg_path = tmp / "scenario.json"
        cfg_path.write_text(json.dumps(
            {**cfg, "initial_data": "init.csv", "output_dir": "run"}))
        runs = [["diagnose", "--config", str(cfg_path)],
                ["detect-shock", "--init", str(tmp / "init.csv"),
                 "--out", str(tmp / "shock")]]
        for argv in runs:
            rc, err = run(argv)
            assert rc in (0, 2, 3), (argv, rc, err)
            assert "Traceback" not in err
            assert (rc == 0) == (err == ""), err
        for out in (tmp / "run", tmp / "shock"):
            assert_finite_json(out)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def report_like(values):
    """Objects with the keys ``vortigen report`` reads, holding anything."""
    event = st.fixed_dictionaries({}, optional={
        k: values for k in ("t_star", "x_star", "family")})
    return st.fixed_dictionaries({}, optional={
        **{k: values for k in ("scenario_id", "lagrange", "max_K",
                               "tolerance", "classification", "dominant",
                               "regime", "identical_on_pseudostructure",
                               "wall_time_s")},
        "envelope": values | st.fixed_dictionaries({}, optional={
            "detected": values, "event": values | event}),
        "moc_residuals": values | st.fixed_dictionaries({}, optional={
            k: values for k in ("C0", "C+", "C-")}),
    })


@settings(max_examples=200, deadline=None, database=None)
@given(content=json_values | report_like(json_values))
def test_report_exits_cleanly_on_any_json(content):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "run_report.json").write_text(json.dumps(content))
        rc, err = run(["report", "--run", tmp])
    assert rc in (0, 2), (rc, err)
    assert "Traceback" not in err
    assert (rc == 0) == (err == ""), err
