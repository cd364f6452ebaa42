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
from hypothesis import assume, given, settings, strategies as st

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


# values no entry of the table accepts, or accepts only for some keys
JUNK = [NAN, INF, -INF, 0, -1, 1.7, "x", [1], True, None]

# what each kind of entry accepts, by the wording of its error message
VALID = {
    "a finite number": st.floats(0.0, 3.0),  # JUNK holds -1
    "finite and > 0": st.floats(1e-3, 10.0),
    "finite and > 1": st.floats(1.05, 3.0),
    "an integer >= 0": st.integers(0, 2),
    "an integer >= 1": st.integers(1, 2),
    "a string": st.text(max_size=8),
    "a path string": st.just("init.csv"),
    "true, false or null": st.booleans(),
    "a list of finite [x, y] pairs": st.lists(
        st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=2), max_size=3),
}


def mostly(good, bad):
    """Draws of ``good`` three times as often as of ``bad``."""
    return st.one_of(good, good, good, bad)


def value(key):
    """A value the table entry ``key`` accepts, or one from JUNK."""
    what = key.kind.what
    if what.startswith("one of "):
        good = st.sampled_from(what[len("one of "):].split(", "))
    else:
        good = VALID[what]
    return mostly(good, st.sampled_from(JUNK))


def table_configs():
    """Configs over every key of the table: each key absent, a value its
    entry accepts or a JUNK value; each section an object of such keys or
    a JUNK value."""
    tree = {}  # section ("" for the top level) -> {key: strategy}
    for name, key in cli.CONFIG_KEYS.items():
        head, _, leaf = name.rpartition(".")
        tree.setdefault(head, {})[leaf] = value(key)
    return st.fixed_dictionaries({}, optional={**tree.pop(""), **{
        head: mostly(st.fixed_dictionaries({}, optional=leaves),
                     st.sampled_from(JUNK)) for head, leaves in tree.items()}})


configs = table_configs()
NAMES = [*cli.CONFIG_KEYS,
         *dict.fromkeys(n.split(".")[0] for n in cli.CONFIG_KEYS if "." in n)]


@st.composite
def misspellings(draw):
    """A known key or section with one letter dropped (a one-letter key
    doubled), as (section, key)."""
    head, _, leaf = draw(st.sampled_from(NAMES)).rpartition(".")
    i = draw(st.integers(0, len(leaf) - 1))
    typo = leaf[:i] + leaf[i + 1:] if len(leaf) > 1 else leaf * 2
    assume((head and head + ".") + typo not in NAMES)
    return head, typo


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
@given(rows=init_rows(), cfg=configs,
       typo=mostly(st.none(), misspellings()))
def test_cli_exits_cleanly_on_generated_input(rows, cfg, typo):
    cfg = {**cfg, "initial_data": "init.csv", "output_dir": "run"}
    if typo:
        head, key = typo
        if head:
            inner = cfg.get(head)
            cfg[head] = {**(inner if isinstance(inner, dict) else {}), key: 1}
        else:
            cfg[key] = 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "init.csv").write_text(
            "x,rho,u,p\n" + "".join(",".join(r) + "\n" for r in rows))
        cfg_path = tmp / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        runs = [["diagnose", "--config", str(cfg_path)],
                ["detect-shock", "--init", str(tmp / "init.csv"),
                 "--out", str(tmp / "shock")]]
        results = [run(argv) for argv in runs]
        for argv, (rc, err) in zip(runs, results):
            assert rc in (0, 2, 3), (argv, rc, err)
            assert "Traceback" not in err
            assert (rc == 0) == (err == ""), err
        if typo:
            # an unknown key is refused, unless a section checked before it
            # is not an object, which is refused first
            rc, err = results[0]
            assert rc == 2
            assert (f"unknown key {(head and head + '.') + key}" in err
                    or "must be a JSON object" in err), err
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
