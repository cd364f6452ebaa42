"""Each benchmark workload, run at its default seed, meets its closed-form
checks and reproduces the outputs recorded in ``perfbench/reference.json``
(the ``net.csv`` digest and the report numbers), so a change to output
bytes fails here before it fails the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from vortigen import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    """``perfbench/workloads.py``, loaded from its path; registered in
    ``sys.modules`` first, because its dataclass looks its module up."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


workloads = load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_matches_reference(tmp_path, monkeypatch, name):
    monkeypatch.delenv("VORTIGEN_OUT", raising=False)
    prep = workloads.prepare(name, workloads.DEFAULT_SEED, tmp_path / name)
    out = tmp_path / "out"
    assert cli.main(prep.argv(out)) == 0
    assert workloads.check_outcome(prep, out) == []
    assert workloads.compare_reference(
        REFERENCE[name], workloads.deterministic_digests(out),
        workloads.report_numbers(out)) == []
