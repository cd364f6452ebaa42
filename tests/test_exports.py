"""Every exported name resolves, the package re-exports only names its
modules export (``__all__``, or every public name of a module without
one), every name the benchmark's spans patch exists, and its counters
read the nets that the commands return."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import vortigen
from vortigen import moc
from vortigen.exact import SimpleWave
from vortigen.thermo import GasModel

from nets import collect_net

MODULES = sorted(info.name for info in pkgutil.iter_modules(vortigen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"vortigen.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_reexports_are_exported():
    tree = ast.parse(Path(vortigen.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1
        mod = importlib.import_module(f"vortigen.{node.module}")
        exported = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")]
        for alias in node.names:
            assert alias.name in exported, f"{node.module}.{alias.name}"
            assert getattr(vortigen, alias.asname or alias.name) is \
                getattr(mod, alias.name)


def load_spans():
    """``perfbench/spans.py``, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_methods_exist():
    # a missing one makes ``install`` raise KeyError under --trace 1
    spans = load_spans()
    for layer, quals in spans.METHODS.items():
        mod = importlib.import_module(f"vortigen.{layer}")
        for qual in quals:
            cls_name, meth = qual.split(".")
            assert inspect.isfunction(vars(getattr(mod, cls_name)).get(meth)), \
                f"{layer}.{qual}"


def test_span_observers_are_layer_functions():
    # a renamed one silently zeroes its counters (moc.nodes feeds the 1-D
    # work_per_s)
    spans = load_spans()
    for layer, name in spans.OBSERVERS:
        mod = importlib.import_module(f"vortigen.{layer}")
        assert name in spans._public_functions(mod), f"{layer}.{name}"


def test_net_counters_read_a_released_net():
    # every net releases its inner levels; the benchmark's level and node
    # counters (the 1-D work_per_s) must read the whole net, as collected
    spans = load_spans()
    m = GasModel(gamma=1.4, R=1.0)
    nodes = SimpleWave(lambda x: 0.1 * np.tanh(2 * x), gamma=1.4) \
        .initial_nodes(np.linspace(-1, 1, 101))
    released = moc.advance_net(nodes, t_end=0.6, m=m)
    whole = collect_net(nodes, t_end=0.6, m=m)
    assert released.x[1] is None
    assert spans._net_nodes(whole) == sum(map(len, whole.x))
    for count in (spans._net_levels, spans._net_nodes):
        assert count(released) == count(whole) > 1
