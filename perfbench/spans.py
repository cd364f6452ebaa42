"""Layer spans recorded from outside the program.

:func:`install` wraps every public module-level function of the package's
layer modules, plus the public methods in ``METHODS``, at every
module-global name bound to it.  ``cli`` imports ``trace_streamline`` and
``frame_along`` by name, ``evoform`` imports ``interp_bilinear``,
``gradient`` and ``derive_fields`` by name, so patching only the defining
module would miss those calls.  Each call is one span; a span's self time
is its duration minus the time of the spans it encloses, so the self
times of all spans add up to the outermost one (``cli.main``).

``exact`` has no span of its own: its only run-time use is the centered
fan inside the ``char`` jump sweep, whose time lands in ``cli`` self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "thermo", "fields", "evoform", "moc", "jumps")
METHODS = {
    "cli": ("ScenarioConfig.build_forces",),
    "evoform": ("A1Coefficient.sample_along",),
}


def _ingest_rows(result) -> int:
    """Rows read by ``load_fields`` (a FieldSet, snapshots included) or
    ``load_initial_1d`` (a tuple of arrays)."""
    grid = getattr(result, "grid", None)
    if grid is not None:
        return grid.nx * grid.ny * (1 + len(result.snapshots or ()))
    if isinstance(result, tuple):
        return len(result[0])
    return 0


def _net_levels(net) -> int:
    return net.n_levels


def _net_nodes(net) -> int:
    return sum(net.level_size(k) for k in range(net.n_levels))


# (layer, qualified name) -> [(counter, function of the return value)]
OBSERVERS: Dict[tuple, List[tuple]] = {
    ("cli", "load_fields"): [("cli.ingest_rows", _ingest_rows)],
    ("cli", "load_initial_1d"): [("cli.ingest_rows", _ingest_rows)],
    ("fields", "trace_streamline"): [("fields.traj_points", len)],
    ("moc", "advance_net"): [("moc.levels", _net_levels),
                             ("moc.nodes", _net_nodes)],
}


class Recorder:
    """Per-function call counts, failures and self times of one run."""

    def __init__(self):
        self._stack: List[float] = [0.0]
        # "layer:qualname" -> [calls, failed calls, self seconds]
        self.stats: Dict[str, list] = {}
        self.counters: Dict[str, float] = {}

    def wrap(self, layer: str, qual: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(f"{layer}:{qual}", [0, 0, 0.0])
        observers = OBSERVERS.get((layer, qual), ())
        counters = self.counters
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[1] += 1
                raise
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[2] += dt - inner
            for name, measure in observers:
                counters[name] = counters.get(name, 0) + measure(result)
            return result

        return span

    def self_s(self, layer: str, *quals: str) -> float:
        """Self time of the named functions of a layer, or of all of them."""
        if quals:
            return sum(self.stats.get(f"{layer}:{q}", (0, 0, 0.0))[2]
                       for q in quals)
        return sum(v[2] for k, v in self.stats.items()
                   if k.startswith(layer + ":"))

    def calls(self, layer: str, *quals: str, failed: bool = False) -> int:
        col = 1 if failed else 0
        return sum(self.stats.get(f"{layer}:{q}", (0, 0, 0.0))[col]
                   for q in quals)


def _public_functions(mod) -> Dict[str, Callable]:
    return {name: val for name, val in vars(mod).items()
            if inspect.isfunction(val) and not name.startswith("_")
            and val.__module__ == mod.__name__}


def install(recorder: Recorder, package: str = "vortigen",
            only: Optional[Dict[str, tuple]] = None) -> None:
    """Wrap the layer functions of an imported package in spans.

    ``only`` restricts the spans to ``{layer: (qualname, ...)}``.
    """
    targets: Dict[int, Callable] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        wanted = None if only is None else set(only.get(layer, ()))
        for name, fn in _public_functions(mod).items():
            if wanted is None or name in wanted:
                targets[id(fn)] = recorder.wrap(layer, name, fn)
        for qual in METHODS.get(layer, ()):
            if wanted is not None and qual not in wanted:
                continue
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, recorder.wrap(layer, qual, vars(cls)[meth]))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for name, val in list(vars(mod).items()):
            wrapper = targets.get(id(val))
            if wrapper is not None:
                setattr(mod, name, wrapper)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """The per-layer metrics of one traced run (bytes written and the
    tracing overhead are added by the caller)."""
    s = rec.self_s
    traced = rec.calls("fields", "trace_streamline")
    m = {
        "cli.ingest_s": s("cli", "load_fields", "load_initial_1d",
                          "ScenarioConfig.build_forces"),
        "cli.ingest_rows": rec.counters.get("cli.ingest_rows", 0),
        "evoform.lagrange_s": s("evoform", "lagrange_criterion"),
        "evoform.tolerance_s": s("evoform", "equilibrium_tolerance",
                                 "truncation_estimate"),
        "evoform.anu_s": s("evoform", "crocco_normal_coefficient"),
        "evoform.a1_s": s("evoform", "viscous_a1", "ideal_a1",
                          "A1Coefficient.sample_along"),
        "evoform.commutator_s": s("evoform", "commutator"),
        "fields.trace_s": s("fields", "trace_streamline"),
        "fields.frame_s": s("fields", "frame_along"),
        "fields.interp_s": s("fields", "interp_bilinear"),
        "fields.interp_calls": rec.calls("fields", "interp_bilinear"),
        "fields.gradient_s": s("fields", "gradient", "curl2d"),
        "fields.gradient_calls": rec.calls("fields", "gradient"),
        "fields.traj_points": rec.counters.get("fields.traj_points", 0),
        "fields.trace_ok_frac": (
            (traced - rec.calls("fields", "trace_streamline", failed=True))
            / traced if traced else 0.0),
        "thermo.derive_fields_s": s("thermo", "derive_fields"),
        "thermo.derive_fields_calls": rec.calls("thermo", "derive_fields"),
        "moc.advance_s": s("moc", "advance_net"),
        "moc.envelope_s": s("moc", "detect_envelope"),
        "moc.residual_s": s("moc", "pseudostructure_residual"),
        "moc.levels": rec.counters.get("moc.levels", 0),
        "moc.nodes": rec.counters.get("moc.nodes", 0),
        "jumps.measure_calls": rec.calls("jumps", "measure_jump",
                                         "measure_discontinuity"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s(layer)
    m["cli.write_s"] = m["cli.self_s"] - m["cli.ingest_s"]
    m["jumps.sweep_s"] = m["jumps.self_s"]
    return m
