"""Benchmark of the ``vortigen`` command line on four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Load model: a closed loop with one client.  Each run starts one fresh
worker process (``worker.py``), which imports ``vortigen.cli`` (the
set-up) and times a single ``cli.main([...])`` call on inputs generated
from ``--seed`` before any timer starts.  Runs repeat, one at a time,
for ``--seconds``; every run writes to a fresh output directory that is
checked and then removed.  ``VORTIGEN_OUT`` is dropped from the worker's
environment because it would redirect the outputs, and the BLAS thread
pools are pinned to one thread.

Calibrated times.  Neighbours on a shared host slow it by up to 1.8x
for minutes at a time, so raw times of whole benchmark runs move by as
much, more than any bound worth having.  Each worker therefore times a
fixed calibration kernel (``worker.calibrate``) right after set-up and
right after the call, and a calibrated time is the measured time scaled
by ``CAL_REF_S`` over the kernel's time in the same process: the time
the run would have taken on a host where the kernel takes ``CAL_REF_S``
seconds, its time on an idle host of the kind the baseline ran on.  The
kernel does not depend on the program, so a change to the program moves
calibrated times in proportion to raw ones; raw times are printed too.

End-to-end metrics (``--trace 0``), medians over the runs:

* ``wall_s``: calibrated wall time of one ``cli.main`` call;
* ``setup_s``: calibrated time from process start until
  ``import vortigen.cli`` returns;
* ``peak_rss_mb``: worker ``ru_maxrss`` after the call;
* ``work_per_s``: work items per second of ``wall_s``, trajectories
  traced on the 2-D workloads and characteristic-net nodes on the 1-D
  ones;

``fail_frac`` (runs with a nonzero exit or a failed check over runs
attempted) is printed and carried by ``attempted``/``failed``.

With ``--trace 1`` traced and untraced runs alternate.  Traced runs wrap
the package's public functions in spans (``spans.py``) and give the
per-layer self times (raw seconds) and counts, medians over the traced
runs; ``trace.wall_s`` is the calibrated wall time of the traced runs,
``trace.overhead_s`` that minus the untraced one, and ``trace.coverage``
the share of the traced wall time that the layer self times account for
(at least 0.95).

Checks on every run: the exit code, the closed-form outcome of the
workload (``workloads.check_outcome``), byte-identical outputs across the
runs of one seed (``wall_time_s`` aside) and, for the default seed, the
digests and report numbers recorded in ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (after the source path is known)
import workloads  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"
# a run must end within this many seconds of the benchmark's start
HARD_LIMIT_S = 165.0
MIN_COVERAGE = 0.95
# worker.calibrate() on an idle 2.0 GHz Xeon vCPU, Python 3.11, numpy 2.4
CAL_REF_S = 0.055
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "work_per_s": "1/s"}
COUNT_SUFFIXES = ("_calls", "_rows", "_points", ".levels", ".nodes",
                  "bytes_written")


@dataclass
class Run:
    """One worker's measurements; times in raw seconds."""

    traced: bool
    duration: float = 0.0
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    cal_before_s: float = 0.0
    cal_after_s: float = 0.0
    work_items: int = 0
    bytes_written: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def cal_wall_s(self) -> float:
        cal = 0.5 * (self.cal_before_s + self.cal_after_s)
        return self.wall_s * CAL_REF_S / cal

    @property
    def cal_setup_s(self) -> float:
        return self.setup_s * CAL_REF_S / self.cal_before_s


def worker_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("VORTIGEN_OUT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def one_run(prep: workloads.Prepared, work: Path, index: int, traced: bool,
            env: Dict[str, str], deadline: float,
            reference: Optional[dict]) -> Run:
    """Start one worker, wait for it, check its outputs, remove them."""
    run = Run(traced=traced)
    out = work / f"out{index}"
    job = work / f"job{index}.json"
    result_path = work / f"result{index}.json"
    job.write_text(json.dumps({"argv": prep.argv(out), "trace": traced,
                               "result": str(result_path)}))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(job)], cwd=work,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, stderr = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        run.errors.append("worker timed out")
        stderr = b""
    run.duration = time.monotonic() - start
    try:
        res = json.loads(result_path.read_text())
    except (OSError, ValueError):
        res = None
    if res is None or proc.returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        run.errors.append(f"worker exit {proc.returncode}: {tail}")
    elif res["rc"] != 0:
        run.errors.append(f"vortigen exit code {res['rc']}")
    elif not Path(res["vortigen_file"]).is_relative_to(ROOT / "src"):
        run.errors.append(f"imported {res['vortigen_file']}, not the checkout")
    if res is not None:
        run.wall_s = res["wall_s"]
        run.setup_s = res["ready"] - start
        run.peak_rss_mb = res["peak_rss_mb"]
        run.cal_before_s = res["cal_before_s"]
        run.cal_after_s = res["cal_after_s"]
        run.layers = res.get("layers", {})
        if prep.unit == "net_nodes":
            run.work_items = res["net_nodes"]
    if out.is_dir():
        if not run.errors:
            run.errors += workloads.check_outcome(prep, out)
            run.digests = workloads.deterministic_digests(out)
            if reference is not None:
                run.errors += workloads.compare_reference(
                    reference, run.digests, workloads.report_numbers(out))
            if prep.unit == "trajectories":
                run.work_items = len(list(out.glob("trajectory_*.csv")))
            run.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
    elif not run.errors:
        run.errors.append("no output directory")
    for path in (job, result_path):
        path.unlink(missing_ok=True)
    return run


def measure(prep, work, seconds, trace, env, reference, t_begin) -> List[Run]:
    """Repeat runs for ``seconds``; with ``trace`` untraced and traced runs
    alternate.  At least two runs are made, one of each kind when
    tracing, so determinism is always checked."""
    runs: List[Run] = []
    start = time.monotonic()
    hard_deadline = t_begin + HARD_LIMIT_S
    while True:
        traced = trace and len(runs) % 2 == 1
        run = one_run(prep, work, len(runs), traced, env, hard_deadline,
                      reference)
        if runs and run.digests and runs[0].digests \
                and run.digests != runs[0].digests:
            differ = sorted(k for k in set(run.digests) | set(runs[0].digests)
                            if run.digests.get(k) != runs[0].digests.get(k))
            run.errors.append(f"outputs differ from the first run: {differ}")
        runs.append(run)
        now = time.monotonic()
        est = statistics.median(r.duration for r in runs)
        if now + 2.0 * est > hard_deadline or "worker timed out" in run.errors:
            break
        if len(runs) >= 2 and now - start + est > seconds:
            break
    return runs


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(prep, runs: List[Run], trace: bool) -> dict:
    """Metrics of one benchmark run in the output contract's shape."""
    good = [r for r in runs if not r.errors]
    plain = [r for r in good if not r.traced]
    metrics: Dict[str, dict] = {}
    counts: Dict[str, int] = {}
    if not trace:
        wall = _median([r.cal_wall_s for r in plain])
        items = plain[0].work_items if plain else 0
        values = {
            "wall_s": wall,
            "setup_s": _median([r.cal_setup_s for r in good]),
            "peak_rss_mb": _median([r.peak_rss_mb for r in plain]),
            "work_per_s": items / wall if wall else 0.0,
        }
        for name, val in values.items():
            metrics[name] = {"value": val, "unit": E2E_UNITS[name]}
            counts[name] = len(good) if name == "setup_s" else len(plain)
    else:
        traced = [r for r in good if r.traced]
        names = sorted(traced[0].layers) if traced else []
        for name in names:
            metrics[name] = {"value": _median([r.layers[name] for r in traced]),
                             "unit": "count" if name.endswith(COUNT_SUFFIXES)
                             else "ratio" if name.endswith("_frac") else "s"}
        t_wall = _median([r.cal_wall_s for r in traced])
        covered = []
        for r in traced:
            cov = sum(v for k, v in r.layers.items()
                      if k.endswith(".self_s")) / r.wall_s
            covered.append(cov)
            if cov < MIN_COVERAGE:
                r.errors.append(f"layer self times cover {cov:.3f} of the "
                                f"traced wall time (< {MIN_COVERAGE})")
        extra = {
            "cli.bytes_written": (_median([r.bytes_written for r in traced]),
                                  "count"),
            "trace.wall_s": (t_wall, "s"),
            "trace.overhead_s":
                (t_wall - _median([r.cal_wall_s for r in plain]), "s"),
            "trace.coverage": (_median(covered), "ratio"),
        }
        for name, (val, unit) in extra.items():
            metrics[name] = {"value": val, "unit": unit}
        counts = {name: len(traced) for name in metrics}
    failed = sum(1 for r in runs if r.errors)
    return {
        "result": {"correct": failed == 0 and bool(good),
                   "attempted": len(runs), "failed": failed,
                   "metrics": metrics},
        "counts": counts,
    }


def print_summary(name: str, seed: int, trace: bool, prep_s: float,
                  runs: List[Run], summary: dict, unit: str,
                  params: Dict[str, float]) -> None:
    res = summary["result"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"inputs {prep_s:.2f} s  runs {res['attempted']}")
    print("  inputs: " + " ".join(f"{k}={v:.6g}" for k, v in params.items()))
    for i, r in enumerate(runs):
        for err in r.errors:
            print(f"  FAIL run {i}: {err}")
    print("  per run raw wall_s: " + " ".join(
        f"{r.wall_s:.3f}{'t' if r.traced else ''}" for r in runs))
    print("  per run host speed (CAL_REF_S / kernel time): " + " ".join(
        f"{CAL_REF_S / (0.5 * (r.cal_before_s + r.cal_after_s)):.2f}"
        for r in runs if r.cal_before_s))
    for metric, spec in res["metrics"].items():
        note = f"  ({unit} per s)" if metric == "work_per_s" else ""
        print(f"  {metric:28s} {spec['value']:>14.6g} {spec['unit']:6s} "
              f"n={summary['counts'][metric]}{note}")
    print(f"  {'fail_frac':28s} {res['failed'] / res['attempted']:>14.6g} "
          f"{'ratio':6s} n={res['attempted']}")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    traced_wall = _median([r.wall_s for r in runs if r.traced and not r.errors])
    if traced_wall:
        share = {k: m[k] / traced_wall for k in m if k.endswith("_s")}
        print("  self-time shares of the median traced run: " + ", ".join(
            f"{layer} {share[layer + '.self_s']:.1%}" for layer in spans.LAYERS)
            + f" (cli.ingest_s {share['cli.ingest_s']:.1%}, "
            f"cli.write_s {share['cli.write_s']:.1%})")


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   small: bool, record: bool, t_begin: float) -> dict:
    work = WORK_DIR / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.monotonic()
        prep = workloads.prepare(name, seed, work / "inputs", small=small)
        prep_s = time.monotonic() - t0
        env = worker_env(work)
        # compile the package once so no run pays for byte-compilation
        subprocess.run([sys.executable, "-c", "import vortigen.cli"],
                       cwd=work, env=env, check=True, timeout=120)
        reference = None
        if seed == workloads.DEFAULT_SEED and not small and not record:
            reference = load_reference().get(name)
        runs = measure(prep, work, seconds, trace, env, reference, t_begin)
        if record:
            record_reference(name, prep, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    summary = summarize(prep, runs, trace)
    print_summary(name, seed, trace, prep_s, runs, summary, prep.unit,
                  prep.params)
    return summary["result"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def record_reference(name, prep, work, env) -> None:
    """Record the default seed's net.csv digest and report numbers.
    Re-record only when an output format changes on purpose."""
    run_out = work / "record"
    subprocess.run([sys.executable, "-c",
                    "import sys, vortigen.cli; "
                    "sys.exit(vortigen.cli.main(sys.argv[1:]))",
                    *prep.argv(run_out)],
                   cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
    digests = workloads.deterministic_digests(run_out)
    entry = {"sha256": {k: v for k, v in digests.items() if k == "net.csv"},
             "numbers": workloads.report_numbers(run_out)}
    ref = load_reference()
    ref[name] = entry
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    t_begin = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the default seed's reference outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vortigen" / "cli.py").is_file():
        print(f"error: no vortigen source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record and args.seed != workloads.DEFAULT_SEED:
        parser.error("--record needs the default seed")
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    for name in names:
        start = t_begin if len(names) == 1 else time.monotonic()
        results[name] = bench_workload(name, args.seed, args.seconds,
                                       bool(args.trace), False,
                                       args.record, start)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
