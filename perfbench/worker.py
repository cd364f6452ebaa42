"""One measured ``vortigen`` call in a fresh process.

Usage: ``python3 worker.py JOB.json`` with ``src`` of the checkout on
``PYTHONPATH``.  The job holds the command line, whether to trace, and
where to write the result.  Set-up ends when ``import vortigen.cli``
returns; its CLOCK_MONOTONIC reading lets the parent measure set-up from
the moment it started this process.  Only the ``cli.main`` call is timed.
A fixed calibration kernel is timed right after set-up and right after
the call, so the parent can divide out how fast the host ran just then.
Untraced runs wrap ``moc.advance_net`` alone, one span per run, to count
the net's nodes, which no output file records on every workload.
"""

import sys
import time

import vortigen.cli

READY = time.monotonic()


def calibrate() -> float:
    """Seconds taken by fixed work of the kinds the workloads do: float
    formatting and parsing in the interpreter, then numpy array passes."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += float("%.17g" % (i * 0.37))
    arr = np.arange(100000, dtype=float)
    for _ in range(40):
        arr = np.sqrt(arr * 1.0000001 + 1.0)
    return time.perf_counter() - t0


def main(job_path: str) -> int:
    import json
    import resource
    from pathlib import Path

    import spans

    cal_before = calibrate()
    job = json.loads(Path(job_path).read_text())
    rec = spans.Recorder()
    spans.install(rec, only=None if job["trace"] else {"moc": ("advance_net",)})
    t0 = time.perf_counter()
    rc = vortigen.cli.main(job["argv"])
    wall = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rc": rc,
        "ready": READY,
        "wall_s": wall,
        "cal_before_s": cal_before,
        "cal_after_s": calibrate(),
        "peak_rss_mb": rss_kb / 1024.0,
        "net_nodes": rec.counters.get("moc.nodes", 0),
        "vortigen_file": vortigen.cli.__file__,
    }
    if job["trace"]:
        result["layers"] = spans.layer_metrics(rec)
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
