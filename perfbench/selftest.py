"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

1. A small-size run of every workload, untraced and traced, passes every
   check.
2. The checkers catch faults: corrupting one byte of a recorded output
   (``net.csv``, a report number) fails the reference and determinism
   comparisons, and flipping an expected outcome fails the outcome check.

Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import time
from pathlib import Path

import run
import workloads

from vortigen import cli

FLIPS = {
    "diag2d_source513": ("classification", "nonequilibrium"),
    "diag2d_couette_dense": ("classification", "locally_equilibrium"),
    "moc1d_compress821": ("envelope_family", "C-"),
}


def _outputs(name: str, work: Path):
    prep = workloads.prepare(name, workloads.DEFAULT_SEED, work / "inputs",
                             small=True)
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(prep.argv(out))
    if rc != 0:
        raise RuntimeError(f"{name}: vortigen exited {rc}")
    return prep, out


def _corrupt(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] = ord("0") + (data[offset] - ord("0") + 1) % 10 \
        if chr(data[offset]).isdigit() else data[offset] ^ 1
    path.write_bytes(bytes(data))


def fault_cases(work: Path):
    """Yield (description, checker found a fault) for every injected fault."""
    for name in workloads.WORKLOADS:
        sub = work / name
        prep, out = _outputs(name, sub)
        yield f"{name}: clean small outputs pass", \
            not workloads.check_outcome(prep, out)
        if name in FLIPS:
            key, wrong = FLIPS[name]
            prep.expect = {**prep.expect, key: wrong}
            yield f"{name}: expected {key} flipped to {wrong!r} fails", \
                bool(workloads.check_outcome(prep, out))
        else:
            rep = out / "envelope_report.json"
            rep.write_text(rep.read_text().replace('"detected": false',
                                                   '"detected": true'))
            yield f"{name}: envelope_report.json claiming an envelope fails", \
                bool(workloads.check_outcome(prep, out))

    prep, out = _outputs("moc1d_compress821", work / "recorded")
    digests = workloads.deterministic_digests(out)
    ref = {"sha256": {"net.csv": digests["net.csv"]},
           "numbers": workloads.report_numbers(out)}
    yield "reference: unchanged outputs match", \
        not workloads.compare_reference(ref, digests,
                                        workloads.report_numbers(out))
    net = out / "net.csv"
    _corrupt(net, net.stat().st_size // 2)
    changed = workloads.deterministic_digests(out)
    yield "reference: one corrupted byte of net.csv fails", \
        bool(workloads.compare_reference(ref, changed,
                                         workloads.report_numbers(out)))
    yield "determinism: one corrupted byte of net.csv differs", \
        changed != digests
    report = out / "run_report.json"
    text = report.read_text()
    digit = text.index('"t_star": ') + len('"t_star": ') + 3
    _corrupt(report, digit)
    yield "reference: one corrupted digit of t_star fails", \
        bool(workloads.compare_reference(
            ref, workloads.deterministic_digests(out),
            workloads.report_numbers(out)))


def main() -> int:
    work = run.WORK_DIR / f"selftest-p{os.getpid()}"
    failures = 0
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                with contextlib.redirect_stdout(io.StringIO()):
                    res = run.bench_workload(name, workloads.DEFAULT_SEED, 0.0,
                                             trace, small=True, record=False,
                                             t_begin=time.monotonic())
                ok = res["correct"] and res["failed"] == 0
                failures += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {name} small run, "
                      f"trace {int(trace)}: {res['attempted']} runs")
        for desc, ok in fault_cases(work):
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {desc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
