"""Planted defects that the tests must catch: a kept mutation check.

Tier-1 says that the code agrees with its tests; this script checks that
the tests can see a wrong number.  ``MUTANTS`` is a fixed list of one-line
defects in the program.  For each one the script copies the checkout's
``src/`` and ``tests/``, with the files the tests read (``pyproject.toml``,
``README.md`` and ``perfbench/``), to a temporary directory, applies the
edit there and runs tier-1 with ``-x`` and without
``tests/test_bench_reference.py``.  Those digests catch any change to the
numbers, right or wrong, so a defect that only they catch has no oracle.
It prints each defect with the first test that fails, or SURVIVED.

The old text of each edit must occur exactly once in its file; where it
does not, the defect is STALE: a change moved or rewrote its line, and
the entry must be rewritten to the new code, not dropped.  The list only
grows, and the script edits no test or check.  Before the defects it runs
the unmutated copy, and stops if that fails.

Run it from the root of a checkout, for every defect or for the named
ones::

    python tests/mutants.py [NAME ...]

A caught defect takes well under a minute with ``-x``, a survivor about
as long as tier-1.  The exit status is 0 when every defect run was caught.
It is not named ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIER1 = ["-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--ignore=tests/test_bench_reference.py"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    what: str


EVOFORM, MOC = "src/vortigen/evoform.py", "src/vortigen/moc.py"
MUTANTS = [
    Mutant("M1", EVOFORM,
           "((t[:, 0] * dxx + t[:, 1] * dxy) * n[:, 0]",
           "((t[:, 0] * dxy + t[:, 1] * dxx) * n[:, 0]",
           "commutator contracts J with dGx/dx and dGx/dy swapped"),
    Mutant("M2", EVOFORM,
           "attribution[name] = -(sx * n[:, 0] + sy * n[:, 1])",
           "attribution[name] = +(sx * n[:, 0] + sy * n[:, 1])",
           "the A1 terms enter K with + instead of -"),
    Mutant("M4", EVOFORM,
           "tm.mu * ((4.0 / 3.0) * (ux - 0.5 * vy) ** 2",
           "tm.mu * ((2.0 / 3.0) * (ux - 0.5 * vy) ** 2",
           "2/3 in place of 4/3 in viscous_a1's (ux - vy/2)^2 term"),
    Mutant("M5", EVOFORM,
           "d1x, _ = gradient(-qx / T, grid)",
           "d1x, _ = gradient(qx / T, grid)",
           "the x part of the heat-flux divergence with its sign flipped"),
    Mutant("N3", MOC,
           "t_star = (1 - th) * tb_prev[ip] + th * tb_new[inew]",
           "t_star = th * tb_prev[ip] + (1 - th) * tb_new[inew]",
           "the t* interpolation weights swapped in _scan_level_pair"),
    Mutant("force-unnegated", EVOFORM,
           "np.negative(g[:2], out=g[:2])",
           "pass",
           "the force term left unnegated"),
    Mutant("h0-gradient-swapped", EVOFORM,
           "g[0], g[1] = gradient(h0, grid)",
           "g[1], g[0] = gradient(h0, grid)",
           "the h0 gradient's components swapped"),
    Mutant("vortical-sign", EVOFORM,
           "vort_sign = 1.0 if sign is CroccoSign.PAPER_LITERAL else -1.0",
           "vort_sign = -1.0 if sign is CroccoSign.PAPER_LITERAL else 1.0",
           "the vortical sign flipped"),
    Mutant("M4-y", EVOFORM,
           "+ (uy + vx) ** 2)",
           "+ 0.5 * (uy + vx) ** 2)",
           "the y part of M4: half the (uy + vx)^2 shear term"),
    Mutant("M5-y", EVOFORM,
           "_, d1y = gradient(-qy / T, grid)",
           "_, d1y = gradient(qy / T, grid)",
           "the y part of the heat-flux divergence with its sign flipped"),
    Mutant("entropy-sign", MOC,
           "rhs1, rhs2 = J_L + e[0], J_R - e[1]",
           "rhs1, rhs2 = J_L - e[0], J_R + e[1]",
           "the 1-D midpoint entropy term with its sign flipped"),
    Mutant("entropy-factor", MOC,
           "ge = gamma * (gamma - 1.0) * 0.5",
           "ge = gamma * (gamma - 1.0) * 0.25",
           "the 1-D midpoint entropy term doubled"),
    Mutant("c0-foot-mirrored", MOC,
           "xf = xL + theta * dx",
           "xf = xR - theta * dx",
           "the C0 foot mirrored on its parent segment"),
]


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, into / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, into / name)


def outcome(mutant: Mutant | None) -> str:
    """The first failing test of tier-1 on a copy with ``mutant`` applied
    (None: unmutated), SURVIVED, or STALE."""
    with tempfile.TemporaryDirectory(prefix="vortigen-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is not None:
            path = tree / mutant.path
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return f"STALE: the old text occurs {text.count(mutant.old)} times"
            path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("VORTIGEN_OUT", None)
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                              capture_output=True, text=True)
    if proc.returncode == 0:
        return "SURVIVED"
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return f"pytest exited {proc.returncode}"


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    clean = outcome(None)
    if clean != "SURVIVED":
        print(f"the unmutated tree fails: {clean}")
        return 2
    missed = 0
    for m in chosen:
        result = outcome(m)
        missed += not result.startswith(("FAILED", "ERROR"))
        print(f"{m.name:20} {result}  ({m.what})", flush=True)
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
