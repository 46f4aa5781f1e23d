"""Snapshot of the command-line outputs, for comparing two checkouts run for run.

    PYTHONPATH=<checkout>/src python tests/cli_snapshot.py OUTDIR

runs ``python -m doubleslit`` (the package the interpreter finds, so the checkout on
``PYTHONPATH``) on the runs in ``RUNS``: both screen bases, both geometries, the mirror
and an asymmetric window, every output kind, JSON and text reports, ``--check``'s exit 2,
a window too narrow to hold a first minimum, a config whose kernel prefactor float64
cannot hold (exit 1), and the mirror window at N=2050, whose CSV's 1025-row upper half
ends one row into a second chunk.  OUTDIR/<run>/ receives the files that run wrote, its
config file if it has one, and its ``stdout``, ``stderr`` and ``exit_code``, so ``diff -r``
of two snapshots is empty exactly when the two checkouts give the same bytes on every run.
OUTDIR must not exist.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

# run -> (config file text or None, command-line arguments); paths are inside the run's
# own directory, which is the working directory of its process
RUNS = {
    "ref-all": (None, ["--n", "2000", "--qubit", "all", "--csv", "p.csv", "--svg", "p.svg",
                       "--masks", "masks", "--report", "report.json"]),
    "large-none": (None, ["--n", "8000", "--qubit", "none", "--csv", "p.csv"]),
    "paper-250": (None, ["--geometry", "paper", "--n", "250", "--csv", "p.csv",
                         "--svg", "p.svg", "--report", "report.txt"]),
    "check-16": (None, ["--n", "16", "--csv", "p.csv", "--svg", "p.svg", "--masks", "masks",
                        "--report", "report.txt", "--check"]),
    "wide-2000": ("N = 2000\nZmin = -30\nZmax = 30\n", ["--csv", "p.csv", "--svg", "p.svg"]),
    "asymmetric-2050": ("N = 2050\nZmin = -0.1\nZmax = 0.2\n",
                        ["--csv", "p.csv", "--report", "report.json"]),
    "no-minimum-64": ("N = 64\nZmin = -0.001\nZmax = 0.001\n",
                      ["--csv", "p.csv", "--report", "report.json"]),
    "prefactor-overflow-16": ("h = 1e-10\nlambda = 1\nm = 1e290\nL = 1e10\nN = 16\n",
                              ["--csv", "p.csv"]),
    "mirror-2050": ("N = 2050\n", ["--csv", "p.csv", "--svg", "p.svg", "--masks", "masks",
                                   "--report", "report.json"]),
}


def snapshot(outdir: Path) -> None:
    outdir.mkdir(parents=True)
    for name, (config, args) in RUNS.items():
        run_dir = outdir / name
        run_dir.mkdir()
        if config is not None:
            (run_dir / "run.cfg").write_text(config)
            args = ["--config", "run.cfg", *args]
        result = subprocess.run([sys.executable, "-m", "doubleslit", *args], cwd=run_dir,
                                capture_output=True, timeout=600)
        (run_dir / "stdout").write_bytes(result.stdout)
        (run_dir / "stderr").write_bytes(result.stderr)
        (run_dir / "exit_code").write_text(f"{result.returncode}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py OUTDIR")
    snapshot(Path(sys.argv[1]))
