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

    python tests/cli_snapshot.py --compare A B

prints, run by run, each file that differs between snapshots A and B (or is in one only).
For a CSV profile present in both it adds whether the positions are bitwise equal and the
largest |density difference| as a fraction of A's peak density.  It exits 1 if any file
differs and 0 if none does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

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


def snapshot_files(root: Path) -> dict[str, bytes]:
    """Each file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _profile(data: bytes) -> np.ndarray:
    """A CSV profile's (positions, density) columns, as float64 rows."""
    return np.loadtxt(data.decode().splitlines(), delimiter=",", skiprows=1, ndmin=2)


def compare(a: Path, b: Path) -> list[str]:
    """One line per file that differs between snapshots a and b, in run and file order."""
    first, second = snapshot_files(a), snapshot_files(b)
    lines = []
    for name in sorted(first.keys() | second.keys()):
        if name not in second or name not in first:
            lines.append(f"{name}: only in {a if name in first else b}")
        elif first[name] != second[name]:
            line = name
            if name.endswith(".csv"):
                old, new = _profile(first[name]), _profile(second[name])
                if old.shape != new.shape:
                    line += f": {len(old)} rows against {len(new)}"
                else:
                    same = old[:, 0].tobytes() == new[:, 0].tobytes()
                    delta = np.abs(new[:, 1] - old[:, 1]).max() / old[:, 1].max()
                    line += (f": positions {'bitwise equal' if same else 'differ'}, "
                             f"max |d density| / peak = {delta:.3g}")
            lines.append(line)
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        differing = compare(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(differing), end="\n" if differing else "")
        sys.exit(1 if differing else 0)
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py OUTDIR | cli_snapshot.py --compare A B")
    snapshot(Path(sys.argv[1]))
