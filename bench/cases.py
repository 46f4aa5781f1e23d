"""Workload inputs and the checks made on every operation's outputs.

A case is one CLI invocation: its flags, the config it resolves to, and a
40-digit reference at screen points the workload seed picks.  Every
operation runs one case through ``doubleslit.cli.main`` into an empty
directory; ``check`` then reads back what it wrote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from doubleslit import (ExperimentConfig, GeometryMode, IntensityProfile, QubitBehavior,
                        build_grids, derive, read_profile_csv, write_profile_csv)

import oracle

ALL = (QubitBehavior.NONE, QubitBehavior.REMEMBERS, QubitBehavior.FORGETS)
EVERY_OUTPUT = ("csv", "svg", "masks", "report")
MASK_N = 8                 # the CLI's mask export size
# A float64 kernel phase phi is rounded by a few ulp, about phi * 2**-53
# each.  Over N unit terms that moves |S| <= N by at most N * that, so
# |p - p_ref| stays below a few max(phi) * 2**-53 times the density bound
# 2a/(lambda*L) that N terms in phase would reach.  The gate allows 16
# times: any correct float64 engine passes it, a wrong profile does not.
ORACLE_ULPS = 16
MIRROR_TOL = 1e-9          # of the peak, elementwise (acceptance criterion c10)
GRID_TOL = 1e-9            # cells between the float and the exact grids
# The reference run's one known red check: the window truncates the fringe
# cross term, a physical 3e-4 gap against a 1e-6 gate (README "Known red check").
REF_RED_CHECKS = frozenset({"normalization_pairwise"})

WORKLOADS = ("ref-all", "large-none", "sweep-small")  # why each exists: BENCHMARK.json


@dataclass(frozen=True)
class Case:
    config: ExperimentConfig
    behaviors: tuple[QubitBehavior, ...]
    flags: tuple[str, ...]          # CLI flags other than output paths
    outputs: tuple[str, ...]        # subset of csv, svg, masks, report
    samples: np.ndarray             # screen indices checked against the oracle
    reference: dict                 # behavior -> mpf densities at samples
    screen: np.ndarray              # float screen grid the CSV must carry
    grid_ok: bool
    max_phase: float                # rad, largest kernel phase c*(x - x')^2
    tolerance: float                # 1/m, largest |p - p_ref| the gate allows
    red_checks: Optional[frozenset] = None  # exact failing report checks, if fixed

    def argv(self, outdir: Path) -> list[str]:
        paths = {"csv": outdir / "profile.csv", "svg": outdir / "profile.svg",
                 "masks": outdir / "masks", "report": outdir / "report.json"}
        argv = list(self.flags)
        for kind in self.outputs:
            argv += [f"--{kind}", str(paths[kind])]
        return argv

    def csv_path(self, outdir: Path, behavior: QubitBehavior) -> Path:
        if len(self.behaviors) == 1:
            return outdir / "profile.csv"
        return outdir / f"profile_{behavior.value}.csv"

    @property
    def threads(self) -> int:
        """The --threads the case passes, or the CLI's default of 1."""
        return int(self.flags[self.flags.index("--threads") + 1]) if "--threads" in self.flags else 1

    @property
    def pair_terms(self) -> int:
        """Kernel terms the O(N^2) sum evaluates: N screen x N slit points per behavior."""
        return self.config.n_positions ** 2 * len(self.behaviors)


def make_case(config: ExperimentConfig, behaviors, flags, outputs, n_samples: int,
              rng: np.random.Generator, red_checks=None) -> Case:
    """Pick stratified sample points and evaluate the reference there."""
    n = config.n_positions
    grids = build_grids(config, derive(config))
    edges = np.linspace(0, n, min(n_samples, n) + 1).astype(int)
    samples = np.array([rng.integers(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])
    screen, slit = grids.screen_positions, grids.slit_positions
    phase = oracle.max_phase(config, screen, slit)
    bound = 2 * config.slit_width / (config.wavelength * config.wall_to_screen)
    return Case(
        config=config, behaviors=tuple(behaviors), flags=tuple(flags), outputs=tuple(outputs),
        samples=samples,
        reference=oracle.reference_density(config, screen, slit, samples, behaviors),
        screen=screen,
        grid_ok=oracle.ideal_grid_deviation(config, screen, slit) <= GRID_TOL,
        max_phase=phase,
        tolerance=ORACLE_ULPS * phase * 2.0 ** -53 * bound,
        red_checks=red_checks,
    )


def build_cases(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Case]:
    """The cases one run cycles through; the same seed gives the same cases.

    ``tiny`` shrinks every workload so the benchmark's own tests run in seconds.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ref-all":
        n = 500 if tiny else 2000
        return [make_case(ExperimentConfig(n_positions=n), ALL,
                          ("--n", str(n), "--qubit", "all", "--threads", "1"),
                          EVERY_OUTPUT, 24, rng, red_checks=REF_RED_CHECKS)]
    if workload == "large-none":
        n = 256 if tiny else 8000
        return [make_case(ExperimentConfig(n_positions=n), (QubitBehavior.NONE,),
                          ("--n", str(n), "--qubit", "none", "--threads", "2"),
                          ("csv",), 16, rng)]
    if workload == "sweep-small":
        return _sweep(rng, workdir, 4 if tiny else 48)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep(rng: np.random.Generator, workdir: Path, count: int) -> list[Case]:
    """Configs drawn by Latin hypercube: each seed covers every range evenly.

    N is even in [16, 256], the window is +-[0.05, 0.3] m, a is 0.5-3 nm,
    d/a is in [1.5, 6], and 30 % of the configs use the paper geometry.
    Even coverage keeps the median pass time from depending on the seed.
    """
    def strata(lo: float, hi: float) -> np.ndarray:
        return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count

    n_values = 16 + 2 * np.minimum(np.floor(strata(0, 121)), 120).astype(int)
    windows, widths, ratios = strata(0.05, 0.3), strata(0.5e-9, 3e-9), strata(1.5, 6.0)
    paper = set(rng.permutation(count)[:round(0.3 * count)].tolist())
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for k in range(count):
        values = {"N": int(n_values[k]), "a": float(widths[k]),
                  "d": float(widths[k] * ratios[k]),
                  "Zmin": -float(windows[k]), "Zmax": float(windows[k])}
        path = workdir / f"config_{k}.txt"
        path.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
        geometry = GeometryMode.PAPER_LITERAL if k in paper else GeometryMode.CORRECTED
        config = ExperimentConfig(n_positions=values["N"], slit_width=values["a"],
                                  slit_separation=values["d"], screen_min=values["Zmin"],
                                  screen_max=values["Zmax"], geometry_mode=geometry)
        flags = ["--config", str(path), "--qubit", "all"]
        if k in paper:
            flags += ["--geometry", "paper"]
        cases.append(make_case(config, ALL, flags, EVERY_OUTPUT, 4, rng))
    return cases


@dataclass
class Outcome:
    failures: list[str]
    oracle_err: float = 0.0               # max |p - p_ref| / max p over samples, behaviors
    pairwise: Optional[float] = None      # normalization_pairwise, where the red set is fixed


def check(case: Case, outdir: Path, exit_code: int) -> Outcome:
    """Check one operation's outputs; every failed check is listed."""
    if exit_code != 0:
        return Outcome([f"exit code {exit_code}"])
    out = Outcome([] if case.grid_ok else ["float grid is off the exact grid"])
    cfg = case.config
    symmetric = (cfg.geometry_mode is GeometryMode.CORRECTED
                 and cfg.screen_min == -cfg.screen_max)
    for b in case.behaviors:
        path = case.csv_path(outdir, b)
        x, p = read_profile_csv(path)
        if not np.array_equal(x, case.screen):
            out.failures.append(f"{b.value}: positions differ from the grid")
            continue
        if not (np.all(np.isfinite(p)) and np.all(p >= 0)):
            out.failures.append(f"{b.value}: density not finite and >= 0")
            continue
        copy = outdir / "roundtrip.csv"
        write_profile_csv(IntensityProfile(x, p, b, cfg), copy)
        if copy.read_bytes() != path.read_bytes():
            out.failures.append(f"{b.value}: CSV does not round-trip")
        peak = float(p.max())
        if symmetric and np.max(np.abs(p - p[::-1])) > MIRROR_TOL * peak:
            out.failures.append(f"{b.value}: mirror asymmetry above {MIRROR_TOL:g}")
        err = oracle.max_error(p, case.samples, case.reference[b])
        out.oracle_err = max(out.oracle_err, err / peak)
        if not err <= case.tolerance:
            out.failures.append(f"{b.value}: {err / peak:.3g} of the peak from the oracle")
    if QubitBehavior.NONE in case.behaviors and QubitBehavior.FORGETS in case.behaviors:
        if (case.csv_path(outdir, QubitBehavior.NONE).read_bytes()
                != case.csv_path(outdir, QubitBehavior.FORGETS).read_bytes()):
            out.failures.append("none and forgets CSVs differ")
    if "svg" in case.outputs:
        for b in case.behaviors:
            svg = (outdir / f"profile_{b.value}.svg").read_text()
            if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
                out.failures.append(f"{b.value}: SVG incomplete")
    if "masks" in case.outputs:
        for b in case.behaviors:
            lines = (outdir / "masks" / f"mask_{b.value}.txt").read_text().splitlines()
            if lines[0] != f"behavior={b.value} n={MASK_N}" or len(lines) != 1 + 2 * MASK_N:
                out.failures.append(f"{b.value}: mask export malformed")
    if "report" in case.outputs:
        checks = json.loads((outdir / "report.json").read_text())["checks"]
        failing = {c["name"] for c in checks if not c["pass"]}
        if case.red_checks is not None:
            out.pairwise = next(c["measured"] for c in checks
                                if c["name"] == "normalization_pairwise")
            if failing != case.red_checks:
                out.failures.append(f"failing report checks {sorted(failing)}")
    return out
