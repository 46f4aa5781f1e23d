"""The benchmark's own checks: tiny runs pass and corrupted profiles fail.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import doubleslit.cli
from doubleslit import QubitBehavior

import measure

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def fewer_repeats(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "IMPORTTIME_REPEATS", 1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result, _ = measure.run_workload(workload, seed=3, seconds=0.2, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert all(m["value"] != 0 for m in result["metrics"].values()), result["metrics"]


def test_host_clock_cancels_a_slower_host(monkeypatch):
    loop = iter([2e-3, 2e-3, 6e-3, 6e-3])
    monkeypatch.setattr(measure.HostClock, "loop_seconds", lambda self, loops: next(loop))
    clock = measure.HostClock(2)
    try:
        assert clock.scale(1.0) == pytest.approx(1.0 * measure.CAL_REFERENCE_S / 2e-3)
        assert clock.scale(1.0) == pytest.approx(1.0 * measure.CAL_REFERENCE_S / 4e-3)
        assert clock.scale(3.0) == pytest.approx(3.0 * measure.CAL_REFERENCE_S / 6e-3)
    finally:
        clock.close()


def test_per_case_median_weighs_cases_equally():
    assert measure.per_case_median([[0.01] * 30, [1.0, 3.0, 1.0]]) == pytest.approx(0.505)


def _bump(density):
    density = density.copy()
    density[0] = np.nextafter(density[0], np.inf)
    return density


# Each corruption is caught by a different check: (behavior, corruption, failure).
CORRUPTIONS = {
    "remembers scaled by 1e-3": (
        QubitBehavior.REMEMBERS, lambda p: p * (1 + 1e-3), "from the oracle"),
    "forgets one ulp off none": (
        QubitBehavior.FORGETS, _bump, "none and forgets CSVs differ"),
    "none holds a NaN": (
        QubitBehavior.NONE, lambda p: np.where(np.arange(p.size) == 3, np.nan, p),
        "density not finite"),
    "remembers peak 1e-8 off its mirror": (
        QubitBehavior.REMEMBERS, lambda p: p * (1 + 1e-8 * (np.arange(p.size) == np.argmax(p))),
        "mirror asymmetry"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_profile_is_counted_as_failed(corruption, monkeypatch):
    behavior, corrupt, failure = CORRUPTIONS[corruption]
    write = doubleslit.cli.write_profile_csv

    def corrupted_write(profile, path):
        if profile.behavior is behavior:
            profile = replace(profile, density=corrupt(profile.density))
        write(profile, path)

    monkeypatch.setattr(doubleslit.cli, "write_profile_csv", corrupted_write)
    result, lines = measure.run_workload("ref-all", seed=3, seconds=0.2, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1, lines
    assert any(failure in line for line in lines), lines


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "ref-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
