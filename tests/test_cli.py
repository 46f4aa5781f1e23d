import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import doubleslit as ds
from doubleslit import reporting
from doubleslit.cli import _build_parser, main, parse_args
from doubleslit.qubit import QubitBehavior
from doubleslit.reporting import CONFIG_FILE_KEYS, read_config_file
from cli_snapshot import snapshot_files

# Exponents of the reference constants, so that many fuzzed files are valid.
REFERENCE_EXPONENT = {"lambda": -10, "m": -31, "h": -34, "a": -9, "d": -8, "L": 0,
                      "Zmin": -1, "Zmax": -1}
# Numbers from 0 through +-1e-320 ... +-1e308 to nan and inf, and non-numbers.
ANY_VALUE = st.one_of(
    st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e-320", "-1e-320", "1e308", "-1e308"]),
    st.builds("{}{}e{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
              st.integers(-320, 308)),
    st.sampled_from(["", "abc", "1,5", "0x10", "1e", "--1", "1 2"]))
# N is even and at most 64, so that every run stays small, or malformed.
GOOD_N = st.integers(1, 32).map(lambda k: str(2 * k))
BAD_N = st.one_of(st.integers(-4, 0).map(lambda k: str(2 * k)),
                  st.sampled_from(["", "3", "3.5", "1e2", "sixteen", "16 16", "0x10", "nan"]))


def _sometimes(draw, usual, rare):
    """A draw from ``rare`` one time in four, otherwise from ``usual``."""
    return draw(rare if draw(st.integers(0, 3)) == 0 else usual)


@st.composite
def fuzzed_config_file(draw) -> bytes:
    """N and some known keys with numbers of their constant's sign, and sometimes
    faults: any value for a known or unknown key, a repeated key, a line without
    '=', bytes that are not UTF-8."""
    lines = [f"N = {_sometimes(draw, GOOD_N, BAD_N)}".encode()]
    for key in draw(st.lists(st.sampled_from(sorted(REFERENCE_EXPONENT)), unique=True)):
        # near the reference, or near either end of the float range
        exponent = st.one_of(st.integers(REFERENCE_EXPONENT[key] - 2, REFERENCE_EXPONENT[key]),
                             st.integers(-320, -280), st.integers(280, 308))
        sign = "-" if key == "Zmin" else ""
        value = draw(st.builds(f"{sign}{{}}e{{}}".format, st.integers(1, 9), exponent))
        lines.append(f"{key} = {value}".encode())
    fault = st.one_of(
        st.builds("{} = {}".format, st.sampled_from(sorted(CONFIG_FILE_KEYS) + ["n", "x"]),
                  ANY_VALUE).map(str.encode),
        st.sampled_from([b"# comment", b"N", b"= 1", b"a = \xff", b"L = 1\xc3\x28"]),
        st.sampled_from(lines),                              # a repeated line
    )
    lines += _sometimes(draw, st.just([]), st.lists(fault, min_size=1, max_size=3))
    draw(st.randoms()).shuffle(lines)
    return b"\n".join(lines) + b"\n"


class TestParseArgs:
    def test_defaults(self, tmp_path):
        request = parse_args(["--csv", str(tmp_path / "out.csv")])
        assert request.config == ds.ExperimentConfig()
        assert request.behaviors == (QubitBehavior.NONE, QubitBehavior.REMEMBERS,
                                     QubitBehavior.FORGETS)
        assert request.check is False

    def test_single_behavior(self, tmp_path):
        request = parse_args(["--qubit", "remembers", "--csv", str(tmp_path / "o.csv")])
        assert request.behaviors == (QubitBehavior.REMEMBERS,)
        assert request.config == ds.ExperimentConfig()

    def test_geometry_and_n(self, tmp_path):
        request = parse_args(["--n", "500", "--geometry", "paper",
                              "--csv", str(tmp_path / "o.csv")])
        assert request.config.n_positions == 500
        assert request.config.geometry_mode is ds.GeometryMode.PAPER_LITERAL

    @pytest.mark.parametrize("argv", [
        ["--csv", "x.csv", "--n", "3"],             # odd N
        ["--csv", "x.csv", "--n", "0"],
        ["--csv", "x.csv", "--qubit", "maybe"],     # unknown behavior
        ["--csv", "x.csv", "--frobnicate"],         # unknown flag
        [],                                         # no output requested
        ["--report", "r.json", "--qubit", "none"],  # validation needs all three
        ["--check", "--qubit", "forgets"],
        ["--csv", "x.csv", "--threads", "0"],
    ])
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("N = 100\nZmin = -0.2\nZmax = 0.2\n")
        request = parse_args(["--config", str(cfg_file), "--n", "50",
                              "--csv", str(tmp_path / "o.csv")])
        assert request.config.n_positions == 50       # flag wins over file
        assert request.config.screen_min == -0.2      # file wins over default

    def test_config_file_errors_are_usage_errors(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["--config", str(cfg_file), "--csv", str(tmp_path / "o.csv")])
        assert excinfo.value.code == 2

    def test_readme_flag_table_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = {flag for line in readme.splitlines() if line.startswith("| `--")
                      for flag in re.findall(r"--[a-z][a-z-]*", line.split("|")[1])}
        options = {s for action in _build_parser()._actions for s in action.option_strings}
        assert documented == options - {"-h", "--help"}

    def test_many_calls_build_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(self) or
                            init(self, *args, **kwargs))
        _build_parser.cache_clear()
        try:
            for n in (16, 32, 16):
                assert main(["--qubit", "none", "--n", str(n),
                             "--csv", str(tmp_path / "o.csv")]) == 0
            with pytest.raises(SystemExit):
                parse_args(["--n", "3", "--csv", str(tmp_path / "o.csv")])
            assert len(built) == 1
        finally:
            _build_parser.cache_clear()     # later tests build a plain parser

    def test_usage_error_leaves_the_parser_as_it_was(self, tmp_path, capsys):
        def outputs(directory):
            directory.mkdir()
            argv = ["--n", "64", "--csv", str(directory / "p.csv"),
                    "--svg", str(directory / "p.svg"), "--report", str(directory / "R.json")]
            assert main(argv) == 0
            files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            return files, capsys.readouterr()

        alone = outputs(tmp_path / "alone")
        with pytest.raises(SystemExit) as excinfo:
            main(["--n", "64", "--qubit", "maybe", "--csv", str(tmp_path / "o.csv")])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: doubleslit ")
        assert outputs(tmp_path / "after") == alone

    def test_duplicate_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("N = 100\nN = 50\n")
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["--config", str(cfg_file), "--csv", str(tmp_path / "o.csv")])
        assert excinfo.value.code == 2
        assert "duplicate key 'N'" in capsys.readouterr().err


class TestRun:
    def test_single_behavior_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["--qubit", "none", "--n", "250", "--csv", str(out)]) == 0
        lines = out.read_text().rstrip("\n").split("\n")
        assert len(lines) == 1 + 250

    def test_all_behaviors_write_suffixed_files(self, tmp_path):
        code = main(["--n", "250", "--csv", str(tmp_path / "p.csv"),
                     "--svg", str(tmp_path / "p.svg"),
                     "--masks", str(tmp_path / "masks")])
        assert code == 0
        for name in ("none", "remembers", "forgets"):
            assert (tmp_path / f"p_{name}.csv").exists()
            assert (tmp_path / f"p_{name}.svg").exists()
            assert (tmp_path / "masks" / f"mask_{name}.txt").exists()

    def test_forgets_output_identical_to_none(self, tmp_path):
        a, b = tmp_path / "none.csv", tmp_path / "forgets.csv"
        assert main(["--qubit", "none", "--n", "250", "--csv", str(a)]) == 0
        assert main(["--qubit", "forgets", "--n", "250", "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def _check_chunks_formatted(self, tmp_path, monkeypatch, args, chunks_per_density):
        """Two --qubit all runs format each distinct density's chunks once, with nothing kept
        between runs: ``chunks_per_density`` rows per chunk, for none (and forgets) and
        remembers."""
        chunks = []
        csv_rows = reporting._csv_rows

        def counted(v):
            chunks.append(v.size // 2)
            return csv_rows(v)

        monkeypatch.setattr(reporting, "_csv_rows", counted)
        for run in (1, 2):
            assert main(["--qubit", "all", *args, "--csv", str(tmp_path / "p.csv")]) == 0
            none, remembers, forgets = (
                (tmp_path / f"p_{b.value}.csv").read_bytes() for b in QubitBehavior)
            assert none == forgets != remembers
            assert chunks == chunks_per_density * 2 * run

    def test_none_and_forgets_csv_formatted_once(self, tmp_path, monkeypatch):
        # 2 distinct densities x their 1000-row upper halves per run, not 3 x 2 chunks: the
        # corrected geometry on the default window is a mirror image about 0
        self._check_chunks_formatted(tmp_path, monkeypatch, ["--n", "2000"], [1000])

    def test_every_row_formatted_off_the_mirror(self, tmp_path, monkeypatch):
        # the paper's geometry is no mirror image: 2 densities x 2 chunks of every row
        self._check_chunks_formatted(tmp_path, monkeypatch,
                                     ["--n", "2000", "--geometry", "paper"], [1024, 976])

    def test_unwritable_shared_csv_is_a_runtime_error(self, tmp_path, capsys):
        (tmp_path / "p_forgets.csv").mkdir()
        assert main(["--n", "250", "--csv", str(tmp_path / "p.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        first = (tmp_path / "a.json", tmp_path / "a.csv")
        second = (tmp_path / "b.json", tmp_path / "b.csv")
        for report, csv in (first, second):
            code = main(["--n", "250", "--report", str(report), "--csv", str(csv)])
            assert code == 0
        assert first[0].read_bytes() == second[0].read_bytes()
        for name in ("none", "remembers", "forgets"):
            assert (tmp_path / f"a_{name}.csv").read_bytes() == \
                (tmp_path / f"b_{name}.csv").read_bytes()

    def test_report_json_structure(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["--n", "250", "--report", str(report_path)])
        assert code == 0            # without --check a failed gate does not change the exit code
        tree = json.loads(report_path.read_text())
        assert tree["interference"] == {"none": True, "remembers": False, "forgets": True}
        # the flat text form is echoed to stdout
        out = capsys.readouterr().out
        assert "fringe_spacing_measured = " in out

    def test_check_reports_the_overtight_agreement_gate(self, tmp_path, capsys):
        # All feature checks pass at N=250; the 1e-6 behavior-agreement gate
        # trips on the physical ~3e-4 screen-truncation residual, so --check
        # exits 2 and names exactly that check.
        code = main(["--n", "250", "--check"])
        assert code == 2
        captured = capsys.readouterr()
        assert "validation failed: normalization_pairwise" in captured.err
        assert "check_fringe_spacing_pass = true" in captured.out

    @pytest.mark.parametrize("line", ["lambda = 1e-300", "m = 1e-320", "L = 1e-300"])
    def test_underflowed_denominator_is_a_runtime_error(self, tmp_path, capsys, line):
        # Each value is positive and finite, but a denominator of the velocity
        # or the phase scale underflows to zero.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"N = 16\n{line}\n")
        code = main(["--config", str(cfg_file), "--qubit", "none",
                     "--csv", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_screen_grid_is_a_runtime_error(self, tmp_path, capsys):
        # Valid bounds, but their midpoint overflows: the run names the screen
        # grid instead of a non-finite amplitude, and numpy warns of nothing.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("N = 16\nZmin = 1e308\nZmax = 1.7e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(cfg_file), "--qubit", "none",
                         "--csv", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: screen grid is not finite: its positions overflow float64\n"

    @pytest.mark.parametrize("n, zmax, output", [(2, "1.0000000000000002", "--svg"),
                                                 (16, "1.000000000000001", "--csv")])
    def test_unresolvable_screen_grid_is_a_runtime_error(self, tmp_path, capsys, n, zmax,
                                                         output):
        # A window too narrow for float64 near 1 would repeat screen positions: the
        # SVG's x scale divided by zero and the CSV's x column repeated 1.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"N = {n}\nZmin = 1.0\nZmax = {zmax}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(cfg_file), "--qubit", "none",
                         output, str(tmp_path / "out")])
        assert code == 1
        assert re.fullmatch(r"error: screen grid is not strictly increasing: [^\n]*\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bound, phase", [("1e307", "inf"), ("1e300", r"\d\.\d{3}e\+302")])
    def test_phase_beyond_float64_is_a_runtime_error(self, tmp_path, capsys, bound, phase):
        # Finite grids whose largest engine phase overflows, or is finite but far
        # beyond what float64 carries to 1e-6 rad: the run names the phase, and numpy
        # warns of nothing.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"N = 16\nZmin = -{bound}\nZmax = {bound}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(cfg_file), "--qubit", "none",
                         "--csv", str(tmp_path / "o.csv")])
        assert code == 1
        assert re.match(f"error: largest engine phase {phase} rad .*\n$", capsys.readouterr().err)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("constants", [
        "h = 1e-10\nlambda = 1\nm = 1e290\nL = 1e10\n",
        # the largest engine phase is beyond float64 too, but derive checks A before any
        # grid is built, so A is what the run names
        "h = 1\nlambda = 1\nm = 1e-300\nL = 1e-30\n",
    ], ids=["transit-overflows", "transit-underflows-before-the-phase"])
    def test_prefactor_beyond_float64_is_a_runtime_error(self, tmp_path, capsys, constants):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{constants}N = 16\n")
        code = main(["--config", str(cfg_file), "--csv", str(tmp_path / "o.csv")])
        assert code == 1
        assert re.fullmatch(r"error: kernel prefactor A = [^\n]*\n", capsys.readouterr().err)
        assert not (tmp_path / "o.csv").exists()

    def test_unallocatable_grid_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        # numpy refuses the 7 PiB grid before allocating anything; the budget is raised
        # so that the run reaches numpy (as it does when the estimate is low).
        monkeypatch.setattr(ds.physics, "MEMORY_BUDGET", 2**80)
        code = main(["--n", str(10**15), "--qubit", "none", "--csv", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_size_over_budget_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ds.physics, "MEMORY_BUDGET", 64 * ds.physics.BYTES_PER_N - 1)
        code = main(["--n", "64", "--report", str(tmp_path / "R.json")])
        assert code == 1
        assert capsys.readouterr() == ("", "error: n_positions=64 needs about 6400 bytes "
                                       "(100 per position), above the budget of 6399 bytes\n")
        assert not (tmp_path / "R.json").exists()

    # Extreme values end in an error line before numpy can overflow: no RuntimeWarning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(content=fuzzed_config_file())
    # c = pi/(lambda*L) is about 3e-298, so the engine's phase per screen step underflows
    @example(content=b"N = 4\nZmax = 1e-1\na = 1e-9\nlambda = 1e298\n")
    def test_fuzzed_config_files_end_in_an_exit_code(self, tmp_path_factory, content):
        directory = tmp_path_factory.getbasetemp() / "fuzz"
        directory.mkdir(exist_ok=True)
        cfg_file, out, svg = directory / "run.cfg", directory / "o.csv", directory / "o.svg"
        cfg_file.write_bytes(content)
        out.unlink(missing_ok=True)
        svg.unlink(missing_ok=True)
        try:
            ds.ExperimentConfig(**read_config_file(cfg_file))
            rejected = False
        except ValueError:      # ConfigError and UnicodeDecodeError are ValueErrors
            rejected = True
        try:
            code = main(["--config", str(cfg_file), "--qubit", "none", "--csv", str(out),
                         "--svg", str(svg)])
        except SystemExit as exc:
            code = exc.code
        assert code in ((2,) if rejected else (0, 1))
        if code == 0:
            _, density = ds.read_profile_csv(out)
            assert np.all(np.isfinite(density)) and np.all(density >= 0)
            assert svg.read_text().endswith("</svg>\n")

    def test_unwritable_output_is_a_runtime_error(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = main(["--qubit", "none", "--n", "250", "--csv", str(target)])
        assert code == 1


# Run in a fresh interpreter: a finder that refuses scipy and scipy.* sits first
# on sys.meta_path, so any import of scipy on the run's path fails the run.
BLOCK_SCIPY = """
import importlib.abc, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""
LOADED_SCIPY = "[m for m in sys.modules if m.partition('.')[0] == 'scipy']"


def _fresh_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(ds.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


class TestRuntimeDependencies:
    def test_full_run_needs_no_scipy(self, tmp_path):
        code = BLOCK_SCIPY + f"""
from doubleslit.cli import main
code = main(["--qubit", "all", "--n", "250", "--csv", "p.csv", "--svg", "p.svg",
             "--masks", "masks", "--report", "R.json"])
assert not {LOADED_SCIPY}, {LOADED_SCIPY}
assert "numpy.ma" not in sys.modules     # fringe_spacing takes its median by sorting
sys.exit(code)
"""
        result = _fresh_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "R.json").exists()
        assert (tmp_path / "masks" / "mask_remembers.txt").exists()

    def test_import_loads_no_scipy(self, tmp_path):
        result = _fresh_python(f"import sys, doubleslit, doubleslit.cli; print({LOADED_SCIPY})",
                               tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_import_builds_no_formatter_tables(self, tmp_path):
        # The writers' digit tables and the CLI parser are built by the first call that
        # needs them, not at import.
        code = """
import doubleslit, doubleslit.cli
from doubleslit import reporting as r
sizes = lambda: print(r._csv_tables.cache_info().currsize, r._svg_tables.cache_info().currsize,
                      doubleslit.cli._build_parser.cache_info().currsize)
sizes()
doubleslit.cli.main(["--qubit", "none", "--n", "1024", "--csv", "p.csv", "--svg", "p.svg"])
sizes()
"""
        result = _fresh_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0 0 0\n1 1 1\n"


SNAPSHOT = Path(__file__).with_name("cli_snapshot.py")


def test_cli_snapshot_is_identical_across_processes(tmp_path):
    # Two snapshots, each run by fresh processes, hold the same files with the same bytes:
    # CSV, SVG, masks, JSON and text reports, stdout, stderr, --check's exit 2 and an
    # error's exit 1.
    src = str(Path(ds.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    snapshots = []
    for side in ("first", "second"):
        result = subprocess.run([sys.executable, str(SNAPSHOT), str(tmp_path / side)],
                                env=env, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        snapshots.append(snapshot_files(tmp_path / side))
    first, second = snapshots
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []
    codes = {name.split("/")[0]: data for name, data in first.items()
             if name.endswith("/exit_code")}
    assert codes == {run: {"check-16": b"2\n", "prefactor-overflow-16": b"1\n"}.get(run, b"0\n")
                     for run in ("ref-all", "large-none", "paper-250", "check-16", "wide-2000",
                                 "asymmetric-2050", "no-minimum-64", "prefactor-overflow-16",
                                 "mirror-2050")}
    for name in ("ref-all/p_remembers.csv", "ref-all/report.json", "ref-all/masks/mask_none.txt",
                 "check-16/report.txt", "wide-2000/p_forgets.svg", "asymmetric-2050/stdout",
                 "mirror-2050/p_none.csv"):
        assert first[name], name
    assert first["check-16/stderr"].startswith(b"validation failed: ")
    assert first["prefactor-overflow-16/stderr"].startswith(b"error: kernel prefactor A = ")
    assert json.loads(first["no-minimum-64/report.json"])["measured"]["first_minimum"] is None


def test_cli_snapshot_compare_reports_a_one_ulp_change(tmp_path):
    # A snapshot compared with itself reports nothing; a copy with its peak density one ulp
    # higher reports that file alone, with equal positions and about 1e-16 of the peak.
    run = tmp_path / "a" / "run-250"
    run.mkdir(parents=True)
    assert main(["--n", "250", "--qubit", "none", "--csv", str(run / "p.csv")]) == 0
    (run / "stdout").write_text("done\n")
    lines = (run / "p.csv").read_text().splitlines(keepends=True)
    density = np.array([float(line.split(",")[1]) for line in lines[1:]])
    i = 1 + int(density.argmax())
    x, y = lines[i].split(",")
    bumped = tmp_path / "b" / "run-250"
    bumped.mkdir(parents=True)
    (bumped / "stdout").write_text("done\n")
    (bumped / "p.csv").write_text("".join(
        lines[:i] + [f"{x},{np.nextafter(float(y), np.inf):.17g}\n"] + lines[i + 1:]))

    def compare(a, b):
        return subprocess.run([sys.executable, str(SNAPSHOT), "--compare", str(a), str(b)],
                              capture_output=True, text=True, timeout=60)

    same = compare(tmp_path / "a", tmp_path / "a")
    assert (same.returncode, same.stdout, same.stderr) == (0, "", "")
    differ = compare(tmp_path / "a", tmp_path / "b")
    assert differ.returncode == 1 and differ.stderr == ""
    line, = differ.stdout.splitlines()
    match = re.fullmatch(r"run-250/p\.csv: positions bitwise equal, "
                         r"max \|d density\| / peak = (\S+)", line)
    assert match and 1.1e-16 <= float(match[1]) <= 2.3e-16, line
