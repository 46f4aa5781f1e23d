import json

import pytest

import doubleslit as ds
from doubleslit.cli import main, parse_args
from doubleslit.qubit import QubitBehavior


class TestParseArgs:
    def test_defaults(self, tmp_path):
        request = parse_args(["--csv", str(tmp_path / "out.csv")])
        assert request.config == ds.ExperimentConfig()
        assert request.behaviors == (QubitBehavior.NONE, QubitBehavior.REMEMBERS,
                                     QubitBehavior.FORGETS)
        assert request.threads == 1
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
        ["--csv", "x.csv", "--peak-threshold", "1.5"],
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

    def test_unwritable_output_is_a_runtime_error(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = main(["--qubit", "none", "--n", "250", "--csv", str(target)])
        assert code == 1
