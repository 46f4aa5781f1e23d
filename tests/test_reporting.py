import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import doubleslit as ds
from doubleslit.qubit import QubitBehavior
from doubleslit.reporting import CSV_HEADER
from reference import profile_csv_rows, svg_points


@pytest.fixture(scope="module", params=[16, 250, 2000])
def profiles_by_n(request):
    """Every behavior's profile at N 16, 250 and 2000."""
    if request.param == 16:
        return ds.simulate_all(ds.ExperimentConfig(n_positions=16))
    return request.getfixturevalue(f"profiles_{request.param}")


class TestCsv:
    def test_round_trip_is_exact(self, profiles_250, tmp_path):
        profile = profiles_250[QubitBehavior.NONE]
        path = tmp_path / "profile.csv"
        ds.write_profile_csv(profile, path)
        xs, ps = ds.read_profile_csv(path)
        assert xs.tobytes() == profile.positions.tobytes()
        assert ps.tobytes() == profile.density.tobytes()

    def test_layout(self, profiles_250, tmp_path):
        profile = profiles_250[QubitBehavior.NONE]
        path = tmp_path / "profile.csv"
        ds.write_profile_csv(profile, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("ascii").rstrip("\n").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 250
        first_x = float(lines[1].split(",")[0])
        assert first_x == profile.positions[0]

    def test_header_checked_on_read(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\n")
        with pytest.raises(ValueError):
            ds.read_profile_csv(path)


class TestEmittersMatchPerRowFormatting:
    """The emitters format whole arrays at once; their bytes equal the per-row reference's."""

    def test_csv_profiles(self, profiles_by_n, tmp_path):
        for behavior, profile in profiles_by_n.items():
            path = tmp_path / f"{behavior.value}.csv"
            ds.write_profile_csv(profile, path)
            expected = CSV_HEADER + "\n" + profile_csv_rows(profile.positions, profile.density)
            assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308, -1e308,
         1.7976931348623157e308, 0.1, 1 / 3],
        [-1e308, -0.0],
    ])
    def test_csv_edge_values(self, values, tmp_path):
        xs = np.array(values)
        ps = np.abs(xs[::-1])
        profile = ds.IntensityProfile(positions=xs, density=ps, behavior=QubitBehavior.NONE,
                                      config=ds.ExperimentConfig(n_positions=2))
        path = tmp_path / "edge.csv"
        ds.write_profile_csv(profile, path)
        assert path.read_bytes() == (CSV_HEADER + "\n" + profile_csv_rows(xs, ps)).encode("ascii")
        back_x, back_p = ds.read_profile_csv(path)
        assert back_x.tobytes() == xs.tobytes() and back_p.tobytes() == ps.tobytes()

    def test_svg_points(self, profiles_by_n):
        for profile in profiles_by_n.values():
            svg = ds.profile_svg(profile)
            expected = f'points="{svg_points(profile.positions, profile.density)}"/>'
            assert svg.count("<polyline") == 1 and expected in svg


class TestSvg:
    def test_well_formed_single_polyline(self, profiles_250, tmp_path):
        profile = profiles_250[QubitBehavior.REMEMBERS]
        path = tmp_path / "plot.svg"
        ds.write_profile_svg(profile, path)
        root = ET.fromstring(path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 1
        points = polylines[0].get("points").split()
        assert len(points) == 250
        title = root.find(f"{ns}title")
        assert title is not None and "remembers" in title.text

    def test_has_axis_ticks(self, profiles_250):
        svg = ds.profile_svg(profiles_250[QubitBehavior.NONE])
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}line")) > 8   # axes plus tick marks
        labels = [t.text for t in root.findall(f".//{ns}text")]
        assert "screen position (m)" in labels
        assert "probability density (1/m)" in labels

    def test_deterministic(self, profiles_250):
        profile = profiles_250[QubitBehavior.NONE]
        assert ds.profile_svg(profile) == ds.profile_svg(profile)

    @pytest.mark.parametrize("positions, density, cause", [
        ([0.0], [1.0], "size >= 2"),
        ([1.0, 1.0], [1.0, 2.0], "does not lie above"),
        ([], [], "size >= 2"),
        (np.linspace(-0.15, 0.15, 16), np.ones(10), "of one size"),
    ], ids=["one-point", "equal-ends", "empty", "density-short"])
    def test_unplottable_profile_rejected(self, positions, density, cause):
        profile = ds.IntensityProfile(positions=np.array(positions), density=np.array(density),
                                      behavior=QubitBehavior.NONE,
                                      config=ds.ExperimentConfig(n_positions=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no numpy RuntimeWarning on the way
            with pytest.raises(ValueError, match=cause):
                ds.profile_svg(profile)


class TestFailedWriteKeepsFile:
    """A writer builds its text before it opens the path: an error leaves the old bytes."""

    @pytest.mark.parametrize("writer, positions, density", [
        (ds.write_profile_csv, [0.0, 1.0], [1.0]),           # density one short
        (ds.write_profile_svg, [0.0], [1.0]),                # one-point profile
    ])
    def test_existing_file_unchanged(self, writer, positions, density, tmp_path):
        profile = ds.IntensityProfile(positions=np.array(positions), density=np.array(density),
                                      behavior=QubitBehavior.NONE,
                                      config=ds.ExperimentConfig(n_positions=2))
        path = tmp_path / "out"
        path.write_bytes(b"previous contents\n")
        with pytest.raises(ValueError):
            writer(profile, path)
        assert path.read_bytes() == b"previous contents\n"


class TestMaskFiles:
    def test_file_matches_renderer(self, tmp_path):
        mask = ds.build_mask(QubitBehavior.FORGETS, 8)
        path = tmp_path / "mask.txt"
        ds.write_mask_file(mask, path)
        assert path.read_text() == ds.render_mask(mask)


class TestReportFiles:
    @pytest.fixture()
    def report(self, profiles_250, config_250):
        return ds.validate(profiles_250, config_250)

    def test_json_report(self, report, tmp_path):
        path = tmp_path / "report.json"
        ds.write_report(report, path)
        tree = json.loads(path.read_text())
        assert tree == report.to_dict()
        for check in tree["checks"]:
            assert {"name", "measured", "expected", "tolerance", "pass"} <= set(check)

    def test_text_report(self, report, tmp_path):
        path = tmp_path / "report.txt"
        ds.write_report(report, path)
        assert path.read_text() == report.to_text()


class TestConfigFile:
    def test_parse_and_mapping(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# reference constants, coarser grid\n"
            "lambda = 1.23e-10\n"
            "a = 0.15e-8   # slit width\n"
            "d = 0.615e-8\n"
            "L = 1.0\n"
            "N = 500\n"
            "Zmin = -0.1\n"
            "Zmax = 0.1\n"
        )
        overrides = ds.read_config_file(path)
        assert overrides == {
            "wavelength": 1.23e-10,
            "slit_width": 0.15e-8,
            "slit_separation": 0.615e-8,
            "wall_to_screen": 1.0,
            "n_positions": 500,
            "screen_min": -0.1,
            "screen_max": 0.1,
        }
        cfg = ds.ExperimentConfig(**overrides)
        assert cfg.n_positions == 500

    def test_mass_and_planck_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 9.109e-31\nh = 6.6261e-34\n")
        assert ds.read_config_file(path) == {"electron_mass": 9.109e-31,
                                             "planck": 6.6261e-34}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("velocity = 1.0\n")
        with pytest.raises(ValueError, match="unknown key"):
            ds.read_config_file(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("a = twelve\n")
        with pytest.raises(ValueError, match="invalid number"):
            ds.read_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("N = 100\n# finer\nN = 50\n")
        with pytest.raises(ValueError, match=r"run.cfg:3: duplicate key 'N', first set on line 1"):
            ds.read_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            ds.read_config_file(path)
