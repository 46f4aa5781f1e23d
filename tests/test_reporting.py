import json
import re
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import doubleslit as ds
from doubleslit import reporting
from doubleslit.physics import GeometryMode
from doubleslit.qubit import QubitBehavior
from doubleslit.reporting import (CSV_HEADER, _CHUNK_ROWS, _csv_tables, _digits, _svg_rows,
                                  _text_chunks)
from reference import points_2f, profile_csv_rows, svg_points


@pytest.fixture(scope="module", params=[16, 250, 2000, 8000, "paper-1026"])
def profiles_by_n(request):
    """Every behavior's profile at N 16, 250, 2000 and 8000, and at N=1026 in the paper's
    geometry."""
    if request.param in (250, 2000):
        return request.getfixturevalue(f"profiles_{request.param}")
    if request.param == "paper-1026":
        return ds.simulate_all(ds.ExperimentConfig(n_positions=1026,
                                                   geometry_mode=GeometryMode.PAPER_LITERAL))
    return ds.simulate_all(ds.ExperimentConfig(n_positions=request.param))


@pytest.fixture(scope="module")
def profile_64000():
    return ds.simulate_all(ds.ExperimentConfig(n_positions=64_000))[QubitBehavior.NONE]


def _peak_alloc(write, *args) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_text_follows_the_arrays_in_place(self, profiles_250, tmp_path):
        base = profiles_250[QubitBehavior.REMEMBERS]
        xs, ys = base.positions.copy(), base.density.copy()
        profile = replace(base, positions=xs, density=ys)
        path = tmp_path / "p.csv"

        def written_as_reference():
            ds.write_profile_csv(profile, path)
            return path.read_text() == CSV_HEADER + "\n" + profile_csv_rows(xs, ys)

        assert written_as_reference()
        ys[0] = ys[1]           # the same arrays, edited in place, are formatted anew
        assert written_as_reference()
        xs *= 2.0
        assert written_as_reference()

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


def _written_csv(positions, density, tmp_path) -> bytes:
    profile = ds.IntensityProfile(positions=positions, density=density,
                                  behavior=QubitBehavior.NONE,
                                  config=ds.ExperimentConfig(n_positions=2))
    path = tmp_path / "profile.csv"
    ds.write_profile_csv(profile, path)
    return path.read_bytes()


def _decades():
    """Every 10**k for k in -300..300, its two float64 neighbours on each side, and -1x."""
    powers = 10.0 ** np.arange(-300, 301)
    below = np.nextafter(powers, 0)
    above = np.nextafter(powers, np.inf)
    values = [powers, below, np.nextafter(below, 0), above, np.nextafter(above, np.inf)]
    return np.concatenate(values + [-v for v in values])


def _rounding_up():
    """Values whose 17 digits round up into the next decade, and their neighbours."""
    values = np.array([float("9.99999999999999995e%d" % k) for k in range(-300, 300)])
    return np.concatenate((values, np.nextafter(values, 0), -values))


def _ties():
    """Exact 17-digit ties (a 16-digit integer plus 1/4 or 3/4) and near ties: values
    m * 2**-(s+q) whose 17-digit product v * 10**s = m * 5**s / 2**q lies j / 2**q from
    a half, within 2e-14 of it.  Both signs."""
    rng = np.random.default_rng(7)
    exact = rng.integers(10 ** 15, 2 ** 51, 2000) + rng.choice([0.25, 0.75], 2000)
    near = []
    for q in range(48, 53):
        for s in range(1, 40):
            inverse = pow(5 ** s, -1, 2 ** q)
            for j in (1, -1, 3, -3):
                m = (2 ** (q - 1) + j) * inverse % 2 ** q       # m * 5**s = 2**(q-1) + j
                m += -(-(2 ** 52 - m) // 2 ** q) * 2 ** q       # the first m >= 2**52
                if m < 2 ** 53 and 10 ** 16 <= m * 5 ** s // 2 ** q < 10 ** 17:
                    near.append(m / 2 ** (s + q))               # exact: m has 53 bits
    values = np.concatenate(([1000000000000000.25], exact, near))
    return np.concatenate((values, -values))


def _significant(value) -> int:
    """The number of significant digits "%.17g" writes for ``value``, or 0 where its 18th
    digit is a 5 (a decimal tie, or near one)."""
    if ("%.17e" % value).partition("e")[0].endswith("5"):
        return 0
    return len(("%.16e" % value).partition("e")[0].replace(".", "").rstrip("0"))


def _layouts():
    """For nd = 1..17 significant digits and a leading digit at 10**k, for each k of fixed
    notation and one beyond either end and for 2- and 3-digit exponents: the first
    m * 10**(k - nd + 1) that "%.17g" writes with nd digits, m counting up from the first
    nd digits of 12345678912345678 (most such decimals are no float64 and take 17 digits).
    Both signs."""
    values = []
    for nd in range(1, 18):
        start = int("12345678912345678"[:nd])
        for k in [*range(-6, 19), -99, 99, -100, 100, -150, 150]:
            candidates = (float(f"{m}e{k - nd + 1}") for m in range(start, 10 ** nd) if m % 10)
            values.append(next((v for v in candidates if _significant(v) == nd),
                               float(f"{start}e{k - nd + 1}")))
    values = np.array(values)
    return np.concatenate((values, -values))


def _specials():
    info = np.finfo(np.float64)
    return np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, info.tiny,
                     -info.tiny, info.max, -info.max, 1e-280, 1e280, 0.1, 1 / 3, 1e16, 1e17])


def _fallbacks():
    """2049 rows' worth, three chunks, of values that all take the "%.17g" fallback: the
    specials and the values next to a decade that the numpy path leaves to it."""
    values = np.concatenate((_specials(), _decades()))
    return np.resize(values[_digits(values, _csv_tables()[0])[2]], 2049)


class TestNumpyCsvFormatter:
    """Every profile is formatted with numpy, 1024 rows at a time; the bytes stay "%.17g"'s."""

    @pytest.mark.parametrize("values", [
        np.random.default_rng(2025).integers(0, 2 ** 64, 2 ** 17, dtype=np.uint64).view(np.float64),
        _decades(), _rounding_up(), _ties(), _specials(), _layouts(),
        _fallbacks(),
    ], ids=["random-bits", "decades", "rounding-up", "ties", "specials", "layouts",
            "fallback-chunks"])
    def test_matches_percent_g(self, values, tmp_path):
        xs, ys = values, values[::-1].copy()
        expected = CSV_HEADER + "\n" + profile_csv_rows(xs, ys)
        assert _written_csv(xs, ys, tmp_path) == expected.encode("ascii")

    @pytest.mark.parametrize("config", [
        ds.ExperimentConfig(),
        ds.ExperimentConfig(n_positions=8000),
        ds.ExperimentConfig(n_positions=250, geometry_mode=GeometryMode.PAPER_LITERAL),
        ds.ExperimentConfig(n_positions=2050, screen_min=-0.1, screen_max=0.2),
        ds.ExperimentConfig(n_positions=2000, screen_min=-30, screen_max=30),
        ds.ExperimentConfig(n_positions=16),
    ], ids=["reference", "n8000", "paper-250", "window-2050", "30m-2000", "n16"])
    def test_profiles_take_no_fallback(self, config):
        # The "%.17g" fallback costs a Python float per value; on these it must stay unused.
        powers = _csv_tables()[0]
        for profile in ds.simulate_all(config).values():
            v = np.concatenate((profile.positions, profile.density))
            assert not _digits(v, powers)[2].any(), profile.behavior

    @pytest.mark.parametrize("n", [1, 2, 16, 255, 1023, 1024, 1025, 2049])
    def test_sizes_around_the_chunk(self, n, tmp_path):
        xs = np.linspace(-0.15, 0.15, n)
        ys = np.random.default_rng(n).integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
        expected = CSV_HEADER + "\n" + profile_csv_rows(xs, ys)
        assert _written_csv(xs, ys, tmp_path) == expected.encode("ascii")

    @pytest.mark.parametrize("n", [16, 2000])
    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_density_cast_to_float64(self, n, dtype, tmp_path):
        xs = np.linspace(-0.15, 0.15, n)
        ys = (np.sinc(xs * 40) ** 2 * 1e3).astype(dtype)
        expected = CSV_HEADER + "\n" + profile_csv_rows(xs, ys.astype(np.float64))
        assert _written_csv(xs, ys, tmp_path) == expected.encode("ascii")

    @pytest.mark.parametrize("positions, density", [
        (np.zeros(2), np.zeros(1)),
        (np.zeros(2000), np.zeros(1999)),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.float64(0.5), np.float64(1.0)),
    ], ids=["one-short", "large-one-short", "2-D", "0-D"])
    def test_shapes_named_in_error(self, positions, density, tmp_path):
        shapes = f"{np.shape(positions)} and {np.shape(density)}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            _written_csv(positions, density, tmp_path)

    def test_allocation_per_row(self, profile_64000, tmp_path):
        # tracemalloc peak per row at N=64000, at most 100 bytes.  The %-template took 145,
        # more than simulate_all's 134 bytes per screen point, so it was a run's peak.
        n = profile_64000.positions.size
        peak = _peak_alloc(ds.write_profile_csv, profile_64000, tmp_path / "profile.csv")
        assert peak <= 100 * n, f"{peak / n:.0f} bytes per row"

    def test_allocation_per_row_off_the_mirror(self, tmp_path):
        # The same bound where every row is formatted: an asymmetric window is no mirror image.
        config = ds.ExperimentConfig(n_positions=64_000, screen_min=-0.1, screen_max=0.2)
        profile = ds.simulate_all(config, behaviors=(QubitBehavior.NONE,))[QubitBehavior.NONE]
        n = profile.positions.size
        peak = _peak_alloc(ds.write_profile_csv, profile, tmp_path / "profile.csv")
        assert peak <= 100 * n, f"{peak / n:.0f} bytes per row"


def _mirrored(x_upper, y_upper):
    """Positions and density whose lower halves mirror the given upper halves."""
    return (np.concatenate((-x_upper[::-1], x_upper)),
            np.concatenate((y_upper[::-1], y_upper)))


def _mirror_values(n, seed):
    """An upper half of n positive positions and n densities drawn from zeros, subnormals,
    inf, nan, decimal ties ("%.17g" fallback rows) and plain values; from 22 rows on, the
    densities hold each of the first six and eight of the others at random rows."""
    rng = np.random.default_rng(seed)
    ties = _ties()
    ties = ties[ties > 0]
    plain = rng.random(64)
    x = np.sort(rng.choice(np.concatenate((ties, plain, [5e-324, 1e-310, np.inf])), n))
    pool = np.concatenate(([0.0, 5e-324, 1e-310, 2e-308, np.inf, np.nan], ties[:8], plain[:8]))
    y = np.concatenate((pool, rng.choice(np.concatenate((ties[:64], plain)), n)))
    return x, rng.permutation(y[:max(n, pool.size)])[:n]


def _near_misses():
    """Profiles one step off a mirror image, which must be formatted row by row."""
    x, y = _mirror_values(1024, 1)
    xs, ys = _mirrored(x, y)
    cases = {"odd-size": (np.concatenate((xs[:1024], [0.0], xs[1024:])),
                          np.concatenate((ys[:1024], [1.0], ys[1024:])))}
    zero = x.copy()
    zero[0] = 0.0
    cases["middle-zeros"] = _mirrored(zero, y)          # -0.0 and 0.0 either side of 0
    ulp = ys.copy()
    ulp[1000] = np.nextafter(ulp[1000], np.inf) if np.isfinite(ulp[1000]) else 1.0
    cases["density-ulp"] = (xs, ulp)
    for name, value in (("negative", -0.5), ("zero", 0.0), ("nan", np.nan)):
        upper = x.copy()
        upper[500] = value
        cases[f"upper-{name}"] = _mirrored(upper, y)
    return cases


class TestMirrorCsv:
    """A profile whose lower half mirrors its upper half about 0 is formatted from its upper
    half; every other profile row by row.  The bytes are "%.17g"'s either way."""

    @staticmethod
    def _rows_formatted(xs, ys, tmp_path, monkeypatch) -> int:
        rows = []
        csv_rows = reporting._csv_rows

        def counted(v):
            rows.append(v.size // 2)
            return csv_rows(v)

        monkeypatch.setattr(reporting, "_csv_rows", counted)
        expected = CSV_HEADER + "\n" + profile_csv_rows(xs, ys)
        assert _written_csv(xs, ys, tmp_path) == expected.encode("ascii")
        return sum(rows)

    @pytest.mark.parametrize("n", [2, 16, 2046, 2048, 2050])
    def test_upper_half_formatted(self, n, tmp_path, monkeypatch):
        xs, ys = _mirrored(*_mirror_values(n // 2, n))
        assert self._rows_formatted(xs, ys, tmp_path, monkeypatch) == n // 2

    def test_reference_profiles_take_the_mirror(self, profiles_by_n, tmp_path, monkeypatch):
        # Corrected profiles on a symmetric window are bitwise mirror images; the paper's not.
        mirror = profiles_by_n[QubitBehavior.NONE].config.geometry_mode == GeometryMode.CORRECTED
        for profile in profiles_by_n.values():
            xs = profile.positions.copy()           # a new array: nothing of the last text kept
            rows = self._rows_formatted(xs, profile.density, tmp_path, monkeypatch)
            n = xs.size
            assert rows == (n // 2 if mirror else n), profile.behavior

    @pytest.mark.parametrize("xs, ys", [pytest.param(*arrays, id=name)
                                        for name, arrays in _near_misses().items()])
    def test_near_misses_format_every_row(self, xs, ys, tmp_path, monkeypatch):
        assert self._rows_formatted(xs, ys, tmp_path, monkeypatch) == xs.size


def _ties_and_bounds():
    """Exact ties of "%.2f" and the 999.995 boundary, each with two float64 neighbours on
    either side."""
    values = np.array([0.125, 0.375, 12.625, 998.875, 999.99, 999.995])
    below, above = np.nextafter(values, 0), np.nextafter(values, np.inf)
    return np.concatenate((values, below, np.nextafter(below, 0),
                           above, np.nextafter(above, np.inf)))


# Values outside (0, 999.995): zeros, negatives, large and non-finite.
_OUTSIDE = [0.0, -0.0, -0.001, -0.004, -5.0, 1000.0, 1e6, 1e308, np.inf, -np.inf, np.nan]


def _halves():
    """(m + 1/2) / 100 for every m below 10**5, and its float64 neighbours: values whose
    product with 100 rounds to a half or lies within an ulp or two of one."""
    values = (np.arange(10 ** 5) + 0.5) / 100
    return np.concatenate((values, np.nextafter(values, 0), np.nextafter(values, np.inf)))


def _density_at(target):
    """The density whose plot y is ``target`` when the density peak is 1 (y = 530 - density
    * 480), found by stepping one ulp at a time, or None where no float64 lands on it."""
    y = (530 - target) / 480
    for _ in range(64):
        if 530 - y * 480 == target:
            return y
        y = np.nextafter(y, -np.inf if 530 - y * 480 < target else np.inf)
    return None


def _plot(positions, density):
    return ds.IntensityProfile(positions=np.asarray(positions, dtype=float),
                               density=np.asarray(density, dtype=float),
                               behavior=QubitBehavior.NONE,
                               config=ds.ExperimentConfig(n_positions=2))


class TestNumpySvgFormatter:
    """The polyline is formatted with numpy; its bytes stay "%.2f"'s."""

    @pytest.mark.parametrize("values", [
        np.random.default_rng(2026).uniform(0, 1000, 2 * 10 ** 5),
        np.arange(2 * 80_000) / 160, np.concatenate((_ties_and_bounds(), _OUTSIDE)), _halves(),
    ], ids=["random", "k-over-160", "ties-bounds-outside", "halves"])
    def test_matches_percent_f(self, values):
        xs, ys = values, values[::-1]
        text = b"".join(_text_chunks(xs, ys, _svg_rows, b" "))
        assert text == (points_2f(xs, ys) + " ").encode("ascii")

    def test_random_plot(self):
        # Positions in [-90/840, 910/840) with x_lo = 0 and x_hi = 1 put x in [0, 1000).
        rng = np.random.default_rng(2027)
        positions = rng.uniform(-90 / 840, 910 / 840, 10 ** 5)
        positions[0], positions[-1] = 0.0, 1.0
        density = rng.uniform(-0.9, 1.0, positions.size)
        svg = ds.profile_svg(_plot(positions, density))
        assert f'points="{svg_points(positions, density)}"/>' in svg

    def test_ties_on_the_plot(self):
        # Below 90, only the ties themselves lie on the plot's grid, not their neighbours.
        targets = _ties_and_bounds()
        density = [1.0] + [y for y in map(_density_at, targets) if y is not None]
        assert len(density) == 1 + np.count_nonzero((targets > 90) | (targets % 0.125 == 0))
        positions = np.linspace(0.0, 1.0, len(density))
        expected = svg_points(positions, density)
        assert f'points="{expected}"/>' in ds.profile_svg(_plot(positions, density))

    @pytest.mark.parametrize("n", [2, 16, 255, 1023, 1024, 1025, 2049])
    def test_sizes_around_the_chunk(self, n):
        # Densities on the "%.2f" ties and bounds that a plot of peak 1 reaches, and the
        # exact tie 998.875, which "%.2f" writes itself, on both sides of every chunk edge.
        ties = [y for y in map(_density_at, _ties_and_bounds()) if y is not None and y <= 1]
        density = np.resize(ties, n)
        density[0] = 1.0
        for edge in range(_CHUNK_ROWS, n, _CHUNK_ROWS):
            density[edge - 1:edge + 1] = _density_at(998.875)
        positions = np.linspace(0.0, 1.0, n)
        expected = svg_points(positions, density)
        assert f'points="{expected}"/>' in ds.profile_svg(_plot(positions, density))

    @pytest.mark.parametrize("positions, density, shown", [
        ([0.0, -5.0, 3.0, -0.10714285714285716, -90 / 840, 1.0], [1.0, 2.0, 0.5, 1.0, 0.0, 0.0],
         "-4110.00,50.00 2610.00,410.00 -0.00,290.00 0.00,530.00"),
    ], ids=["non-monotonic-positions"])
    def test_edge_plots(self, positions, density, shown):
        expected = svg_points(np.array(positions), np.array(density))
        svg = ds.profile_svg(_plot(positions, density))
        assert shown in expected and f'points="{expected}"/>' in svg

    def test_allocation_per_point(self, profile_64000):
        # tracemalloc peak per point at N=64000, at most 120 bytes, the %-template's figure.
        n = profile_64000.positions.size
        peak = _peak_alloc(ds.profile_svg, profile_64000)
        assert peak <= 120 * n, f"{peak / n:.0f} bytes per point"


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

    def test_all_zero_density_plots_on_unit_axis(self, tmp_path):
        # A flat zero profile has no peak to scale to, so the y axis runs from 0 to 1.
        profile = ds.IntensityProfile(positions=np.linspace(-0.15, 0.15, 16),
                                      density=np.zeros(16), behavior=QubitBehavior.NONE,
                                      config=ds.ExperimentConfig(n_positions=16))
        path = tmp_path / "zero.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds.write_profile_svg(profile, path)
        text = path.read_text()
        assert text.endswith("</svg>\n")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        y_labels = [t.text for t in root.findall(f"{ns}text") if t.get("text-anchor") == "end"]
        assert y_labels == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
        points = root.find(f"{ns}polyline").get("points").split()
        # every point lies on the x axis, at y = _SVG_HEIGHT - _MARGIN_BOTTOM = 530
        assert len(points) == 16 and {p.split(",")[1] for p in points} == {"530.00"}

    @pytest.mark.parametrize("positions, density, cause", [
        ([0.0], [1.0], "size >= 2"),
        ([1.0, 1.0], [1.0, 2.0], "does not lie above"),
        ([], [], "size >= 2"),
        (np.linspace(-0.15, 0.15, 16), np.ones(10), "of one size"),
        (np.linspace(-1, 1, 4), [1.0, np.nan, 2.0, 1.0], r"density\[1\] = nan is not finite"),
        (np.linspace(-1, 1, 4), [1.0, 2.0, np.inf, 1.0], r"density\[2\] = inf is not finite"),
        (np.linspace(-1, 1, 4), [1.0, -np.inf, np.nan, 1.0], r"density\[1\] = -inf"),
        ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], r"point 1 at \(nan, 1.0\) has no finite"),
        ([0.0, np.inf, 1.0], [1.0, 1.0, 1.0], r"point 1 at \(inf, 1.0\) has no finite"),
        ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], r"point 2 at \(inf, 1.0\) has no finite"),
        ([0.0, 0.5, 0.25, 1.0], [1.0, -1e308, 2.0, 1.0], r"point 1 at \(0.5, -1e\+308\)"),
        ([0.0, 1e308, 1e-300], [1.0, 1.0, 1.0], r"point 1 at \(1e\+308, 1.0\)"),
    ], ids=["one-point", "equal-ends", "empty", "density-short", "nan", "inf", "minus-inf",
            "nan-position", "inf-position", "inf-last-position", "inf-coordinate", "x-overflow"])
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
        mask = ds.TransitionMask(QubitBehavior.FORGETS, 8)
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
