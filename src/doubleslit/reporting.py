"""File emitters: CSV profiles, static SVG plots, mask exports, reports.

All outputs are deterministic functions of their inputs (no timestamps),
so identical runs produce byte-identical files.  Each writer encodes its whole
text before it opens the path, so a formatting error leaves the file as it was.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import ValidationReport
from .propagation import IntensityProfile
from .qubit import TransitionMask, render_mask

__all__ = [
    "write_profile_csv",
    "read_profile_csv",
    "profile_svg",
    "write_profile_svg",
    "write_mask_file",
    "write_report",
    "read_config_file",
    "CONFIG_FILE_KEYS",
]

CSV_HEADER = "x_m,probability_density"


def write_profile_csv(profile: IntensityProfile, path) -> None:
    """One row per screen position, ascending x, 17 significant digits, LF endings."""
    rows = np.column_stack((profile.positions, profile.density)).ravel().tolist()
    text = CSV_HEADER + "\n" + "%.17g,%.17g\n" * profile.positions.size % tuple(rows)
    Path(path).write_bytes(text.encode("ascii"))


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a profile CSV back as (positions, density); exact round trip."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        xs, ps = [], []
        for line in fh:
            sx, sp = line.rstrip("\n").split(",")
            xs.append(float(sx))
            ps.append(float(sp))
    return np.array(xs), np.array(ps)


_SVG_WIDTH, _SVG_HEIGHT = 960, 600
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 90, 30, 50, 70
_N_XTICKS, _N_YTICKS = 7, 6


def profile_svg(profile: IntensityProfile) -> str:
    """Self-contained SVG line plot of a profile, one polyline, with axis ticks.

    Raises ``ValueError`` unless positions and density are 1-D of one size >= 2,
    the last position lies above the first and every density is finite.
    """
    xs = np.asarray(profile.positions, dtype=float)
    ys = np.asarray(profile.density, dtype=float)
    if xs.ndim != 1 or ys.shape != xs.shape or xs.size < 2:
        raise ValueError(f"a plot needs 1-D positions and density of one size >= 2, "
                         f"got shapes {xs.shape} and {ys.shape}")
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    if not x_hi > x_lo:
        raise ValueError(f"last position {x_hi} does not lie above the first {x_lo}")
    if not np.isfinite(ys).all():
        i = int(np.argmin(np.isfinite(ys)))             # the first non-finite index
        raise ValueError(f"density[{i}] = {ys[i]} is not finite")
    y_lo, y_hi = 0.0, float(ys.max())
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):      # a float or an array, with the same rounding
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _SVG_HEIGHT - _MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    coords = np.column_stack((px(xs), py(ys))).ravel().tolist()
    points = ("%.2f,%.2f " * xs.size % tuple(coords))[:-1]
    title = f"qubit behavior: {profile.behavior.value}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f"<title>{title}</title>",
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.0f}" y="28" font-size="18" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>',
    ]
    axis_style = 'stroke="black" stroke-width="1"'
    x_axis_y = _SVG_HEIGHT - _MARGIN_BOTTOM
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{x_axis_y}" '
                 f'x2="{_SVG_WIDTH - _MARGIN_RIGHT}" y2="{x_axis_y}" {axis_style}/>')
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
                 f'x2="{_MARGIN_LEFT}" y2="{x_axis_y}" {axis_style}/>')

    for k in range(_N_XTICKS):
        xv = x_lo + (x_hi - x_lo) * k / (_N_XTICKS - 1)
        xp = px(xv)
        parts.append(f'<line x1="{xp:.2f}" y1="{x_axis_y}" x2="{xp:.2f}" '
                     f'y2="{x_axis_y + 6}" {axis_style}/>')
        parts.append(f'<text x="{xp:.2f}" y="{x_axis_y + 22}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">{xv:.3g}</text>')
    for k in range(_N_YTICKS):
        yv = y_lo + (y_hi - y_lo) * k / (_N_YTICKS - 1)
        yp = py(yv)
        parts.append(f'<line x1="{_MARGIN_LEFT - 6}" y1="{yp:.2f}" '
                     f'x2="{_MARGIN_LEFT}" y2="{yp:.2f}" {axis_style}/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 10}" y="{yp + 4:.2f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">{yv:.3g}</text>')

    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_SVG_HEIGHT - 18}" '
                 f'font-size="14" text-anchor="middle" font-family="sans-serif">'
                 f'screen position (m)</text>')
    parts.append(f'<text x="22" y="{_MARGIN_TOP + plot_h / 2:.0f}" font-size="14" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 22 {_MARGIN_TOP + plot_h / 2:.0f})">'
                 f'probability density (1/m)</text>')
    parts.append(f'<polyline fill="none" stroke="#1f6fb4" stroke-width="1" points="{points}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_profile_svg(profile: IntensityProfile, path) -> None:
    Path(path).write_bytes(profile_svg(profile).encode("utf-8"))


def write_mask_file(mask: TransitionMask, path) -> None:
    Path(path).write_bytes(render_mask(mask).encode("ascii"))


def write_report(report: ValidationReport, path) -> None:
    """JSON tree for a ``.json`` path, otherwise the flat key = value form."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    else:
        text = report.to_text()
    path.write_bytes(text.encode("ascii"))


# Config files use the experiment's conventional symbol names as keys.
CONFIG_FILE_KEYS = {
    "lambda": "wavelength",
    "m": "electron_mass",
    "h": "planck",
    "a": "slit_width",
    "d": "slit_separation",
    "L": "wall_to_screen",
    "N": "n_positions",
    "Zmin": "screen_min",
    "Zmax": "screen_max",
}


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file into ExperimentConfig kwargs.

    Recognized keys: lambda, m, h, a, d, L, N, Zmin, Zmax.  Blank lines and
    ``#`` comments are ignored.  A key may appear only once.
    """
    overrides: dict = {}
    first_line: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_FILE_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r}; expected one of "
                    f"{sorted(CONFIG_FILE_KEYS)}"
                )
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}, "
                                 f"first set on line {first_line[key]}")
            first_line[key] = lineno
            attr = CONFIG_FILE_KEYS[key]
            try:
                overrides[attr] = int(value) if key == "N" else float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: invalid number {value!r} for {key}") from None
    return overrides
