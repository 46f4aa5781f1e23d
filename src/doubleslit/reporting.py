"""File emitters: CSV profiles, static SVG plots, mask exports, reports.

All outputs are deterministic functions of their inputs (no timestamps),
so identical runs produce byte-identical files.  Each writer encodes its whole
text before it opens the path, so a formatting error leaves the file as it was.
"""

from __future__ import annotations

import functools
import json
import weakref
from pathlib import Path

import numpy as np

from .analysis import ValidationReport
from .propagation import IntensityProfile
from .qubit import QubitBehavior, TransitionMask, render_mask

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

# Both writers format with numpy (below), a chunk of rows at a time, in _text_chunks.
_CHUNK_ROWS = 1024

# Chunk lists with the (positions, density) bytes they were formatted from, for the one
# positions array _memo_for refers to; freeing that array empties the memo.  A run's
# profiles share it, and none and forgets one density, so --qubit all formats two texts;
# a mirror-image profile formats only its upper half, and its lower chunks are built from
# that text.  Looked up by ==, not by hash: hashing the bytes cost an N=8000 run 0.1 ms.
_memo: list[tuple[bytes, bytes, list[bytes]]] = []
_memo_for = lambda: None        # weakref.ref of the memo's positions array; none yet


def _text_chunks(xs, ys, layout, end: bytes) -> list[bytes]:
    """The text of ``xs`` and ``ys``, _CHUNK_ROWS rows a chunk: ``layout`` gives each chunk's
    interleaved values their byte rows, the rows "%" must write and its template row; each
    x's row ends in "," and each y's in ``end``, in its last byte, and the NULs are dropped."""
    def chunk(v):           # a function, so a chunk's arrays are freed before the next one's
        words, fallback, template = layout(v)
        words[fallback] = template
        rows = words.view(np.uint8).reshape(len(words), -1)
        rows[0::2, -1], rows[1::2, -1] = ord(","), ord(end)
        text = rows.tobytes().translate(None, b"\0")
        return text % tuple(v[fallback].tolist()) if fallback.size else text
    return [chunk(np.column_stack((xs[i:i + _CHUNK_ROWS], ys[i:i + _CHUNK_ROWS])).ravel())
            for i in range(0, xs.size, _CHUNK_ROWS)]


def write_profile_csv(profile: IntensityProfile, path) -> None:
    """One row per screen position, ascending x, 17 significant digits, LF endings.

    Each number is written as ``"%.17g"`` writes its float64 value.  Raises
    ``ValueError`` unless positions and density are 1-D of one size.  Where the lower half
    of positions is, bit for bit, the negated reverse of an upper half that is all > 0,
    and the density's lower half the reverse of its upper half, only the upper half is
    formatted: ``"%.17g" % -v`` is ``"-" + "%.17g" % v`` for every such v.
    """
    global _memo_for
    xs = np.asarray(profile.positions, dtype=np.float64)
    ys = np.asarray(profile.density, dtype=np.float64)
    if xs.ndim != 1 or ys.shape != xs.shape:
        raise ValueError(f"a CSV needs 1-D positions and density of one size, "
                         f"got shapes {xs.shape} and {ys.shape}")
    if _memo_for() is not xs or len(_memo) == len(QubitBehavior):   # a new run, or a full memo
        _memo.clear()
        _memo_for = weakref.ref(xs, lambda _: _memo.clear())
    xb, yb = xs.tobytes(), ys.tobytes()
    parts = next((p for x, y, p in _memo if x == xb and y == yb), None)
    if parts is None:
        # On a mirror image about 0, each lower row is its mirror's upper row after a "-".
        h = xs.size // 2
        x_up, y_up = xs[h:], ys[h:]
        if ((x_up > 0).all() and xs[:h].tobytes() == (-x_up[::-1]).tobytes()
                and ys[:h].tobytes() == y_up[::-1].tobytes()):
            upper = _text_chunks(x_up, y_up, _csv_rows, b"\n")
            parts = [b"-" + b"\n-".join(t[:-1].split(b"\n")[::-1]) + b"\n"
                     for t in upper[::-1]] + upper
        else:
            parts = _text_chunks(xs, ys, _csv_rows, b"\n")
        _memo.append((xb, yb, parts))
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode("ascii") + b"\n")
        fh.writelines(parts)    # the chunks as they are: one joined text slowed large-none


# The numpy formatter.  A value v with |v| in [1e-280, 1e280] is written from its 17
# correctly rounded significant digits D, 10**16 <= D < 10**17, and its decimal exponent
# k, so that v is about D * 10**(k - 16).  D = rint(|v| * 10**s) with s = 16 - k, and the
# product is formed as p + tail: Dekker's exact two-product of |v| with the float64
# nearest 10**s, plus |v| times that float's remainder, so tail is within about 1e-14
# of the exact rest.  Zeros, non-finite values, values outside that range, values whose
# tail lies within 1e-6 of a half (a decimal tie, or too near one to call) and values
# next to a decade, where p + tail < 10**16 (k one too high) or D >= 10**17, are written
# by "%.17g" itself: their rows hold a "%.17g" template that one bytes % fills.
_SPLIT = 134217729.0                    # 2**27 + 1: splits a float64 into two 26-bit halves
_K_MIN, _K_MAX = -282, 282             # the k tabled: [1e-280, 1e280]'s and log10's misses
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# Each value gets a 48-byte template row that holds every byte "%.17g" may write for it,
# in the order written: its sign (NUL or "-"), "0.000", D's 17 digits each followed by
# ".", and its exponent ("e-05" or "e+100", NUL-padded; all NUL in fixed notation).  The
# row's last byte, a NUL of that padding, takes the row's terminator in _text_chunks.  A
# keep row masks the row to the bytes written, before the "%.17g" templates are written.
_DIGIT, _E, _TEMPLATE = 6, 40, 48


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _csv_tables():
    """The formatter's tables, built on first use rather than at import."""
    his, los = [], []
    for s in range(16 - _K_MIN, 15 - _K_MAX, -1):   # 10**(16-k) = hi + lo, in exact integers
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))
    hi = np.array(his)
    powers = np.stack((hi, *_split(hi), np.array(los)))
    two = np.frombuffer(b"".join(b"%d.%d." % divmod(i, 10) for i in range(100)), np.uint32)
    dotted = np.empty((100, 100, 2), np.uint32)        # "0.0.0.0." .. "9.9.9.9."
    dotted[:, :, 0] = two[:, None]
    dotted[:, :, 1] = two
    lead = np.frombuffer(b"".join(b"%s0.000%d." % (sign, i)
                                  for sign in (b"\0", b"-") for i in range(10)), np.uint64)
    fixed, ks = range(-4, 17), range(_K_MIN, _K_MAX + 1)  # fixed notation's k, all k
    exponent = np.frombuffer(b"".join((b"" if k in fixed else b"e%+03d" % k).ljust(8, b"\0")
                                      for k in ks), np.uint64)
    # keep[(point + 4) * 17 + nd - 1] keeps the bytes written for nd significant digits
    # placed by `point`, which is k in fixed notation and 0 otherwise.
    point = np.array(fixed)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    col = np.arange(_TEMPLATE)
    i, after = np.divmod(col - _DIGIT, 2)               # D's digit i, or the byte after it
    digits = (col >= _DIGIT) & (col < _E)
    keep = ((col == 0) | (col >= _E)                    # sign, exponent
            | ((point < 0) & (col <= 1 - point))        # "0." and -k-1 zeros
            | digits & (after == 0) & (i < np.maximum(nd, point + 1))   # to the point
            | digits & (after == 1) & (i == point) & (nd > point + 1))  # point, digits after
    keep = keep.reshape(-1, _TEMPLATE)
    k_rows = np.array([17 * ((k if k in fixed else 0) + 4) + 16 for k in ks])  # nd = 17
    template = np.frombuffer(b"%.17g".ljust(_TEMPLATE, b"\0"), np.uint64)
    tables = powers, lead, dotted.view(np.uint64).ravel(), exponent, keep, k_rows, template
    for table in tables:                                # shared by every call
        table.flags.writeable = False
    return tables


def _digits(v, powers):
    """(D, k, exact) for each value: "exact" marks the values "%.17g" must write."""
    a = np.abs(v)
    exact = ~((a >= _FAST_MIN) & (a <= _FAST_MAX))     # zeros, inf, nan, far out of range
    a[exact] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)          # may be one off next to a decade
    hi, hi_hi, hi_lo, lo = powers.take(k - _K_MIN, axis=1)
    p = a * hi                                          # |v| * 10**(16 - k) = p + tail
    a_hi, a_lo = _split(a)
    tail = a_lo * hi_lo - (((p - a_hi * hi_hi) - a_lo * hi_hi) - a_hi * hi_lo) + a * lo
    d = p.astype(np.int64) + np.rint(tail).astype(np.int64)
    exact |= np.abs(tail - np.floor(tail) - 0.5) < 1e-6
    exact |= (p < 1e16) | ((p == 1e16) & (tail < 0)) | (d >= 10 ** 17)   # next to a decade
    d[exact] = 10 ** 16                                 # any D in range, for the tables
    return d, k, exact


def _csv_rows(v):
    """_text_chunks's layout of interleaved values for "%.17g,%.17g\\n"."""
    powers, lead, dotted, exponent, keep, k_rows, template = _csv_tables()
    d, k, exact = _digits(v, powers)
    words = np.empty((v.size, _TEMPLATE // 8), np.uint64)
    for col in range(4, 0, -1):                         # D's four-digit groups, last first
        q = d // 10_000                                 # faster than np.divmod, same digits
        words[:, col], d = dotted.take(d - q * 10_000), q
    words[:, 0] = lead.take(d + 10 * (v < 0))
    words[:, 5] = exponent.take(k - _K_MIN)
    rows = words.view(np.uint8)
    nonzero = rows[:, _DIGIT + 32:_DIGIT - 1:-2] != ord("0")   # D's digits, last first
    kept = k_rows.take(k - _K_MIN) - np.argmax(nonzero, axis=1)
    rows *= keep.take(kept, axis=0)                     # NUL out the bytes not written
    return words, np.flatnonzero(exact), template


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

# The polyline's numpy formatter.  A value v in (0, 999.995) is written from n, v * 100
# rounded to the nearest integer: n = floor(q) with q = v * 100 + 0.5 in float64.  Both
# roundings are monotone and keep the halves and integers they pass, so n is exact unless q
# is an integer, where v * 100 is a tie or within 2**-36 of one.  Each value gets an 8-byte
# row: n // 100 right-aligned with its leading blanks NUL, ".", the two digits of n % 100,
# a NUL and, in the last byte, "," or " ".  Values outside (0, 999.995) (zeros, negatives,
# which may print as "-0.00", non-finite values) and those with an integer q get the row
# "%.2f" instead, and are written by it.


@functools.cache
def _svg_tables():
    """The polyline's integer and two-digit tables and its "%.2f" row, built on first use."""
    tables = (b"".join(b"%3d.\0\0\0\0" % i for i in range(1000)).replace(b" ", b"\0"),
              b"".join(b"\0\0\0\0%02d\0\0" % i for i in range(100)), b"%.2f\0\0\0\0")
    return [np.frombuffer(table, np.int64) for table in tables]   # read-only views


def _svg_rows(v):
    """_text_chunks's layout of interleaved values for "%.2f,%.2f "."""
    ints, cents, template = _svg_tables()
    exact = ~((v > 0) & (v < 999.995))
    q = v.copy()
    q[exact] = 0.0
    q *= 100
    q += 0.5
    n = np.floor(q)
    exact |= q == n
    hi, lo = np.divmod(n.astype(np.int64), 100)
    words = ints.take(hi) + cents.take(lo)              # disjoint bytes, so the sum joins them
    return words, np.flatnonzero(exact), template


def profile_svg(profile: IntensityProfile) -> str:
    """Self-contained SVG line plot of a profile, one polyline, with axis ticks.

    Raises ``ValueError`` unless positions and density are 1-D of one size >= 2,
    the last position lies above the first, every density is finite and every
    point's plot coordinates are finite (which rules out a non-finite position).
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

    with np.errstate(over="ignore", invalid="ignore"):
        xp, yp = px(xs), py(ys)
    on_plot = np.isfinite(xp) & np.isfinite(yp)       # a non-finite position, or overflow
    if not on_plot.all():
        i = int(np.argmin(on_plot))
        raise ValueError(f"point {i} at ({xs[i]}, {ys[i]}) has no finite plot coordinates")
    points = b"".join(_text_chunks(xp, yp, _svg_rows, b" "))[:-1].decode("ascii")
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
    """Write ``profile_svg(profile)`` to ``path`` as UTF-8."""
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
