"""Feature extraction from intensity profiles and validation against optics.

Textbook predictions for this geometry: single-slit diffraction minima at
+-lambda*L/a, first secondary maxima near +-1.43*lambda*L/a, and two-slit
fringe spacing lambda*L/d.  The validation report measures these features
on simulated profiles and compares them at fixed tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import physics
from .physics import ExperimentConfig, derive
from .propagation import IntensityProfile
from .qubit import QubitBehavior, screen_state

__all__ = [
    "AnalyticPredictions",
    "analytic_predictions",
    "find_peaks",
    "fringe_spacing",
    "find_first_minimum",
    "total_probability",
    "CheckResult",
    "ValidationReport",
    "validate",
]

# Tolerances used by validate(); these are artifact decisions, the source
# optics claims carry no error bars.
NORMALIZATION_TARGET = 0.95
NORMALIZATION_TOL = 0.02          # absolute, on the in-range probability mass
BEHAVIOR_AGREEMENT_RTOL = 1e-6    # pairwise, between behaviors' total probabilities
FRINGE_SPACING_RTOL = 0.10
FIRST_MINIMUM_TOL_CELLS = 2       # multiples of delta_screen
SECONDARY_MAXIMUM_TOL_CELLS = 5
INTERFERENCE_MIN_PEAKS = 5        # peaks inside the central lobe
PEAK_PROMINENCE = 0.01            # fraction of the global maximum

# report feature -> the check whose measured and expected values it prints
_FEATURE_CHECKS = {
    "fringe_spacing": "fringe_spacing",
    "first_minimum": "first_minimum_positive",
    "secondary_maximum": "secondary_maximum_positive",
}


@dataclass(frozen=True)
class AnalyticPredictions:
    """Feature positions predicted by elementary diffraction theory (meters)."""

    first_minimum: float      # lambda*L/a
    secondary_maximum: float  # 1.43*lambda*L/a
    fringe_spacing: float     # lambda*L/d


def analytic_predictions(config: ExperimentConfig) -> AnalyticPredictions:
    lam_l = config.wavelength * config.wall_to_screen
    return AnalyticPredictions(
        first_minimum=lam_l / config.slit_width,
        secondary_maximum=1.43 * lam_l / config.slit_width,
        fringe_spacing=lam_l / config.slit_separation,
    )


def find_peaks(profile: IntensityProfile) -> list[tuple[float, float]]:
    """Strict local maxima as (position, density), sorted by position.

    A peak qualifies when its topographic prominence exceeds
    ``PEAK_PROMINENCE`` times the global maximum, which filters numerical
    ripple without suppressing genuine secondary maxima.  A plateau of equal
    values bounded by lower neighbors counts once, at its leftmost sample.
    A profile without such a peak gives ``[]``; an empty one raises ``ValueError``.
    """
    density = np.asarray(profile.density)
    if density.size == 0:
        raise ValueError("empty profile")
    _, left, prominences = _maxima(density)
    keep = prominences > PEAK_PROMINENCE * density.max()
    return [(float(profile.positions[i]), float(density[i])) for i in left[keep]]


def _maxima(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(peaks, left_edges, prominences) of the strict local maxima of a finite 1-D ``x``.

    A maximum is a plateau of one or more equal samples entered by a rise and
    left by a fall, so plateaus touching either end do not count; its peak is
    the plateau's middle sample, rounded down.  A peak's topographic
    prominence is its height above the higher of two minima: the lowest
    sample between it and the nearest strictly higher sample (or the end) on
    each side.  tests/test_analysis.py holds all three bit for bit against a
    reference peak finder that uses these definitions.
    """
    x = np.asarray(x, dtype=np.float64)
    rise = x[:-1] < x[1:]
    moves = np.flatnonzero(rise | (x[:-1] > x[1:]))      # the steps that change x
    up = rise[moves]
    maximum = up[:-1] & ~up[1:]                             # a rise, then a fall
    left, right = moves[:-1][maximum] + 1, moves[1:][maximum]
    peaks = (left + right) // 2
    if peaks.size == 0:
        return peaks, left, np.zeros(0)
    # Segment k runs from peak k-1 (or the start) up to peak k.  x falls, then rises
    # in each, so a scan outward from a peak passes a segment's minimum before it can
    # meet a higher sample, and it ends short of the first strictly higher peak.
    segment_min = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    heights = x[peaks]
    left_min = _lowest_until_higher(heights, segment_min[:-1])
    right_min = _lowest_until_higher(heights[::-1], segment_min[:0:-1])[::-1]
    return peaks, left, heights - np.maximum(left_min, right_min)


def _lowest_until_higher(heights: np.ndarray, segment_min: np.ndarray) -> np.ndarray:
    """For each peak, the minimum of ``segment_min`` from its own segment back to the
    segment after the nearest strictly higher earlier peak, or to the first segment.

    A stack of the peaks not yet overtopped merges each lower-or-equal peak's
    minimum into the next higher one, so every peak is pushed and popped once.
    """
    heights, lowest = heights.tolist(), segment_min.tolist()
    stack: list[int] = []
    for k, height in enumerate(heights):
        while stack and heights[stack[-1]] <= height:
            lowest[k] = min(lowest[k], lowest[stack.pop()])
        stack.append(k)
    return np.array(lowest)


def fringe_spacing(peaks: Sequence[tuple[float, float]],
                   lobe_halfwidth: float) -> Optional[float]:
    """Median gap between consecutive peaks inside |x| <= lobe_halfwidth.

    The central diffraction lobe is where the fringe comb is cleanest; the
    median is robust to one missed or spurious peak at the lobe edges.
    Returns None when fewer than three peaks fall inside the lobe (no
    fringes, as expected for a which-path-marked run).  The median is taken
    by sorting, as ``np.median`` does, without its import of ``numpy.ma``.
    """
    positions = sorted(p for p, _ in peaks if abs(p) <= lobe_halfwidth)
    if len(positions) < 3:
        return None
    gaps = np.sort(np.diff(positions))
    middle = gaps.size // 2
    return float(gaps[middle] if gaps.size % 2 else (gaps[middle - 1] + gaps[middle]) / 2)


def find_first_minimum(profile: IntensityProfile) -> Optional[float]:
    """Position of the first strict local minimum right of the global maximum, or None
    when the profile has none there."""
    start = int(np.argmax(profile.density))
    tail = profile.density[start:]
    inner = tail[1:-1]
    minima = np.flatnonzero((inner < tail[:-2]) & (inner < tail[2:]))
    return float(profile.positions[start + 1 + minima[0]]) if minima.size else None


def total_probability(profile: IntensityProfile) -> float:
    """Probability mass registered on the screen: sum of density * delta_screen."""
    return float(profile.density.sum() * derive(profile.config).delta_screen)


@dataclass(frozen=True)
class CheckResult:
    """A measured value against its expected one: it passes when it was measured and
    lies within ``tolerance`` of ``expected``."""

    name: str
    measured: Optional[float]
    expected: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.measured is not None and abs(self.measured - self.expected) <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    """A config and its checks.  :meth:`to_dict` is the one view of it: the totals,
    fringe flags and features it holds are read from the checks."""

    config: ExperimentConfig
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        config = {f.name: getattr(self.config, f.name) for f in fields(self.config)}
        config["geometry_mode"] = self.config.geometry_mode.value
        checks = {c.name: c for c in self.checks}
        return {
            "config": config,
            "totals": {b.value: checks[f"normalization_{b.value}"].measured
                       for b in QubitBehavior},
            "interference": {b.value: bool(checks[f"interference_{b.value}"].measured)
                             for b in QubitBehavior},
            "measured": {f: checks[name].measured for f, name in _FEATURE_CHECKS.items()},
            "expected": {f: checks[name].expected for f, name in _FEATURE_CHECKS.items()},
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "expected": c.expected,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    **({"note": c.note} if c.note else {}),
                }
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        """:meth:`to_dict`'s tree flattened, one ``key = value`` per line."""
        def fmt(v) -> str:
            if isinstance(v, bool):
                return "true" if v else "false"
            return "nan" if v is None else str(v)      # a float's str is its repr

        tree = self.to_dict()
        lines = [f"config_{k} = {fmt(v)}" for k, v in tree["config"].items()]
        lines += [f"total_probability_{k} = {fmt(v)}" for k, v in tree["totals"].items()]
        lines += [f"interference_detected_{k} = {fmt(v)}" for k, v in tree["interference"].items()]
        lines += [f"{f}_{kind} = {fmt(tree[kind][f])}"
                  for f in _FEATURE_CHECKS for kind in ("measured", "expected")]
        lines += [f"check_{c['name']}_{key} = {fmt(c[key])}"
                  for c in tree["checks"] for key in ("measured", "expected", "tolerance", "pass")]
        lines.append(f"passed = {fmt(tree['passed'])}")
        return "\n".join(lines) + "\n"


def validate(profiles: Mapping[QubitBehavior, IntensityProfile],
             config: ExperimentConfig) -> ValidationReport:
    """Cross-check all three behaviors' profiles against the optics predictions.

    Requires one profile per behavior, all computed with ``config``, each on the
    screen positions of ``build_grids(config, derive(config))`` with a finite, nonnegative
    density of the same shape; raises ``ValueError`` naming the first one that is not, and
    then the first check whose measured value is not finite (a total that overflows).  A
    feature the profiles do not show, such as a first minimum, is measured as None.
    ``interference_<b>`` expects fringes when both slit halves reach one ``screen_state``.
    """
    derived = derive(config)
    screen = physics.build_grids(config, derived).screen_positions
    for behavior in QubitBehavior:
        if behavior not in profiles:
            raise ValueError(f"missing profile for behavior {behavior.value!r}")
        p = profiles[behavior]
        if p.config != config:
            raise ValueError(f"profile for {behavior.value!r} was computed with a different config")
        if p.behavior is not behavior:
            raise ValueError(f"profile labeled {p.behavior.value!r} supplied for {behavior.value!r}")
        if not (np.array_equal(p.positions, screen) and np.shape(p.density) == screen.shape):
            raise ValueError(f"profile for {behavior.value!r} is not on the screen grid of "
                             f"build_grids(config, derive(config))")
        for fault, ok in (("non-finite", np.isfinite(p.density)), ("negative", p.density >= 0)):
            if not ok.all():
                raise ValueError(f"profile for {behavior.value!r} has a {fault} density at "
                                 f"screen index {int(np.argmin(ok)) + 1}")

    preds = analytic_predictions(config)

    # The profiles share the screen positions checked above, so equal densities have
    # equal peaks: none and forgets, one density by construction, share one search.
    peaks, by_density = {}, {}      # by_density: a density's (dtype, bytes) -> its peaks
    for b in QubitBehavior:
        density = np.asarray(profiles[b].density)
        key = (density.dtype.str, density.tobytes())
        if key not in by_density:
            by_density[key] = find_peaks(profiles[b])
        peaks[b] = by_density[key]

    with np.errstate(over="ignore"):        # an overflowing total is named below
        checks = [CheckResult(f"normalization_{b.value}", total_probability(profiles[b]),
                              NORMALIZATION_TARGET, NORMALIZATION_TOL) for b in QubitBehavior]
    totals = [c.measured for c in checks]
    spread = (max(totals) - min(totals)) / (max(totals) or 1.0)
    checks.append(CheckResult("normalization_pairwise", spread, 0.0, BEHAVIOR_AGREEMENT_RTOL,
                              note="max relative spread of total probability across behaviors"))
    checks.append(CheckResult("fringe_spacing",
                              fringe_spacing(peaks[QubitBehavior.NONE], preds.first_minimum),
                              preds.fringe_spacing, FRINGE_SPACING_RTOL * preds.fringe_spacing))

    # Each side s = +1 (positive) or -1 (negative) reads the remembers profile outward
    # from the center; both sides are None if either side has no first minimum.
    remembers = profiles[QubitBehavior.REMEMBERS]
    sides = (("positive", 1), ("negative", -1))
    fmin = [find_first_minimum(replace(remembers, positions=s * remembers.positions[::s],
                                       density=remembers.density[::s])) for _, s in sides]
    fmin = [None, None] if None in fmin else [s * x for (_, s), x in zip(sides, fmin)]
    smax = [None if edge is None else      # the nearest peak beyond each first minimum
            min((x for x, _ in peaks[QubitBehavior.REMEMBERS] if s * x > s * edge),
                key=lambda x: s * x, default=None)
            for (_, s), edge in zip(sides, fmin)]
    for feature, found, prediction, cells in (
            ("first_minimum", fmin, preds.first_minimum, FIRST_MINIMUM_TOL_CELLS),
            ("secondary_maximum", smax, preds.secondary_maximum, SECONDARY_MAXIMUM_TOL_CELLS)):
        for (side, s), value in zip(sides, found):
            checks.append(CheckResult(f"{feature}_{side}", value, s * prediction,
                                      cells * derived.delta_screen))
    for b in (QubitBehavior.NONE, QubitBehavior.FORGETS, QubitBehavior.REMEMBERS):
        inside = sum(abs(x) <= preds.first_minimum for x, _ in peaks[b])
        checks.append(CheckResult(
            f"interference_{b.value}", float(inside >= INTERFERENCE_MIN_PEAKS),
            float(screen_state(b, "lower") == screen_state(b, "upper")), 0.0,
            note=f"{inside} peaks inside the central lobe",
        ))

    for c in checks:
        if c.measured is not None and not math.isfinite(c.measured):
            raise ValueError(f"check {c.name!r} measured a non-finite value, {c.measured!r}")
    return ValidationReport(config, tuple(checks))
