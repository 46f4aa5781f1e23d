"""Feature extraction from intensity profiles and validation against optics.

Textbook predictions for this geometry: single-slit diffraction minima at
+-lambda*L/a, first secondary maxima near +-1.43*lambda*L/a, and two-slit
fringe spacing lambda*L/d.  The validation report measures these features
on simulated profiles and compares them at fixed tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import physics
from .errors import AnalysisError
from .physics import ExperimentConfig, derive
from .propagation import IntensityProfile
from .qubit import QubitBehavior

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
    "DEFAULT_PEAK_PROMINENCE",
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
DEFAULT_PEAK_PROMINENCE = 0.01    # fraction of the global maximum

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


def find_peaks(profile: IntensityProfile,
               min_prominence_fraction: float = DEFAULT_PEAK_PROMINENCE,
               ) -> list[tuple[float, float]]:
    """Strict local maxima as (position, density), sorted by position.

    A peak qualifies when its topographic prominence exceeds
    ``min_prominence_fraction`` times the global maximum, which filters
    numerical ripple without suppressing genuine secondary maxima.  A
    plateau of equal values bounded by lower neighbors counts once, at its
    leftmost sample.
    """
    if not 0.0 < min_prominence_fraction < 1.0:
        raise ValueError(f"min_prominence_fraction must be in (0, 1), got {min_prominence_fraction}")
    density = np.asarray(profile.density)
    if density.size == 0:
        raise AnalysisError("empty profile")
    _, left, prominences = _maxima(density)
    keep = prominences > min_prominence_fraction * density.max()
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
    fringes, as expected for a which-path-marked run).
    """
    positions = sorted(p for p, _ in peaks if abs(p) <= lobe_halfwidth)
    if len(positions) < 3:
        return None
    return float(np.median(np.diff(positions)))


def find_first_minimum(profile: IntensityProfile) -> float:
    """Position of the first strict local minimum right of the global maximum."""
    start = int(np.argmax(profile.density))
    tail = profile.density[start:]
    inner = tail[1:-1]
    minima = np.flatnonzero((inner < tail[:-2]) & (inner < tail[2:]))
    if minima.size == 0:
        raise AnalysisError("no local minimum found beyond the global maximum")
    return float(profile.positions[start + 1 + minima[0]])


def total_probability(profile: IntensityProfile) -> float:
    """Probability mass registered on the screen: sum of density * delta_screen."""
    return float(profile.density.sum() * derive(profile.config).delta_screen)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: Optional[float]
    expected: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Measured features, predicted values, and pass/fail flags per check."""

    config: ExperimentConfig
    totals: dict[str, float]                 # behavior name -> total probability
    interference: dict[str, bool]            # behavior name -> fringes detected
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
            "totals": dict(self.totals),
            "interference": dict(self.interference),
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
        """Flat serialization, one ``key = value`` per line."""
        def fmt(v) -> str:
            if isinstance(v, bool):
                return "true" if v else "false"
            if v is None:
                return "nan"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        tree = self.to_dict()
        lines = []
        for key, value in tree["config"].items():
            lines.append(f"config_{key} = {fmt(value)}")
        for name, value in self.totals.items():
            lines.append(f"total_probability_{name} = {fmt(value)}")
        for name, value in self.interference.items():
            lines.append(f"interference_detected_{name} = {fmt(value)}")
        for feature in _FEATURE_CHECKS:
            lines.append(f"{feature}_measured = {fmt(tree['measured'][feature])}")
            lines.append(f"{feature}_expected = {fmt(tree['expected'][feature])}")
        for c in self.checks:
            lines.append(f"check_{c.name}_measured = {fmt(c.measured)}")
            lines.append(f"check_{c.name}_expected = {fmt(c.expected)}")
            lines.append(f"check_{c.name}_tolerance = {fmt(c.tolerance)}")
            lines.append(f"check_{c.name}_pass = {fmt(c.passed)}")
        lines.append(f"passed = {fmt(self.passed)}")
        return "\n".join(lines) + "\n"


def _interval_check(name: str, measured: Optional[float], expected: float,
                    tolerance: float, note: str = "") -> CheckResult:
    passed = measured is not None and abs(measured - expected) <= tolerance
    return CheckResult(name, measured, expected, tolerance, passed, note)


def validate(profiles: Mapping[QubitBehavior, IntensityProfile],
             config: ExperimentConfig, *,
             peak_threshold: float = DEFAULT_PEAK_PROMINENCE) -> ValidationReport:
    """Cross-check all three behaviors' profiles against the optics predictions.

    Requires one profile per behavior, all computed with ``config``, each on the
    screen positions of ``build_grids(config, derive(config))`` with a density of
    the same shape; raises ``ValueError`` otherwise.
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

    preds = analytic_predictions(config)
    delta_screen = derived.delta_screen

    totals = {b.value: total_probability(profiles[b]) for b in QubitBehavior}
    peaks = {b: find_peaks(profiles[b], peak_threshold) for b in QubitBehavior}
    in_lobe = {
        b: [x for x, _ in peaks[b] if abs(x) <= preds.first_minimum]
        for b in QubitBehavior
    }
    interference = {b.value: len(in_lobe[b]) >= INTERFERENCE_MIN_PEAKS for b in QubitBehavior}

    fringe = fringe_spacing(peaks[QubitBehavior.NONE], preds.first_minimum)

    # Each side s = +1 (positive) or -1 (negative) reads the remembers profile outward
    # from the center; both sides are None if either side has no first minimum.
    remembers = profiles[QubitBehavior.REMEMBERS]
    sides = (("positive", 1), ("negative", -1))
    try:
        fmin = {s: s * find_first_minimum(replace(remembers, positions=s * remembers.positions[::s],
                                                   density=remembers.density[::s]))
                for _, s in sides}
    except AnalysisError:
        fmin = {s: None for _, s in sides}
    smax = {s: None for _, s in sides}      # the nearest peak beyond each first minimum
    for s, edge in fmin.items():
        if edge is not None:
            smax[s] = min((x for x, _ in peaks[QubitBehavior.REMEMBERS] if s * x > s * edge),
                          key=lambda x: s * x, default=None)

    values = list(totals.values())
    scale = max(abs(v) for v in values) or 1.0
    pairwise = max(
        abs(va - vb) for ia, va in enumerate(values) for vb in values[ia + 1:]
    ) / scale

    checks = [
        _interval_check(f"normalization_{b.value}", totals[b.value],
                        NORMALIZATION_TARGET, NORMALIZATION_TOL)
        for b in QubitBehavior
    ]
    checks.append(CheckResult(
        "normalization_pairwise", pairwise, 0.0, BEHAVIOR_AGREEMENT_RTOL,
        pairwise <= BEHAVIOR_AGREEMENT_RTOL,
        note="max relative spread of total probability across behaviors",
    ))
    checks.append(_interval_check(
        "fringe_spacing", fringe, preds.fringe_spacing,
        FRINGE_SPACING_RTOL * preds.fringe_spacing))
    for feature, found, prediction, cells in (
            ("first_minimum", fmin, preds.first_minimum, FIRST_MINIMUM_TOL_CELLS),
            ("secondary_maximum", smax, preds.secondary_maximum, SECONDARY_MAXIMUM_TOL_CELLS)):
        for side, s in sides:
            checks.append(_interval_check(f"{feature}_{side}", found[s], s * prediction,
                                          cells * delta_screen))
    for b, expected_flag in ((QubitBehavior.NONE, True),
                             (QubitBehavior.FORGETS, True),
                             (QubitBehavior.REMEMBERS, False)):
        detected = interference[b.value]
        checks.append(CheckResult(
            f"interference_{b.value}", float(detected), float(expected_flag), 0.0,
            detected == expected_flag,
            note=f"{len(in_lobe[b])} peaks inside the central lobe",
        ))

    return ValidationReport(
        config=config,
        totals=totals,
        interference=interference,
        checks=tuple(checks),
    )
