import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings, strategies as st

import doubleslit as ds
from doubleslit.analysis import _maxima
from doubleslit.errors import AnalysisError
from doubleslit.qubit import QubitBehavior
from reference import first_minimum


def synthetic_profile(density, positions=None, config=None,
                      behavior=QubitBehavior.NONE):
    density = np.asarray(density, dtype=float)
    if positions is None:
        positions = np.arange(density.size, dtype=float)
    if config is None:
        config = ds.ExperimentConfig()
    return ds.IntensityProfile(positions=np.asarray(positions, dtype=float),
                               density=density, behavior=behavior, config=config)


class TestAnalyticPredictions:
    def test_reference_values(self, paper_config):
        preds = ds.analytic_predictions(paper_config)
        assert preds.first_minimum == pytest.approx(0.082, rel=1e-12)
        assert preds.secondary_maximum == pytest.approx(0.11726, rel=1e-12)
        assert preds.fringe_spacing == pytest.approx(0.02, rel=1e-12)

    def test_doubling_separation_halves_fringe_exactly(self, paper_config):
        doubled = ds.ExperimentConfig(slit_separation=2 * paper_config.slit_separation)
        assert ds.analytic_predictions(doubled).fringe_spacing == \
            ds.analytic_predictions(paper_config).fringe_spacing / 2

    @given(d=st.floats(1e-9, 1e-6))
    def test_scale_consistency(self, d):
        cfg = ds.ExperimentConfig(slit_separation=d, slit_width=d / 10)
        cfg2 = ds.ExperimentConfig(slit_separation=2 * d, slit_width=d / 10)
        assert ds.analytic_predictions(cfg2).fringe_spacing == \
            ds.analytic_predictions(cfg).fringe_spacing / 2


class TestFindPeaks:
    def test_single_triangle(self):
        peaks = ds.find_peaks(synthetic_profile([0, 1, 0]))
        assert peaks == [(1.0, 1.0)]

    def test_constant_profile_has_no_peaks(self):
        assert ds.find_peaks(synthetic_profile([1, 1, 1, 1])) == []

    def test_plateau_resolved_to_leftmost(self):
        peaks = ds.find_peaks(synthetic_profile([0, 1, 1, 0]))
        assert peaks == [(1.0, 1.0)]

    def test_prominence_filter(self):
        # ripple at 0.5% of the maximum must be dropped at the 1% threshold
        density = [0, 10, 0.1, 0.14, 0.1, 0]
        assert ds.find_peaks(synthetic_profile(density), 0.01) == [(1.0, 10.0)]
        kept = ds.find_peaks(synthetic_profile(density), 0.001)
        assert [p for p, _ in kept] == [1.0, 3.0]

    def test_positions_strictly_increasing_and_on_grid(self, profiles_250):
        profile = profiles_250[QubitBehavior.NONE]
        peaks = ds.find_peaks(profile)
        xs = [p for p, _ in peaks]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert set(xs) <= set(profile.positions.tolist())

    def test_threshold_validation(self):
        profile = synthetic_profile([0, 1, 0])
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                ds.find_peaks(profile, bad)

    def test_empty_profile_rejected(self):
        with pytest.raises(AnalysisError):
            ds.find_peaks(synthetic_profile([]))



def assert_maxima_match_scipy(x):
    """``_maxima`` equals scipy's peaks, left edges and prominences bit for bit."""
    peaks, props = scipy.signal.find_peaks(x, prominence=0.0, plateau_size=1)
    expected = (peaks, props["left_edges"], props["prominences"])
    for got, want in zip(_maxima(x), expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestMaximaMatchScipy:
    # Few distinct values force plateaus, ties, plateaus at either end,
    # constant arrays and arrays too short to hold a maximum.
    @settings(max_examples=500)
    @given(x=st.lists(st.integers(0, 3), max_size=60))
    def test_small_integer_arrays(self, x):
        assert_maxima_match_scipy(np.array(x, dtype=float))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000), decimals=st.integers(0, 2))
    def test_rounded_random_walks(self, seed, n, decimals):
        steps = np.random.default_rng(seed).normal(size=n)
        assert_maxima_match_scipy(np.round(np.cumsum(steps), decimals))

    @pytest.mark.parametrize("n", [250, 2000])
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    def test_simulated_profiles(self, n, geometry):
        cfg = ds.ExperimentConfig(n_positions=n, geometry_mode=geometry)
        for profile in ds.simulate_all(cfg).values():
            assert_maxima_match_scipy(profile.density)


class TestFringeSpacing:
    def test_three_even_peaks(self):
        peaks = [(-0.02, 1.0), (0.0, 1.0), (0.02, 1.0)]
        assert ds.fringe_spacing(peaks, 0.082) == pytest.approx(0.02)

    def test_median_is_robust_to_one_bad_gap(self):
        xs = [-0.04, -0.02, 0.0, 0.02, 0.06]   # one missed peak at 0.04
        peaks = [(x, 1.0) for x in xs]
        assert ds.fringe_spacing(peaks, 0.082) == pytest.approx(0.02)

    def test_too_few_peaks_means_no_fringes(self):
        assert ds.fringe_spacing([(0.0, 1.0), (0.02, 1.0)], 0.082) is None
        assert ds.fringe_spacing([], 0.082) is None

    def test_peaks_outside_lobe_ignored(self):
        peaks = [(x, 1.0) for x in (-0.5, -0.02, 0.0, 0.02, 0.5)]
        assert ds.fringe_spacing(peaks, 0.082) == pytest.approx(0.02)


class TestFindFirstMinimum:
    def test_v_shape(self):
        assert ds.find_first_minimum(synthetic_profile([1, 0, 1])) == 1.0

    def test_monotone_profile_has_no_minimum(self):
        with pytest.raises(AnalysisError):
            ds.find_first_minimum(synthetic_profile([0, 1, 2, 3]))

    def test_scans_rightward_from_global_maximum(self):
        density = [0.2, 0.1, 5, 1, 0.5, 2, 1]   # minimum at index 4
        assert ds.find_first_minimum(synthetic_profile(density)) == 4.0

    # Few distinct values force plateaus, ties, a maximum at either end and, with
    # lengths 1-3, profiles too short to hold an inner sample.
    @settings(max_examples=500)
    @given(x=st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_matches_per_sample_scan(self, x):
        profile = synthetic_profile(x)
        try:
            expected = first_minimum(profile)
        except AnalysisError:
            with pytest.raises(AnalysisError, match="no local minimum"):
                ds.find_first_minimum(profile)
        else:
            assert ds.find_first_minimum(profile) == expected


class TestTotalProbability:
    def test_zero_profile(self, config_250):
        profile = synthetic_profile(np.zeros(250), config=config_250)
        assert ds.total_probability(profile) == 0.0

    def test_matches_riemann_sum(self, profiles_250, config_250):
        profile = profiles_250[QubitBehavior.NONE]
        delta = (config_250.screen_max - config_250.screen_min) / config_250.n_positions
        assert ds.total_probability(profile) == pytest.approx(
            float(profile.density.sum() * delta), rel=1e-15)


class TestValidate:
    def test_reference_run_flags(self, profiles_250, config_250):
        report = ds.validate(profiles_250, config_250)
        flags = {c.name: c for c in report.checks}

        for name in ("normalization_none", "normalization_remembers",
                     "normalization_forgets", "fringe_spacing",
                     "first_minimum_positive", "first_minimum_negative",
                     "secondary_maximum_positive", "secondary_maximum_negative",
                     "interference_none", "interference_forgets",
                     "interference_remembers"):
            assert flags[name].passed, name

        # The behavior-agreement gate sits at 1e-6, but the screen covers a
        # finite span: truncating the oscillatory cross term leaves a
        # resolution-independent residual of ~3e-4 between the fringed and
        # fringeless totals.  The check honestly reports that residual.
        pairwise = flags["normalization_pairwise"]
        assert not pairwise.passed
        assert 1e-4 < pairwise.measured < 1e-3
        assert report.passed is False

    def test_behavior_equivalence_of_measurements(self, profiles_250, config_250):
        report = ds.validate(profiles_250, config_250)
        assert report.totals["none"] == report.totals["forgets"]
        assert report.interference == {"none": True, "forgets": True,
                                       "remembers": False}

    def test_measured_features_inside_screen(self, profiles_250, config_250):
        report = ds.validate(profiles_250, config_250)
        measured = {c.name: c.measured for c in report.checks}
        for name in ("fringe_spacing", "first_minimum_positive", "secondary_maximum_positive"):
            assert measured[name] is not None
        for name in ("first_minimum_positive", "secondary_maximum_positive"):
            assert config_250.screen_min <= measured[name] <= config_250.screen_max

    def test_deterministic(self, profiles_250, config_250):
        a = ds.validate(profiles_250, config_250)
        b = ds.validate(profiles_250, config_250)
        assert a.to_text() == b.to_text()
        assert a.to_dict() == b.to_dict()

    def test_mismatched_config_rejected(self, profiles_250, paper_config):
        with pytest.raises(ValueError):
            ds.validate(profiles_250, paper_config)

    def test_missing_behavior_rejected(self, profiles_250, config_250):
        partial = {QubitBehavior.NONE: profiles_250[QubitBehavior.NONE]}
        with pytest.raises(ValueError):
            ds.validate(partial, config_250)

    @pytest.mark.parametrize("cut", [
        lambda p: replace(p, positions=p.positions[:4], density=p.density[:4]),
        lambda p: replace(p, density=p.density[:-1]),
    ], ids=["four-point-slice", "density-one-short"])
    def test_profile_off_the_config_grid_rejected(self, cut):
        config = ds.ExperimentConfig(n_positions=16)
        profiles = {b: cut(p) for b, p in ds.simulate_all(config).items()}
        with pytest.raises(ValueError, match="screen grid"):
            ds.validate(profiles, config)

    def test_mislabeled_profile_rejected(self, profiles_250, config_250):
        shuffled = dict(profiles_250)
        shuffled[QubitBehavior.NONE] = profiles_250[QubitBehavior.REMEMBERS]
        with pytest.raises(ValueError):
            ds.validate(shuffled, config_250)

    def test_text_serialization_is_flat_key_value(self, profiles_250, config_250):
        text = ds.validate(profiles_250, config_250).to_text()
        lines = text.rstrip("\n").split("\n")
        assert all(" = " in line for line in lines)
        keys = [line.split(" = ")[0] for line in lines]
        assert len(keys) == len(set(keys))
        assert "passed = false" in lines

    def test_dict_serialization_structure(self, profiles_250, config_250):
        tree = ds.validate(profiles_250, config_250).to_dict()
        assert set(tree) == {"config", "totals", "interference", "measured",
                             "expected", "checks", "passed"}
        for check in tree["checks"]:
            assert {"name", "measured", "expected", "tolerance", "pass"} <= set(check)

    def test_report_layout_is_pinned(self, profiles_250, config_250):
        # The exact key order of both serializations, and the feature values
        # they print, which are the measured/expected values of the checks.
        report = ds.validate(profiles_250, config_250)
        config_keys = ["electron_mass", "wavelength", "planck", "slit_width",
                       "slit_separation", "wall_to_screen", "screen_min", "screen_max",
                       "n_positions", "geometry_mode"]
        behaviors = ["none", "remembers", "forgets"]
        features = {"fringe_spacing": "fringe_spacing",
                    "first_minimum": "first_minimum_positive",
                    "secondary_maximum": "secondary_maximum_positive"}
        check_names = ["normalization_none", "normalization_remembers",
                       "normalization_forgets", "normalization_pairwise", "fringe_spacing",
                       "first_minimum_positive", "first_minimum_negative",
                       "secondary_maximum_positive", "secondary_maximum_negative",
                       "interference_none", "interference_forgets", "interference_remembers"]
        text_keys = ([f"config_{k}" for k in config_keys]
                     + [f"total_probability_{b}" for b in behaviors]
                     + [f"interference_detected_{b}" for b in behaviors]
                     + [f"{f}_{kind}" for f in features for kind in ("measured", "expected")]
                     + [f"check_{name}_{field}" for name in check_names
                        for field in ("measured", "expected", "tolerance", "pass")]
                     + ["passed"])
        lines = report.to_text().rstrip("\n").split("\n")
        text = dict(line.split(" = ", 1) for line in lines)
        assert [line.split(" = ", 1)[0] for line in lines] == text_keys

        tree = report.to_dict()
        assert list(tree) == ["config", "totals", "interference", "measured", "expected",
                              "checks", "passed"]
        assert list(tree["config"]) == config_keys
        assert list(tree["totals"]) == behaviors
        assert list(tree["interference"]) == behaviors
        assert list(tree["measured"]) == list(features)
        assert list(tree["expected"]) == list(features)
        assert [c["name"] for c in tree["checks"]] == check_names
        noted = {"normalization_pairwise", "interference_none", "interference_forgets",
                 "interference_remembers"}
        for c in tree["checks"]:
            fields = ["name", "measured", "expected", "tolerance", "pass"]
            assert list(c) == fields + (["note"] if c["name"] in noted else [])

        checks = {c.name: c for c in report.checks}
        for feature, check in features.items():
            assert tree["measured"][feature] == checks[check].measured
            assert tree["expected"][feature] == checks[check].expected
            for kind in ("measured", "expected"):
                assert text[f"{feature}_{kind}"] == text[f"check_{check}_{kind}"]

    def test_fringe_spacing_identical_for_none_and_forgets(self, profiles_250, config_250):
        # the profiles are bitwise equal, so the derived spacing must be too
        lobe = ds.analytic_predictions(config_250).first_minimum
        s_none = ds.fringe_spacing(ds.find_peaks(profiles_250[QubitBehavior.NONE]), lobe)
        s_forgets = ds.fringe_spacing(ds.find_peaks(profiles_250[QubitBehavior.FORGETS]), lobe)
        assert s_none == s_forgets

    def test_literal_geometry_fails_fringe_check(self):
        # the literal upper-slit placement stretches the separation to d+a,
        # compressing fringes by ~20%; the lambda*L/d gate must catch that
        cfg = ds.ExperimentConfig(n_positions=250,
                                  geometry_mode=ds.GeometryMode.PAPER_LITERAL)
        report = ds.validate(ds.simulate_all(cfg), cfg)
        flags = {c.name: c for c in report.checks}
        assert not flags["fringe_spacing"].passed
        expected_literal = (cfg.wavelength * cfg.wall_to_screen
                            / (cfg.slit_separation + cfg.slit_width))
        assert flags["fringe_spacing"].measured == pytest.approx(expected_literal, rel=0.10)
