import cmath
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import doubleslit as ds
from doubleslit.physics import ConfigError, SimulationError
from reference import kernel

# Frozen oracles, recomputed independently at 50-digit precision before the
# implementation existed (mpmath, from the same double-precision constants).
VELOCITY = 5914011.6047115034            # h / (lambda * m)
SLIT_AMPLITUDE_2000 = 2.7386127875258306e-8   # delta_slit / sqrt(2a)
KERNEL_MODULUS = 90166.963466743233      # sqrt(m*v/(h*L)) == 1/sqrt(lambda*L)
KERNEL_PREFACTOR_PART = 63757.671306333832    # |A| / sqrt(2); A = part * (1 - 1j)
LITERAL_UPPER_FIRST = 3.8257499999999998e-9   # (d-a)/2 + a + delta_slit/2


class TestExperimentConfig:
    def test_defaults_are_reference_constants(self, paper_config):
        assert paper_config.electron_mass == 9.109e-31
        assert paper_config.wavelength == 1.23e-10
        assert paper_config.planck == 6.6261e-34
        assert paper_config.slit_width == 0.15e-8
        assert paper_config.slit_separation == 0.615e-8
        assert paper_config.wall_to_screen == 1.0
        assert (paper_config.screen_min, paper_config.screen_max) == (-0.15, 0.15)
        assert paper_config.n_positions == 2000
        assert paper_config.geometry_mode is ds.GeometryMode.CORRECTED

    @pytest.mark.parametrize("overrides", [
        {"electron_mass": 0.0},
        {"electron_mass": -1e-30},
        {"wavelength": 0.0},
        {"planck": -1.0},
        {"slit_width": 0.0},
        {"wall_to_screen": 0.0},
        {"n_positions": 3},
        {"n_positions": 0},
        {"n_positions": -8},
        {"n_positions": 2.0},
        {"screen_min": 0.15, "screen_max": -0.15},
        {"screen_min": 0.1, "screen_max": 0.1},
        {"slit_separation": 0.1e-8},   # slits would overlap
        {"wavelength": float("nan")},
        {"geometry_mode": "corrected"},  # must be the enum
        {"wavelength": True},           # a bool is not a number
        {"screen_min": "a"},
        {"screen_min": None},
        {"screen_max": True},
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ds.ExperimentConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"screen_min": -math.inf},
        {"screen_max": math.nan},
        {"screen_min": math.nan, "screen_max": math.inf},
    ])
    def test_non_finite_screen_bounds_rejected(self, overrides):
        with pytest.raises(ConfigError, match="^screen bounds must be finite$"):
            ds.ExperimentConfig(**overrides)


class TestDerive:
    def test_velocity(self, paper_derived):
        assert paper_derived.velocity == pytest.approx(VELOCITY, rel=1e-15)
        assert abs(paper_derived.velocity - 5.914e6) < 0.001e6

    def test_delta_slit(self, paper_derived):
        assert paper_derived.delta_slit == pytest.approx(1.5e-12, rel=1e-15)

    def test_delta_screen(self, paper_derived):
        assert paper_derived.delta_screen == pytest.approx(1.5e-4, rel=1e-15)

    def test_slit_amplitude(self, paper_derived):
        assert paper_derived.slit_amplitude == pytest.approx(SLIT_AMPLITUDE_2000, rel=1e-14)
        # same number recomputed directly from the quoted widths
        assert paper_derived.slit_amplitude == pytest.approx(
            1.5e-12 / math.sqrt(3.0e-9), rel=1e-12)

    @given(wavelength=st.floats(1e-13, 1e-8), wall_to_screen=st.floats(1e-3, 1e3))
    @example(wavelength=1.23e-10, wall_to_screen=1.0)      # the reference constants
    def test_phase_scale(self, wavelength, wall_to_screen):
        # c = m/(2*hbar*L/v) = pi/(lambda*L) with v = h/(lambda*m), in one rounding
        cfg = ds.ExperimentConfig(wavelength=wavelength, wall_to_screen=wall_to_screen)
        assert ds.derive(cfg).phase_scale == math.pi / (wavelength * wall_to_screen)

    @pytest.mark.parametrize("n", [2, 16, 250, 2000])
    def test_discrete_slit_pmf_normalization(self, n):
        cfg = ds.ExperimentConfig(n_positions=n)
        d = ds.derive(cfg)
        total = n * d.delta_slit * (1.0 / (2.0 * cfg.slit_width))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("overrides, message", [
        # pi/(lambda*L) divides by a subnormal and overflows
        ({"wall_to_screen": 1e-300}, "phase_scale = inf"),
        # h/(lambda*m) underflows to zero without a zero denominator
        ({"electron_mass": 1e300, "planck": 1e-300}, "velocity = 0.0"),
    ], ids=["phase-scale-overflows", "velocity-underflows"])
    def test_rejected_quantity_is_named(self, overrides, message):
        cfg = ds.ExperimentConfig(n_positions=16, **overrides)
        with pytest.raises(SimulationError,
                           match=f"^derived quantity {message} is not finite and positive$"):
            ds.derive(cfg)


class TestGrids:
    def test_screen_grid(self, paper_config, paper_derived):
        grids = ds.build_grids(paper_config, paper_derived)
        x = grids.screen_positions
        assert x.size == paper_config.n_positions
        assert np.all(np.diff(x) > 0)
        assert x[0] == pytest.approx(paper_config.screen_min + paper_derived.delta_screen / 2,
                                     rel=1e-12)
        assert x[-1] == pytest.approx(paper_config.screen_max - paper_derived.delta_screen / 2,
                                      rel=1e-12)
        np.testing.assert_allclose(np.diff(x), paper_derived.delta_screen, rtol=1e-9)

    def test_screen_grid_exactly_antisymmetric(self, paper_config, paper_derived):
        # the mirror-symmetry contract of the intensity profile relies on this
        x = ds.build_grids(paper_config, paper_derived).screen_positions
        assert np.array_equal(x, -x[::-1])

    def test_lower_slit_containment(self, paper_config, paper_derived):
        grids = ds.build_grids(paper_config, paper_derived)
        lower = grids.lower_slit
        d, a = paper_config.slit_separation, paper_config.slit_width
        half_cell = paper_derived.delta_slit / 2
        assert lower[0] == pytest.approx(-(d + a) / 2 + half_cell, rel=1e-12)
        assert lower[-1] == pytest.approx(-(d - a) / 2 - half_cell, rel=1e-12)
        np.testing.assert_allclose(np.diff(lower), paper_derived.delta_slit, rtol=1e-9)

    def test_upper_slit_corrected(self, paper_config, paper_derived):
        grids = ds.build_grids(paper_config, paper_derived)
        upper = grids.upper_slit
        d, a = paper_config.slit_separation, paper_config.slit_width
        half_cell = paper_derived.delta_slit / 2
        assert upper[0] == pytest.approx((d - a) / 2 + half_cell, rel=1e-12)
        assert upper[-1] == pytest.approx((d + a) / 2 - half_cell, rel=1e-12)
        # slits are exact mirror images
        assert np.array_equal(grids.lower_slit, -grids.upper_slit[::-1])

    def test_upper_slit_paper_literal(self):
        cfg = ds.ExperimentConfig(geometry_mode=ds.GeometryMode.PAPER_LITERAL)
        der = ds.derive(cfg)
        upper = ds.build_grids(cfg, der).upper_slit
        d, a = cfg.slit_separation, cfg.slit_width
        # literal indexing puts the upper slit one full width too high:
        # span [(d+a)/2, (d+3a)/2] instead of [(d-a)/2, (d+a)/2]
        assert upper[0] == pytest.approx(LITERAL_UPPER_FIRST, rel=1e-14)
        assert upper[0] == pytest.approx((d + a) / 2 + der.delta_slit / 2, rel=1e-12)
        assert upper[-1] == pytest.approx((d + 3 * a) / 2 - der.delta_slit / 2, rel=1e-12)

    def test_lower_slit_same_in_both_modes(self, paper_config, paper_derived):
        literal_cfg = ds.ExperimentConfig(geometry_mode=ds.GeometryMode.PAPER_LITERAL)
        g_corr = ds.build_grids(paper_config, paper_derived)
        g_lit = ds.build_grids(literal_cfg, ds.derive(literal_cfg))
        assert np.array_equal(g_corr.lower_slit, g_lit.lower_slit)

    def test_degenerate_n2(self):
        cfg = ds.ExperimentConfig(n_positions=2)
        grids = ds.build_grids(cfg, ds.derive(cfg))
        # one position per slit, at the slit centers
        np.testing.assert_allclose(grids.slit_positions,
                                   [-cfg.slit_separation / 2, cfg.slit_separation / 2],
                                   rtol=1e-15)
        np.testing.assert_allclose(grids.screen_positions, [-0.075, 0.075], rtol=1e-15)

    @pytest.mark.parametrize("name, overrides", [
        # valid bounds whose midpoint overflows to inf
        ("screen", {"screen_min": 1e308, "screen_max": 1.7e308}),
        # the literal upper slit's centre plus its half-width overflows
        ("slit", {"slit_separation": 1.79e308, "slit_width": 0.89e308,
                  "geometry_mode": ds.GeometryMode.PAPER_LITERAL}),
    ])
    def test_overflowing_grid_is_named(self, name, overrides):
        cfg = ds.ExperimentConfig(n_positions=16, **overrides)
        derived = ds.derive(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no numpy RuntimeWarning on the way
            with pytest.raises(SimulationError, match=f"^{name} grid is not finite"):
                ds.build_grids(cfg, derived)

    def test_size_over_budget_is_refused(self, monkeypatch):
        cfg = ds.ExperimentConfig(n_positions=16)
        monkeypatch.setattr(ds.physics, "MEMORY_BUDGET", 16 * ds.physics.BYTES_PER_N)
        assert ds.build_grids(cfg, ds.derive(cfg)).screen_positions.size == 16  # at the budget
        monkeypatch.setattr(ds.physics, "MEMORY_BUDGET", 16 * ds.physics.BYTES_PER_N - 1)
        with pytest.raises(ConfigError, match=r"^n_positions=16 needs about 2720 bytes "
                                              r"\(170 per position\), above the budget of "
                                              r"2719 bytes$"):
            ds.build_grids(cfg, ds.derive(cfg))

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="no /proc/meminfo")
    def test_budget_is_the_host_memory(self, monkeypatch):
        # RAM plus swap, so a run the host could hold is never refused.
        assert ds.physics.MEMORY_BUDGET >= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        monkeypatch.setattr(ds.physics, "open", lambda *args: open("/nonexistent"), raising=False)
        assert ds.physics._host_memory() == math.inf     # unreadable: no budget

    # Valid windows one and five ulps wide: their cells are narrower than float64 resolves
    # near 1, so screen positions would repeat.
    @pytest.mark.parametrize("n, screen_max", [(2, 1.0000000000000002), (16, 1.000000000000001)])
    def test_unresolvable_screen_grid_is_named(self, n, screen_max):
        cfg = ds.ExperimentConfig(n_positions=n, screen_min=1.0, screen_max=screen_max)
        derived = ds.derive(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError, match="^screen grid is not strictly increasing"):
                ds.build_grids(cfg, derived)


class TestKernel:
    def test_zero_displacement_returns_prefactor(self, paper_config, paper_derived):
        a = paper_derived.kernel_prefactor
        k = kernel(0.01, 0.01, paper_config, paper_derived)
        assert complex(k) == a

    def test_prefactor_value(self, paper_config, paper_derived):
        a = paper_derived.kernel_prefactor
        assert a.real == pytest.approx(KERNEL_PREFACTOR_PART, rel=1e-13)
        assert a.imag == pytest.approx(-KERNEL_PREFACTOR_PART, rel=1e-13)
        assert abs(a) == pytest.approx(KERNEL_MODULUS, rel=1e-13)
        # two independent routes to the same modulus
        mv_over_hl = math.sqrt(paper_config.electron_mass * paper_derived.velocity
                               / (paper_config.planck * paper_config.wall_to_screen))
        inv_sqrt_lam_l = 1.0 / math.sqrt(paper_config.wavelength * paper_config.wall_to_screen)
        assert abs(a) == pytest.approx(mv_over_hl, rel=1e-13)
        assert abs(a) == pytest.approx(inv_sqrt_lam_l, rel=1e-13)

    def test_modulus_independent_of_positions(self, paper_config, paper_derived):
        grids = ds.build_grids(paper_config, paper_derived)
        x = grids.screen_positions[::97]
        k = kernel(x[:, None], grids.slit_positions[None, ::41],
                   paper_config, paper_derived)
        np.testing.assert_allclose(np.abs(k), KERNEL_MODULUS, rtol=1e-12)

    @given(x=st.floats(-0.2, 0.2), xp=st.floats(-1e-8, 1e-8))
    def test_symmetric_in_arguments(self, x, xp):
        cfg = ds.ExperimentConfig()
        der = ds.derive(cfg)
        assert complex(kernel(x, xp, cfg, der)) == complex(kernel(xp, x, cfg, der))

    def test_unit_modulus_phase_factor(self, paper_config, paper_derived):
        a = abs(paper_derived.kernel_prefactor)
        k = kernel(0.15, -3.8e-9, paper_config, paper_derived)
        assert abs(abs(complex(k)) / a - 1.0) < 1e-12

    @given(mass=st.floats(1e-33, 1e-25), wavelength=st.floats(1e-13, 1e-8),
           planck=st.floats(1e-35, 1e-32), wall_to_screen=st.floats(1e-3, 1e3))
    @example(mass=9.109e-31, wavelength=1.23e-10, planck=6.6261e-34, wall_to_screen=1.0)
    def test_prefactor_bitwise_from_hbar_and_transit_time(self, mass, wavelength, planck,
                                                          wall_to_screen):
        # A = sqrt(m/(2i*pi*hbar*T)) with hbar = h/(2*pi) and T = L/v, in that order of
        # roundings, not the algebraically equal sqrt(1/(i*lambda*L))
        cfg = ds.ExperimentConfig(electron_mass=mass, wavelength=wavelength, planck=planck,
                                  wall_to_screen=wall_to_screen)
        der = ds.derive(cfg)
        hbar, transit_time = planck / (2 * math.pi), wall_to_screen / der.velocity
        expected = cmath.sqrt(mass / (2j * math.pi * hbar * transit_time))
        assert der.kernel_prefactor == expected

    @pytest.mark.parametrize("overrides", [
        # v = 1e300 is finite, but L/v underflows to 0
        {"planck": 1.0, "wavelength": 1.0, "electron_mass": 1e-300, "wall_to_screen": 1e-30},
        # v = 1e-300 is finite, but L/v overflows to inf
        {"planck": 1e-10, "wavelength": 1.0, "electron_mass": 1e290, "wall_to_screen": 1e10},
    ], ids=["transit-underflows", "transit-overflows"])
    def test_prefactor_beyond_float64_raises(self, overrides):
        cfg = ds.ExperimentConfig(n_positions=16, **overrides)
        with pytest.raises(SimulationError, match="^kernel prefactor A = "):
            ds.derive(cfg)

    def test_non_finite_raises(self, paper_config, paper_derived):
        broken = replace(paper_derived, kernel_prefactor=complex("nan"))
        with pytest.raises(SimulationError):
            kernel(0.1, 0.0, paper_config, broken)
