import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import doubleslit as ds
from doubleslit.errors import ConfigError, SimulationError

# Frozen oracles, recomputed independently at 50-digit precision before the
# implementation existed (mpmath, from the same double-precision constants).
VELOCITY = 5914011.6047115034            # h / (lambda * m)
TRANSIT_TIME = 1.6908996242133378e-7     # L / v
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

    def test_reduced_planck(self, paper_config):
        assert paper_config.reduced_planck == paper_config.planck / (2 * math.pi)

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
    ])
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
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

    def test_transit_time(self, paper_derived):
        assert paper_derived.transit_time == pytest.approx(TRANSIT_TIME, rel=1e-15)

    def test_phase_scale(self, paper_config, paper_derived):
        # c = m/(2*hbar*L/v) = pi/(lambda*L)
        assert paper_derived.phase_scale == pytest.approx(
            math.pi / (paper_config.wavelength * paper_config.wall_to_screen), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 16, 250, 2000])
    def test_discrete_slit_pmf_normalization(self, n):
        cfg = ds.ExperimentConfig(n_positions=n)
        d = ds.derive(cfg)
        total = n * d.delta_slit * (1.0 / (2.0 * cfg.slit_width))
        assert abs(total - 1.0) < 1e-12


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


class TestKernel:
    def test_zero_displacement_returns_prefactor(self, paper_config, paper_derived):
        a = ds.kernel_prefactor(paper_config, paper_derived)
        k = ds.kernel(0.01, 0.01, paper_config, paper_derived)
        assert complex(k) == a

    def test_prefactor_value(self, paper_config, paper_derived):
        a = ds.kernel_prefactor(paper_config, paper_derived)
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
        k = ds.kernel(x[:, None], grids.slit_positions[None, ::41],
                      paper_config, paper_derived)
        np.testing.assert_allclose(np.abs(k), KERNEL_MODULUS, rtol=1e-12)

    @given(x=st.floats(-0.2, 0.2), xp=st.floats(-1e-8, 1e-8))
    def test_symmetric_in_arguments(self, x, xp):
        cfg = ds.ExperimentConfig()
        der = ds.derive(cfg)
        assert complex(ds.kernel(x, xp, cfg, der)) == complex(ds.kernel(xp, x, cfg, der))

    def test_unit_modulus_phase_factor(self, paper_config, paper_derived):
        a = abs(ds.kernel_prefactor(paper_config, paper_derived))
        k = ds.kernel(0.15, -3.8e-9, paper_config, paper_derived)
        assert abs(abs(complex(k)) / a - 1.0) < 1e-12

    def test_non_finite_raises(self, paper_config):
        broken = ds.DerivedQuantities(velocity=1.0, delta_slit=1.0, delta_screen=1.0,
                                      slit_amplitude=1.0, transit_time=float("nan"),
                                      phase_scale=1.0)
        with pytest.raises(SimulationError):
            ds.kernel(0.1, 0.0, paper_config, broken)
