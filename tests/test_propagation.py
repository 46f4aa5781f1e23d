import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doubleslit as ds
from doubleslit import propagation
from doubleslit.physics import SimulationError
from doubleslit.qubit import QubitBehavior
from reference import allowed_weights, long_double_densities, masked_matrix_density

# Frozen oracle: the single lower-slit term at N=2 under the inactive qubit,
# A * slit_amplitude * exp(i*c*(x'^2 - 2*x*x')) with x' = -d/2 (the amplitude
# field omits the common factor exp(i*c*x^2)), evaluated at 50 digits from
# the float config values and grid positions taken as exact.
N2_LOWER_E1 = (
    complex(2.4693239916239021058, +5.9636627741371410357e-7),   # x = -0.075
    complex(5.9636627721693033749e-7, -2.4693239916239021058),   # x = +0.075
)
ORACLE_DIGITS = 40
ORACLE_TOL = 1e-13      # of the peak density
TAYLOR_TOL = 3e-15      # of the peak: the Taylor basis against the long-double reference
EXTENDED_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="long double has fewer than 64 significand bits")


def _field(config, behavior, threads=1):
    derived = ds.derive(config)
    grids = ds.build_grids(config, derived)
    return ds.accumulate(config, derived, grids, behavior, threads=threads)


def block_length(config):
    """(R, taylor): the screen block length of the engine's rule and whether the Taylor basis
    is taken.  R is the largest block whose in-block phase (R - 1)*c*a_h*delta_screen stays
    within THETA = 1 rad, a_h the largest slit point's distance from its slit's centre; the
    Taylor basis is taken when R exceeds TERMS = 20, and otherwise R = isqrt(N)."""
    derived = ds.derive(config)
    n = config.n_positions
    span = derived.phase_scale * (n // 2 - 1) / 2 * derived.delta_slit * derived.delta_screen
    r = n if span * (n - 1) <= 1.0 else 1 + int(1.0 / span)
    return (r, True) if r > 20 else (math.isqrt(n), False)


def oracle_densities(config, samples):
    """(coherent, marked) densities at screen[samples] from a 40-digit evaluation
    of S(x) = sum over each slit of exp(i*c*(x - x')^2), with c built from the
    float config and the float grids taken as exact inputs.  none and forgets
    see the coherent density, remembers the marked one."""
    grids = ds.build_grids(config, ds.derive(config))
    half = config.n_positions // 2
    coherent, marked = [], []
    with mpmath.workdps(ORACLE_DIGITS):
        m, h = mpmath.mpf(config.electron_mass), mpmath.mpf(config.planck)
        transit = mpmath.mpf(config.wall_to_screen) / (h / (mpmath.mpf(config.wavelength) * m))
        hbar = h / (2 * mpmath.pi)
        c = m / (2 * hbar * transit)
        # |A|^2 * slit_amplitude^2 = (m / (2*pi*hbar*L/v)) * 2a / N^2
        scale = m / (2 * mpmath.pi * hbar * transit) * 2 * mpmath.mpf(config.slit_width) \
            / config.n_positions ** 2
        slit = [mpmath.mpf(float(v)) for v in grids.slit_positions]
        for i in samples:
            x = mpmath.mpf(float(grids.screen_positions[i]))
            s_lo = mpmath.fsum(mpmath.expj(c * (x - xp) ** 2) for xp in slit[:half])
            s_up = mpmath.fsum(mpmath.expj(c * (x - xp) ** 2) for xp in slit[half:])
            coherent.append(float(scale * abs(s_lo + s_up) ** 2))
            marked.append(float(scale * (abs(s_lo) ** 2 + abs(s_up) ** 2)))
    return np.array(coherent), np.array(marked)


def assert_matches_oracle(config, samples, tol=ORACLE_TOL, oracle=oracle_densities):
    """Every behavior's density at screen[samples] is within ``tol`` of the peak of the
    (coherent, marked) densities ``oracle(config, samples)``."""
    coherent, marked = oracle(config, samples)
    for behavior, profile in ds.simulate_all(config).items():
        reference = marked if behavior is QubitBehavior.REMEMBERS else coherent
        err = np.abs(profile.density[samples] - reference).max() / profile.density.max()
        assert err <= tol, f"{behavior.value}: {err:.3e} of the peak"


def long_double_oracle(config, samples):
    """``reference.long_double_densities`` at screen[samples]."""
    grids = ds.build_grids(config, ds.derive(config))
    return [d[samples] for d in long_double_densities(config, grids.slit_positions,
                                                      grids.screen_positions)]


def largest_phase(config):
    """P = c*max|x'|*(2*max|x| + max|x'|), the largest phase the engine forms."""
    derived = ds.derive(config)
    grids = ds.build_grids(config, derived)
    x, xp = np.abs(grids.screen_positions).max(), np.abs(grids.slit_positions).max()
    return derived.phase_scale * xp * (2 * x + xp)


def routed_states(config, behavior, field):
    """(N, 2) screen-state amplitudes built from ``reference.is_allowed``, not from the
    package's ``screen_states``:
    column e-1 adds the field's slit sums whose cells reach screen state e."""
    n = config.n_positions
    weights = allowed_weights(behavior, n)
    halves = (weights[:n // 2], weights[n // 2:])
    # The per-cell 0/1 weights are constant over each slit half, so the
    # masked sum of a half is that half's slit sum times its weight row.
    assert all(np.all(w == w[0]) for w in halves)
    return sum(np.outer(total, w[0]) for total, w in zip((field.lower, field.upper), halves))


def state_density(states):
    """Density of (N, 2) screen-state amplitudes: the states' probabilities add."""
    return (states.real ** 2 + states.imag ** 2).sum(axis=1)


class TestAccumulate:
    def test_single_term_oracle_at_n2(self):
        cfg = ds.ExperimentConfig(n_positions=2)
        field = _field(cfg, QubitBehavior.NONE)
        for i, expected in enumerate(N2_LOWER_E1):
            assert field.lower[i] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [16, 250])
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    def test_full_profiles_match_oracle(self, n, geometry):
        cfg = ds.ExperimentConfig(n_positions=n, geometry_mode=geometry)
        assert_matches_oracle(cfg, np.arange(n))

    # Every screen point against the long-double reference, at the bounds of the 40-digit
    # oracle: the reference window at N=16, 250 and 2000 in both geometries, +-1 m at
    # N=2000, where the Taylor basis has 38 blocks, +-1.2 m at N=2000 in the paper geometry
    # (46 blocks, both halves summed), +-2 m at N=2000 (75 blocks), the asymmetric
    # [-0.1, 0.2] m window at N=2050 and +-30 m, the exact basis, at N=16 and 2000.  The
    # eight Taylor-basis configs are also held to TAYLOR_TOL, about twice their worst error,
    # so a tenfold loss of accuracy in the Taylor sums fails here although it would pass the
    # oracle's bound.
    @EXTENDED_LONG_DOUBLE
    @pytest.mark.parametrize("kwargs", [
        {"n_positions": 250}, {"n_positions": 2000},
        {"n_positions": 250, "geometry_mode": ds.GeometryMode.PAPER_LITERAL},
        {"n_positions": 2000, "geometry_mode": ds.GeometryMode.PAPER_LITERAL},
        {"n_positions": 2000, "screen_min": -1, "screen_max": 1},
        {"n_positions": 2000, "screen_min": -1.2, "screen_max": 1.2,
         "geometry_mode": ds.GeometryMode.PAPER_LITERAL},
        {"n_positions": 2000, "screen_min": -2, "screen_max": 2},
        {"n_positions": 16},
        {"n_positions": 16, "geometry_mode": ds.GeometryMode.PAPER_LITERAL},
        {"n_positions": 2050, "screen_min": -0.1, "screen_max": 0.2},
        {"n_positions": 2000, "screen_min": -30, "screen_max": 30},
        {"n_positions": 16, "screen_min": -30, "screen_max": 30},
    ])
    def test_whole_profile_matches_long_double_reference(self, kwargs):
        cfg = ds.ExperimentConfig(**kwargs)
        tol = TAYLOR_TOL if block_length(cfg)[1] else max(ORACLE_TOL,
                                                          largest_phase(cfg) * 2.0 ** -53)
        assert_matches_oracle(cfg, np.arange(cfg.n_positions), tol, long_double_oracle)

    @EXTENDED_LONG_DOUBLE
    @pytest.mark.parametrize("kwargs, tol", [
        ({"n_positions": 250}, 1e-17),
        ({"n_positions": 2000, "geometry_mode": ds.GeometryMode.PAPER_LITERAL}, 1e-17),
        ({"n_positions": 2000, "screen_min": -1, "screen_max": 1}, 1e-17),
        # None: P*2^-64, the reference's own rounding of its largest phase P, which is above
        # 1e-17 here (P = 5858 rad, 3.2e-16); the reference measured 1.7e-16 of the peak.
        ({"n_positions": 2000, "screen_min": -30, "screen_max": 30}, None),
    ], ids=["n250", "paper-2000", "1m-2000", "30m-2000"])
    def test_long_double_reference_matches_the_40_digit_oracle(self, kwargs, tol):
        cfg = ds.ExperimentConfig(**kwargs)
        samples = np.linspace(0, cfg.n_positions - 1, 12).astype(int)
        tol = tol or largest_phase(cfg) * 2.0 ** -64
        for ours, oracle in zip(long_double_oracle(cfg, samples), oracle_densities(cfg, samples)):
            assert np.abs(ours.astype(float) - oracle).max() <= tol * oracle.max()

    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    def test_sampled_points_match_oracle_at_n2000(self, geometry):
        cfg = ds.ExperimentConfig(n_positions=2000, geometry_mode=geometry)
        assert_matches_oracle(cfg, np.linspace(0, 1999, 12).astype(int))

    # At N=1026 and 2050 the last chunk of each slit half is one point.
    @pytest.mark.parametrize("n", [1026, 2050, 8000])
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    def test_sampled_points_match_oracle_over_many_chunks(self, n, geometry):
        cfg = ds.ExperimentConfig(n_positions=n, geometry_mode=geometry)
        assert_matches_oracle(cfg, np.linspace(0, n - 1, 12).astype(int))

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_field_carries_the_slit_sums(self, config_250, behavior):
        field = _field(config_250, behavior)
        # the slit sums do not depend on the behavior: every label carries the same bytes
        none = _field(config_250, QubitBehavior.NONE)
        assert field.behavior is behavior
        assert field.lower.shape == field.upper.shape == (config_250.n_positions,)
        assert field.lower.tobytes() == none.lower.tobytes()
        assert field.upper.tobytes() == none.upper.tobytes()

    def test_inactive_qubit_leaves_second_state_empty(self, config_250):
        field = _field(config_250, QubitBehavior.NONE)
        states = routed_states(config_250, QubitBehavior.NONE, field)
        assert np.all(states[:, 1] == 0)
        assert np.all(states[:, 0] == field.lower + field.upper)
        assert np.all(field.lower != 0)
        density = ds.intensity(field).density
        assert density.tobytes() == state_density(states).tobytes()
        total = field.lower + field.upper
        assert density.tobytes() == (total.real ** 2 + total.imag ** 2).tobytes()

    def test_remembers_separates_slits_by_state(self, config_250):
        field = _field(config_250, QubitBehavior.REMEMBERS)
        states = routed_states(config_250, QubitBehavior.REMEMBERS, field)
        assert np.all(states[:, 0] == field.upper)   # upper slit only feeds e=1
        assert np.all(states[:, 1] == field.lower)   # lower slit only feeds e=2
        assert np.all(field.upper != 0)
        assert np.all(field.lower != 0)
        assert ds.intensity(field).density.tobytes() == state_density(states).tobytes()

    def test_forgets_folds_both_slits_into_default_state(self, config_250):
        field = _field(config_250, QubitBehavior.FORGETS)
        states = routed_states(config_250, QubitBehavior.FORGETS, field)
        assert np.all(states[:, 1] == 0)
        assert np.all(states[:, 0] == field.lower + field.upper)
        assert np.all(field.lower != 0)
        assert np.all(field.upper != 0)
        assert ds.intensity(field).density.tobytes() == state_density(states).tobytes()

    def test_none_equals_forgets_bitwise(self):
        cfg = ds.ExperimentConfig(n_positions=16)
        f_none = _field(cfg, QubitBehavior.NONE)
        f_forgets = _field(cfg, QubitBehavior.FORGETS)
        assert f_none.lower.tobytes() == f_forgets.lower.tobytes()
        assert f_none.upper.tobytes() == f_forgets.upper.tobytes()

    @pytest.mark.parametrize("threads", [2, 4, 7])
    def test_thread_count_does_not_change_bits(self, config_250, threads):
        serial = _field(config_250, QubitBehavior.NONE, threads=1)
        threaded = _field(config_250, QubitBehavior.NONE, threads=threads)
        assert serial.lower.tobytes() == threaded.lower.tobytes()
        assert serial.upper.tobytes() == threaded.upper.tobytes()

    def test_more_threads_than_rows(self):
        cfg = ds.ExperimentConfig(n_positions=4)
        serial = _field(cfg, QubitBehavior.REMEMBERS, threads=1)
        threaded = _field(cfg, QubitBehavior.REMEMBERS, threads=16)
        assert serial.lower.tobytes() == threaded.lower.tobytes()

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("n", [4, 16, 250])
    @pytest.mark.parametrize("window", [(-0.15, 0.15), (-0.1, 0.2)])
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_routed_sums_match_masked_rows_exactly(self, behavior, geometry, window, n, threads):
        cfg = ds.ExperimentConfig(n_positions=n, geometry_mode=geometry,
                                  screen_min=window[0], screen_max=window[1])
        field = _field(cfg, behavior, threads=threads)
        none = _field(cfg, QubitBehavior.NONE)
        assert field.lower.tobytes() == none.lower.tobytes()
        assert field.upper.tobytes() == none.upper.tobytes()
        # intensity's routing gives the bytes of the states the per-cell reference
        # is_allowed weights build from the same two sums.
        density = ds.intensity(field).density
        assert density.tobytes() == state_density(routed_states(cfg, behavior, field)).tobytes()
        # The density of the masked composite matrix itself, at every point, within the
        # oracle bounds.
        grids = ds.build_grids(cfg, ds.derive(cfg))
        masked = masked_matrix_density(cfg, behavior, grids.slit_positions,
                                       grids.screen_positions)
        tol = max(ORACLE_TOL, largest_phase(cfg) * 2.0 ** -53)
        err = np.abs(density - masked).max() / masked.max()
        assert err <= tol, f"{err:.3e} of the peak"

    @pytest.mark.parametrize("kwargs, halves", [
        ({}, 1),                                                # mirror-image grids
        ({"geometry_mode": ds.GeometryMode.PAPER_LITERAL}, 2),
        ({"screen_min": -0.1, "screen_max": 0.2}, 2),
        ({"n_positions": 2000}, 1),                             # the Taylor basis
        ({"n_positions": 2000, "geometry_mode": ds.GeometryMode.PAPER_LITERAL}, 2),
        ({"n_positions": 2000, "screen_min": -30, "screen_max": 30}, 1),
    ])
    def test_one_engine_pass_for_all_behaviors(self, monkeypatch, kwargs, halves):
        calls = []
        build = propagation._build_slit_sum

        def counting_build(*args):
            slit_sum = build(*args)
            return lambda h: calls.append(1) or slit_sum(h)

        monkeypatch.setattr(propagation, "_build_slit_sum", counting_build)
        cfg = ds.ExperimentConfig(**{"n_positions": 16, **kwargs})
        ds.simulate_all(cfg, behaviors=tuple(QubitBehavior))
        # one pass: one matrix product per slit half, or for the upper half alone when
        # the lower slit and the screen are mirror images of the upper slit and the screen
        assert len(calls) == halves

    @pytest.mark.parametrize("n", [16, 1026, 2050, 8000])
    @pytest.mark.parametrize("window", [0.15, 0.05])
    def test_mirror_grids_give_mirror_sums_bitwise(self, n, window):
        cfg = ds.ExperimentConfig(n_positions=n, screen_min=-window, screen_max=window)
        field = _field(cfg, QubitBehavior.NONE)
        assert field.upper.tobytes() == field.lower[::-1].tobytes()
        for b in QubitBehavior:
            density = ds.intensity(replace(field, behavior=b)).density
            assert density.tobytes() == density[::-1].tobytes()

    @pytest.mark.parametrize("n", [250, 2050])
    def test_asymmetric_window_matches_oracle(self, n):
        # [-0.1, 0.2] is not its own mirror image, so both slit halves are summed
        cfg = ds.ExperimentConfig(n_positions=n, screen_min=-0.1, screen_max=0.2)
        assert_matches_oracle(cfg, np.linspace(0, n - 1, 12).astype(int))

    @pytest.mark.parametrize("first", list(QubitBehavior))
    def test_rerouted_behaviors_match_their_own_pass(self, config_250, first):
        # simulate_all runs one accumulate and relabels its field; whichever
        # behavior comes first, every profile equals that behavior's own pass.
        order = (first,) + tuple(b for b in QubitBehavior if b is not first)
        profiles = ds.simulate_all(config_250, behaviors=order)
        assert tuple(profiles) == order
        for b in QubitBehavior:
            own = ds.intensity(_field(config_250, b))
            assert profiles[b].density.tobytes() == own.density.tobytes()

    def test_no_behaviors_no_pass(self, config_250, monkeypatch):
        monkeypatch.setattr(propagation, "_build_slit_sum", None)
        assert ds.simulate_all(config_250, behaviors=()) == {}

    # bench/ times the engine by wrapping the name propagation.accumulate, so simulate_all
    # must reach the engine through it, once whatever the behaviors, and not without them.
    @pytest.mark.parametrize("behaviors", [
        (), (QubitBehavior.REMEMBERS,), (QubitBehavior.FORGETS, QubitBehavior.NONE),
        tuple(QubitBehavior)])
    def test_one_accumulate_through_the_module_name(self, behaviors, monkeypatch):
        calls = []
        engine = propagation.accumulate
        monkeypatch.setattr(propagation, "accumulate",
                            lambda *args, **kwargs: calls.append(1) or engine(*args, **kwargs))
        cfg = ds.ExperimentConfig(n_positions=16)
        assert tuple(ds.simulate_all(cfg, behaviors=behaviors)) == behaviors
        assert len(calls) == (1 if behaviors else 0)

    def test_huge_thread_count_starts_no_thread(self, monkeypatch):
        cfg = ds.ExperimentConfig(n_positions=16)
        serial = {b: _field(cfg, b, threads=1) for b in QubitBehavior}
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        fields = {b: _field(cfg, b, threads=10**6) for b in QubitBehavior}
        assert started == []
        for b in QubitBehavior:
            assert fields[b].lower.tobytes() == serial[b].lower.tobytes()
            assert fields[b].upper.tobytes() == serial[b].upper.tobytes()

    def test_grid_size_mismatch_rejected(self, paper_config, config_250):
        derived = ds.derive(paper_config)
        grids = ds.build_grids(paper_config, derived)
        with pytest.raises(ValueError):
            ds.accumulate(config_250, ds.derive(config_250), grids, QubitBehavior.NONE)

    @pytest.mark.parametrize("index", [0, 7, 15])
    def test_non_uniform_screen_grid_rejected(self, index):
        cfg = ds.ExperimentConfig(n_positions=16)
        derived = ds.derive(cfg)
        grids = ds.build_grids(cfg, derived)
        screen = grids.screen_positions.copy()
        screen[index] += 1e-6 * derived.delta_screen
        bent = ds.Grids(screen_positions=screen, slit_positions=grids.slit_positions)
        with pytest.raises(ValueError, match="not those of config"):
            ds.accumulate(cfg, derived, bent, QubitBehavior.NONE)

    @pytest.mark.parametrize("n, index", [(16, 0), (16, 7), (16, 8), (16, 15),
                                          (2050, 1023), (2050, 1024), (2050, 1025)])
    def test_non_uniform_slit_grid_rejected(self, n, index):
        cfg = ds.ExperimentConfig(n_positions=n)
        derived = ds.derive(cfg)
        grids = ds.build_grids(cfg, derived)
        slit = grids.slit_positions.copy()
        slit[index] += 1e-6 * derived.delta_slit
        bent = ds.Grids(screen_positions=grids.screen_positions, slit_positions=slit)
        with pytest.raises(ValueError, match="not those of config"):
            ds.accumulate(cfg, derived, bent, QubitBehavior.NONE)

    def test_foreign_derived_rejected(self, config_250):
        # another wavelength's derived quantities would give a profile of neither config
        grids = ds.build_grids(config_250, ds.derive(config_250))
        foreign = ds.derive(replace(config_250, wavelength=2e-10))
        with pytest.raises(ValueError, match="not those of config"):
            ds.accumulate(config_250, foreign, grids, QubitBehavior.NONE)

    def test_foreign_kernel_prefactor_rejected(self, config_250):
        # A is part of derive(config): a prefactor of the other branch is not this config's
        derived = ds.derive(config_250)
        grids = ds.build_grids(config_250, derived)
        flipped = replace(derived, kernel_prefactor=-derived.kernel_prefactor)
        with pytest.raises(ValueError, match="not those of config"):
            ds.accumulate(config_250, flipped, grids, QubitBehavior.NONE)

    def test_foreign_grids_rejected(self, config_250):
        # same N and spacings, another window and slit separation
        derived = ds.derive(config_250)
        other = replace(config_250, screen_min=-0.1, screen_max=0.2, slit_separation=5e-9)
        with pytest.raises(ValueError, match="not those of config"):
            ds.accumulate(config_250, derived, ds.build_grids(other, derived), QubitBehavior.NONE)

    @pytest.mark.parametrize("bound", [1e307, 1e300, 1e8])
    def test_phase_beyond_float64_rejected(self, bound):
        # 1e307: the phase overflows; 1e300 and 1e8: finite, but float64 rounds it by more
        # than 1e-6 rad (the limit is about 9.0e9 rad; the reference config reaches 29 rad).
        cfg = ds.ExperimentConfig(n_positions=16, screen_min=-bound, screen_max=bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError,
                               match=r"largest engine phase (inf|\d\.\d{3}e\+\d+) rad"):
                ds.simulate_all(cfg)

    def test_phase_just_inside_the_limit_is_served(self):
        # P = 2c*Z*max|x'| + c*max x'^2 for the screen [-Z, Z]; choose P = 8e9 rad.
        cfg = ds.ExperimentConfig(n_positions=16)
        derived = ds.derive(cfg)
        xp = np.abs(ds.build_grids(cfg, derived).slit_positions).max()
        c = derived.phase_scale
        # The outermost screen point is at 15/16 Z.
        bound = (8e9 - c * xp * xp) / (2 * c * xp) * 16 / 15
        cfg = ds.ExperimentConfig(n_positions=16, screen_min=-bound, screen_max=bound)
        assert all(np.all(np.isfinite(p.density)) for p in ds.simulate_all(cfg).values())

    @pytest.mark.parametrize("kwargs, halves, n_pinned, pinned", [
        ({}, 1, 8000, 9_399),
        ({"geometry_mode": ds.GeometryMode.PAPER_LITERAL}, 2, 8000, 18_798),
        ({"screen_min": -1, "screen_max": 1}, 1, 2000, 2_091),        # B = 38
        ({"screen_min": -0.02, "screen_max": 0.02}, 1, 2000, 3_001),  # B = 1: no step row
        ({"screen_min": -30, "screen_max": 30}, 1, 2000, 47_350),     # the exact basis
    ])
    def test_exp_count_per_pass(self, monkeypatch, kwargs, halves, n_pinned, pinned):
        # Complex exps per pass, h the slit halves summed, R the block length and
        # B = ceil(N/R) (block_length gives R and the basis): h*(N + B + R) on the Taylor
        # basis, N/2 for the middle block's row and N/2 for the step row, which B = 1 skips;
        # h*(N/2 + B + R + (B + R)*ceil(N/1024)) + (B + R)*min(512, N/2) on the exact one.
        counted = []
        exp = np.exp

        def counting_exp(z, *args, **kwargs):
            assert np.iscomplexobj(z)
            counted.append(np.size(z))
            return exp(z, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        for n in (2, 16, 1026, 2000, 2050, 8000):
            cfg = ds.ExperimentConfig(n_positions=n, **kwargs)
            counted.clear()
            ds.simulate_all(cfg)
            r, taylor = block_length(cfg)
            b = -(-n // r)
            if taylor:
                assert sum(counted) == halves * ((n if b > 1 else n // 2) + b + r)
            else:
                assert sum(counted) == (halves * (n // 2 + b + r + (b + r) * -(-n // 1024))
                                        + (b + r) * min(512, n // 2))
            if n == n_pinned:
                assert sum(counted) == pinned

    @pytest.mark.parametrize("kwargs, taylor", [
        ({"n_positions": 2000}, True),
        ({"n_positions": 8000}, True),
        ({"n_positions": 2000, "geometry_mode": ds.GeometryMode.PAPER_LITERAL}, True),
        ({"n_positions": 8000, "geometry_mode": ds.GeometryMode.PAPER_LITERAL}, True),
        ({"n_positions": 2050, "screen_min": -0.1, "screen_max": 0.2}, True),
        ({"n_positions": 250, "screen_min": -0.1, "screen_max": 0.2}, True),
        ({"n_positions": 2000, "screen_min": -30, "screen_max": 30}, False),
        ({"n_positions": 2000, "screen_min": -1000, "screen_max": 1000}, False),
        ({"n_positions": 16}, False),
    ])
    def test_step_basis_choice(self, monkeypatch, kwargs, taylor):
        # The Taylor basis builds its monomials with _powers; the exact one never calls it.
        calls = []
        powers = propagation._powers

        def counting_powers(y):
            calls.append(y.size)
            return powers(y)

        monkeypatch.setattr(propagation, "_powers", counting_powers)
        cfg = ds.ExperimentConfig(**kwargs)
        _field(cfg, QubitBehavior.NONE)
        assert block_length(cfg) == (calls[0] if taylor else math.isqrt(cfg.n_positions), taylor)
        assert bool(calls) is taylor

    @pytest.mark.parametrize("n", [16, 250, 2000])
    def test_exact_basis_matches_oracle_on_a_wide_window(self, n):
        # On +-30 m the Taylor blocks would hold 2 points, so the exact step table is used.
        # Its largest phase P, about 5.4e3-5.9e3 rad, is itself rounded by up to P*2^-53 rad:
        # at N=16 and 250 that sets the error (4.0e-13 and 2.2e-14 of the peak, against
        # P*2^-53 = 6.0e-13 and 6.5e-13), at N=2000 it is 1.9e-17.
        cfg = ds.ExperimentConfig(n_positions=n, screen_min=-30, screen_max=30)
        assert not block_length(cfg)[1]
        tol = ORACLE_TOL if n == 2000 else largest_phase(cfg) * 2.0 ** -53
        samples = np.arange(n) if n <= 250 else np.linspace(0, n - 1, 12).astype(int)
        assert_matches_oracle(cfg, samples, tol)

    @pytest.mark.parametrize("window", [1, 2.5])
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    def test_deepest_step_recursions_match_oracle(self, window, geometry):
        # On +-1 m and +-2.5 m at N=2000 the Taylor basis has 38 and 96 blocks, so the rows
        # farthest from the middle one are 19 and 48 products by the step row away from it.
        cfg = ds.ExperimentConfig(n_positions=2000, screen_min=-window, screen_max=window,
                                  geometry_mode=geometry)
        r, taylor = block_length(cfg)
        assert taylor and -(-2000 // r) == {1: 38, 2.5: 96}[window]
        tol = max(ORACLE_TOL, largest_phase(cfg) * 2.0 ** -53)
        assert_matches_oracle(cfg, np.linspace(0, 1999, 12).astype(int), tol)

    @pytest.mark.parametrize("kwargs, n, whole_pipeline, bytes_per_n", [
        ({}, 64_000, True, 100),                                    # the Taylor basis
        ({"screen_min": -30, "screen_max": 30}, 2000, False, 718),  # the exact basis
        ({"geometry_mode": ds.GeometryMode.PAPER_LITERAL}, 64_000, True,
         ds.physics.BYTES_PER_N),                                   # both halves summed
    ])
    def test_allocation_per_screen_point(self, kwargs, n, whole_pipeline, bytes_per_n):
        # tracemalloc peak per screen point of simulate_all at N=64000 and of accumulate alone
        # on +-30 m: at most 100 bytes on the reference window (its own peak of 97, rounded up
        # to the next 10), BYTES_PER_N in the paper geometry (its peak of 112, the largest of
        # the Taylor basis, rounded up to the next 10) and what the factored-phase engine
        # before the Taylor basis measured on +-30 m (718 bytes); an engine that forms an
        # (N, N/2) or an (N/2, TERMS) table fails.  build_grids refuses an N whose
        # BYTES_PER_N * N exceeds its budget.
        cfg = ds.ExperimentConfig(n_positions=n, **kwargs)
        derived = ds.derive(cfg)
        grids = ds.build_grids(cfg, derived)
        tracemalloc.start()
        try:
            if whole_pipeline:
                ds.simulate_all(cfg)
            else:
                ds.accumulate(cfg, derived, grids, QubitBehavior.NONE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_n * n, f"{peak / n:.0f} bytes per screen point"

    def test_non_finite_amplitude_names_the_cell(self, config_250):
        field = _field(config_250, QubitBehavior.REMEMBERS)     # lower -> e=2, upper -> e=1
        lower, upper = field.lower.copy(), field.upper.copy()
        lower[4] = upper[0] = complex(np.nan, 0)
        with pytest.raises(SimulationError, match=r"screen index 1, qubit state 1"):
            ds.intensity(replace(field, lower=lower, upper=upper))
        with pytest.raises(SimulationError, match=r"screen index 5, qubit state 2"):
            ds.intensity(replace(field, lower=lower))

    def test_overflowing_density_names_the_cell(self, config_250):
        # Finite amplitudes whose squares overflow: a hand-built field, since accumulate's
        # phase limit keeps |S|^2 far below the float64 range.  numpy must not warn either.
        n = config_250.n_positions
        zeros = np.zeros(n, complex)
        field = ds.AmplitudeField(lower=zeros, upper=zeros, behavior=QubitBehavior.REMEMBERS,
                                  positions=np.linspace(-0.15, 0.15, n), config=config_250)
        lower, upper = zeros.copy(), zeros.copy()
        lower[2] = upper[6] = 1e200
        with pytest.raises(SimulationError, match=r"^non-finite density at screen index 3, "
                                                  r"qubit state 2$"):
            ds.intensity(replace(field, lower=lower, upper=upper))
        with pytest.raises(SimulationError, match=r"density at screen index 7, qubit state 1$"):
            ds.intensity(replace(field, upper=upper))
        # none routes the lower half to state 1
        with pytest.raises(SimulationError, match=r"density at screen index 3, qubit state 1$"):
            ds.intensity(replace(field, lower=lower, behavior=QubitBehavior.NONE))
        # each state's square is finite (1e308), only their sum overflows
        both = zeros.copy()
        both[4] = 1e154
        with pytest.raises(SimulationError, match=r"density at screen index 5, qubit state 1$"):
            ds.intensity(replace(field, lower=both, upper=both))
        # an amplitude that is itself not finite keeps its own wording
        lower[2] = np.inf
        with pytest.raises(SimulationError, match=r"^non-finite amplitude at screen index 3, "
                                                  r"qubit state 2$"):
            ds.intensity(replace(field, lower=lower, upper=upper))


class TestIntensity:
    def test_zero_field_gives_zero_profile(self, config_250):
        n = config_250.n_positions
        field = ds.AmplitudeField(
            lower=np.zeros(n, complex), upper=np.zeros(n, complex),
            behavior=QubitBehavior.NONE,
            positions=np.linspace(-0.15, 0.15, n), config=config_250)
        profile = ds.intensity(field)
        assert np.all(profile.density == 0)

    def test_density_nonnegative_and_finite(self, profiles_250):
        for profile in profiles_250.values():
            assert np.all(profile.density >= 0)
            assert np.all(np.isfinite(profile.density))

    def test_remembers_is_incoherent_slit_sum(self, config_250):
        field = _field(config_250, QubitBehavior.REMEMBERS)
        profile = ds.intensity(field)
        upper_sq = field.upper.real ** 2 + field.upper.imag ** 2
        lower_sq = field.lower.real ** 2 + field.lower.imag ** 2
        assert profile.density.tobytes() == (upper_sq + lower_sq).tobytes()

    def test_non_finite_field_rejected(self, config_250):
        n = config_250.n_positions
        lower = np.zeros(n, complex)
        lower[3] = complex(np.nan, 0)
        field = ds.AmplitudeField(lower=lower, upper=np.zeros(n, complex),
                                  behavior=QubitBehavior.NONE,
                                  positions=np.linspace(-0.15, 0.15, n), config=config_250)
        with pytest.raises(SimulationError):
            ds.intensity(field)


class TestProfileProperties:
    def test_total_probability_in_unit_interval(self, profiles_250):
        for profile in profiles_250.values():
            total = ds.total_probability(profile)
            assert 0 < total <= 1

    def test_normalization_near_095(self, profiles_250):
        for profile in profiles_250.values():
            assert ds.total_probability(profile) == pytest.approx(0.95, abs=0.02)

    def test_incoherence_bound(self, profiles_250):
        # |u+l|^2 <= 2(|u|^2 + |l|^2) pointwise
        p_none = profiles_250[QubitBehavior.NONE].density
        p_rem = profiles_250[QubitBehavior.REMEMBERS].density
        assert np.all(p_none <= 2 * p_rem * (1 + 1e-12))

    def test_mirror_symmetry_corrected(self, profiles_250):
        density = profiles_250[QubitBehavior.NONE].density
        np.testing.assert_allclose(density, density[::-1], rtol=1e-9)

    def test_convergence_under_refinement(self):
        # sup-norm distance between successive refinements, sampled on the
        # coarsest grid, must shrink as N doubles
        none = QubitBehavior.NONE
        profiles = {
            n: ds.simulate_all(ds.ExperimentConfig(n_positions=n), behaviors=(none,))[none]
            for n in (250, 500, 1000, 2000)
        }
        ref_x = profiles[250].positions
        diffs = []
        for n in (250, 500, 1000):
            coarse = np.interp(ref_x, profiles[n].positions, profiles[n].density)
            fine = np.interp(ref_x, profiles[2 * n].positions, profiles[2 * n].density)
            diffs.append(np.max(np.abs(coarse - fine)))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_one_behavior_matches_all(self, config_250, profiles_250):
        remembers = QubitBehavior.REMEMBERS
        profile = ds.simulate_all(config_250, behaviors=(remembers,))[remembers]
        assert profile.density.tobytes() == profiles_250[remembers].density.tobytes()


def continuum_densities(config, positions):
    """(coherent, marked) densities of the continuum limit N -> infinity at ``positions``:
    each slit's sum becomes A/sqrt(2a) * integral of exp(i*c*(x - x')^2) dx' over the slit,
    a difference of Fresnel integrals, evaluated at 30 digits from the float config."""
    with mpmath.workdps(30):
        m, h = mpmath.mpf(config.electron_mass), mpmath.mpf(config.planck)
        transit = mpmath.mpf(config.wall_to_screen) / (h / (mpmath.mpf(config.wavelength) * m))
        hbar = h / (2 * mpmath.pi)
        c = m / (2 * hbar * transit)
        a, d = mpmath.mpf(config.slit_width), mpmath.mpf(config.slit_separation)
        upper = d / 2 + (a if config.geometry_mode is ds.GeometryMode.PAPER_LITERAL else 0)
        scale = m / (2 * mpmath.pi * hbar * transit) / (2 * a)    # |A|^2 / (2a)
        k = mpmath.sqrt(2 * c / mpmath.pi)      # u = k*(x' - x) makes the phase pi*u^2/2

        def slit_integral(center, x):
            u1, u2 = k * (center - a / 2 - x), k * (center + a / 2 - x)
            return (mpmath.fresnelc(u2) - mpmath.fresnelc(u1)
                    + 1j * (mpmath.fresnels(u2) - mpmath.fresnels(u1))) / k

        coherent, marked = [], []
        for x in positions:
            x = mpmath.mpf(float(x))
            lower, up = slit_integral(-d / 2, x), slit_integral(upper, x)
            coherent.append(float(scale * abs(lower + up) ** 2))
            marked.append(float(scale * (abs(lower) ** 2 + abs(up) ** 2)))
    return np.array(coherent), np.array(marked)


class TestContinuumLimit:
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    def test_coarse_graining_error_falls_as_one_over_n_squared(self, geometry):
        # The slit sums are midpoint rules of the continuum integrals, so the profile's
        # distance from the continuum, max |I - I_inf| / max I_inf over 9 screen points of
        # none and remembers, is C/N^2 with C = 1.31 at the reference geometry (2.1e-5 at
        # N=250, 3.3e-7 at N=2000).  Margins: order 2 +- 0.02, C 1.31 +- 2 %.
        ns = (250, 1000, 2000, 8000)
        errors = []
        for n in ns:
            cfg = ds.ExperimentConfig(n_positions=n, geometry_mode=geometry)
            none, remembers = ds.simulate_all(
                cfg, behaviors=(QubitBehavior.NONE, QubitBehavior.REMEMBERS)).values()
            samples = np.linspace(0, n - 1, 9).astype(int)
            coherent, marked = continuum_densities(cfg, none.positions[samples])
            errors.append(max(np.abs(none.density[samples] - coherent).max() / coherent.max(),
                              np.abs(remembers.density[samples] - marked).max() / marked.max()))
        errors, ns = np.array(errors), np.array(ns)
        order = np.log(errors[:-1] / errors[1:]) / np.log(ns[1:] / ns[:-1])
        assert np.all(np.abs(order - 2.0) <= 0.02), order
        assert np.all(np.abs(errors * ns ** 2 - 1.31) <= 0.02 * 1.31), errors * ns ** 2


@st.composite
def sweep_configs(draw):
    """Valid configs over the ranges of the benchmark's sweep of small configs."""
    width = draw(st.floats(0.5e-9, 3e-9))
    window = draw(st.floats(0.05, 0.3))
    return ds.ExperimentConfig(
        n_positions=2 * draw(st.integers(1, 128)),
        slit_width=width,
        slit_separation=width * draw(st.floats(1.5, 6.0)),
        screen_min=-window, screen_max=window,
        geometry_mode=draw(st.sampled_from(list(ds.GeometryMode))))


class TestRandomConfigs:
    @settings(max_examples=60, deadline=None)
    @given(sweep_configs())
    def test_profile_properties(self, config):
        profiles = ds.simulate_all(config)
        for profile in profiles.values():
            assert np.all(np.isfinite(profile.density))
            assert np.all(profile.density >= 0)
        none = profiles[QubitBehavior.NONE].density
        assert none.tobytes() == profiles[QubitBehavior.FORGETS].density.tobytes()
        # remembers - none = -2 Re(S_l conj(S_u)) <= 2 |S_l| |S_u|, up to rounding
        field = _field(config, QubitBehavior.NONE)
        bound = none + 2 * np.abs(field.lower) * np.abs(field.upper)
        slack = 8 * np.finfo(float).eps * (np.abs(field.lower) + np.abs(field.upper)) ** 2
        assert np.all(profiles[QubitBehavior.REMEMBERS].density <= bound + slack)


def assert_same_densities(ours, theirs, tol):
    """Each behavior's densities in ``ours`` and ``theirs`` agree within ``tol`` of the peak."""
    for b, profile in ours.items():
        err = np.abs(profile.density - theirs[b].density).max() / profile.density.max()
        assert err <= tol, f"{b.value}: {err:.3e} of the peak"


class TestMetamorphicOracles:
    """Relations between two runs that hold at every N, held to the oracle tests' bound
    max(1e-13, P*2^-53) of the peak.  They extend the long-double reference, which these
    tests evaluate at N up to 2050, to N = 8000 and 64000; they do not replace it, since
    a fault that both runs share would cancel."""

    BEHAVIORS = (QubitBehavior.NONE, QubitBehavior.REMEMBERS)     # forgets is none, bit for bit

    @pytest.mark.parametrize("n, window", [
        (250, {}), (2000, {}), (8000, {}), (64000, {}),
        (2000, {"screen_min": -1, "screen_max": 1}),
        (2000, {"screen_min": -30, "screen_max": 30}),
    ])
    def test_paper_geometry_is_the_corrected_one_translated(self, n, window):
        # The paper geometry's slits, centred at -d/2 and d/2 + a, are those of the corrected
        # geometry at separation d + a moved up by a/2, so its density on [Zmin, Zmax] is
        # that one's on [Zmin - a/2, Zmax - a/2], point for point.
        paper = ds.ExperimentConfig(n_positions=n, geometry_mode=ds.GeometryMode.PAPER_LITERAL,
                                    **window)
        a = paper.slit_width
        moved = replace(paper, geometry_mode=ds.GeometryMode.CORRECTED,
                        slit_separation=paper.slit_separation + a,
                        screen_min=paper.screen_min - a / 2, screen_max=paper.screen_max - a / 2)
        tol = max(ORACLE_TOL, largest_phase(paper) * 2.0 ** -53, largest_phase(moved) * 2.0 ** -53)
        assert_same_densities(ds.simulate_all(paper, behaviors=self.BEHAVIORS),
                              ds.simulate_all(moved, behaviors=self.BEHAVIORS), tol)

    # At N=250 the +-1 m window already takes the exact basis, so it has no Taylor run.
    @pytest.mark.parametrize("n, kwargs", [
        (n, kwargs) for n in (250, 2000, 8000)
        for kwargs in ({}, {"geometry_mode": ds.GeometryMode.PAPER_LITERAL},
                       {"screen_min": -1, "screen_max": 1},
                       {"screen_min": -0.1, "screen_max": 0.2})
        if (n, kwargs.get("screen_max")) != (250, 1)
    ])
    def test_taylor_basis_matches_the_exact_basis(self, monkeypatch, n, kwargs):
        # THETA = 1e-30 rad leaves no block of more than one point within it, so the engine
        # takes the exact step table wherever it took the Taylor expansion.
        cfg = ds.ExperimentConfig(n_positions=n, **kwargs)
        assert block_length(cfg)[1]
        taylor = ds.simulate_all(cfg, behaviors=self.BEHAVIORS)
        monkeypatch.setattr(propagation, "THETA", 1e-30)
        exact = ds.simulate_all(cfg, behaviors=self.BEHAVIORS)
        assert not np.array_equal(taylor[QubitBehavior.NONE].density,
                                  exact[QubitBehavior.NONE].density)    # two bases ran
        assert_same_densities(taylor, exact, max(ORACLE_TOL, largest_phase(cfg) * 2.0 ** -53))
