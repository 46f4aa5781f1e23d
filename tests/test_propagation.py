from concurrent.futures import Future

import numpy as np
import pytest

import doubleslit as ds
from doubleslit import propagation
from doubleslit.errors import SimulationError
from doubleslit.qubit import QubitBehavior

# Frozen oracle: the single lower-slit term at N=2 under the inactive qubit,
# evaluated independently at 50-digit precision (kernel at the two screen
# points from the slit center at -d/2, times the discrete slit amplitude).
# The float pipeline carries ~1e8-radian phases, so agreement is limited by
# phase rounding to roughly 1e-7 relative.
N2_LOWER_E1 = (
    complex(-1.3422438867445664, -2.072665511872718),    # x = -0.075
    complex(-2.0726655118727179, +1.3422438867445665),   # x = +0.075
)


def _field(config, behavior, threads=1):
    derived = ds.derive(config)
    grids = ds.build_grids(config, derived)
    return ds.accumulate(config, derived, grids, behavior, threads=threads)


def masked_row_reference(config, behavior):
    """(lower, upper) from the per-cell masked sums: every screen row, slit
    half and screen state e sums kernel * amplitude * 0/1 weight left to right."""
    derived = ds.derive(config)
    grids = ds.build_grids(config, derived)
    n, half = config.n_positions, config.n_positions // 2
    weights = np.array([[sum(ds.is_allowed(behavior, n, i_prime, e_prime, e) for e_prime in (1, 2))
                         for e in (1, 2)] for i_prime in range(1, n + 1)], dtype=float)
    fields = []
    for slit_half, w in ((grids.lower_slit, weights[:half]), (grids.upper_slit, weights[half:])):
        amp = np.empty((n, 2), dtype=complex)
        for i, x in enumerate(grids.screen_positions):
            terms = ds.kernel(x, slit_half, config, derived) * derived.slit_amplitude
            for e in range(2):
                amp[i, e] = (terms * w[:, e]).cumsum()[-1]
        fields.append(amp)
    return fields


class SerialPool:
    """Stands in for ThreadPoolExecutor: runs each task at submit, starts no thread."""

    def __init__(self, max_workers, record):
        record.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestAccumulate:
    def test_single_term_oracle_at_n2(self):
        cfg = ds.ExperimentConfig(n_positions=2)
        field = _field(cfg, QubitBehavior.NONE)
        for i, expected in enumerate(N2_LOWER_E1):
            assert field.lower[i, 0] == pytest.approx(expected, rel=1e-6)
        # and the same value through the scalar kernel API
        derived = ds.derive(cfg)
        grids = ds.build_grids(cfg, derived)
        for i in range(2):
            direct = (ds.kernel(grids.screen_positions[i], grids.slit_positions[0],
                                cfg, derived) * derived.slit_amplitude)
            assert field.lower[i, 0] == pytest.approx(complex(direct), rel=1e-13)

    def test_inactive_qubit_leaves_second_state_empty(self, config_250):
        field = _field(config_250, QubitBehavior.NONE)
        assert np.all(field.lower[:, 1] == 0)
        assert np.all(field.upper[:, 1] == 0)
        assert np.all(field.lower[:, 0] != 0)

    def test_remembers_separates_slits_by_state(self, config_250):
        field = _field(config_250, QubitBehavior.REMEMBERS)
        assert np.all(field.upper[:, 1] == 0)   # upper slit only feeds e=1
        assert np.all(field.lower[:, 0] == 0)   # lower slit only feeds e=2
        assert np.all(field.upper[:, 0] != 0)
        assert np.all(field.lower[:, 1] != 0)

    def test_forgets_folds_both_slits_into_default_state(self, config_250):
        field = _field(config_250, QubitBehavior.FORGETS)
        assert np.all(field.lower[:, 1] == 0)
        assert np.all(field.upper[:, 1] == 0)
        assert np.all(field.lower[:, 0] != 0)
        assert np.all(field.upper[:, 0] != 0)

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
    @pytest.mark.parametrize("n", [16, 250])
    @pytest.mark.parametrize("geometry", list(ds.GeometryMode))
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_routed_sums_match_masked_rows_exactly(self, behavior, geometry, n, threads):
        cfg = ds.ExperimentConfig(n_positions=n, geometry_mode=geometry)
        field = _field(cfg, behavior, threads=threads)
        lower, upper = masked_row_reference(cfg, behavior)
        # Exact equality; only the unrouted columns may differ, as +0 against
        # the -0 that a 0-weighted masked sum can leave.
        np.testing.assert_array_equal(field.lower, lower)
        np.testing.assert_array_equal(field.upper, upper)
        reference = ds.AmplitudeField(lower=lower, upper=upper, behavior=behavior,
                                      positions=field.positions, config=cfg)
        assert ds.intensity(field).density.tobytes() == ds.intensity(reference).density.tobytes()

    def test_one_kernel_pass_for_all_behaviors(self, monkeypatch):
        calls = []

        def counting_kernel(*args):
            calls.append(1)
            return ds.kernel(*args)

        monkeypatch.setattr(propagation, "kernel", counting_kernel)
        cfg = ds.ExperimentConfig(n_positions=16)
        ds.simulate_all(cfg, behaviors=tuple(QubitBehavior))
        assert len(calls) == 2 * cfg.n_positions     # one row per screen point and slit half

    @pytest.mark.parametrize("first", list(QubitBehavior))
    def test_rerouted_behaviors_match_their_own_pass(self, config_250, first):
        # simulate_all runs one accumulate and reroutes its sums; whichever
        # behavior comes first, every profile equals that behavior's own pass.
        order = (first,) + tuple(b for b in QubitBehavior if b is not first)
        profiles = ds.simulate_all(config_250, behaviors=order)
        assert tuple(profiles) == order
        for b in QubitBehavior:
            own = ds.intensity(_field(config_250, b))
            assert profiles[b].density.tobytes() == own.density.tobytes()

    def test_no_behaviors_no_pass(self, config_250, monkeypatch):
        monkeypatch.setattr(propagation, "kernel", None)
        assert ds.simulate_all(config_250, behaviors=()) == {}

    @pytest.mark.parametrize("cpus, workers", [(4, 4), (64, 16), (None, 1)])
    def test_pool_is_capped_by_cpus_and_rows(self, monkeypatch, cpus, workers):
        pools = []
        monkeypatch.setattr(propagation, "ThreadPoolExecutor",
                            lambda max_workers: SerialPool(max_workers, pools))
        monkeypatch.setattr(propagation.os, "cpu_count", lambda: cpus)
        cfg = ds.ExperimentConfig(n_positions=16)
        profiles = ds.simulate_all(cfg, threads=10**6)
        assert pools == ([workers] if workers > 1 else [])   # one pool per pass
        serial = _field(cfg, QubitBehavior.NONE)
        assert profiles[QubitBehavior.NONE].density.tobytes() == \
            ds.intensity(serial).density.tobytes()

    def test_grid_size_mismatch_rejected(self, paper_config, config_250):
        derived = ds.derive(paper_config)
        grids = ds.build_grids(paper_config, derived)
        with pytest.raises(ValueError):
            ds.accumulate(config_250, ds.derive(config_250), grids, QubitBehavior.NONE)

    def test_non_finite_amplitude_names_the_cell(self, config_250, monkeypatch):
        def broken_kernel(x, x_prime, config, derived):
            return np.full(np.broadcast(x, x_prime).shape, np.nan, dtype=np.complex128)

        monkeypatch.setattr(propagation, "kernel", broken_kernel)
        with pytest.raises(SimulationError, match=r"screen index 1, qubit state 1"):
            _field(config_250, QubitBehavior.NONE)


class TestIntensity:
    def test_zero_field_gives_zero_profile(self, config_250):
        n = config_250.n_positions
        field = ds.AmplitudeField(
            lower=np.zeros((n, 2), complex), upper=np.zeros((n, 2), complex),
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
        upper_sq = field.upper[:, 0].real ** 2 + field.upper[:, 0].imag ** 2
        lower_sq = field.lower[:, 1].real ** 2 + field.lower[:, 1].imag ** 2
        np.testing.assert_allclose(profile.density, upper_sq + lower_sq, rtol=1e-12)

    def test_non_finite_field_rejected(self, config_250):
        n = config_250.n_positions
        lower = np.zeros((n, 2), complex)
        lower[3, 0] = complex(np.nan, 0)
        field = ds.AmplitudeField(lower=lower, upper=np.zeros((n, 2), complex),
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
        profiles = {
            n: ds.simulate(ds.ExperimentConfig(n_positions=n), QubitBehavior.NONE)
            for n in (250, 500, 1000, 2000)
        }
        ref_x = profiles[250].positions
        diffs = []
        for n in (250, 500, 1000):
            coarse = np.interp(ref_x, profiles[n].positions, profiles[n].density)
            fine = np.interp(ref_x, profiles[2 * n].positions, profiles[2 * n].density)
            diffs.append(np.max(np.abs(coarse - fine)))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_simulate_matches_pipeline(self, config_250, profiles_250):
        profile = ds.simulate(config_250, QubitBehavior.REMEMBERS)
        assert profile.density.tobytes() == \
            profiles_250[QubitBehavior.REMEMBERS].density.tobytes()
