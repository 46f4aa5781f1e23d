"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 02 checks that the qubit conserves probability: it only routes
slit amplitudes into screen states, so the three behaviors carry the same
total mass over the whole screen.  The finite window [Zmin, Zmax] does not
see all of it.  The fringed behaviors (none, forgets) add the interference
cross term 2*Re(S_upper * conj(S_lower)), which integrates to zero only
over the whole line; remembers has no cross term.  So the fringed in-window
totals exceed the remembers total by the cross term's integral over the
window, G, which the Fraunhofer far field gives in closed form
(:func:`window_cross_term`; Goodman, *Introduction to Fourier Optics*,
ch. 4).  c02 compares the pairwise differences of the totals after
subtracting the predicted G, at 1e-6 relative to the largest total.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import sici

import doubleslit as ds
from doubleslit.cli import main
from doubleslit.qubit import QubitBehavior
from reference import is_allowed


def criterion(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def report_2000(profiles_2000, paper_config):
    return ds.validate(profiles_2000, paper_config)


def test_c01_velocity_derivation(paper_derived):
    v = paper_derived.velocity
    ok = abs(v - 5.914e6) <= 0.001e6
    assert criterion(1, "velocity derivation", ok, f"v = {v:.6e} m/s")


def _slit_offset(config) -> float:
    """Center-to-center distance D of the two slits' coarse-grained cells."""
    if config.geometry_mode is ds.GeometryMode.PAPER_LITERAL:
        return config.slit_separation + config.slit_width
    return config.slit_separation


def _cross_term_antiderivative(z: float, config) -> float:
    """J(z) = integral over s in [D-a, D+a] of (a - |s-D|) * sin(c*s) / s ds.

    c = 2*pi*z / (lambda*L).  The weight a - |s-D| is the triangular
    distribution of upper-minus-lower slit offsets s; the closed form
    follows from integrating sin(c*s) and sin(c*s)/s = d/ds Si(c*s).
    """
    a, center = config.slit_width, _slit_offset(config)
    c = 2.0 * math.pi * z / (config.wavelength * config.wall_to_screen)
    if c == 0.0:
        return 0.0
    lo, hi = center - a, center + a

    def si(s):
        return sici(c * s)[0]

    return ((math.cos(c * lo) + math.cos(c * hi) - 2.0 * math.cos(c * center)) / c
            + hi * si(hi) + lo * si(lo) - 2.0 * center * si(center))


def window_cross_term(config) -> float:
    """Far-field integral G of the interference cross term over [Zmin, Zmax].

    In the Fraunhofer limit the cross term at screen position x is
    (1/(lambda*L*a)) * integral (a - |s-D|) cos(2*pi*x*s/(lambda*L)) ds, so
    its integral over the window is [J(Zmax) - J(Zmin)] / (2*pi*a).  The
    dropped Fresnel phase pi*(u^2 - l^2)/(lambda*L) of slit points u, l is
    below 1e-6 rad at the reference constants in either geometry.
    """
    return ((_cross_term_antiderivative(config.screen_max, config)
             - _cross_term_antiderivative(config.screen_min, config))
            / (2.0 * math.pi * config.slit_width))


def test_c02_normalization(profiles_2000, paper_config):
    totals = {b.value: ds.total_probability(profiles_2000[b]) for b in QubitBehavior}
    in_range = all(abs(t - 0.95) <= 0.02 for t in totals.values())
    g = window_cross_term(paper_config)
    cross = {"none": g, "remembers": 0.0, "forgets": g}
    names = list(totals)
    peak = max(totals.values())
    spread = max(abs(totals[x] - totals[y]) for x in names for y in names) / peak
    residual = max(abs((totals[x] - totals[y]) - (cross[x] - cross[y]))
                   for x in names for y in names) / peak
    ok = in_range and residual <= 1e-6
    detail = (f"raw pairwise rel spread = {spread:.3e}, predicted cross term "
              f"G = {g:.6e}, rel residual after G = {residual:.3e}")
    criterion(2, "normalization 0.95 +- 0.02, pairwise 1e-6 after window cross term",
              ok, f"totals = {totals}, {detail}")
    assert in_range, f"totals outside 0.95 +- 0.02: {totals}"
    assert residual <= 1e-6, (
        f"pairwise totals disagree beyond the window's cross term by more "
        f"than 1e-6: {detail}"
    )


@pytest.mark.parametrize("config", [
    ds.ExperimentConfig(),
    ds.ExperimentConfig(geometry_mode=ds.GeometryMode.PAPER_LITERAL),
    ds.ExperimentConfig(screen_min=-0.1, screen_max=0.2),
], ids=["reference", "paper-geometry", "window-0.1-0.2"])
def test_c02_cross_term_matches_quadrature(config):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.mpf(config.slit_width)
        center = mp.mpf(_slit_offset(config))
        scale = 2 * mp.pi / (mp.mpf(config.wavelength) * mp.mpf(config.wall_to_screen))

        def j(z):
            c = scale * mp.mpf(z)
            return mp.quad(lambda s: (a - abs(s - center)) * mp.sin(c * s) / s,
                           [center - a, center, center + a])

        expected = float((j(config.screen_max) - j(config.screen_min)) / (2 * mp.pi * a))
    assert math.isclose(window_cross_term(config), expected, rel_tol=1e-10)


def test_c03_fringe_spacing(profiles_2000, paper_config):
    preds = ds.analytic_predictions(paper_config)
    peaks = ds.find_peaks(profiles_2000[QubitBehavior.NONE])
    spacing = ds.fringe_spacing(peaks, preds.first_minimum)
    ok = spacing is not None and abs(spacing - 0.020) <= 0.10 * 0.020
    assert criterion(3, "fringe spacing 0.020 m +- 10%", ok, f"measured = {spacing}")


def test_c04_first_diffraction_minima(profiles_2000, paper_config, report_2000):
    tol = 2 * ds.derive(paper_config).delta_screen
    flags = {c.name: c for c in report_2000.checks}
    pos = flags["first_minimum_positive"]
    neg = flags["first_minimum_negative"]
    ok = (pos.measured is not None and abs(pos.measured - 0.082) <= tol
          and neg.measured is not None and abs(neg.measured + 0.082) <= tol)
    assert criterion(4, "first diffraction minima +-0.082 m +- 2 cells", ok,
                     f"measured = ({neg.measured}, {pos.measured})")


def test_c05_secondary_maxima(report_2000, paper_config):
    tol = 5 * ds.derive(paper_config).delta_screen
    flags = {c.name: c for c in report_2000.checks}
    pos = flags["secondary_maximum_positive"]
    neg = flags["secondary_maximum_negative"]
    ok = (pos.measured is not None and abs(pos.measured - 0.1173) <= tol
          and neg.measured is not None and abs(neg.measured + 0.1173) <= tol)
    assert criterion(5, "secondary maxima +-0.1173 m +- 5 cells", ok,
                     f"measured = ({neg.measured}, {pos.measured})")


def test_c06_behavior_equivalence(profiles_2000):
    ok = True
    for n in (16, 250, 2000):
        if n == 2000:
            p_none = profiles_2000[QubitBehavior.NONE]
            p_forgets = profiles_2000[QubitBehavior.FORGETS]
        else:
            cfg = ds.ExperimentConfig(n_positions=n)
            none, forgets = QubitBehavior.NONE, QubitBehavior.FORGETS
            p_none = ds.simulate_all(cfg, behaviors=(none,))[none]           # two passes
            p_forgets = ds.simulate_all(cfg, behaviors=(forgets,))[forgets]
        ok = ok and p_none.density.tobytes() == p_forgets.density.tobytes()
    assert criterion(6, "intensity(none) == intensity(forgets) bitwise at N in {16,250,2000}", ok)


def test_c07_remembers_decomposition(paper_config, report_2000):
    derived = ds.derive(paper_config)
    grids = ds.build_grids(paper_config, derived)
    field = ds.accumulate(paper_config, derived, grids, QubitBehavior.REMEMBERS)
    profile = ds.intensity(field)
    incoherent = ((field.upper.real ** 2 + field.upper.imag ** 2)
                  + (field.lower.real ** 2 + field.lower.imag ** 2))
    no_cross_term = profile.density.tobytes() == incoherent.tobytes()
    flags = report_2000.to_dict()["interference"]
    flags_ok = (flags["remembers"] is False and flags["none"] is True
                and flags["forgets"] is True)
    ok = no_cross_term and flags_ok
    assert criterion(7, "remembers profile is the incoherent slit sum, no fringes", ok,
                     f"interference = {flags}")


def test_c08_mask_matches_brute_force():
    n = 4
    ok = True
    for behavior in QubitBehavior:
        table = ds.build_mask(behavior, n).composite_table()
        expected = [[is_allowed(behavior, n, i_prime, e_prime, e)
                     for e_prime in (1, 2) for i_prime in range(1, n + 1)]
                    for e in (1, 2) for _ in range(n)]
        ok = ok and table.tolist() == expected
        # one (e', e) per (screen position, slit position) pair
        ok = ok and (table.reshape(2, n, 2, n).sum(axis=(0, 2)) == 1).all()
        # the routing sends each slit half to the one screen state its cells reach
        for half, i_prime in (("lower", 1), ("upper", n)):
            reached = {e for e_prime in (1, 2) for e in (1, 2)
                       if is_allowed(behavior, n, i_prime, e_prime, e)}
            ok = ok and reached == {ds.screen_state(behavior, half)}
    assert criterion(8, "mask equals brute-force enumeration at n=4", ok)


def test_c09_parallel_determinism(tmp_path):
    max_threads = os.cpu_count() or 1
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(["--qubit", "none", "--n", "2000", "--threads", "1",
                 "--csv", str(serial)]) == 0
    assert main(["--qubit", "none", "--n", "2000", "--threads", str(max_threads),
                 "--csv", str(threaded)]) == 0
    ok = serial.read_bytes() == threaded.read_bytes()
    assert criterion(9, "CSV byte-identical for 1 thread vs max threads", ok,
                     f"max threads = {max_threads}")


def test_c09_blas_threads_do_not_change_bits(tmp_path):
    # The slit sums are matrix products, so BLAS's own thread count is a
    # second, hidden thread axis; one BLAS thread in a fresh process must give
    # the bytes of an in-process run, which uses BLAS's default thread count.
    in_process, single = tmp_path / "in_process.csv", tmp_path / "blas1.csv"
    assert main(["--qubit", "none", "--n", "2000", "--csv", str(in_process)]) == 0
    package_root = str(Path(ds.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "doubleslit", "--qubit", "none", "--n", "2000",
                    "--csv", str(single)], env=env, check=True, timeout=120)
    ok = single.read_bytes() == in_process.read_bytes()
    assert criterion(9, "CSV byte-identical for 1 BLAS thread vs the default", ok,
                     f"OPENBLAS_NUM_THREADS in this process = "
                     f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


def test_c10_mirror_symmetry(profiles_2000):
    density = profiles_2000[QubitBehavior.NONE].density
    rel = np.abs(density - density[::-1]) / density
    ok = bool(np.all(rel <= 1e-9))
    assert criterion(10, "corrected profile mirror-symmetric to 1e-9", ok,
                     f"max rel asymmetry = {rel.max():.3e}")


def test_c11_paper_literal_geometry(paper_config):
    cfg = ds.ExperimentConfig(geometry_mode=ds.GeometryMode.PAPER_LITERAL)
    none = QubitBehavior.NONE
    profile = ds.simulate_all(cfg, behaviors=(none,))[none]
    preds = ds.analytic_predictions(cfg)
    peaks = ds.find_peaks(profile)
    spacing = ds.fringe_spacing(peaks, preds.first_minimum)
    # two-source oracle with the literal geometry's effective separation d+a
    expected = (cfg.wavelength * cfg.wall_to_screen
                / (cfg.slit_separation + cfg.slit_width))
    assert math.isclose(expected, 0.0161, rel_tol=0.005)
    ok = spacing is not None and abs(spacing - expected) <= 0.10 * expected
    assert criterion(11, "literal-geometry fringe spacing 0.0161 m +- 10%", ok,
                     f"measured = {spacing}, expected = {expected:.6f}")


def test_c12_discrete_slit_pmf_normalization(paper_config, paper_derived):
    total = (paper_config.n_positions * paper_derived.delta_slit
             * (1.0 / (2.0 * paper_config.slit_width)))
    ok = abs(total - 1.0) <= 1e-12
    assert criterion(12, "discrete slit PMF sums to 1 within 1e-12", ok,
                     f"sum = {total!r}")
