"""40-digit reference for the screen profile at sampled points.

The reference takes the program's float config and float grid positions as
exact inputs and evaluates the two slit sums

    S_lower(x) = sum over lower-slit x' of exp(i*c*(x - x')^2)
    S_upper(x) = sum over upper-slit x' of exp(i*c*(x - x')^2)

in ``mpmath`` at 40 significant digits, with c = m / (2*hbar*L/v).  The
constant factor |A|^2 * slit_amplitude^2 = (m / (2*pi*hbar*L/v)) * 2a / N^2
turns them into densities: none and forgets see |S_lower + S_upper|^2,
remembers sees |S_lower|^2 + |S_upper|^2.  No float arithmetic of the
program enters the sums, so the reference is independent of its engine.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from doubleslit import ExperimentConfig, GeometryMode, QubitBehavior

DIGITS = 40


def ideal_grid_deviation(config: ExperimentConfig, screen, slit) -> float:
    """Largest distance of the float grids from the exact grids, in grid cells.

    The exact grids are x_i = Zmin + (i - 1/2)*(Zmax - Zmin)/N on the screen
    and x'_k = -(d + a)/2 + (k - 1/2)*2a/N in the lower slit, with the upper
    slit its mirror image (corrected geometry) or that image moved up by a
    (paper geometry).
    """
    n, half = config.n_positions, config.n_positions // 2
    with mpmath.workdps(DIGITS):
        a, d = mpmath.mpf(config.slit_width), mpmath.mpf(config.slit_separation)
        lo, hi = mpmath.mpf(config.screen_min), mpmath.mpf(config.screen_max)
        dx, dxp = (hi - lo) / n, 2 * a / n
        upper0 = (d - a) / 2 + (a if config.geometry_mode is GeometryMode.PAPER_LITERAL else 0)
        worst = mpmath.mpf(0)
        for i in range(n):
            worst = max(worst, abs(mpmath.mpf(float(screen[i])) - (lo + (i + 0.5) * dx)) / dx)
        for k in range(half):
            ideal = (k + mpmath.mpf(0.5)) * dxp
            worst = max(worst, abs(mpmath.mpf(float(slit[k])) - (ideal - (d + a) / 2)) / dxp,
                        abs(mpmath.mpf(float(slit[half + k])) - (ideal + upper0)) / dxp)
        return float(worst)


def max_phase(config: ExperimentConfig, screen, slit) -> float:
    """Largest kernel phase c*(x - x')^2 over all pairs, with c = pi / (lambda*L)."""
    c = math.pi / (config.wavelength * config.wall_to_screen)
    return c * max(screen[-1] - slit[0], slit[-1] - screen[0]) ** 2


def reference_density(config: ExperimentConfig, screen, slit, samples,
                      behaviors) -> dict[QubitBehavior, list]:
    """Reference densities (mpf, 1/m) at ``screen[samples]`` for each behavior."""
    n, half = config.n_positions, config.n_positions // 2
    out: dict[QubitBehavior, list] = {b: [] for b in behaviors}
    with mpmath.workdps(DIGITS):
        m, h = mpmath.mpf(config.electron_mass), mpmath.mpf(config.planck)
        lam, dist = mpmath.mpf(config.wavelength), mpmath.mpf(config.wall_to_screen)
        hbar = h / (2 * mpmath.pi)
        transit = dist / (h / (lam * m))
        c = m / (2 * hbar * transit)
        scale = m / (2 * mpmath.pi * hbar * transit) * 2 * mpmath.mpf(config.slit_width) / n ** 2
        lower = [mpmath.mpf(float(v)) for v in slit[:half]]
        upper = [mpmath.mpf(float(v)) for v in slit[half:]]
        for i in np.asarray(samples):
            x = mpmath.mpf(float(screen[i]))
            s_lo = mpmath.fsum(mpmath.expj(c * (x - xp) ** 2) for xp in lower)
            s_up = mpmath.fsum(mpmath.expj(c * (x - xp) ** 2) for xp in upper)
            coherent = scale * abs(s_lo + s_up) ** 2
            marked = scale * (abs(s_lo) ** 2 + abs(s_up) ** 2)
            for b in behaviors:
                out[b].append(marked if b is QubitBehavior.REMEMBERS else coherent)
    return out


def max_error(density: np.ndarray, samples, reference: list) -> float:
    """max |p - p_ref| over the sampled points, evaluated exactly (1/m)."""
    with mpmath.workdps(DIGITS):
        return float(max(abs(mpmath.mpf(float(density[i])) - ref)
                         for i, ref in zip(np.asarray(samples), reference)))
