"""Slit sums at the screen, their routing by qubit behavior, and the intensity.

:func:`slit_sums` computes once per config each slit's sum of kernel *
slit_amplitude at every screen point x, less the factor exp(i*c*x^2) that all
amplitudes at x share (Goodman, *Introduction to Fourier Optics*, ch. 4), as
one complex matrix product per slit half.  A qubit behavior only routes each
whole sum into one screen qubit state e (:func:`doubleslit.qubit.screen_state`);
:func:`accumulate` does both for one behavior, and :func:`simulate_all`
reroutes that one pass for the others.  ``threads`` has no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .physics import (DerivedQuantities, ExperimentConfig, Grids, build_grids, derive,
                      kernel_prefactor)
from .qubit import QubitBehavior, screen_state

__all__ = [
    "AmplitudeField",
    "IntensityProfile",
    "accumulate",
    "intensity",
    "simulate",
    "simulate_all",
    "slit_sums",
]

CHUNK = 512   # slit columns per matrix product; it fixes the summation order and so the bits


@dataclass(frozen=True)
class AmplitudeField:
    """Per-(screen position, qubit state) marginal amplitudes, one array per slit.

    ``lower`` and ``upper`` have shape (N, 2); column 0 is screen qubit
    state e=1, column 1 is e=2.  Units are m^(-1/2) (amplitude density).
    Entries at screen position x omit the kernel's common factor
    exp(i*c*x^2), c = m/(2*hbar*L/v); its modulus is 1, so no intensity changes.
    """

    lower: np.ndarray
    upper: np.ndarray
    behavior: QubitBehavior
    positions: np.ndarray
    config: ExperimentConfig


@dataclass(frozen=True)
class IntensityProfile:
    """Screen positions paired with the standalone probability density (1/m)."""

    positions: np.ndarray
    density: np.ndarray
    behavior: QubitBehavior
    config: ExperimentConfig


def _half_sums(blocks: np.ndarray, steps: np.ndarray, slit_half: np.ndarray,
               c: float, weight: complex) -> np.ndarray:
    """weight * sum_k exp(i*c*(x'_k^2 - 2*x*x'_k)) at x = blocks[b] + steps[r], shape (B, R):
    V @ E^T over ascending slit chunks, V[b, k] = weight*exp(i*c*(x'_k^2 - 2*blocks[b]*x'_k)),
    E[r, k] = exp(-2i*c*steps[r]*x'_k); B + R exps per slit point, not B*R, of phases of tens
    of rad, not the kernel's ~5e8."""
    out = np.zeros((blocks.size, steps.size), dtype=np.complex128)
    for k in range(0, slit_half.size, CHUNK):
        xp = slit_half[k:k + CHUNK]
        v = weight * np.exp(1j * (c * (xp * xp - 2.0 * np.multiply.outer(blocks, xp))))
        e = np.exp(1j * (-2.0 * c * np.multiply.outer(steps, xp)))
        out += v @ e.T
    return out


def slit_sums(config: ExperimentConfig, derived: DerivedQuantities,
              grids: Grids) -> tuple[np.ndarray, np.ndarray]:
    """(S_lower, S_upper): A * slit_amplitude * sum over each slit of exp(i*c*(x'^2 - 2*x*x'))
    at every screen position x.  Raises ``ValueError`` if the grids do not match the config
    or the screen grid is off a uniform one of spacing ``derived.delta_screen`` by > 8 ulp."""
    n = config.n_positions
    if grids.screen_positions.size != n or grids.slit_positions.size != n:
        raise ValueError("grids do not match config.n_positions")
    stride = math.isqrt(n)          # screen point j = b*stride + r, 0 <= r < stride
    blocks, steps = grids.screen_positions[::stride], np.arange(stride) * derived.delta_screen
    deviation = np.abs(np.add.outer(blocks, steps).ravel()[:n] - grids.screen_positions).max()
    if deviation > 8 * np.spacing(np.abs(grids.screen_positions).max()):
        raise ValueError(f"screen grid is not uniform (off by {deviation:.3e} m)")
    c = config.electron_mass / (2.0 * config.reduced_planck * derived.transit_time)
    weight = kernel_prefactor(config, derived) * derived.slit_amplitude
    return tuple(_half_sums(blocks, steps, h, c, weight).ravel()[:n]
                 for h in (grids.lower_slit, grids.upper_slit))


def _routed_field(sums: tuple[np.ndarray, np.ndarray], behavior: QubitBehavior,
                  positions: np.ndarray, config: ExperimentConfig) -> AmplitudeField:
    """Each slit's sum in the column of the screen state ``behavior`` routes it to."""
    fields = []
    for half, total in zip(("lower", "upper"), sums):
        e = screen_state(behavior, half)
        bad = np.flatnonzero(~np.isfinite(total))
        if bad.size:
            raise SimulationError(
                f"non-finite {half}-slit amplitude at screen index {bad[0] + 1}, qubit state {e}")
        fields.append(np.zeros((total.size, 2), dtype=np.complex128))
        fields[-1][:, e - 1] = total
    return AmplitudeField(*fields, behavior=behavior, positions=positions, config=config)


def _rerouted(field: AmplitudeField, behavior: QubitBehavior) -> AmplitudeField:
    """``field``'s two slit sums, routed as ``behavior`` routes them."""
    sums = (field.lower[:, screen_state(field.behavior, "lower") - 1],
            field.upper[:, screen_state(field.behavior, "upper") - 1])
    return _routed_field(sums, behavior, field.positions, field.config)


def accumulate(config: ExperimentConfig, derived: DerivedQuantities, grids: Grids,
               behavior: QubitBehavior, *, threads: int = 1) -> AmplitudeField:
    """Marginal slit amplitudes at the screen under a qubit behavior:
    :func:`slit_sums`, each routed into one screen qubit state."""
    sums = slit_sums(config, derived, grids)
    return _routed_field(sums, behavior, grids.screen_positions, config)


def intensity(field: AmplitudeField) -> IntensityProfile:
    """Standalone probability density from an amplitude field.

    Amplitudes feeding the same screen configuration add coherently; the
    two screen qubit states are exclusive and their probabilities add.
    """
    totals = field.lower + field.upper
    if not np.all(np.isfinite(totals)):
        raise SimulationError("amplitude field contains non-finite entries")
    density = (totals.real ** 2 + totals.imag ** 2).sum(axis=1)
    if (density < 0).any():
        # unreachable for a modulus-squared construction; signals an arithmetic fault
        raise SimulationError("negative probability density")
    return IntensityProfile(positions=field.positions, density=density,
                            behavior=field.behavior, config=field.config)


def simulate(config: ExperimentConfig, behavior: QubitBehavior, *,
             threads: int = 1) -> IntensityProfile:
    """Full pipeline for one behavior: derive -> grids -> slit sums -> intensity."""
    return simulate_all(config, behaviors=(behavior,))[behavior]


def simulate_all(config: ExperimentConfig, *, threads: int = 1,
                 behaviors: tuple[QubitBehavior, ...] = tuple(QubitBehavior),
                 ) -> dict[QubitBehavior, IntensityProfile]:
    """Run the pipeline for several behaviors from one shared pass of slit sums."""
    derived = derive(config)
    grids = build_grids(config, derived)
    if not behaviors:
        return {}
    field = accumulate(config, derived, grids, behaviors[0])
    return {b: intensity(_rerouted(field, b)) for b in behaviors}
