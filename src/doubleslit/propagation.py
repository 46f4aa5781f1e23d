"""Slit sums at the screen, their routing by qubit behavior, and the intensity.

:func:`slit_sums` computes once per config each slit's sum of kernel *
slit_amplitude at every screen point x, less the factor exp(i*c*x^2) that all
amplitudes at x share (Goodman, *Introduction to Fourier Optics*, ch. 4), as
chunked complex matrix products per slit half.  Both grids are uniform, so the
bilinear phase -2c*x*x' factors into block, step, chunk-head and offset
terms; the block-by-offset and step-by-offset tables are computed once per
pass and shared by every chunk of both halves.  A qubit behavior only routes
each whole sum into one screen qubit state e
(:func:`doubleslit.qubit.screen_state`); :func:`accumulate` does both for one
behavior, and :func:`simulate_all` reroutes that one pass for the others.
``accumulate``'s ``threads`` is accepted and ignored; the matrix products run
on BLAS's own threads.
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
PHASE_LIMIT = 1e-6 * 2.0 ** 53   # rad: float64 rounds a larger phase by more than 1e-6 rad


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


def _split(grid: np.ndarray, stride: int, spacing: float,
           name: str) -> tuple[np.ndarray, np.ndarray]:
    """(heads, offsets) with grid[s*stride + t] = heads[s] + offsets[t], offsets = t*spacing.
    Raises ``ValueError`` if the grid is off that uniform one by > 8 ulp of its max |x|."""
    heads, offsets = grid[::stride], np.arange(stride) * spacing
    deviation = np.abs(np.add.outer(heads, offsets).ravel()[:grid.size] - grid).max()
    if deviation > 8 * np.spacing(np.abs(grid).max()):
        raise ValueError(f"{name} grid is not uniform (off by {deviation:.3e} m)")
    return heads, offsets


def _half_sums(blocks: np.ndarray, steps: np.ndarray, f: np.ndarray, g: np.ndarray,
               heads: np.ndarray, q: np.ndarray, c: float) -> np.ndarray:
    """sum_k q[k] * exp(-2i*c*x*x'_k) at x = blocks[b] + steps[r], shape (B, R), for the slit
    half x'_k = heads[s] + offsets[t], k = s*CHUNK + t.  Each ascending chunk s adds
    v_s[b] * ((F * q_s) @ G^T)[b, r] * e_s[r] with v_s = exp(-2i*c*blocks*heads[s]) and
    e_s = exp(-2i*c*steps*heads[s]); F = exp(-2i*c*blocks (x) offsets) and
    G = exp(-2i*c*steps (x) offsets) are computed once per pass, so a chunk takes B + R exps."""
    out = np.zeros((blocks.size, steps.size), dtype=np.complex128)
    for s, head in enumerate(heads):
        qs = q[s * CHUNK:(s + 1) * CHUNK]
        v = np.exp(1j * (-2.0 * c * head * blocks))
        e = np.exp(1j * (-2.0 * c * head * steps))
        out += v[:, None] * ((f[:, :qs.size] * qs) @ g[:, :qs.size].T) * e
    return out


def slit_sums(config: ExperimentConfig, derived: DerivedQuantities,
              grids: Grids) -> tuple[np.ndarray, np.ndarray]:
    """(S_lower, S_upper): A * slit_amplitude * sum over each slit of exp(i*c*(x'^2 - 2*x*x'))
    at every screen position x.  Raises ``ValueError`` if the grids do not match the config
    or a grid is off a uniform one by > 8 ulp, and :class:`SimulationError` if the largest
    engine phase P = c*max|x'|*(2*max|x| + max|x'|) is not finite or exceeds ``PHASE_LIMIT``."""
    n = config.n_positions
    if grids.screen_positions.size != n or grids.slit_positions.size != n:
        raise ValueError("grids do not match config.n_positions")
    c = derived.phase_scale
    with np.errstate(over="ignore", invalid="ignore"):
        x_max, xp_max = np.abs(grids.screen_positions).max(), np.abs(grids.slit_positions).max()
        phase = c * xp_max * (2.0 * x_max + xp_max)
    if not phase <= PHASE_LIMIT:
        raise SimulationError(f"largest engine phase {phase:.3e} rad exceeds {PHASE_LIMIT:.3e} "
                              f"rad, beyond which float64 rounds it by more than 1e-6 rad")
    stride = math.isqrt(n)          # screen point j = b*stride + r, 0 <= r < stride
    blocks, steps = _split(grids.screen_positions, stride, derived.delta_screen, "screen")
    width = min(CHUNK, n // 2)      # slit point k = s*CHUNK + t, 0 <= t < width
    lower_heads, offsets = _split(grids.lower_slit, width, derived.delta_slit, "lower-slit")
    upper_heads, _ = _split(grids.upper_slit, width, derived.delta_slit, "upper-slit")
    f = np.exp(1j * (-2.0 * c * np.multiply.outer(blocks, offsets)))
    g = np.exp(1j * (-2.0 * c * np.multiply.outer(steps, offsets)))
    weight = kernel_prefactor(config, derived) * derived.slit_amplitude
    halves = ((lower_heads, grids.lower_slit), (upper_heads, grids.upper_slit))
    return tuple(_half_sums(blocks, steps, f, g, heads, weight * np.exp(1j * (c * (h * h))),
                            c).ravel()[:n] for heads, h in halves)


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
    :func:`slit_sums`, each routed into one screen qubit state.  ``threads`` is ignored."""
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


def simulate(config: ExperimentConfig, behavior: QubitBehavior) -> IntensityProfile:
    """Full pipeline for one behavior: derive -> grids -> slit sums -> intensity."""
    return simulate_all(config, behaviors=(behavior,))[behavior]


def simulate_all(config: ExperimentConfig, *,
                 behaviors: tuple[QubitBehavior, ...] = tuple(QubitBehavior),
                 ) -> dict[QubitBehavior, IntensityProfile]:
    """Run the pipeline for several behaviors from one shared pass of slit sums."""
    derived = derive(config)
    grids = build_grids(config, derived)
    if not behaviors:
        return {}
    field = accumulate(config, derived, grids, behaviors[0])
    return {b: intensity(_rerouted(field, b)) for b in behaviors}
