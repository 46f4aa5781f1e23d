"""Slit sums at the screen, their routing by qubit behavior, and the intensity.

The stages are derive -> build_grids -> :func:`accumulate` -> :func:`intensity`.
:func:`accumulate`, the one propagation pass, accepts only its own config's
derived quantities and grids, and computes each slit's sum of kernel *
slit_amplitude at every screen point x, less the factor exp(i*c*x^2) that all
amplitudes at x share (Goodman, *Introduction to Fourier Optics*, ch. 4), as
chunked complex matrix products per slit half.  Both grids are uniform, so the
bilinear phase -2c*x*x' factors into block, step, chunk-head and offset
terms; the block-by-offset and step-by-offset tables are computed once per
pass and shared by every chunk.  On mirror-image grids (the corrected geometry
on a window symmetric about 0) S_lower(x) = S_upper(-x), so only the upper
slit is summed.  An :class:`AmplitudeField`
carries the two (N,) sums and a behavior label; :func:`intensity` routes each
whole sum into one screen qubit state e (:func:`doubleslit.qubit.screen_state`),
so :func:`simulate_all` serves every behavior from one :func:`accumulate` by
relabelling the field.  ``accumulate``'s ``threads`` is accepted and ignored;
the matrix products run on BLAS's own threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
]

CHUNK = 512   # slit columns per matrix product; it fixes the summation order and so the bits
PHASE_LIMIT = 1e-6 * 2.0 ** 53   # rad: float64 rounds a larger phase by more than 1e-6 rad


@dataclass(frozen=True)
class AmplitudeField:
    """The two slit sums at the screen, labelled with the qubit behavior that routes them.

    ``lower`` and ``upper`` are :func:`accumulate`'s (N,) slit sums; :func:`intensity`
    sends each to the screen qubit state ``behavior`` assigns its slit.  Units
    are m^(-1/2) (amplitude density).
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


def _half_sums(blocks: np.ndarray, steps: np.ndarray, f: np.ndarray, g: np.ndarray,
               heads: np.ndarray, q: np.ndarray, c: float) -> np.ndarray:
    """sum_k q[k] * exp(-2i*c*x*x'_k) at x = blocks[b] + steps[r], shape (B, R), for the slit
    half x'_k = heads[s] + offsets[t], k = s*CHUNK + t.  Each ascending chunk s adds
    v_s[b] * ((F * q_s) @ G^T)[b, r] * e_s[r] with v_s = exp(-2i*c*blocks*heads[s]) and
    e_s = exp(-2i*c*steps*heads[s]); F = exp(-2i*c*blocks (x) offsets) and
    G = exp(-2i*c*steps (x) offsets) are computed once per pass and shared by every chunk
    of every half summed, so a chunk takes B + R exps."""
    out = np.zeros((blocks.size, steps.size), dtype=np.complex128)
    for s, head in enumerate(heads):
        qs = q[s * CHUNK:(s + 1) * CHUNK]
        v = np.exp(1j * (-2.0 * c * head * blocks))
        e = np.exp(1j * (-2.0 * c * head * steps))
        out += v[:, None] * ((f[:, :qs.size] * qs) @ g[:, :qs.size].T) * e
    return out


def accumulate(config: ExperimentConfig, derived: DerivedQuantities, grids: Grids,
               behavior: QubitBehavior, *, threads: int = 1) -> AmplitudeField:
    """(S_lower, S_upper): A * slit_amplitude * sum over each slit of exp(i*c*(x'^2 - 2*x*x'))
    at every screen position x, as an amplitude field for ``behavior``; ``threads`` is
    ignored.  If the lower slit is the negated reverse of the upper slit and the screen grid
    its own negated reverse, S_lower is S_upper reversed and only the upper half is summed;
    otherwise both halves are.  Raises ``ValueError`` unless ``derived`` is ``derive(config)``
    and both grid arrays equal those of ``build_grids(config, derived)``;
    :class:`SimulationError` if the largest engine phase P = c*max|x'|*(2*max|x| + max|x'|)
    is not finite or exceeds ``PHASE_LIMIT``."""
    own = derive(config)
    own_grids = build_grids(config, own)
    if not (derived == own and np.array_equal(grids.screen_positions, own_grids.screen_positions)
            and np.array_equal(grids.slit_positions, own_grids.slit_positions)):
        raise ValueError("derived quantities or grids are not those of config: accumulate "
                         "takes derive(config) and build_grids(config, derive(config))")
    n, c = config.n_positions, derived.phase_scale
    with np.errstate(over="ignore", invalid="ignore"):
        x_max, xp_max = np.abs(grids.screen_positions).max(), np.abs(grids.slit_positions).max()
        phase = c * xp_max * (2.0 * x_max + xp_max)
    if not phase <= PHASE_LIMIT:
        raise SimulationError(f"largest engine phase {phase:.3e} rad exceeds {PHASE_LIMIT:.3e} "
                              f"rad, beyond which float64 rounds it by more than 1e-6 rad")
    stride = math.isqrt(n)          # screen point j = b*stride + r, 0 <= r < stride
    blocks, steps = grids.screen_positions[::stride], np.arange(stride) * derived.delta_screen
    width = min(CHUNK, n // 2)      # slit point k = s*CHUNK + t, 0 <= t < width
    offsets = np.arange(width) * derived.delta_slit
    f = np.exp(1j * (-2.0 * c * np.multiply.outer(blocks, offsets)))
    g = np.exp(1j * (-2.0 * c * np.multiply.outer(steps, offsets)))
    weight = kernel_prefactor(config, derived) * derived.slit_amplitude

    def slit_sum(h):
        return _half_sums(blocks, steps, f, g, h[::width],
                          weight * np.exp(1j * (c * (h * h))), c).ravel()[:n]

    upper, screen = slit_sum(grids.upper_slit), grids.screen_positions
    mirrored = (np.array_equal(grids.lower_slit, -grids.upper_slit[::-1])
                and np.array_equal(screen, -screen[::-1]))
    # On mirror-image grids S_lower(x_j) = S_upper(-x_j) = S_upper(x_{N-1-j}).  The upper
    # sum is the one computed: its chunk heads start at the slit's inner edge, and it
    # measured closer to the 40-digit oracle than the lower sum.
    lower = upper[::-1].copy() if mirrored else slit_sum(grids.lower_slit)
    return AmplitudeField(lower, upper, behavior, screen, config)


def intensity(field: AmplitudeField) -> IntensityProfile:
    """Standalone probability density from an amplitude field.

    Slit sums routed to the same screen qubit state add coherently; the two
    screen qubit states are exclusive and their probabilities add.  Raises
    :class:`SimulationError` naming the first screen index (1-based) and qubit
    state whose amplitude is not finite.
    """
    states: dict[int, np.ndarray] = {}      # screen qubit state e -> its amplitude
    for half, total in (("lower", field.lower), ("upper", field.upper)):
        e = screen_state(field.behavior, half)
        states[e] = states.get(e, 0) + total
    finite = {e: np.isfinite(amplitude) for e, amplitude in states.items()}
    if not all(ok.all() for ok in finite.values()):
        i, e = min((int(np.argmin(ok)), e) for e, ok in finite.items() if not ok.all())
        raise SimulationError(f"non-finite amplitude at screen index {i + 1}, qubit state {e}")
    density = sum(amplitude.real ** 2 + amplitude.imag ** 2 for amplitude in states.values())
    if (density < 0).any():
        # unreachable for a modulus-squared construction; signals an arithmetic fault
        raise SimulationError("negative probability density")
    return IntensityProfile(positions=field.positions, density=density,
                            behavior=field.behavior, config=field.config)


def simulate(config: ExperimentConfig, behavior: QubitBehavior) -> IntensityProfile:
    """Full pipeline for one behavior: derive -> build_grids -> accumulate -> intensity."""
    return simulate_all(config, behaviors=(behavior,))[behavior]


def simulate_all(config: ExperimentConfig, *,
                 behaviors: tuple[QubitBehavior, ...] = tuple(QubitBehavior),
                 ) -> dict[QubitBehavior, IntensityProfile]:
    """Run the pipeline for several behaviors from one shared accumulate pass."""
    derived = derive(config)
    grids = build_grids(config, derived)
    if not behaviors:
        return {}
    field = accumulate(config, derived, grids, behaviors[0])
    return {b: intensity(replace(field, behavior=b)) for b in behaviors}
