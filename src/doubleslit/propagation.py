"""Slit sums at the screen, their routing by qubit behavior, and the intensity.

The kernel ignores the qubit, so :func:`slit_sums` computes once per config
S_lower(x_i) and S_upper(x_i): the sum over each slit of K(x_i, x') *
slit_amplitude, accumulated left to right in ascending x'.  A qubit behavior
only routes each whole sum into one screen qubit state e
(:func:`doubleslit.qubit.screen_state`); :func:`accumulate` does both for one
behavior, and :func:`simulate_all` reroutes that one pass for the others.
Sums routed to the same e add coherently; the two states' probabilities add.
The O(N^2) pass runs row by row, each screen row written by exactly one
task, so the result is bitwise identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .physics import DerivedQuantities, ExperimentConfig, Grids, build_grids, derive, kernel
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


@dataclass(frozen=True)
class AmplitudeField:
    """Per-(screen position, qubit state) marginal amplitudes, one array per slit.

    ``lower`` and ``upper`` have shape (N, 2); column 0 is screen qubit
    state e=1, column 1 is e=2.  Units are m^(-1/2) (amplitude density).
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


def _row_sums(screen_block: np.ndarray, slit_half: np.ndarray,
              config: ExperimentConfig, derived: DerivedQuantities) -> np.ndarray:
    """Sums from one slit for a block of screen positions.

    Each screen row is evaluated as its own fixed-shape 1D operation.  This
    is what makes the result independent of how rows are grouped into
    blocks: elementwise kernels may round differently at SIMD tail
    positions, so a 2D evaluation would let the block shape leak into the
    last bits.
    """
    out = np.empty(screen_block.size, dtype=np.complex128)
    for r, x in enumerate(screen_block):
        out[r] = (kernel(x, slit_half, config, derived) * derived.slit_amplitude).cumsum()[-1]
    return out


def slit_sums(config: ExperimentConfig, derived: DerivedQuantities, grids: Grids,
              *, threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(S_lower, S_upper): each slit's summed amplitude at every screen position.

    ``threads`` spreads screen rows over one pool of at most
    min(threads, CPUs, N) workers; the sums do not depend on it.
    """
    n = config.n_positions
    if grids.screen_positions.size != n or grids.slit_positions.size != n:
        raise ValueError("grids do not match config.n_positions")
    halves = (grids.lower_slit, grids.upper_slit)
    workers = min(threads, os.cpu_count() or 1, n)
    if workers <= 1:
        return tuple(_row_sums(grids.screen_positions, h, config, derived) for h in halves)
    blocks = np.array_split(grids.screen_positions, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [[pool.submit(_row_sums, block, h, config, derived) for block in blocks]
                   for h in halves]
        return tuple(np.concatenate([f.result() for f in fs]) for fs in futures)


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
    sums = slit_sums(config, derived, grids, threads=threads)
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
    return simulate_all(config, threads=threads, behaviors=(behavior,))[behavior]


def simulate_all(config: ExperimentConfig, *, threads: int = 1,
                 behaviors: tuple[QubitBehavior, ...] = tuple(QubitBehavior),
                 ) -> dict[QubitBehavior, IntensityProfile]:
    """Run the pipeline for several behaviors from one shared pass of slit sums."""
    derived = derive(config)
    grids = build_grids(config, derived)
    if not behaviors:
        return {}
    field = accumulate(config, derived, grids, behaviors[0], threads=threads)
    return {b: intensity(_rerouted(field, b)) for b in behaviors}
