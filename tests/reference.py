"""Reference implementations that the tests hold the package's engine against."""

import numpy as np

from doubleslit.errors import SimulationError
from doubleslit.physics import DerivedQuantities, ExperimentConfig, kernel_prefactor


def kernel(x, x_prime, config: ExperimentConfig, derived: DerivedQuantities):
    """Free-particle propagator K(x, x') = A * exp(i*m*(x-x')^2 / (2*hbar*L/v)).

    Accepts scalars or broadcastable arrays of positions (meters) and
    returns complex amplitudes with |K| = |A| for every pair.  Raises
    :class:`SimulationError` if any output is non-finite, which signals
    mis-scaled inputs rather than a recoverable condition.
    """
    displacement = np.subtract(x, x_prime)
    out = kernel_prefactor(config, derived) * np.exp(
        1j * (derived.phase_scale * np.square(displacement)))
    if not np.all(np.isfinite(out)):
        raise SimulationError("kernel produced a non-finite amplitude; check input scales")
    return out
