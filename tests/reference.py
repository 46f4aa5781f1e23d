"""Reference implementations that the tests hold the package's engine against."""

import numpy as np

from doubleslit import reporting as r
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


def profile_csv_rows(positions, density) -> str:
    """The CSV body as the emitter once wrote it: one formatted row per screen position."""
    return "".join(f"{x:.17g},{p:.17g}\n" for x, p in zip(positions, density))


def svg_points(positions, density) -> str:
    """The polyline's ``points`` as the SVG emitter once wrote them, one point at a time."""
    x_lo, x_hi = float(positions[0]), float(positions[-1])
    y_lo, y_hi = 0.0, float(np.max(density))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = r._SVG_WIDTH - r._MARGIN_LEFT - r._MARGIN_RIGHT
    plot_h = r._SVG_HEIGHT - r._MARGIN_TOP - r._MARGIN_BOTTOM

    def px(x):
        return r._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return r._SVG_HEIGHT - r._MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(positions, density))
