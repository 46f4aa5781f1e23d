"""Reference implementations that the tests hold the package's engine against."""

import numpy as np

from doubleslit import reporting as r
from doubleslit.physics import DerivedQuantities, ExperimentConfig, SimulationError
from doubleslit.qubit import QubitBehavior

# The allowed (slit half, e', e) combinations of each behavior, written down from the
# behavioral rules directly: exactly two per behavior.
ALLOWED_COMBOS = {
    QubitBehavior.NONE: {("lower", 1, 1), ("upper", 1, 1)},
    QubitBehavior.REMEMBERS: {("lower", 2, 2), ("upper", 1, 1)},
    QubitBehavior.FORGETS: {("lower", 2, 1), ("upper", 1, 1)},
}


def is_allowed(behavior, n, i_prime, e_prime, e) -> bool:
    """Whether the composite transition (i', e') -> (any screen position, e) is allowed.

    Indices are 1-based: i' in 1..n with i' <= n/2 the lower slit, e' and e in {1, 2}.
    """
    half = "lower" if i_prime <= n // 2 else "upper"
    return (half, e_prime, e) in ALLOWED_COMBOS[behavior]


def mask_text(behavior, n) -> str:
    """The mask export one cell at a time from ``is_allowed``: a header line, then rows
    (e, i) with e=1 first and columns (e', i') with e'=1 first, '#' allowed, '.' not."""
    rows = ["".join("#" if is_allowed(behavior, n, i_prime, e_prime, e) else "."
                    for e_prime in (1, 2) for i_prime in range(1, n + 1))
            for e in (1, 2) for _ in range(n)]
    return "\n".join([f"behavior={behavior.value} n={n}", *rows]) + "\n"


def kernel(x, x_prime, config: ExperimentConfig, derived: DerivedQuantities):
    """Free-particle propagator K(x, x') = A * exp(i*m*(x-x')^2 / (2*hbar*L/v)).

    Accepts scalars or broadcastable arrays of positions (meters) and
    returns complex amplitudes with |K| = |A| for every pair.  Raises
    :class:`SimulationError` if any output is non-finite, which signals
    mis-scaled inputs rather than a recoverable condition.
    """
    displacement = np.subtract(x, x_prime)
    out = derived.kernel_prefactor * np.exp(
        1j * (derived.phase_scale * np.square(displacement)))
    if not np.all(np.isfinite(out)):
        raise SimulationError("kernel produced a non-finite amplitude; check input scales")
    return out


LONG_DOUBLE_PI = np.longdouble("3.14159265358979323846264338327950288")


def long_double_phases(config: ExperimentConfig, slit, screen):
    """(screen, slit) phases c*(x'^2 - 2*x*x') of the factored kernel in long double, with
    c = pi/(lambda*L) formed in long double from the float config and the float grids taken
    as exact, each reduced modulo 2*pi in long double."""
    ld = np.longdouble
    c = LONG_DOUBLE_PI / (ld(config.wavelength) * ld(config.wall_to_screen))
    x, xp = screen.astype(ld)[:, None], slit.astype(ld)
    return np.mod(c * xp * (xp - 2 * x), 2 * LONG_DOUBLE_PI)


def long_double_scale(config: ExperimentConfig):
    """|A|^2 * slit_amplitude^2 = 2a/(lambda*L*N^2), formed in long double."""
    ld, n = np.longdouble, config.n_positions
    return 2 * ld(config.slit_width) / (ld(config.wavelength) * ld(config.wall_to_screen) * n * n)


def long_double_densities(config: ExperimentConfig, slit, screen):
    """(coherent, marked) long-double densities at every screen point from the factored sums
    S(x) = sum over a slit half of exp(i*c*(x'^2 - 2*x*x')), with the phases of
    ``long_double_phases`` and the scale of ``long_double_scale``; the slit points are
    summed 256 at a time.  none and forgets see the coherent density, remembers the marked
    one."""
    n = config.n_positions
    sums = []
    for half in (slit[:n // 2], slit[n // 2:]):
        total = np.zeros(screen.size, np.clongdouble)
        for start in range(0, half.size, 256):
            phase = long_double_phases(config, half[start:start + 256], screen)
            total += np.cos(phase).sum(axis=1) + 1j * np.sin(phase).sum(axis=1)
        sums.append(total)
    scale = long_double_scale(config)
    coherent = scale * np.abs(sums[0] + sums[1]) ** 2
    marked = scale * (np.abs(sums[0]) ** 2 + np.abs(sums[1]) ** 2)
    return coherent, marked


def allowed_weights(behavior, n):
    """(n, 2) 0/1 weights from ``is_allowed``: row i'-1, column e-1 counts the wall states
    e' of wall cell i' that reach screen state e (at most one does)."""
    return np.array([[sum(is_allowed(behavior, n, i_prime, e_prime, e) for e_prime in (1, 2))
                      for e in (1, 2)] for i_prime in range(1, n + 1)], dtype=float)


def masked_matrix_density(config: ExperimentConfig, behavior, slit, screen):
    """The long-double density at every screen point from the masked composite matrix:
    entry ((e, x), (e', i')) is is_allowed(behavior, N, i', e', e) times the factored kernel
    exp(i*c*(x'^2 - 2*x*x')) of ``long_double_phases``, every wall state e' carrying the slit
    amplitude; screen state e at x sums its row over every (e', i'), and the states'
    probabilities add, scaled by ``long_double_scale``.  The dropped factor exp(i*c*x^2) is
    common to a row, so the density is exact without it."""
    phase = long_double_phases(config, slit, screen)
    states = (np.cos(phase) + 1j * np.sin(phase)) @ allowed_weights(behavior, slit.size)
    return long_double_scale(config) * (states.real ** 2 + states.imag ** 2).sum(axis=1)


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


def points_2f(xs, ys) -> str:
    """Plot coordinates as the polyline writes them, one "%.2f,%.2f" pair at a time."""
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def first_minimum(profile):
    """``find_first_minimum`` as a scan one sample at a time: the position of the first
    strict local minimum right of the global maximum, or None."""
    density = profile.density
    start = int(np.argmax(density))
    for i in range(start + 1, density.size - 1):
        if density[i] < density[i - 1] and density[i] < density[i + 1]:
            return float(profile.positions[i])
    return None
