"""Physical constants, derived quantities, discretization grids, and the error types.

The experiment: electrons of mass ``m`` and de Broglie wavelength ``lambda``
arrive perpendicular to a wall carrying two slits of width ``a`` whose
centers are ``d`` apart, and are detected on a screen a distance ``L``
downstream.  Positions inside the slits and on the screen are coarse
grained into N discrete levels each (N/2 per slit).  The transition
amplitude from a slit position x' to a screen position x is the
free-particle path-integral kernel

    K(x, x') = A * exp(B),
    A = sqrt(m / (2*i*pi*hbar*(L/v))),        |A|^2 = 1/(lambda*L),
    B = i*m*(x - x')^2 / (2*hbar*(L/v))  =  i*c*(x - x')^2,   c = pi/(lambda*L),

with v = h/(lambda*m) and the transit time fixed at L/v for every path (small-angle
regime: L is enormous compared with both the slit scale and the screen span).  A and c
depend on the config alone, so :func:`derive` forms both, once per config.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ConfigError",
    "SimulationError",
    "GeometryMode",
    "ExperimentConfig",
    "DerivedQuantities",
    "Grids",
    "derive",
    "build_grids",
]


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


class SimulationError(RuntimeError):
    """A computation produced values that cannot be trusted (a non-finite amplitude or density)."""


def _host_memory() -> float:
    """The host's RAM plus swap in bytes (/proc/meminfo); unbounded where that is unreadable."""
    try:
        with open("/proc/meminfo") as meminfo:
            kib = {line.split()[0]: int(line.split()[1]) for line in meminfo}
        return 1024 * (kib["MemTotal:"] + kib["SwapTotal:"])
    except (OSError, LookupError, ValueError):
        return math.inf


# tracemalloc peak of simulate_all per screen position on the Taylor basis (at N=64000, 97 bytes
# on the reference window and 112 in the paper geometry, which tests hold; the exact basis adds
# (sqrt(N), 512) tables, about 2 % at the budget) and the most a run may ask for: a run estimated
# above the host's RAM plus swap cannot finish there, so build_grids refuses it before it allocates.
BYTES_PER_N = 120
MEMORY_BUDGET = _host_memory()


class GeometryMode(Enum):
    """Placement rule for the upper slit's coarse-grained positions.

    CORRECTED places the upper slit symmetrically to the lower one, spanning
    [(d-a)/2, (d+a)/2], so the center-to-center separation is d and the
    fringe spacing lands at lambda*L/d.  PAPER_LITERAL keeps the published
    indexing formula, which shifts the upper slit by one full slit width to
    [(d+a)/2, (d+3a)/2] and stretches the effective separation to d+a.
    """

    CORRECTED = "corrected"
    PAPER_LITERAL = "paper"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """All experimental constants. Defaults reproduce the reference setup.

    Units are SI throughout: kg, m, s, J*s.  ``n_positions`` is the shared
    count of coarse-grained levels on the slit wall and on the screen; it
    must be even so each slit gets exactly half of them.
    """

    electron_mass: float = 9.109e-31
    wavelength: float = 1.23e-10
    planck: float = 6.6261e-34
    slit_width: float = 0.15e-8
    slit_separation: float = 0.615e-8
    wall_to_screen: float = 1.0
    screen_min: float = -0.15
    screen_max: float = 0.15
    n_positions: int = 2000
    geometry_mode: GeometryMode = GeometryMode.CORRECTED

    def __post_init__(self) -> None:
        for name in ("electron_mass", "wavelength", "planck", "slit_width",
                     "slit_separation", "wall_to_screen"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
        for name in ("screen_min", "screen_max"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.n_positions, int) or isinstance(self.n_positions, bool):
            raise ConfigError(f"n_positions must be an integer, got {self.n_positions!r}")
        if self.n_positions < 2 or self.n_positions % 2 != 0:
            raise ConfigError(
                f"n_positions must be an even integer >= 2 (each slit gets half), "
                f"got {self.n_positions}"
            )
        if not (math.isfinite(self.screen_min) and math.isfinite(self.screen_max)):
            raise ConfigError("screen bounds must be finite")
        if not self.screen_min < self.screen_max:
            raise ConfigError(
                f"screen_min must be < screen_max, got [{self.screen_min}, {self.screen_max}]"
            )
        if not self.slit_separation > self.slit_width:
            raise ConfigError(
                f"slit_separation ({self.slit_separation}) must exceed "
                f"slit_width ({self.slit_width}); the slits may not overlap"
            )
        if not isinstance(self.geometry_mode, GeometryMode):
            raise ConfigError(f"geometry_mode must be a GeometryMode, got {self.geometry_mode!r}")


@dataclass(frozen=True)
class DerivedQuantities:
    """Quantities computed once from an :class:`ExperimentConfig`.

    ``slit_amplitude`` is the discrete amplitude delta_slit/sqrt(2a) carried
    by every coarse-grained slit level (units m^(1/2)); multiplying it by
    the kernel (units 1/m) yields screen amplitude densities in m^(-1/2).
    ``kernel_prefactor`` A takes the principal square root, so sqrt(1/i) = exp(-i*pi/4):
    the global phase cancels in any intensity, but a fixed branch keeps amplitudes reproducible.
    """

    velocity: float        # m/s, h / (lambda * m)
    delta_slit: float      # m, 2a / N
    delta_screen: float    # m, (Zmax - Zmin) / N
    slit_amplitude: float  # m^(1/2), delta_slit / sqrt(2a)
    phase_scale: float     # 1/m^2, c = pi/(lambda*L): the kernel phase is c*(x-x')^2
    kernel_prefactor: complex  # 1/m, A = sqrt(m / (2*i*pi*hbar*(L/v)))


def derive(config: ExperimentConfig) -> DerivedQuantities:
    """Velocity, grid spacings, slit amplitude, phase scale and kernel prefactor A, with A
    from hbar = h/(2*pi) and L/v in that order of roundings; :class:`SimulationError` naming
    the first real quantity not finite and positive, or if A is not finite and nonzero."""
    try:
        velocity = config.planck / (config.wavelength * config.electron_mass)
        delta_slit = 2.0 * config.slit_width / config.n_positions
        delta_screen = (config.screen_max - config.screen_min) / config.n_positions
        slit_amplitude = delta_slit / math.sqrt(2.0 * config.slit_width)
        phase_scale = math.pi / (config.wavelength * config.wall_to_screen)
    except ZeroDivisionError:
        raise SimulationError("derived quantities are not finite/positive: "
                              "a denominator underflows to zero") from None
    values = (velocity, delta_slit, delta_screen, slit_amplitude, phase_scale)
    for name, value in zip(DerivedQuantities.__dataclass_fields__, values):    # in field order
        if not (math.isfinite(value) and value > 0):
            raise SimulationError(f"derived quantity {name} = {value} is not finite and positive")
    hbar = config.planck / (2.0 * math.pi)
    denom = 2j * math.pi * hbar * (config.wall_to_screen / velocity)    # 2i*pi*hbar*T
    a = cmath.sqrt(config.electron_mass / denom) if denom else 0j
    if not (cmath.isfinite(a) and a):
        raise SimulationError(f"kernel prefactor A = {a}: float64 under- or overflows hbar*L/v")
    return DerivedQuantities(*values, a)


@dataclass(frozen=True)
class Grids:
    """Discrete screen and slit-wall positions, in meters.

    ``slit_positions`` holds the lower slit in its first half (indices
    1..N/2 in 1-based terms) and the upper slit in its second half.  Both
    arrays are built from exact half-integer multiples of the spacing around
    exact centers, so for a screen symmetric about zero the grids are
    bitwise antisymmetric: x[N-1-k] == -x[k].  The intensity mirror symmetry
    of the corrected geometry inherits this exactness.
    """

    screen_positions: np.ndarray
    slit_positions: np.ndarray

    @property
    def lower_slit(self) -> np.ndarray:
        return self.slit_positions[: self.slit_positions.size // 2]

    @property
    def upper_slit(self) -> np.ndarray:
        return self.slit_positions[self.slit_positions.size // 2:]


@np.errstate(over="ignore", invalid="ignore")   # overflow is reported below, naming the grid
def build_grids(config: ExperimentConfig, derived: DerivedQuantities) -> Grids:
    """Build screen and slit grids for the configured geometry mode.

    Screen: x_i = (i - 0.5)*delta_screen + Zmin, i = 1..N.
    Lower slit: x'_i = (i - 0.5)*delta_slit - (d+a)/2, i = 1..N/2.
    Upper slit (CORRECTED): mirror image of the lower slit.
    Upper slit (PAPER_LITERAL): shifted up by one slit width a relative to
    CORRECTED, reproducing the published indexing formula verbatim.
    Raises :class:`SimulationError` if either grid has a non-finite position,
    or if the screen positions are not strictly increasing because float64
    cannot resolve delta_screen at the window's magnitude, and :class:`ConfigError`,
    before it allocates, if ``BYTES_PER_N * N`` exceeds ``MEMORY_BUDGET``.
    """
    n = config.n_positions
    if BYTES_PER_N * n > MEMORY_BUDGET:
        raise ConfigError(f"n_positions={n} needs about {BYTES_PER_N * n} bytes "
                          f"({BYTES_PER_N} per position), above the budget of "
                          f"{MEMORY_BUDGET} bytes")
    half = n // 2

    # (2i - N - 1)/2 is an exact half-integer, antisymmetric under i -> N+1-i.
    screen_mid = (config.screen_min + config.screen_max) / 2.0
    screen_offsets = (2.0 * np.arange(1, n + 1) - n - 1) / 2.0
    screen = screen_offsets * derived.delta_screen + screen_mid

    slit_offsets = (2.0 * np.arange(1, half + 1) - half - 1) / 2.0
    lower = -config.slit_separation / 2.0 + slit_offsets * derived.delta_slit
    upper_center = config.slit_separation / 2.0
    if config.geometry_mode is GeometryMode.PAPER_LITERAL:
        upper_center += config.slit_width
    upper = upper_center + slit_offsets * derived.delta_slit
    slit = np.concatenate([lower, upper])

    for name, grid in (("screen", screen), ("slit", slit)):
        if not np.all(np.isfinite(grid)):
            raise SimulationError(f"{name} grid is not finite: its positions overflow float64")
    if not np.all(screen[1:] > screen[:-1]):
        raise SimulationError(f"screen grid is not strictly increasing: float64 cannot resolve "
                              f"its spacing of {derived.delta_screen:.3e} m near "
                              f"{screen_mid:.17g} m")
    return Grids(screen_positions=screen, slit_positions=slit)
