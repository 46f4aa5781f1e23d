"""Slit sums at the screen, their routing by qubit behavior, and the intensity.

The stages are derive -> build_grids -> :func:`accumulate` -> :func:`intensity`.
:func:`accumulate`, the one propagation pass, accepts only its own config's
derived quantities and grids, and computes each slit's sum of kernel *
slit_amplitude at every screen point x, less the factor exp(i*c*x^2) that all
amplitudes at x share (Goodman, *Introduction to Fourier Optics*, ch. 4).  Both
grids are uniform, so with the screen cut into blocks of R points (centre X_b,
offsets rho_r) and each slit half taken about its centre x'_c (offsets u_k), the
bilinear phase -2c*x*x' splits into the exact block and step factors of the
centre, a block-by-offset factor and the small in-block term -2c*rho_r*u_k.
Where R can hold more than TERMS points with that term within THETA, it is
expanded in a Taylor series, and each block's factor is the middle block's times a
power of one step factor: a slit half costs N + B + R complex exps and about
B*N*TERMS real multiply-adds, B = N/R, in place of N^2/2 complex ones (Candes, Demanet & Ying, *A
fast butterfly algorithm for the computation of Fourier integral operators*, 2009,
for why an oscillatory kernel is low rank on such blocks).  On wide windows, where R would
be small, the term comes from an exact step table and the half costs N^2/2 multiply-adds,
as chunked complex matrix products.  One builder picks the basis; both bases share its
chunk loop and centre phases.  On mirror-image grids (the corrected geometry on a window
symmetric about 0) S_lower(x) = S_upper(-x), so only the upper slit is summed.  An
:class:`AmplitudeField` carries the two (N,) sums and a behavior label; :func:`intensity`
routes each whole sum into one screen qubit state e (:func:`doubleslit.qubit.screen_states`)
and refuses a non-finite density, so :func:`simulate_all` serves every behavior from one
:func:`accumulate` by relabelling the field.  ``accumulate``'s ``threads`` is accepted and
ignored; the matrix products run on BLAS's own threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .physics import (DerivedQuantities, ExperimentConfig, Grids, SimulationError, build_grids,
                      derive)
from .qubit import QubitBehavior, screen_states

__all__ = [
    "AmplitudeField",
    "IntensityProfile",
    "accumulate",
    "intensity",
    "simulate_all",
]

CHUNK = 512   # slit columns per matrix product; it fixes the summation order and so the bits
THETA = 1.0   # rad: the largest in-block phase 2c*|rho*u| the Taylor basis expands
TERMS = 20    # Taylor terms kept: the first one left out, THETA^20/20!, is below 2^-60
PHASE_LIMIT = 1e-6 * 2.0 ** 53   # rad: float64 rounds a larger phase by more than 1e-6 rad


@dataclass(frozen=True)
class AmplitudeField:
    """The two slit sums at the screen, labelled with the qubit behavior that routes them.

    ``lower`` and ``upper`` are :func:`accumulate`'s (N,) slit sums; :func:`intensity`
    sends each to the screen qubit state ``behavior`` assigns its slit.  Units
    are m^(-1/2) (amplitude density).
    Entries at screen position x omit the kernel's common factor
    exp(i*c*x^2), c = pi/(lambda*L); its modulus is 1, so no intensity changes.
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


def _powers(y: np.ndarray) -> np.ndarray:
    """y**m for m = 0 .. TERMS-1, shape (TERMS, y.size)."""
    p = np.empty((TERMS, y.size))
    p[0] = 1.0
    for m in range(1, TERMS):
        np.multiply(p[m - 1], y, out=p[m])
    return p


def _real_product(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """z @ r, z complex and r real, as one real product of z's stacked real and imaginary parts."""
    p = np.concatenate((z.real, z.imag)) @ r
    out = np.empty((len(z), r.shape[1]), complex)
    out.real, out.imag = p[:len(z)], p[len(z):]
    return out


def _build_slit_sum(n: int, c: float, derived: DerivedQuantities, screen: np.ndarray, amp: complex):
    """The function that takes a slit half h[k] = centre + u[k] to its (N,) sums
    sum_k amp * exp(i*c*(h[k]^2 - 2*x*h[k])) at screen point j = b*R + r, x = blocks[b] + rho[r].
    It adds chunk_sum(u, h) over chunks of CHUNK slit points in ascending order, each a (B, R)
    array or (B, TERMS) moments that ``expand`` turns into one, and multiplies the
    total by exp(-2i*c*blocks*centre) and exp(-2i*c*rho*centre), the largest phases.

    In a block of R screen points |2c*rho*u| <= (R - 1)*c*a_h*delta_screen, a_h the largest
    |u|.  R is the largest block that keeps this within THETA.  Where R > TERMS the Taylor
    basis costs less than the exact one and is taken: exp(-2i*c*rho*u) is the sum over
    m < TERMS of (-i*theta)^m/m! * (rho/max rho)^m * (u/a_h)^m, so a chunk's moments are
    T @ (u/a_h)^m with T = amp * exp(i*c*(h^2 - 2*blocks (x) u)); ``expand`` does the rest,
    both by :func:`_real_product`.  Only T's middle row is an exp; the rows above it are its
    products by W, W^2, ... and those below by conj(W), ..., with W = exp(-2i*c*R*delta_screen*u).
    Otherwise R = isqrt(N) and a chunk with middle m and offsets m + t adds
    v * ((F * q) @ G) * e, with q = amp * exp(i*c*h^2), F = exp(-2i*c*blocks (x) t) and
    G = exp(-2i*c*t (x) rho) shared by every chunk, v = exp(-2i*c*m*blocks) and
    e = exp(-2i*c*m*rho); ``expand`` is None."""
    a_h = (n // 2 - 1) / 2 * derived.delta_slit
    span = c * a_h * derived.delta_screen
    stride = n if span * (n - 1) <= THETA else 1 + int(THETA / span)
    taylor = stride > TERMS
    if not taylor:
        stride = math.isqrt(n)
    rho = (np.arange(stride) - (stride - 1) / 2) * derived.delta_screen
    blocks = screen[::stride] - rho[0]
    if taylor:
        theta = span * (stride - 1)
        coeff = np.cumprod(np.concatenate(([1.0], -1j * theta / np.arange(1, TERMS))))
        mid, step = blocks.size // 2, stride * derived.delta_screen
        powers = _powers(rho / rho[-1])

        def chunk_sum(u, h):
            t = np.empty((blocks.size, u.size), complex)
            t[mid] = amp * np.exp(1j * (c * (h * h) - 2.0 * c * blocks[mid] * u))
            if mid:
                w = np.exp(1j * (-2.0 * c * step * u))
                for b in range(mid + 1, blocks.size):
                    np.multiply(t[b - 1], w, out=t[b])
                np.conjugate(w, out=w)
                for b in range(mid - 1, -1, -1):
                    np.multiply(t[b + 1], w, out=t[b])
            return _real_product(t, _powers(u / a_h).T)

        def expand(moments):
            return _real_product(moments * coeff, powers)
    else:
        width = min(CHUNK, n // 2)
        offsets = (np.arange(width) - (width - 1) / 2) * derived.delta_slit
        f = np.exp(1j * (-2.0 * c * np.multiply.outer(blocks, offsets)))
        g = np.exp(1j * (-2.0 * c * np.multiply.outer(offsets, rho)))
        expand = None

        def chunk_sum(u, h):
            mid = u[0] - offsets[0]
            v = np.exp(1j * (-2.0 * c * mid * blocks))
            e = np.exp(1j * (-2.0 * c * mid * rho))
            q = amp * np.exp(1j * (c * (h * h)))
            return v[:, None] * ((f[:, :q.size] * q) @ g[:q.size]) * e

    def slit_sum(h):
        centre = 0.5 * (h[0] + h[-1])
        out = 0
        for s in range(0, h.size, CHUNK):
            out += chunk_sum(h[s:s + CHUNK] - centre, h[s:s + CHUNK])
        if expand is not None:
            out = expand(out)
        # in place, as v * out * e: numpy's complex product is not bitwise commutative
        np.multiply(np.exp(1j * (-2.0 * c * centre * blocks))[:, None], out, out=out)
        return np.multiply(out, np.exp(1j * (-2.0 * c * centre * rho)), out=out).ravel()[:n]

    return slit_sum


def accumulate(config: ExperimentConfig, derived: DerivedQuantities, grids: Grids,
               behavior: QubitBehavior, *, threads: int = 1) -> AmplitudeField:
    """(S_lower, S_upper): A * slit_amplitude * sum over each slit of exp(i*c*(x'^2 - 2*x*x'))
    at every screen position x, as an amplitude field for ``behavior``; ``threads`` is
    ignored.  The screen basis (:func:`_build_slit_sum`) is the Taylor one where its blocks
    hold more than TERMS points and the exact step table otherwise.  If the lower slit is
    the negated reverse of the upper slit and the screen grid its own negated reverse,
    S_lower is S_upper reversed and only the upper half is summed; otherwise both halves
    are.  Raises ``ValueError`` unless ``derived`` is ``derive(config)``
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
    amp = derived.kernel_prefactor * derived.slit_amplitude
    slit_sum = _build_slit_sum(n, c, derived, grids.screen_positions, amp)
    upper, screen = slit_sum(grids.upper_slit), grids.screen_positions
    mirrored = (np.array_equal(grids.lower_slit, -grids.upper_slit[::-1])
                and np.array_equal(screen, -screen[::-1]))
    # On mirror-image grids S_lower(x_j) = S_upper(-x_j) = S_upper(x_{N-1-j}).
    lower = upper[::-1].copy() if mirrored else slit_sum(grids.lower_slit)
    return AmplitudeField(lower, upper, behavior, screen, config)


def intensity(field: AmplitudeField) -> IntensityProfile:
    """Standalone probability density from an amplitude field.

    Slit sums routed to the same screen qubit state add coherently; the two
    screen qubit states are exclusive and their probabilities add.  Raises
    :class:`SimulationError` naming the first screen index (1-based) with a non-finite
    density and the lowest qubit state whose amplitude, or its square, is not finite
    there, or the lowest state if only their sum is not.
    """
    e_lower, e_upper = screen_states(field.behavior)
    with np.errstate(over="ignore"):
        # (screen qubit state e, its amplitude): one coherent sum, or one state per half
        states = (((e_lower, field.lower + field.upper),) if e_lower == e_upper
                  else ((e_lower, field.lower), (e_upper, field.upper)))
        squares = [amplitude.real ** 2 + amplitude.imag ** 2 for _, amplitude in states]
        density = squares[0] + squares[1] if len(squares) == 2 else squares[0]
        finite = np.isfinite(density)
        if not finite.all():
            i = int(finite.argmin())
            e, amplitude = min(states, key=lambda s: (
                bool(np.isfinite(s[1][i].real ** 2 + s[1][i].imag ** 2)), s[0]))
            kind = "density" if np.isfinite(amplitude[i]) else "amplitude"
            raise SimulationError(f"non-finite {kind} at screen index {i + 1}, qubit state {e}")
    return IntensityProfile(positions=field.positions, density=density,
                            behavior=field.behavior, config=field.config)


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
