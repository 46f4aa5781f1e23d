"""Admissibility rules for the environmental which-path qubit.

A two-state qubit sits at the slit wall and may mark which slit the
electron traversed.  Qubit value 1 corresponds to the upper slit (and is
the default state), value 2 to the lower slit.  Three behaviors are
modeled, each pinning the composite (electron, qubit) transitions that are
allowed between the wall (primed indices) and the screen:

* NONE      - the qubit never interacts: e' = e = 1.
* REMEMBERS - the qubit faithfully records the entry slit and keeps the
              record: e' matches the slit and e = e'.
* FORGETS   - the qubit records the entry slit but relaxes back to its
              default before detection: e' matches the slit and e = 1.

Transition probabilities for the qubit itself are all 0 or 1 and the kernel
ignores e', so a behavior is a routing table: each slit half has one allowed
(e', e), which sends that slit's whole amplitude sum to screen state e.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "QubitBehavior",
    "is_allowed",
    "screen_state",
    "screen_state_weights",
    "TransitionMask",
    "build_mask",
    "interference_possible",
    "render_mask",
]


class QubitBehavior(Enum):
    NONE = "none"
    REMEMBERS = "remembers"
    FORGETS = "forgets"


# behavior -> slit half -> the one allowed (wall state e', screen state e)
_ROUTES = {
    QubitBehavior.NONE: {"lower": (1, 1), "upper": (1, 1)},
    QubitBehavior.REMEMBERS: {"lower": (2, 2), "upper": (1, 1)},
    QubitBehavior.FORGETS: {"lower": (2, 1), "upper": (1, 1)},
}


def _route(behavior: QubitBehavior, half: str) -> tuple[int, int]:
    if not isinstance(behavior, QubitBehavior):
        raise TypeError(f"behavior must be a QubitBehavior, got {behavior!r}")
    if half not in ("lower", "upper"):
        raise ValueError(f"half must be 'lower' or 'upper', got {half!r}")
    return _ROUTES[behavior][half]


def _validate_n(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")


def _validate_indices(n: int, i_prime: int, e_prime: int, e: int) -> None:
    _validate_n(n)
    if not 1 <= i_prime <= n:
        raise IndexError(f"slit index i' must be in 1..{n}, got {i_prime}")
    if e_prime not in (1, 2):
        raise IndexError(f"wall qubit state e' must be 1 or 2, got {e_prime}")
    if e not in (1, 2):
        raise IndexError(f"screen qubit state e must be 1 or 2, got {e}")


def is_allowed(behavior: QubitBehavior, n: int, i_prime: int, e_prime: int, e: int) -> bool:
    """Whether the composite transition (i', e') -> (any screen position, e) is allowed.

    Indices are 1-based: i' in 1..n with i' <= n/2 the lower slit, e' and e
    in {1, 2}.  The screen position index never enters; admissibility is
    constant along screen rows.
    """
    _validate_indices(n, i_prime, e_prime, e)
    half = "lower" if i_prime <= n // 2 else "upper"
    return _route(behavior, half) == (e_prime, e)


def screen_state(behavior: QubitBehavior, half: str) -> int:
    """Screen qubit state e that receives the whole sum of ``half`` ("lower" or "upper")."""
    return _route(behavior, half)[1]


def screen_state_weights(behavior: QubitBehavior, n: int) -> np.ndarray:
    """(n, 2) array of 0/1 weights: weights[i'-1, e-1] = sum over e' of is_allowed.

    Exactly one wall qubit state is admissible per slit position, so
    entries are 0.0 or 1.0 and each row sums to 1.
    """
    _validate_n(n)
    weights = np.zeros((n, 2))
    half = n // 2
    weights[:half, screen_state(behavior, "lower") - 1] = 1.0
    weights[half:, screen_state(behavior, "upper") - 1] = 1.0
    return weights


@dataclass(frozen=True)
class TransitionMask:
    """Allowed/disallowed structure of the composite transition matrix.

    The mask is represented by the behavior's routing table; a dense table
    is materialized only on demand, since the structure depends on i' only
    through which slit it falls in, never on the screen index.  Raises
    ``TypeError`` for a behavior that is not a :class:`QubitBehavior` and
    ``ValueError`` unless n is an even integer >= 2.
    """

    behavior: QubitBehavior
    n: int

    def __post_init__(self) -> None:
        _route(self.behavior, "lower")   # the behavior's type check
        _validate_n(self.n)

    def composite_table(self) -> np.ndarray:
        """Dense (2n, 2n) boolean table.

        Rows are composite screen states ordered (e=1 block, then e=2 block,
        i ascending within each block); columns are composite wall states
        ordered the same way for (i', e').
        """
        n = self.n
        half = n // 2
        table = np.zeros((2 * n, 2 * n), dtype=bool)
        for k, slit in enumerate(("lower", "upper")):
            e_prime, e = _route(self.behavior, slit)
            col = (e_prime - 1) * n + k * half
            table[(e - 1) * n:e * n, col:col + half] = True
        return table


def build_mask(behavior: QubitBehavior, n: int) -> TransitionMask:
    """The :class:`TransitionMask` of ``behavior`` over n slit positions."""
    return TransitionMask(behavior=behavior, n=n)


def interference_possible(mask: TransitionMask) -> bool:
    """True when some screen qubit state collects amplitude from both slits."""
    return screen_state(mask.behavior, "lower") == screen_state(mask.behavior, "upper")


def render_mask(mask: TransitionMask) -> str:
    """Plain-text export of the composite table: '#' allowed, '.' disallowed.

    First line is ``behavior=<name> n=<n>``; the 2n following lines are the
    rows of :meth:`TransitionMask.composite_table` in order.
    """
    table = mask.composite_table()
    lines = [f"behavior={mask.behavior.value} n={mask.n}"]
    for row in table:
        lines.append("".join("#" if cell else "." for cell in row))
    return "\n".join(lines) + "\n"
