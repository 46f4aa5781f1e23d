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
    "screen_state",
    "screen_state_weights",
    "TransitionMask",
    "build_mask",
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
    if not isinstance(n, int) or isinstance(n, bool) or n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n!r}")


def screen_state(behavior: QubitBehavior, half: str) -> int:
    """Screen qubit state e that receives the whole sum of ``half`` ("lower" or "upper")."""
    return _route(behavior, half)[1]


def screen_state_weights(behavior: QubitBehavior, n: int) -> np.ndarray:
    """(n, 2) array of 0/1 weights: weights[i'-1, e-1] = 1 where slit cell i' reaches e.

    Exactly one (e', e) is admissible per slit position, so each row sums to 1.
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


def render_mask(mask: TransitionMask) -> str:
    """Plain-text export of the composite table: '#' allowed, '.' disallowed.

    First line is ``behavior=<name> n=<n>``; the 2n following lines are the
    rows of :meth:`TransitionMask.composite_table` in order.
    """
    table = mask.composite_table().tobytes()        # one byte, 0 or 1, per bool cell
    cells = table.translate(bytes.maketrans(b"\0\1", b".#")).decode("ascii")
    width = 2 * mask.n
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    return "\n".join([f"behavior={mask.behavior.value} n={mask.n}", *rows]) + "\n"
