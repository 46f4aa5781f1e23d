"""Coarse-grained double-slit electron simulator with a which-path qubit.

The package propagates discretized slit amplitudes to a detector screen
through the free-particle path-integral kernel, under three environmental
qubit behaviors (none / remembers / forgets), and analyzes the resulting
intensity profiles against elementary diffraction-and-interference optics.
Its public names are those each module lists in its ``__all__``.
"""

from . import analysis, physics, propagation, qubit, reporting
from .analysis import *
from .physics import *
from .propagation import *
from .qubit import *
from .reporting import *

__version__ = "0.1.0"

__all__ = [name for module in (analysis, physics, propagation, qubit, reporting)
           for name in module.__all__]
