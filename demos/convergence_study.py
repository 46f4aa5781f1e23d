"""Grid-refinement study for the fringed (inactive-qubit) profile.

Both the slit and the screen are coarse grained with the same N.  As N
doubles, successive profiles are compared on a common grid (the coarsest
run's positions, by linear interpolation); the sup-norm distance between
refinement levels shrinks, while the in-range probability mass stays
pinned near 0.95 because the truncation of the screen, not the grid,
decides it.
"""

import numpy as np

import doubleslit as ds

SIZES = (250, 500, 1000, 2000)
NONE = ds.QubitBehavior.NONE

profiles = {}
for n in SIZES:
    config = ds.ExperimentConfig(n_positions=n)
    profiles[n] = ds.simulate_all(config, behaviors=(NONE,))[NONE]
    print(f"N = {n:5d}: in-range probability = {ds.total_probability(profiles[n]):.6f}")

reference_x = profiles[SIZES[0]].positions
print("\nsup-norm distance between successive refinements (common grid):")
for n in SIZES[:-1]:
    coarse = np.interp(reference_x, profiles[n].positions, profiles[n].density)
    fine = np.interp(reference_x, profiles[2 * n].positions, profiles[2 * n].density)
    print(f"  |I_{n} - I_{2 * n}|_sup = {np.max(np.abs(coarse - fine)):.4f} 1/m")
