"""Compare the two upper-slit placement rules.

Taken literally, the published indexing formula keeps counting slit cells
upward past the lower slit, which lands the upper slit on
[(d+a)/2, (d+3a)/2] instead of the symmetric [(d-a)/2, (d+a)/2].  The
effective center-to-center separation becomes d+a, and the measured
fringe spacing shrinks accordingly: lambda*L/(d+a) instead of lambda*L/d.
The corrected mode (the default) restores the symmetric geometry.
"""

import doubleslit as ds

NONE = ds.QubitBehavior.NONE

for mode in ds.GeometryMode:
    config = ds.ExperimentConfig(geometry_mode=mode)
    derived = ds.derive(config)
    grids = ds.build_grids(config, derived)
    profile = ds.simulate_all(config, behaviors=(NONE,))[NONE]

    preds = ds.analytic_predictions(config)
    peaks = ds.find_peaks(profile)
    spacing = ds.fringe_spacing(peaks, preds.first_minimum)

    d, a, lam, L = (config.slit_separation, config.slit_width,
                    config.wavelength, config.wall_to_screen)
    print(f"geometry = {mode.value}")
    print(f"  upper slit spans [{grids.upper_slit[0]:.4e}, {grids.upper_slit[-1]:.4e}] m")
    print(f"  measured fringe spacing   = {spacing:.6f} m")
    print(f"  two-source lambda*L/d     = {lam * L / d:.6f} m")
    print(f"  two-source lambda*L/(d+a) = {lam * L / (d + a):.6f} m")
    print()
