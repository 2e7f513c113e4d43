"""Seeded fractional Brownian motion initial data.

Draws one unit-peak fBm field per Hurst exponent from one seed, shows that
the size of an increment over a lag of L cells grows like L^H, and
demonstrates that every field is a pure function of (H, grid, seed).
Midpoint displacement is not exactly stationary, so at small H the fitted
exponent runs high.
"""

import numpy as np

from roughwave import fbm_initial_field, fit_rate, make_grid

LEVEL = 12  # 2^12 cells on [0, 1]
SEED = 2024
LAGS = [1 << j for j in range(7)]  # 1, 2, 4, ..., 64 cells

grid = make_grid(0.0, 1.0, 1 << LEVEL)
print(f"fBm fields on {grid.n_cells} cells, seed {SEED}, normalized so max |u| = 1")
print()
print("rms increment over a lag of L cells; the log-log slope estimates H")
print("H      " + "".join(f"L={lag:<8d}" for lag in LAGS) + "slope")
for hurst in (0.125, 0.25, 0.5, 0.75):
    u = fbm_initial_field(hurst, grid, SEED).values
    rms = [float(np.sqrt(np.mean((u[lag:] - u[:-lag]) ** 2))) for lag in LAGS]
    slope = fit_rate(list(zip(LAGS, rms)))[0]
    print(f"{hurst:<6} " + "".join(f"{r:<10.5f}" for r in rms) + f"{slope:+.3f}")

print()
a = fbm_initial_field(0.5, grid, SEED)
b = fbm_initial_field(0.5, grid, SEED)
c = fbm_initial_field(0.5, grid, SEED + 1)
print("same seed twice gives identical fields:", np.array_equal(a.values, b.values))
print("the next seed gives a different field: ", not np.array_equal(a.values, c.values))
print(f"peak value: {np.max(np.abs(a.values)):.1f} (at most 1; the final path point is dropped)")
