"""Mesh-width scaling of the initial data's roughness measures.

Total variation of the projected data blows up like dx^(H-1): rougher paths
(smaller H) accumulate more variation per refinement.  The one-sided
Lipschitz seminorm tracks the same exponent, running slightly steeper
because it is a maximum over ~1/dx increments.
"""

import numpy as np

from roughwave import (
    FluxSpec,
    NumericalFluxSpec,
    NumFluxKind,
    StudyConfig,
    run_samples_parallel,
)

cfg = StudyConfig(
    equation=FluxSpec.BURGERS,
    numflux=NumericalFluxSpec(NumFluxKind.GODUNOV),
    hurst_list=(0.25, 0.5, 0.75),
    resolutions=tuple(range(6, 13)),
    reference_exponent=14,
    n_samples=16,
    base_seed=2024,
)

tv = run_samples_parallel("tvscale", cfg)
lip = run_samples_parallel("lipscale", cfg)


def mean_slope(result, hurst):
    return [r[-1] for r in result.rows if r[1] == hurst and r[2] == "MEAN"][0]


print(f"{cfg.n_samples} samples per H, resolutions 2^6 .. 2^12, fits of log-log slope")
print()
print("H      target (H-1)   TV slope   Lip+ slope")
for h in cfg.hurst_list:
    print(f"{h:<6} {h - 1:+12.2f} {mean_slope(tv, h):+10.3f} {mean_slope(lip, h):+12.3f}")

print()
print("per-resolution TV means for H = 0.5:")
data = [r for r in tv.rows if r[1] == 0.5 and isinstance(r[3], int)]
for k in sorted({r[3] for r in data}):
    vals = [r[5] for r in data if r[3] == k]
    print(f"  k={k:2d}  dx=2^-{k:<3d} TV = {np.mean(vals):8.3f}")
