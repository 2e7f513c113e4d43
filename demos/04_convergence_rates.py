"""Measured convergence rates against a fine-mesh reference.

Each sample draws one rough initial profile at the reference resolution,
restricts it to every coarse grid, evolves everything to T = 1 and compares
in L1.  Rates are fitted per sample and averaged.  Rough data costs accuracy:
the observed rate sits well below the classical first-order rate for smooth
data, but above the worst-case floor H/2.
"""

import time

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
    hurst_list=(0.5,),
    resolutions=(5, 6, 7, 8, 9),
    reference_exponent=11,
    n_samples=8,
    base_seed=2024,
    t_final=1.0,
)

started = time.monotonic()
res = run_samples_parallel("converge", cfg)
print(f"{cfg.n_samples} samples, reference mesh 2^{cfg.reference_exponent},"
      f" ran in {time.monotonic() - started:.1f}s")
print()

print("k    dx        mean L1 error   mean pairwise rate")
for row in res.rows:
    if row[2] == "MEAN" and isinstance(row[3], int):
        rate = f"{row[6]:+.3f}" if row[6] is not None else "   --"
        print(f"{row[3]:<4} 2^-{row[3]:<6} {row[5]:<15.5f} {rate}")

mean_rate = [r[-1] for r in res.rows if r[2] == "MEAN" and r[3] == "RATE"][0]
std_rate = [r[-1] for r in res.rows if r[2] == "STD" and r[3] == "RATE"][0]
print()
print(f"ensemble rate: {mean_rate:.3f} +/- {std_rate:.3f}"
      f" (theoretical floor H/2 = {cfg.hurst_list[0] / 2})")
