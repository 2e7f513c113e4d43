"""Sharpness of the logarithmic bound on the time-integrated total variation.

For the Godunov flux on Burgers' equation the one-sided seminorm decays at
the known rate beta = 1/8, which bounds sum_n TV(v(t^n)) dt by
2M (L0 dt + log(1 + beta T L0) / beta).  The table shows the bound, the
measured integral, and their ratio per mesh width: the bound always holds
(ratio >= 1) but overestimates by a growing margin on finer meshes.
"""

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
    resolutions=(6, 7, 8, 9, 10),
    reference_exponent=12,
    n_samples=8,
    base_seed=2024,
)

res = run_samples_parallel("sharpness", cfg)

print("k    dx       Lip+(u0)    measured integral   bound     ratio")
by_k = {}
for row in res.rows:
    if isinstance(row[3], int):
        by_k.setdefault(row[3], []).append(row)
for k, rows in sorted(by_k.items()):
    n = len(rows)
    l0 = sum(r[5] for r in rows) / n
    integral = sum(r[6] for r in rows) / n
    bound = sum(r[7] for r in rows) / n
    ratio = sum(r[8] for r in rows) / n
    print(f"{k:<4} 2^-{k:<5} {l0:9.2f} {integral:15.3f} {bound:12.3f} {ratio:8.3f}")

slope = [r[-1] for r in res.rows if r[2] == "MEAN" and r[3] == "SLOPE"][0]
print()
print(f"fitted slope of log ratio vs log dx: {slope:+.3f}"
      " (negative: the bound loosens as dx shrinks)")
print("every ratio >= 1:",
      all(r[8] >= 1.0 for r in res.rows if isinstance(r[3], int)))
