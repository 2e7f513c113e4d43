"""Independent recomputation of roughwave's study outputs.

Nothing here imports roughwave.  The random stream uses Python integers and
libm (``math``) where the package uses numpy's vectorised uint64 and
``log``/``cos``/``sin``; restriction halves the grid one level at a time
where the package averages in a single reshape; the fluxes are closed forms.
The two computations may therefore differ in the last bits, and the checks
compare them within ``RTOL``/``ATOL`` instead of bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TINY = 2.0**-53


def sample_seed(base_seed: int, index: int) -> int:
    return (base_seed ^ ((_GAMMA * (index + 1)) & _MASK)) & _MASK


def _normals(seed: int):
    """splitmix64 uniforms on (0, 1] through Box-Muller, cosine branch first."""
    state = seed & _MASK
    while True:
        pair = []
        for _ in range(2):
            state = (state + _GAMMA) & _MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            pair.append(((z ^ (z >> 31)) >> 11) * _TINY or _TINY)
        radius = math.sqrt(-2.0 * math.log(pair[0]))
        angle = 2.0 * math.pi * pair[1]
        yield radius * math.cos(angle)
        yield radius * math.sin(angle)


def fbm_path(hurst: float, level: int, seed: int) -> list:
    """Raw midpoint-displacement path on j * 2^-level, j = 0 .. 2^level."""
    draws = _normals(seed)
    n = 1 << level
    pts = [0.0] * (n + 1)
    pts[n] = next(draws)
    for lev in range(level):
        stride = n >> lev
        half = stride >> 1
        sigma = math.sqrt((1.0 - 2.0 ** (2.0 * hurst - 2.0)) / 2.0 ** (2.0 * lev * hurst))
        for i in range(0, n, stride):
            pts[i + half] = 0.5 * (pts[i] + pts[i + stride]) + sigma * next(draws)
    return pts


def fbm_cells(hurst: float, level: int, seed: int) -> np.ndarray:
    """Normalised fBm field: 2^level cells, each the path value at its left edge."""
    pts = fbm_path(hurst, level, seed)
    peak = max(abs(p) for p in pts)
    return np.array(pts[:-1]) / peak


def fbm_cells_all_levels(hurst: float, levels, seed: int) -> dict:
    """Normalised fields at several levels from one deep path.

    Raw paths nest across levels (the shallower levels consume the same
    stream positions), so each level is a strided view of the deepest path
    with its own normalisation peak.
    """
    top = max(levels)
    pts = np.array(fbm_path(hurst, top, seed))
    out = {}
    for k in levels:
        sub = pts[:: 1 << (top - k)]
        out[k] = sub[:-1] / np.max(np.abs(sub))
    return out


def restrict(values: np.ndarray, k_from: int, k_to: int) -> np.ndarray:
    """Cell averages from 2^k_from down to 2^k_to cells, one halving at a time."""
    for _ in range(k_from - k_to):
        values = 0.5 * (values[0::2] + values[1::2])
    return values


def total_variation(values: np.ndarray, periodic: bool = False) -> float:
    tv = float(np.abs(np.diff(values)).sum())
    if periodic:
        tv += abs(float(values[0]) - float(values[-1]))
    return tv


def lip_plus(values: np.ndarray) -> float:
    return float(np.max(np.diff(values))) * values.size


def l1_error(coarse: np.ndarray, fine: np.ndarray) -> float:
    k_c = coarse.size.bit_length() - 1
    k_f = fine.size.bit_length() - 1
    return float(np.abs(coarse - restrict(fine, k_f, k_c)).sum()) / coarse.size


def slope(dx, values) -> float:
    """Least-squares slope of log(values) against log(dx), closed form."""
    x = [math.log(h) for h in dx]
    y = [math.log(v) for v in values]
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


def _burgers_godunov(a, b):
    return np.maximum(0.5 * np.maximum(a, 0.0) ** 2, 0.5 * np.minimum(b, 0.0) ** 2)


def _cubic_rusanov(a, b):
    return 0.5 * (a**3 / 3.0 + b**3 / 3.0) - 0.5 * np.maximum(a * a, b * b) * (b - a)


SCHEMES = {
    # (equation, numflux): (face flux, max |f'| over [lo, hi])
    ("burgers", "godunov"): (_burgers_godunov, lambda lo, hi: max(abs(lo), abs(hi))),
    ("cubic", "rusanov"): (_cubic_rusanov, lambda lo, hi: max(lo * lo, hi * hi)),
}


def evolve(u0: np.ndarray, equation: str, numflux: str, t_final: float, cfl: float,
           periodic: bool, snapshot_times=(), record_tv: bool = False) -> dict:
    """March the conservative update with dt = cfl dx / max|f'| of the data.

    Time accumulates as t <- min(t + dt_i, T) with the final step shortened,
    stopping once t >= T - 1e-12 max(1, T); a snapshot is the first state at
    or after its requested time, within the same guard.
    """
    face_flux, speed = SCHEMES[(equation, numflux)]
    n = u0.size
    dx = 1.0 / n
    top = speed(float(u0.min()), float(u0.max()))
    dt = cfl * dx / top if top > 0.0 else cfl * dx
    guard = 1e-12 * max(1.0, t_final)
    v = u0.copy()
    padded = np.empty(n + 2)
    t = 0.0
    times = [0.0]
    tvs = [total_variation(v, periodic)] if record_tv else []
    pending = list(snapshot_times)
    snaps = []
    while pending and pending[0] <= 0.0:
        snaps.append((0.0, v.copy()))
        pending.pop(0)
    while t < t_final - guard:
        dt_i = min(dt, t_final - t)
        padded[1:-1] = v
        padded[0], padded[-1] = (v[-1], v[0]) if periodic else (v[0], v[-1])
        face = face_flux(padded[:-1], padded[1:])
        v = v - (dt_i / dx) * (face[1:] - face[:-1])
        t = min(t + dt_i, t_final)
        times.append(t)
        if record_tv:
            tvs.append(total_variation(v, periodic))
        while pending and t >= pending[0] - guard:
            snaps.append((t, v.copy()))
            pending.pop(0)
    return {"dt": dt, "times": times, "tv": tvs, "snapshots": snaps, "final": v}


def tv_time_integral(run: dict) -> float:
    times = run["times"]
    weights = [run["dt"]] * len(times)
    weights[-1] = times[-1] - times[-2]
    return float(sum(w * tv for w, tv in zip(weights, run["tv"])))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def close_all(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL
