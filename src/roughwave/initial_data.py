"""Seeded random initial data: fractional Brownian motion by recursive
midpoint displacement.

The random number generator is pinned to an exact bit recipe (splitmix64
for the integer stream, Box-Muller for normals) so that every experiment is
reproducible from its seed alone.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import CellField, Grid

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF
_U53_SCALE = 2.0**-53

# 2^26 + 1 path points is ~0.5 GB of float64; refuse anything deeper
MAX_LEVEL = 26
# normals drawn per chunk of a midpoint level (measured best of 2^13 .. 2^16)
_DRAW_CHUNK = 1 << 15


class SplitMix64:
    """splitmix64 stream with Box-Muller standard normals.

    The integer recipe of ``u64``: state += 0x9E3779B97F4A7C15 (mod 2^64), then mix
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.

    Normals consume two uniforms u1, u2 = (u64 >> 11) * 2^-53 mapped onto
    (0, 1] (a zero draw becomes 2^-53) and yield the cosine branch first;
    the sine partner is cached for the next draw, so draws in chunks give
    the same stream as one block.
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64
        self._spare_normal: float | None = None

    def u64(self, count: int) -> np.ndarray:
        """The next ``count`` words of the integer stream, as a uint64 array."""
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN_GAMMA)
        z += np.uint64(self.state)
        shifted = np.empty_like(z)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mult)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        self.state = (self.state + count * GOLDEN_GAMMA) & _MASK64
        return z

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal draws as an array (Box-Muller in place on the
        uniforms' own buffer, which is returned unless a spare normal leads it)."""
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        lead = []
        if self._spare_normal is not None and count > 0:
            lead, self._spare_normal = [self._spare_normal], None
        need = count - len(lead)
        if need == 0:
            return np.array(lead, dtype=float)
        u = self.u64(2 * ((need + 1) // 2))
        u >>= np.uint64(11)
        z = u.view(np.float64)
        z[...] = u.view(np.int64)  # exact: every value is below 2^53
        z *= _U53_SCALE
        np.maximum(z, _U53_SCALE, out=z)  # a zero draw becomes 2^-53
        r, ang = z[0::2], z[1::2]
        np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
        np.multiply(ang, 2.0 * np.pi, out=ang)
        cos = np.cos(ang)
        np.multiply(r, np.sin(ang, out=ang), out=ang)
        np.multiply(r, cos, out=r)
        if need % 2 == 1:
            self._spare_normal = float(z[need])
        return np.concatenate((lead, z[:need])) if lead else z[:need]


def sample_seed(base_seed: int, index: int) -> int:
    """Derived per-sample seed: base XOR (i+1) times the golden-ratio gamma."""
    return (int(base_seed) ^ ((GOLDEN_GAMMA * (int(index) + 1)) & _MASK64)) & _MASK64


def _midpoint_scale(hurst: float, level: int) -> float:
    """Std dev of the displacement added when bisecting at the given level."""
    return math.sqrt((1.0 - 2.0 ** (2.0 * hurst - 2.0)) / 2.0 ** (2.0 * level * hurst))


def _midpoint_points(hurst: float, level_k: int, rng: SplitMix64) -> np.ndarray:
    """Fractional Brownian motion on the 2^level_k + 1 points j * 2^-level_k,
    by recursive midpoint displacement, in one fresh array.

    The left endpoint is 0 and the right endpoint is a standard normal draw.
    Then, level by level (coarse to fine, left to right within a level), each
    interval is bisected and the midpoint set to the neighbour average plus a
    fresh Gaussian scaled by ``_midpoint_scale(hurst, level)``.  The traversal
    order is fixed, so a path is a pure function of (hurst, level, seed).  Each
    level's noise is drawn in chunks of ``_DRAW_CHUNK`` and written straight
    into its midpoint slots.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if not 1 <= level_k <= MAX_LEVEL:
        raise ValueError(f"level must lie in [1, {MAX_LEVEL}], got {level_k}")
    n = 1 << level_k
    pts = np.zeros(n + 1)
    pts[n] = rng.normals(1)[0]
    for level in range(level_k):
        stride = n >> level
        scale = _midpoint_scale(hurst, level)
        mids, lefts, rights = pts[stride >> 1 :: stride], pts[0:n:stride], pts[stride::stride]
        for a in range(0, 1 << level, _DRAW_CHUNK):
            b = a + _DRAW_CHUNK
            mid = mids[a:b]
            noise = rng.normals(mid.size)
            np.add(lefts[a:b], rights[a:b], out=mid)
            mid *= 0.5
            noise *= scale
            mid += noise
    return pts


def fbm_initial_field(hurst: float, grid: Grid, seed: int) -> CellField:
    """Normalized fBm sample as cell data on a power-of-two grid over [0, 1].

    Cell i takes the value at its left edge i * 2^-k of the path drawn by
    ``_midpoint_points`` with ``SplitMix64(seed)``; the final path point is
    dropped.  The path is rescaled in place so that its largest |value| is 1;
    a zero path is left alone.
    """
    n = grid.n_cells
    if n < 2 or n & (n - 1) != 0:
        raise ValueError(f"n_cells must be a power of two >= 2, got {n}")
    if grid.x_left != 0.0 or grid.x_right != 1.0:
        raise ValueError(f"fBm fields live on [0, 1], got [{grid.x_left}, {grid.x_right}]")
    p = _midpoint_points(hurst, n.bit_length() - 1, SplitMix64(seed))
    peak = max(p.max(), -p.min())  # max|p|, without a |p| temporary
    if peak != 0.0:
        p /= peak
    return CellField(grid, p[:-1])
