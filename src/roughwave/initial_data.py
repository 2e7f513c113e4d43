"""Seeded random initial data: fractional Brownian motion by recursive
midpoint displacement.

The random number generator is pinned to an exact bit recipe (splitmix64
for the integer stream, Box-Muller for normals) so that every experiment is
reproducible from its seed alone.  The normals and each midpoint level are drawn
by the compiled library of ``_kernels``, whose log and sincos are IEEE basic
operations only, so no libm and no SIMD kernel picked by CPU sets their bits.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import _kernels
from .mesh import CellField, Grid

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# 2^26 + 1 path points is ~0.5 GB of float64; refuse anything deeper (a march's
# 2^28 time points, 2 GiB, are solver._MAX_STEPS)
MAX_LEVEL = 26


class SplitMix64:
    """splitmix64 stream with Box-Muller standard normals.

    The integer recipe: state += 0x9E3779B97F4A7C15 (mod 2^64), then mix
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.

    Normals come in pairs: two uniforms u1, u2 = (z >> 11) * 2^-53 mapped
    onto (0, 1] (a zero draw becomes 2^-53) give r = sqrt(-2 log u1) times the
    cosine, then the sine, of 2 pi u2, by the library's ``normals``.  Nothing is
    cached, so a normal's bits depend only on its position in the stream and draws
    in chunks give the same stream as one block.
    """

    def __init__(self, seed: int):
        self.state = operator.index(seed) & _MASK64

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal draws, ``count`` even, as a fresh array."""
        if count % 2 or count < 0:
            raise ValueError(f"normals come in pairs; count must be even and >= 0, got {count}")
        z = np.empty(count)
        self.state = _kernels.load().normals(self.state, z.ctypes.data, count)
        return z


def sample_seed(base_seed: int, index: int) -> int:
    """Derived per-sample seed: base XOR (i+1) times the golden-ratio gamma."""
    return (operator.index(base_seed) ^ (GOLDEN_GAMMA * (operator.index(index) + 1))) & _MASK64


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
    order is fixed, so a path is a pure function of (hurst, level, seed).  The
    right endpoint and level 0's one midpoint are drawn as one pair; each later
    level's even count of noise is drawn in one block and written straight into
    its midpoint slots, by one call of the library's ``draw``.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if not 1 <= level_k <= MAX_LEVEL:
        raise ValueError(f"level must lie in [1, {MAX_LEVEL}], got {level_k}")
    n = 1 << level_k
    pts = np.zeros(n + 1)
    pts[n], noise = rng.normals(2)
    pts[n >> 1] = 0.5 * pts[n] + _midpoint_scale(hurst, 0) * noise
    draw = _kernels.load().draw
    for level in range(1, level_k):
        rng.state = draw(rng.state, pts.ctypes.data, n >> level, 1 << level,
                         _midpoint_scale(hurst, level))
    return pts


def _unit_path(hurst: float, level_k: int, seed: int) -> np.ndarray:
    """The path of ``_midpoint_points`` drawn with ``SplitMix64(seed)``, rescaled in
    place so that its largest |value| is 1; a zero path is left alone."""
    p = _midpoint_points(hurst, level_k, SplitMix64(seed))
    peak = max(p.max(), -p.min())  # max|p|, without a |p| temporary
    if peak != 0.0:
        p /= peak
    return p


def fbm_initial_field(hurst: float, grid: Grid, seed: int) -> CellField:
    """Normalized fBm sample as cell data on a power-of-two grid over [0, 1].

    Cell i takes the value at its left edge i * 2^-k of ``_unit_path``; the
    final path point is dropped.
    """
    n = grid.n_cells
    if n < 2 or n & (n - 1) != 0:
        raise ValueError(f"n_cells must be a power of two >= 2, got {n}")
    if grid.x_left != 0.0 or grid.x_right != 1.0:
        raise ValueError(f"fBm fields live on [0, 1], got [{grid.x_left}, {grid.x_right}]")
    return CellField(grid, _unit_path(hurst, n.bit_length() - 1, seed)[:-1])
