"""Seeded random initial data: fractional Brownian motion by recursive
midpoint displacement.

The random number generator is pinned to an exact bit recipe (splitmix64
for the integer stream, Box-Muller for normals) so that every experiment is
reproducible from its seed alone.  The normals and the whole path are drawn in one
call of the compiled library of ``_kernels``, whose log and sincos are IEEE basic
operations only, so no libm and no SIMD kernel picked by CPU sets their bits; the
path's finer levels are drawn a cache-sized block at a time, in the bits of the
level-by-level order.  ``_draw_path`` gives a path and its peak, which the studies'
one-pass restriction divides by as it reads; ``_unit_cells`` divides the path itself
and seals it, so that a CellField keeps it without a copy.
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
    right endpoint and level 0's one midpoint are drawn as one pair, and each later
    level's even count of noise in one block.  The whole path is one call of the
    library's ``path``, which draws the finer levels a cache-sized block of the path at
    a time, each block's normals from its own place in the stream, so the bits are
    those of the level-by-level order.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if not 1 <= level_k <= MAX_LEVEL:
        raise ValueError(f"level must lie in [1, {MAX_LEVEL}], got {level_k}")
    pts = np.empty((1 << level_k) + 1)
    scales = np.array([_midpoint_scale(hurst, level) for level in range(level_k)])
    rng.state = _kernels.load().path(rng.state, pts.ctypes.data, level_k, scales.ctypes.data)
    return pts


def _draw_path(hurst: float, level_k: int, seed: int):
    """The path of ``_midpoint_points`` drawn with ``SplitMix64(seed)``, and the
    divisor that makes its largest |value| 1: that value, or 1.0 for a zero path,
    which is left alone."""
    p = _midpoint_points(hurst, level_k, SplitMix64(seed))
    peak = max(p.max(), -p.min())  # max|p|, without a |p| temporary
    return p, peak if peak != 0.0 else 1.0


def _unit_cells(path: np.ndarray, peak: float) -> np.ndarray:
    """The cell values of the unit path: ``path`` divided in place by ``peak`` and
    frozen, its final point dropped, a view that a CellField keeps as it is."""
    path /= peak
    path.setflags(write=False)
    return path[:-1]


def fbm_initial_field(hurst: float, grid: Grid, seed: int) -> CellField:
    """Normalized fBm sample as cell data on a power-of-two grid over [0, 1].

    Cell i takes the value at its left edge i * 2^-k of the path of ``_draw_path``
    divided by its divisor; the final path point is dropped.
    """
    n = grid.n_cells
    if n < 2 or n & (n - 1) != 0:
        raise ValueError(f"n_cells must be a power of two >= 2, got {n}")
    if grid.x_left != 0.0 or grid.x_right != 1.0:
        raise ValueError(f"fBm fields live on [0, 1], got [{grid.x_left}, {grid.x_right}]")
    return CellField(grid, _unit_cells(*_draw_path(hurst, n.bit_length() - 1, seed)))
