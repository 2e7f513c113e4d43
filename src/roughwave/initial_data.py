"""Seeded random initial data: fractional Brownian motion by recursive
midpoint displacement.

The random number generator is pinned to an exact bit recipe (splitmix64
for the integer stream, Box-Muller for normals) so that every experiment is
reproducible from its seed alone.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .mesh import CellField, Grid

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF
_U53_SCALE = 2.0**-53

# 2^26 + 1 path points is ~0.5 GB of float64; refuse anything deeper (a march's
# 2^28 time points, 2 GiB, are solver._MAX_STEPS)
MAX_LEVEL = 26
# normals drawn per chunk of a midpoint level: with the compiled kernels at k = 18,
# 2^14 .. 2^16 are within 4% of each other, and 2^12 and 2^17 10-20% slower
_DRAW_CHUNK = 1 << 15


class SplitMix64:
    """splitmix64 stream with Box-Muller standard normals.

    The integer recipe of ``u64``: state += 0x9E3779B97F4A7C15 (mod 2^64), then mix
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.

    Normals come in pairs: two uniforms u1, u2 = (u64 >> 11) * 2^-53 mapped
    onto (0, 1] (a zero draw becomes 2^-53) give the cosine branch, then the
    sine branch.  Nothing is cached, so a normal's bits depend only on its
    position in the stream and draws in chunks give the same stream as one block.
    """

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

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
        """``count`` standard normal draws, ``count`` even, as an array (Box-Muller in
        place on the uniforms' own buffer, which is returned)."""
        if count % 2:
            raise ValueError(f"normals come in pairs; count must be even, got {count}")
        u = self.u64(count)
        u >>= np.uint64(11)
        z = u.view(np.float64)
        z[...] = u.view(np.int64)  # exact: every value is below 2^53
        z *= _U53_SCALE
        np.maximum(z, _U53_SCALE, out=z)  # a zero draw becomes 2^-53
        r, ang = z[0::2], z[1::2]
        np.multiply(ang, 2.0 * np.pi, out=ang)
        cos = _log_cos_sin(z, np.empty(r.size))
        np.sqrt(np.multiply(r, -2.0, out=r), out=r)
        np.multiply(r, ang, out=ang)
        np.multiply(r, cos, out=r)
        return z


def _log_cos_sin(z: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """The transcendental part of Box-Muller on uniforms ``z`` whose odd slots hold
    the angles: log of the even slots and sin of the odd ones in place, the cosines
    into ``cos``, which is returned.  Both kernels of a draw run these numpy calls,
    on the same strided views, so that their bits are numpy's."""
    r, ang = z[0::2], z[1::2]
    np.log(r, out=r)
    np.cos(ang, out=cos)
    np.sin(ang, out=ang)
    return cos


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
    order is fixed, so a path is a pure function of (hurst, level, seed).  The
    right endpoint and level 0's one midpoint are drawn as one pair; each later
    level's even count of noise is drawn in chunks of ``_DRAW_CHUNK`` and
    written straight into its midpoint slots, by the C ``uniforms`` and
    ``displace`` where ``_kernels.load`` finds them, with the same bits.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    if not 1 <= level_k <= MAX_LEVEL:
        raise ValueError(f"level must lie in [1, {MAX_LEVEL}], got {level_k}")
    n = 1 << level_k
    pts = np.zeros(n + 1)
    pts[n], noise = rng.normals(2)
    pts[n >> 1] = 0.5 * pts[n] + _midpoint_scale(hurst, 0) * noise
    lib = _kernels.load()
    if lib is not None:  # the buffers of the compiled draw, reused by every chunk
        z = np.empty(min(n >> 1, _DRAW_CHUNK))
        cos = np.empty(z.size >> 1)
    for level in range(1, level_k):
        stride = n >> level
        scale = _midpoint_scale(hurst, level)
        mids, lefts, rights = pts[stride >> 1 :: stride], pts[0:n:stride], pts[stride::stride]
        for a in range(0, 1 << level, _DRAW_CHUNK):
            b = a + _DRAW_CHUNK
            mid = mids[a:b]
            if lib is None:
                noise = rng.normals(mid.size)
                np.add(lefts[a:b], rights[a:b], out=mid)
                mid *= 0.5
                noise *= scale
                mid += noise
            else:  # the same draw and update: two C calls around numpy's log, cos, sin
                chunk = z[:mid.size]
                rng.state = lib.uniforms(rng.state, chunk.ctypes.data, chunk.size)
                _log_cos_sin(chunk, cos[:chunk.size >> 1])
                lib.displace(pts.ctypes.data + a * stride * pts.itemsize, stride, chunk.size,
                             chunk.ctypes.data, cos.ctypes.data, scale)
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
