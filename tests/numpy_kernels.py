"""The numpy twins of the compiled kernels of ``_march.c``: the oracle that the
tests hold the library's bits to.

- ``log`` and ``sincos`` are ``ieee_log`` and ``ieee_sincos`` (fdlibm's),
  operation for operation in numpy's elementwise ``+ - * /`` and bit operations,
  which round once each on every CPU.  The C comments say how each works.
- ``SplitMix64`` draws the integer stream (``u64``) and the Box-Muller normals
  in numpy; ``midpoint_points`` draws fBm with them.
- ``march`` is the march of ``solver.evolve``, one ``advance`` per step, and
  ``variation`` the total variation of each state, numpy's pairwise sum.
- ``next_time`` is the march's clock in Python floats, with the clamp to t_final
  that the C clock leaves out because it never binds, and ``schedule`` its loop.

The package runs only the library; this code runs only in the tests.
"""

import sys

import numpy as np

from roughwave import initial_data
from roughwave.flux import NumericalFluxSpec, NumFluxKind, numerical_flux
from roughwave.solver import Boundary

_LN2_HI, _LN2_LO = float.fromhex("0x1.62e42fee00000p-1"), float.fromhex("0x1.a39ef35793c76p-33")
_LG1, _LG2, _LG3, _LG4, _LG5, _LG6, _LG7 = map(float.fromhex, (
    "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2",
    "0x1.c71c51d8e78afp-3", "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3",
    "0x1.2f112df3e5244p-3"))
_INVPIO2, _PIO2_1, _PIO2_2, _PIO2_2T = map(float.fromhex, (
    "0x1.45f306dc9c883p-1", "0x1.921fb54400000p+0", "0x1.0b4611a600000p-34",
    "0x1.3198a2e037073p-69"))
_S1, _S2, _S3, _S4, _S5, _S6 = map(float.fromhex, (
    "-0x1.5555555555549p-3", "0x1.111111110f8a6p-7", "-0x1.a01a019c161d5p-13",
    "0x1.71de357b1fe7dp-19", "-0x1.ae5e68a2b9cebp-26", "0x1.5d93a5acfd57cp-33"))
_C1, _C2, _C3, _C4, _C5, _C6 = map(float.fromhex, (
    "0x1.555555555554cp-5", "-0x1.6c16c16c15177p-10", "0x1.a01a019cb1590p-16",
    "-0x1.27e4f809c52adp-22", "0x1.1ee9ebdb4b1c4p-29", "-0x1.8fae9be8838d4p-37"))
_ROUND = 1.5 * 2.0**52  # added and taken away, it rounds to an integer


def log(x) -> np.ndarray:
    """The natural log of each positive finite double of ``x``, within 1 ulp; inf and
    nan are returned as they are."""
    x = np.asarray(x, dtype=float)
    sub = x < 2.0**-1022
    b = (x * np.where(sub, 2.0**54, 1.0)).view(np.uint64)
    hx = ((b >> 32) & 0xFFFFF).astype(np.int64)
    i = (hx + 0x95F64) & 0x100000
    k = (b >> 52).astype(np.int64) - 1023 - 54 * sub + (i >> 20)
    f = ((b & 0xFFFFFFFFFFFFF) | ((i ^ 0x3FF00000).astype(np.uint64) << 32)).view(float) - 1.0
    dk = k.astype(float)  # exact, as the C bits of 2^52 + k + 2048
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    r = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7))) + w * (_LG2 + w * (_LG4 + w * _LG6))
    hfsq = 0.5 * f * f
    tail = np.where(((hx - 0x6147A) | (0x6B851 - hx)) > 0,
                    hfsq - (s * (hfsq + r) + dk * _LN2_LO), s * (f - r) - dk * _LN2_LO)
    return np.where(x < np.inf, dk * _LN2_HI - (tail - f), x)


def sincos(x) -> tuple:
    """(sin, cos) of each double of ``x`` in [0, 2 pi), within 1 ulp."""
    x = np.asarray(x, dtype=float)
    t = x * _INVPIO2 + _ROUND
    q = t.view(np.uint64) & 3
    n = t - _ROUND
    r1 = x - n * _PIO2_1
    w = n * _PIO2_2
    r = r1 - w
    w = n * _PIO2_2T - ((r1 - r) - w)
    y = r - w
    yy = (r - y) - w
    z = y * y
    v = z * y
    zz = z * z
    rs = _S2 + z * (_S3 + z * _S4) + z * zz * (_S5 + z * _S6)
    sin_y = y - ((z * (0.5 * yy - v * rs) - yy) - v * _S1)
    rc = z * (_C1 + z * (_C2 + z * _C3)) + zz * zz * (_C4 + z * (_C5 + z * _C6))
    hz = 0.5 * z
    one_hz = 1.0 - hz
    cos_y = one_hz + (((1.0 - one_hz) - hz) + (z * rc - y * yy))
    odd = (q & 1) == 1
    s, c = np.where(odd, cos_y, sin_y), np.where(odd, sin_y, cos_y)
    return np.where(q & 2, -s, s), np.where((q + 1) & 2, -c, c)


class SplitMix64(initial_data.SplitMix64):
    """``initial_data.SplitMix64`` with its stream and normals drawn in numpy."""

    def u64(self, count: int) -> np.ndarray:
        """The next ``count`` words of the integer stream, as a uint64 array."""
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(initial_data.GOLDEN_GAMMA)
        z += np.uint64(self.state)
        shifted = np.empty_like(z)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(mult)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
        self.state = (self.state + count * initial_data.GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF
        return z

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard normal draws, ``count`` even, by Box-Muller on the
        uniforms' own buffer, which is returned."""
        if count % 2 or count < 0:
            raise ValueError(f"normals come in pairs; count must be even and >= 0, got {count}")
        u = self.u64(count)
        u >>= np.uint64(11)
        z = u.view(np.float64)
        z[...] = u.view(np.int64)  # exact: every value is below 2^53
        z *= 2.0**-53
        np.maximum(z, 2.0**-53, out=z)  # a zero draw becomes 2^-53
        sin, cos = sincos(z[1::2] * (2.0 * np.pi))
        r = np.sqrt(log(z[0::2]) * -2.0)
        np.multiply(r, cos, out=z[0::2])
        np.multiply(r, sin, out=z[1::2])
        return z


def midpoint_points(hurst, level_k, rng):
    """``initial_data._midpoint_points`` in numpy, with the ``SplitMix64`` above:
    each level's noise drawn in one block and added to its midpoints."""
    n = 1 << level_k
    pts = np.zeros(n + 1)
    pts[n], noise = rng.normals(2)
    pts[n >> 1] = 0.5 * pts[n] + initial_data._midpoint_scale(hurst, 0) * noise
    for level in range(1, level_k):
        stride = n >> level
        mid = pts[stride >> 1 :: stride]
        np.add(pts[0:n:stride], pts[stride::stride], out=mid)
        mid *= 0.5
        mid += rng.normals(mid.size) * initial_data._midpoint_scale(hurst, level)
    return pts


def advance(v, ratio, numflux, config):
    """The one update ``v - (F[1:] - F[:-1]) * ratio``, in this operation order, with F
    evaluated on a copy of the state ``v`` padded by the boundary rule's ghost cells."""
    ghosts = (v[-1:], v[:1]) if config.boundary is Boundary.PERIODIC else (v[:1], v[-1:])
    w = np.concatenate((ghosts[0], v, ghosts[1]))
    face = numerical_flux(numflux, config.flux, w[:-1], w[1:])
    return v - (face[1:] - face[:-1]) * ratio


def variation(v, periodic):
    """The total variation of the values ``v``: ``np.sum`` of the jumps, and the
    wrap-around jump if ``periodic``."""
    tv = float(np.sum(np.abs(v[1:] - v[:-1])))
    if periodic and v.size > 1:
        tv += abs(float(v[0]) - float(v[-1]))
    return tv


def next_time(t, dt, t_final):
    """The length of the step from ``t`` of a march in steps of ``dt`` to ``t_final``,
    and the time it lands on: ``min(dt, t_final - t)`` and ``min(t + that, t_final)``,
    each Python's min."""
    dt_i = min(dt, t_final - t)
    return dt_i, min(t + dt_i, t_final)


def schedule(dt, t_final, guard):
    """The time points of the scalar loop of a step-by-step march, which steps while
    ``t < t_final - guard``."""
    times = [0.0]
    while times[-1] < t_final - guard:
        times.append(next_time(times[-1], dt, t_final)[1])
    return np.array(times)


def march(cells, times, first, until, dt, t_final, dx, lam, config, tv):
    """``solver._compiled_march`` in numpy: from the state ``cells[0, 1:-1]`` at time
    ``times[first]``, steps of ``advance`` in place while no step has been taken from
    time 0 or the time is below ``until``, each of the length ``next_time`` gives and
    with that length / ``dx`` as its ratio, a Lax-Friedrichs flux with the mesh ratio
    ``lam``; each new time goes into ``times[first + s]`` and, if ``tv`` is given, the
    TV of each new state into ``tv[first + s]``.  It stops after a step that ends on a
    time point 63 (mod 64) if the state then holds a non-finite cell.  Returns the
    number of steps taken.  Overflows and invalid operations raise nothing."""
    kind = config.numflux.kind
    # a ratio that overflowed to inf is clamped to the largest float, which
    # NumericalFluxSpec accepts and whose 2 lam is inf all the same
    numflux = NumericalFluxSpec(kind, min(lam, sys.float_info.max)
                                if kind is NumFluxKind.LAX_FRIEDRICHS else None)
    periodic = config.boundary is Boundary.PERIODIC
    v = cells[0, 1:-1]
    t, s = float(times[first]), 0
    with np.errstate(invalid="ignore", over="ignore"):
        while first + s == 0 or t < until:
            dt_i, t = next_time(t, dt, t_final)
            v[...] = advance(v, dt_i / dx, numflux, config)
            s += 1
            times[first + s] = t
            if tv is not None:
                tv[first + s] = variation(v, periodic)
            if (first + s) % 64 == 63 and not np.isfinite(v).all():
                break
    return s
