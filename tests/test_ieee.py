"""The log and sincos of the fBm draw against mpmath.

``_march.c``'s ``ieee_log`` and ``ieee_sincos`` and their numpy port in the
tests' oracle ``numpy_kernels`` are within 1 ulp of the exact value, computed by mpmath at
113 bits, on 2^16 uniforms of the generator's form (each radius's log and each
angle's sin and cos, as Box-Muller takes them) and on the edges of each domain.
The compiled and the numpy bits are equal on every value, and ``_kernels.log``
gives the compiled log's bits.
"""

import math

import numpy as np
import pytest

import numpy_kernels as oracle
from roughwave import _kernels

mpmath = pytest.importorskip("mpmath")

TWO_PI = 2.0 * math.pi  # the double below 2 pi that the draw's largest angle takes
LOG_EDGES = [2.0**-53, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.5, 2.0, 5e-324, 2.0**-1022,
             1e-310, math.sqrt(0.5), math.sqrt(2.0), 1.7976931348623157e308]
QUARTERS = [k * math.pi / 2 for k in range(5)] + [(2 * k + 1) * math.pi / 4 for k in range(4)]
SINCOS_EDGES = [0.0, 5e-324, 1e-300, 2.0**-53, math.nextafter(TWO_PI, 0.0),
                *(math.nextafter(x, d) for x in QUARTERS for d in (0.0, 7.0)), *QUARTERS]


def uniforms(count, seed=2024):
    """``count`` uniforms on (0, 1] as ``SplitMix64.normals`` makes them: the
    radii in the even slots, the angles (times 2 pi) in the odd ones."""
    u = np.maximum((oracle.SplitMix64(seed).u64(count) >> np.uint64(11)) * 2.0**-53, 2.0**-53)
    return u[0::2].copy(), u[1::2] * TWO_PI


def worst_ulps(got, exact_fn, xs):
    """The largest |got - exact| over ``xs``, in ulps of the double nearest exact."""
    worst = 0.0
    with mpmath.workprec(113):
        for g, x in zip(got.tolist(), xs.tolist()):
            exact = exact_fn(mpmath.mpf(x))
            ulp = math.ulp(float(exact)) if exact != 0 else 5e-324
            worst = max(worst, float(abs(mpmath.mpf(g) - exact) / ulp))
    return worst


def compiled(x):
    """(log, sin, cos) of ``x`` by the C kernels."""
    out = [np.empty(x.size) for _ in range(3)]
    _kernels.load().log_sincos(x.ctypes.data, x.size, *(o.ctypes.data for o in out))
    return out


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


radii, angles = uniforms(1 << 16)


def test_log_is_within_one_ulp():
    xs = np.concatenate([radii, LOG_EDGES])
    assert worst_ulps(oracle.log(xs), mpmath.log, xs) < 1.0
    assert oracle.log(1.0) == 0.0


def test_sincos_is_within_one_ulp():
    xs = np.concatenate([angles, SINCOS_EDGES])
    sin, cos = oracle.sincos(xs)
    assert worst_ulps(sin, mpmath.sin, xs) < 1.0
    assert worst_ulps(cos, mpmath.cos, xs) < 1.0
    assert bits(oracle.sincos(0.0)) == bits((0.0, 1.0))


def test_log_passes_inf_and_nan():
    assert bits(oracle.log([np.inf, np.nan])) == bits([np.inf, np.nan])


def test_compiled_bits_equal_numpy_bits():
    log_x = np.concatenate([radii, angles, LOG_EDGES, [np.inf, np.nan]])
    sincos_x = np.concatenate([radii, angles, SINCOS_EDGES])
    compiled_log, compiled_sincos = compiled(log_x), compiled(sincos_x)
    assert bits(compiled_log[0]) == bits(oracle.log(log_x))
    assert bits(compiled_sincos[1:]) == bits(oracle.sincos(sincos_x))
    assert bits(_kernels.log(log_x.reshape(-1, 2))) == bits(compiled_log[0])
