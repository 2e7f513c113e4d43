"""Analytic flux functions and monotone two-point numerical fluxes.

Three built-in conservation laws are supported: Burgers ``f(u) = u^2/2``,
a cubic law ``f(u) = u^3/3`` and linear advection ``f(u) = u``.  All flux
evaluators broadcast over float64 arrays and accept plain floats; given buffers
(``out``, ``work``) they fill those through the same expressions, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class FluxSpec(Enum):
    BURGERS = "burgers"
    CUBIC = "cubic"
    LINEAR = "linear"


class NumFluxKind(Enum):
    GODUNOV = "godunov"
    RUSANOV = "rusanov"
    LAX_FRIEDRICHS = "lax_friedrichs"
    ENGQUIST_OSHER = "engquist_osher"
    UPWIND = "upwind"


@dataclass(frozen=True)
class NumericalFluxSpec:
    """Choice of two-point numerical flux.

    ``lam`` is the mesh ratio dt/dx, finite and > 0, and is consumed only by
    the Lax-Friedrichs flux.  Leave it ``None`` to have the solver fill in
    the ratio of the actual run; standalone evaluation then requires an
    explicit value.
    """

    kind: NumFluxKind
    lam: Optional[float] = None

    def __post_init__(self):
        if self.lam is not None and not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be None or finite and > 0, got {self.lam}")


# 0-d operands: numpy converts a Python float operand anew on every call
_ZERO, _HALF, _THREE = np.array(0.0), np.array(0.5), np.array(3.0)


def flux_value(spec: FluxSpec, u, out=None):
    """f(u), written to ``out`` if given (``out`` must not share memory with ``u``)."""
    if spec is FluxSpec.BURGERS:
        return np.multiply(np.multiply(_HALF, u, out=out), u, out=out)
    if spec is FluxSpec.CUBIC:
        return _cube_third(np.square(u, out=out), u, out)
    return u


def _cube_third(uu, u, out):
    """u^3/3 as ``((u*u)*u)/3`` from ``uu = u*u``; ``out`` may be ``uu``."""
    uu = np.multiply(uu, u, out=out)  # rebinding frees u*u of an allocating call here
    return np.divide(uu, _THREE, out=out)


def max_wave_speed(spec: FluxSpec, u_min: float, u_max: float) -> float:
    """Largest |f'| over the state interval ``[u_min, u_max]``, closed form."""
    if u_min > u_max:
        raise ValueError(f"u_min={u_min} exceeds u_max={u_max}")
    if spec is FluxSpec.BURGERS:
        return max(abs(u_min), abs(u_max))
    if spec is FluxSpec.CUBIC:
        return max(u_min * u_min, u_max * u_max)
    return 1.0


def numerical_flux(numflux: NumericalFluxSpec, spec: FluxSpec, a, b, work=None):
    """Evaluate the chosen numerical flux F(a, b) in closed form.

    With ``a+ = max(a, 0)`` and ``b- = min(b, 0)``:

    - Godunov (exact Riemann solution): ``max(f(a+), f(b-))`` for Burgers,
      whose f is convex with its minimum at 0; ``f(a)`` for the cubic and
      linear laws, whose f is nondecreasing.
    - Engquist-Osher (f' split into its positive and negative parts):
      ``f(a+) + f(b-)`` for Burgers, ``f(a)`` for the cubic and linear laws.
    - Upwind: ``f(a)``, linear law only.
    - Rusanov: ``(f(a) + f(b))/2 - s (b - a)/2`` with the endpoint speed
      ``s = max(|f'(a)|, |f'(b)|)``.
    - Lax-Friedrichs: ``(f(a) + f(b))/2 - (b - a)/(2 lam)``.

    ``work`` is four float64 arrays shaped like the faces, none sharing memory with
    ``a`` or ``b``: F goes to ``work[0]``, the rest is scratch, nothing is allocated.
    Without it each operation allocates; the operations, their order and the bits
    are the same.  Linear Godunov, Engquist-Osher and upwind return ``a`` itself.
    """
    # without work, each intermediate is freed once used (nesting, rebinding, del): a
    # standalone call then holds few temporaries at once, which keeps it fast
    o, p, q, r = (None,) * 4 if work is None else work
    kind = numflux.kind
    if kind is NumFluxKind.LAX_FRIEDRICHS or kind is NumFluxKind.RUSANOV:
        if kind is NumFluxKind.LAX_FRIEDRICHS and numflux.lam is None:
            raise ValueError("the Lax-Friedrichs flux needs the mesh ratio lam")
        rusanov, half_s = kind is NumFluxKind.RUSANOV, _HALF  # s = 1 for the linear law
        if rusanov and spec is FluxSpec.CUBIC:  # a*a and b*b serve both s and f
            fa, fb = np.square(a, out=p), np.square(b, out=q)
            half_s = np.multiply(_HALF, np.maximum(fa, fb, out=r), out=r)
            fa = _cube_third(fa, a, p)
            fb = _cube_third(fb, b, q)
        else:
            if rusanov and spec is FluxSpec.BURGERS:
                s = np.maximum(np.abs(a, out=p), np.abs(b, out=q), out=r)
                half_s = np.multiply(_HALF, s, out=r)
            fa, fb = flux_value(spec, a, p), flux_value(spec, b, q)
        mean = np.add(fa, fb, out=p)
        del fa, fb
        mean = np.multiply(_HALF, mean, out=p)
        if not rusanov:
            return np.subtract(mean, np.divide(np.subtract(b, a, out=q), 2.0 * numflux.lam, out=q),
                               out=o)
        return np.subtract(mean, np.multiply(half_s, np.subtract(b, a, out=q), out=q), out=o)
    if kind is NumFluxKind.UPWIND and spec is not FluxSpec.LINEAR:
        raise ValueError(f"upwind flux is defined only for the linear law, got {spec}")
    if spec is not FluxSpec.BURGERS:
        return flux_value(spec, a, o)
    pos, neg = np.maximum(a, _ZERO, out=p), np.minimum(b, _ZERO, out=q)
    if kind is NumFluxKind.GODUNOV:
        return np.maximum(flux_value(spec, pos, r), flux_value(spec, neg, o), out=o)
    # 0.5 * u**2 and flux_value's 0.5 * u * u round apart for |u| < 1.5e-154
    return np.add(np.multiply(_HALF, np.square(pos, out=p), out=p),
                  np.multiply(_HALF, np.square(neg, out=q), out=q), out=o)


@dataclass(frozen=True)
class MonotoneReport:
    """Result of a finite-difference monotonicity probe."""

    passed: bool
    worst_violation: float


def check_monotone(numflux: NumericalFluxSpec, spec: FluxSpec) -> MonotoneReport:
    """Probe F for monotonicity (nondecreasing in a, nonincreasing in b).

    Samples [-1, 1]^2, where every normalized fBm field lies, on a 64 x 64
    lattice with spacing ``delta = 2/64`` and compares F at neighbouring
    lattice points.  Violations beyond 1e-10 fail the probe; the report
    carries the worst one.
    """
    delta = 2.0 / 64
    base = -1.0 + delta * np.arange(64)
    aa, bb = np.meshgrid(base, base, indexing="ij")
    f0 = numerical_flux(numflux, spec, aa, bb)
    drop = f0 - numerical_flux(numflux, spec, aa + delta, bb)  # > 0: F fell in a
    rise = numerical_flux(numflux, spec, aa, bb + delta) - f0  # > 0: F rose in b
    worst = max(0.0, float(drop.max()), float(rise.max()))
    return MonotoneReport(passed=worst <= 1e-10, worst_violation=worst)
