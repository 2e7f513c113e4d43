"""Analytic flux functions and monotone two-point numerical fluxes.

Three built-in conservation laws are supported: Burgers ``f(u) = u^2/2``,
a cubic law ``f(u) = u^3/3`` and linear advection ``f(u) = u``, with the numerical
fluxes of ``PAIRS``.  All flux evaluators broadcast over float64 arrays and accept
plain floats.
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


# the accepted pairs, every flux on every law but the upwind flux on the linear law only;
# a pair's index here picks its step template in _march.c's STEPS table
PAIRS = tuple((kind, law) for kind in NumFluxKind for law in FluxSpec
              if kind is not NumFluxKind.UPWIND or law is FluxSpec.LINEAR)


def check_pair(kind: NumFluxKind, law: FluxSpec) -> None:
    """ValueError, naming the laws valid with ``kind``, unless (kind, law) is in PAIRS."""
    if (kind, law) not in PAIRS:
        laws = " or ".join(f.value for k, f in PAIRS if k is kind)
        raise ValueError(f"the {kind.value} flux needs the {laws} law, got {law.value}")


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
        object.__setattr__(self, "kind", NumFluxKind(self.kind))
        object.__setattr__(self, "lam", None if self.lam is None else float(self.lam))
        if self.lam is not None and not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be None or finite and > 0, got {self.lam}")


def flux_value(spec: FluxSpec, u):
    """f(u)."""
    if spec is FluxSpec.BURGERS:
        return 0.5 * u * u
    if spec is FluxSpec.CUBIC:
        return u * u * u / 3.0
    return u


def max_wave_speed(spec: FluxSpec, u_min: float, u_max: float) -> float:
    """Largest |f'| over the state interval ``[u_min, u_max]``, closed form."""
    if u_min > u_max:
        raise ValueError(f"u_min={u_min} exceeds u_max={u_max}")
    if spec is FluxSpec.BURGERS:
        return max(abs(u_min), abs(u_max))
    if spec is FluxSpec.CUBIC:
        return max(u_min * u_min, u_max * u_max)
    return 1.0


def numerical_flux(numflux: NumericalFluxSpec, spec: FluxSpec, a, b):
    """Evaluate the chosen numerical flux F(a, b) in closed form.

    With ``a+ = max(a, 0)`` and ``b- = min(b, 0)``:

    - Godunov (exact Riemann solution): ``max(f(a+), f(b-))`` for Burgers,
      whose f is convex with its minimum at 0; ``f(a)`` for the cubic and
      linear laws, whose f is nondecreasing.
    - Engquist-Osher (f' split into its positive and negative parts):
      ``f(a+) + f(b-)`` for Burgers, ``f(a)`` for the cubic and linear laws.
    - Upwind: ``f(a)``, on the laws of ``PAIRS``.
    - Rusanov: ``(f(a) + f(b))/2 - s (b - a)/2`` with the endpoint speed
      ``s = max(|f'(a)|, |f'(b)|)``.
    - Lax-Friedrichs: ``(f(a) + f(b))/2 - (b - a)/(2 lam)``.

    Linear Godunov, Engquist-Osher and upwind return ``a`` itself.
    """
    kind = numflux.kind
    check_pair(kind, spec)
    if kind is NumFluxKind.LAX_FRIEDRICHS:
        if numflux.lam is None:
            raise ValueError("the Lax-Friedrichs flux needs the mesh ratio lam")
        return (0.5 * (flux_value(spec, a) + flux_value(spec, b))
                - (b - a) / (2.0 * numflux.lam))
    if kind is NumFluxKind.RUSANOV:
        if spec is FluxSpec.BURGERS:
            s = np.maximum(np.abs(a), np.abs(b))
        elif spec is FluxSpec.CUBIC:
            s = np.maximum(a * a, b * b)
        else:
            s = 1.0
        return 0.5 * (flux_value(spec, a) + flux_value(spec, b)) - 0.5 * s * (b - a)
    if spec is not FluxSpec.BURGERS:
        return flux_value(spec, a)
    pos, neg = np.maximum(a, 0.0), np.minimum(b, 0.0)
    if kind is NumFluxKind.GODUNOV:
        return np.maximum(flux_value(spec, pos), flux_value(spec, neg))
    # 0.5 * u**2 and flux_value's 0.5 * u * u round apart for |u| < 1.5e-154
    return 0.5 * pos**2 + 0.5 * neg**2


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
