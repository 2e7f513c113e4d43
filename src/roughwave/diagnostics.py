"""Measurement functionals: total variation, one-sided Lipschitz seminorm,
L1 distances, time-integrated TV, the Lip+ bound on it and rate fits."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from .flux import FluxSpec, NumFluxKind
from .mesh import CellField, restrict

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Trajectory


def total_variation(field: CellField, periodic: bool = False) -> float:
    """Sum of |v_{i+1} - v_i| over interior neighbours.

    With ``periodic=True`` the wrap-around jump |v_0 - v_{n-1}| is included.
    """
    return _variation(field.values, periodic)


def _variation(v: np.ndarray, periodic: bool) -> float:
    """``total_variation`` of the values ``v``."""
    tv = float(np.sum(np.abs(v[1:] - v[:-1])))
    if periodic and v.size > 1:
        tv += abs(float(v[0]) - float(v[-1]))
    return tv


def lip_plus(field: CellField, periodic: bool = False) -> float:
    """Largest forward difference quotient max_i (v_{i+1} - v_i)/dx.

    Signed: nonincreasing data gives a value <= 0.  With ``periodic=True``
    the wrap-around pair (v_0 - v_{n-1})/dx joins the sup, which is the
    right seminorm for periodically extended data.
    """
    v = field.values
    if v.size < 2:
        raise ValueError("lip_plus needs at least 2 cells")
    top = float(np.max(np.diff(v)))
    if periodic:
        top = max(top, float(v[0]) - float(v[-1]))
    return top / field.grid.dx


def l1_distance(a: CellField, b: CellField) -> float:
    """L1 norm of a - b after averaging b down onto a's grid.

    ``b`` must live on the same domain with a cell count divisible by a's.
    """
    if (a.grid.x_left, a.grid.x_right) != (b.grid.x_left, b.grid.x_right):
        raise ValueError("fields live on different domains")
    if b.grid.n_cells % a.grid.n_cells != 0:
        raise ValueError(
            f"cannot compare: {b.grid.n_cells} cells not divisible by {a.grid.n_cells}"
        )
    bb = restrict(b, b.grid.n_cells // a.grid.n_cells)
    return float(a.grid.dx * np.sum(np.abs(a.values - bb.values)))


def tv_time_integral(traj: "Trajectory") -> float:
    """Time-integrated total variation sum_n TV(v(t^n)) * dt.

    Every recorded time point is weighted by the nominal step, except the
    last one which is weighted by the actual (possibly shortened) final step.
    """
    if traj.per_step_tv is None:
        raise ValueError("the trajectory has no per-step TV; evolve it with track_tv=True")
    times = np.asarray(traj.times, dtype=float)
    if times.size < 2:
        return 0.0
    weights = np.full(times.size, traj.dt_used)
    weights[-1] = times[-1] - times[-2]
    return float(np.dot(np.asarray(traj.per_step_tv, dtype=float), weights))


def default_beta(spec: FluxSpec, kind: NumFluxKind) -> float:
    """Established decay rate for the one-sided Lipschitz seminorm.

    Only the Godunov flux on Burgers has a published value (1/2 * 1/4);
    every other pairing must supply beta explicitly.
    """
    if spec is FluxSpec.BURGERS and kind is NumFluxKind.GODUNOV:
        return 0.125
    raise ValueError(
        f"no default decay rate for {spec.value} + {kind.value}; pass beta explicitly"
    )


def lip_bound_rhs(beta: float, lip_plus_0: float, dt: float, t_n: float) -> float:
    """Upper bound 2M (L0 dt + (1/beta) log(1 + beta t_n L0)) on the time-integrated
    TV of a run with step ``dt`` to ``t_n``, where L0 = ``lip_plus_0`` is the initial
    Lip+ seminorm, beta the seminorm's one-step decay rate, and M = 1/2 bounds the
    half-width of the support of data on [0, 1], so 2M = 1."""
    if not all(map(math.isfinite, (beta, lip_plus_0, dt, t_n))):
        raise ValueError(f"bound inputs must be finite, got {(beta, lip_plus_0, dt, t_n)}")
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if lip_plus_0 <= 0:
        raise ValueError(f"bound requires a positive initial Lip+ seminorm, got {lip_plus_0}")
    return lip_plus_0 * dt + math.log1p(beta * t_n * lip_plus_0) / beta


def fit_rate(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope and intercept of log e against log h.

    The slope is the empirical convergence (or blow-up) rate of e ~ h^slope.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points to fit a rate")
    h = np.array([p[0] for p in points], dtype=float)
    e = np.array([p[1] for p in points], dtype=float)
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("rate fits need strictly positive h and e")
    if np.unique(h).size < 2:
        raise ValueError("rate fits need at least two distinct h values")
    slope, intercept = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope), float(intercept)
