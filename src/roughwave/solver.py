"""Explicit first-order finite-volume time stepping with CFL control.

The update is v_i <- v_i - (dt/dx) (F(v_i, v_{i+1}) - F(v_{i-1}, v_i)) with
ghost values taken from the boundary rule: outflow copies the edge cell,
periodic wraps around.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from .diagnostics import total_variation
from .flux import FluxSpec, NumericalFluxSpec, NumFluxKind, max_wave_speed, numerical_flux
from .mesh import CellField, Grid


class Boundary(Enum):
    OUTFLOW = "outflow"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class SchemeConfig:
    flux: FluxSpec
    numflux: NumericalFluxSpec
    t_final: float
    cfl: float = 0.5
    boundary: Boundary = Boundary.OUTFLOW

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.numflux.kind is NumFluxKind.UPWIND and self.flux is not FluxSpec.LINEAR:
            raise ValueError(
                f"the upwind flux is only valid with the linear law, got {self.flux.value}"
            )


@dataclass(frozen=True)
class Snapshot:
    requested_time: float
    time: float
    field: CellField


@dataclass(frozen=True)
class Trajectory:
    """One evolution: time points, per-step total variation and snapshots.

    ``per_step_tv`` holds TV(v(t)) at every entry of ``times`` (periodic TV
    under periodic boundaries, interior TV otherwise).  ``dt_used`` is the
    fixed nominal step; the final step may be shorter to land on t_final.
    """

    grid: Grid
    times: np.ndarray
    snapshots: Tuple[Snapshot, ...]
    per_step_tv: np.ndarray
    dt_used: float
    final: CellField
    all_fields: Optional[Tuple[CellField, ...]] = None


def cfl_timestep(grid: Grid, spec: FluxSpec, u_min: float, u_max: float, cfl: float) -> float:
    """dt = cfl * dx / max |f'| over the data range (cfl * dx for zero data)."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    speed = max_wave_speed(spec, u_min, u_max)
    if speed == 0.0:
        return cfl * grid.dx
    return cfl * grid.dx / speed


def _pad(values: np.ndarray, boundary: Boundary) -> np.ndarray:
    if boundary is Boundary.PERIODIC:
        return np.concatenate((values[-1:], values, values[:1]))
    return np.concatenate((values[:1], values, values[-1:]))


def _fill_lambda(numflux: NumericalFluxSpec, lam: float) -> NumericalFluxSpec:
    """``numflux`` with mesh ratio ``lam`` if it is a Lax-Friedrichs flux without one.

    ``lam`` overflows to inf on data of subnormal size, where max|f'| is tiny;
    it is clamped to the largest float, a valid ratio whose ``2 lam`` in the
    flux is inf all the same.
    """
    if numflux.kind is NumFluxKind.LAX_FRIEDRICHS and numflux.lam is None:
        return replace(numflux, lam=min(lam, sys.float_info.max))
    return numflux


def step(state: CellField, config: SchemeConfig, dt: float) -> CellField:
    """One explicit update of duration ``dt``.

    A Lax-Friedrichs flux without a mesh ratio uses dt/dx.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.grid
    ratio = dt / grid.dx
    numflux = _fill_lambda(config.numflux, ratio)
    w = _pad(state.values, config.boundary)
    with np.errstate(invalid="ignore", over="ignore"):
        face = numerical_flux(numflux, config.flux, w[:-1], w[1:])
        out = state.values - ratio * (face[1:] - face[:-1])
    finite = np.isfinite(out)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FloatingPointError(
            f"non-finite value in cell {bad} after step with dt={dt}; "
            "check the CFL condition"
        )
    return CellField(grid, out)


def evolve(
    initial: CellField,
    config: SchemeConfig,
    snapshot_times: Sequence[float] = (),
    store_all: bool = False,
) -> Trajectory:
    """March to t_final with a fixed CFL step chosen from the initial range.

    The step is valid for all time because monotone schemes obey a maximum
    principle.  The final step is shortened to land exactly on t_final.
    Snapshots are recorded at the first time point at or after each requested
    time; ``store_all`` additionally keeps the state of every step.
    """
    snapshot_times = [float(t) for t in snapshot_times]
    if any(not 0.0 <= t <= config.t_final for t in snapshot_times):
        raise ValueError(f"snapshot times must lie in [0, {config.t_final}]")
    if sorted(snapshot_times) != snapshot_times:
        raise ValueError("snapshot times must be sorted")

    grid = initial.grid
    v0 = initial.values
    dt = cfl_timestep(grid, config.flux, float(v0.min()), float(v0.max()), config.cfl)
    periodic = config.boundary is Boundary.PERIODIC
    # the mesh ratio is frozen for the whole run, incl. the short last step
    config = replace(config, numflux=_fill_lambda(config.numflux, dt / grid.dx))

    times = [0.0]
    tv = [total_variation(initial, periodic=periodic)]
    snaps: list[Snapshot] = []
    stored: list[CellField] = [initial] if store_all else []
    pending = list(snapshot_times)
    while pending and pending[0] <= 0.0:
        snaps.append(Snapshot(pending.pop(0), 0.0, initial))

    state = initial
    t = 0.0
    guard = 1e-12 * max(1.0, config.t_final)
    while t < config.t_final - guard:
        dt_i = min(dt, config.t_final - t)
        state = step(state, config, dt_i)
        t = min(t + dt_i, config.t_final)
        times.append(t)
        tv.append(total_variation(state, periodic=periodic))
        if store_all:
            stored.append(state)
        while pending and t >= pending[0] - guard:
            snaps.append(Snapshot(pending.pop(0), t, state))

    return Trajectory(
        grid=grid,
        times=np.asarray(times),
        snapshots=tuple(snaps),
        per_step_tv=np.asarray(tv),
        dt_used=dt,
        final=state,
        all_fields=tuple(stored) if store_all else None,
    )
