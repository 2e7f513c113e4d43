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

from .diagnostics import _variation
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
    time: float
    field: CellField


@dataclass(frozen=True)
class Trajectory:
    """One evolution: time points, snapshots and, with ``track_tv``, per-step TV.

    ``per_step_tv`` holds TV(v(t)) at every entry of ``times`` (periodic TV
    under periodic boundaries, interior TV otherwise), or None.  ``dt_used``
    is the fixed nominal step; the final step may be shorter to land on t_final.
    """

    times: np.ndarray
    snapshots: Tuple[Snapshot, ...]
    per_step_tv: Optional[np.ndarray]
    dt_used: float
    final: CellField


def cfl_timestep(grid: Grid, spec: FluxSpec, u_min: float, u_max: float, cfl: float) -> float:
    """dt = cfl * dx / max |f'| over the data range (cfl * dx for zero data)."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    speed = max_wave_speed(spec, u_min, u_max)
    if speed == 0.0:
        return cfl * grid.dx
    return cfl * grid.dx / speed


def _check_snapshot_times(times: Sequence[float], t_final: float) -> None:
    """ValueError unless ``times`` is sorted and lies in [0, t_final] (NaN does not)."""
    if any(not 0.0 <= t <= t_final for t in times) or list(times) != sorted(times):
        raise ValueError(f"snapshot_times must be sorted and lie in [0, t_final={t_final}], "
                         f"got {tuple(times)}")


def _fill_lambda(numflux: NumericalFluxSpec, lam: float) -> NumericalFluxSpec:
    """``numflux`` with mesh ratio ``lam`` if it is a Lax-Friedrichs flux without one.

    ``lam`` overflows to inf on data of subnormal size, where max|f'| is tiny;
    it is clamped to the largest float, a valid ratio whose ``2 lam`` in the
    flux is inf all the same.
    """
    if numflux.kind is NumFluxKind.LAX_FRIEDRICHS and numflux.lam is None:
        return replace(numflux, lam=min(lam, sys.float_info.max))
    return numflux


def _workspace(n: int):
    """The buffers of one run, with the views ``_advance`` reads, made once: two states
    of n + 2 cells as (w, w[:-1], w[1:], w[1:-1]), the state being ``w[1:-1]``, and the
    flux's four (n + 1)-face arrays (see ``numerical_flux``) with the face row's halves."""
    states, work = np.empty((2, n + 2)), tuple(np.empty((4, n + 1)))
    return *((w, w[:-1], w[1:], w[1:-1]) for w in states), (work, work[0][1:], work[0][:-1])


def _advance(cells, out, ratio: float, numflux: NumericalFluxSpec, config: SchemeConfig,
             faces) -> None:
    """The one update: ``out = v - ratio * (F[1:] - F[:-1])``, in this operation order,
    for the state ``v`` of ``cells`` (its ghost cells filled here), with F evaluated in
    ``faces`` (both from ``_workspace``), so a step allocates no array."""
    w, left, right, v = cells
    work, hi, lo = faces
    w[0], w[-1] = (w[-2], w[1]) if config.boundary is Boundary.PERIODIC else (w[1], w[-2])
    face = numerical_flux(numflux, config.flux, left, right, work)
    if face is not work[0]:  # the linear law's upwind-type fluxes return ``left`` itself
        hi, lo = face[1:], face[:-1]
    np.subtract(hi, lo, out=out)
    np.multiply(out, ratio, out=out)
    np.subtract(v, out, out=out)


def _expose(grid: Grid, values: np.ndarray, dt: float) -> CellField:
    """A frozen copy of ``values``; FloatingPointError if one is not finite."""
    try:
        return CellField(grid, values)
    except ValueError as exc:  # CellField's finiteness check
        raise FloatingPointError(f"{exc} after steps of dt={dt}; check the CFL condition") from exc


def step(state: CellField, config: SchemeConfig, dt: float) -> CellField:
    """One explicit update of duration ``dt`` through the kernel ``evolve`` uses; a
    Lax-Friedrichs flux without a mesh ratio uses dt/dx."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n, ratio = state.grid.n_cells, dt / state.grid.dx
    cells, (*_, out), faces = _workspace(n)
    cells[3][...] = state.values
    with np.errstate(invalid="ignore", over="ignore"):
        _advance(cells, out, ratio, _fill_lambda(config.numflux, ratio), config, faces)
    return _expose(state.grid, out, dt)


def evolve(initial: CellField, config: SchemeConfig, snapshot_times: Sequence[float] = (),
           track_tv: bool = False) -> Trajectory:
    """March to t_final with a fixed CFL step chosen from the initial range.

    The step is valid for all time because monotone schemes obey a maximum
    principle.  The final step is shortened to land exactly on t_final.
    Snapshots are recorded at the first time point at or after each requested
    time (``snapshot_times=evolve(initial, config).times`` keeps every step), and
    ``track_tv`` fills ``per_step_tv``.
    Each state handed out, and every 64th step, is checked: a non-finite cell raises
    FloatingPointError (none is missed: each update subtracts from a cell's own value).
    """
    pending = [float(t) for t in snapshot_times]
    _check_snapshot_times(pending, config.t_final)

    grid, dx, v0 = initial.grid, initial.grid.dx, initial.values
    dt = cfl_timestep(grid, config.flux, float(v0.min()), float(v0.max()), config.cfl)
    # the mesh ratio is frozen for the whole run, incl. the short last step
    numflux = _fill_lambda(config.numflux, dt / dx)
    if dt == np.inf:  # data of subnormal size: one step lands on t_final
        dt = config.t_final
    if dt <= 0.0 < config.t_final:  # max|f'| overflowed: the loop would never end
        raise ValueError(f"dt must be > 0, got {dt}")
    if config.t_final > dt * 2**53:  # t + dt would round back to t before t_final
        raise ValueError(f"float time cannot reach t_final={config.t_final} in steps of dt={dt}")
    periodic = config.boundary is Boundary.PERIODIC

    (cells, cells_next, faces), tv_diff = _workspace(v0.size), np.empty(v0.size)
    v = cells[3]
    v[...] = v0
    times = [0.0]
    tv = [_variation(v0, periodic, tv_diff)] if track_tv else None
    snaps = [Snapshot(0.0, initial) for t in pending if t <= 0.0]
    pending = pending[len(snaps):]

    state = initial  # the current state as a CellField, or None until it is exposed
    t_final, t, guard = config.t_final, 0.0, 1e-12 * max(1.0, config.t_final)
    ratio = np.array(dt / dx)  # 0-d: numpy would convert a float operand on every step
    with np.errstate(invalid="ignore", over="ignore"):
        while t < t_final - guard:
            dt_i = min(dt, t_final - t)
            _advance(cells, cells_next[3], ratio if dt_i == dt else dt_i / dx, numflux, config,
                     faces)
            cells, cells_next, state = cells_next, cells, None
            v = cells[3]
            t = min(t + dt_i, t_final)
            times.append(t)
            if track_tv:
                tv.append(_variation(v, periodic, tv_diff))
            if len(times) % 64 == 0:  # a blow-up raises within 64 steps
                state = _expose(grid, v, dt)
            while pending and t >= pending[0] - guard:
                state = state if state is not None else _expose(grid, v, dt)
                del pending[0]
                snaps.append(Snapshot(t, state))

    return Trajectory(times=np.asarray(times), snapshots=tuple(snaps),
                      per_step_tv=None if tv is None else np.asarray(tv), dt_used=dt,
                      final=state if state is not None else _expose(grid, v, dt))
