"""Explicit first-order finite-volume time stepping with CFL control.

The update is v_i <- v_i - (dt/dx) (F(v_i, v_{i+1}) - F(v_{i-1}, v_i)) with
ghost values taken from the boundary rule: outflow copies the edge cell,
periodic wraps around.  ``evolve`` and ``step`` run it in ``_march.c``'s ``march``,
which evaluates ``flux.numerical_flux`` in its operation order and keeps the clock:
it sets each step's length, dt or the shorter rest to t_final, and writes each time
point.  ``evolve`` counts the time points with the library's ``schedule`` and takes
the initial TV from its ``variation``: no numpy arithmetic, and no numpy error state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .flux import PAIRS, FluxSpec, NumericalFluxSpec, check_pair, max_wave_speed
from .mesh import CellField, Grid


# a march stops once t is within _TIME_GUARD * max(1, t_final) of t_final
_TIME_GUARD = 1e-12
# 2^28 time points are 2 GiB of float64, and per-step TV as much again; as
# initial_data.MAX_LEVEL bounds a path, this bounds a march (and float time, whose
# t + dt would round back to t after 2^53 steps): evolve refuses a longer one
_MAX_STEPS = 1 << 28


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
        for name, rule in (("flux", FluxSpec), ("t_final", float), ("cfl", float),
                           ("boundary", Boundary)):
            object.__setattr__(self, name, rule(getattr(self, name)))
        if not isinstance(self.numflux, NumericalFluxSpec):  # a kind, or its value
            object.__setattr__(self, "numflux", NumericalFluxSpec(self.numflux))
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0.0 <= self.t_final < np.inf:
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if 0.0 < self.t_final <= _TIME_GUARD:  # evolve's schedule would hold no step
            raise ValueError(f"t_final must be 0 or above {_TIME_GUARD}, got {self.t_final}")
        check_pair(self.numflux.kind, self.flux)


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


def _compiled_march(cells: np.ndarray, times: np.ndarray, first: int, until: float,
                    dt: float, t_final: float, dx: float, lam: float, config: SchemeConfig,
                    tv: Optional[np.ndarray]) -> int:
    """Steps ``v - (F[1:] - F[:-1]) * ratio`` of ``min(dt, t_final - t)`` each, ``ratio``
    that / ``dx``, on the state ``v = cells[0, 1:-1]`` at ``times[first]``, in place, in
    one C ``march`` call, F (Lax-Friedrichs with mesh ratio ``lam``) taken on ``v``
    padded by ghost cells; rows 1 and 2 of ``cells`` are its second state and scratch.
    It steps while ``first + s == 0`` or the time is below ``until``, writes the time
    and, if ``tv`` is given, the TV after step s into ``[first + s]``, and stops after
    a time point 63 (mod 64) at a non-finite state; returns the number of steps."""
    return _kernels.load().march(cells.ctypes.data, cells.shape[1] - 2, times.ctypes.data,
                                 first, until, dt, t_final, dx,
                                 PAIRS.index((config.numflux.kind, config.flux)),
                                 config.boundary is Boundary.PERIODIC, 2.0 * lam,
                                 None if tv is None else tv.ctypes.data)


def _expose(grid: Grid, values: np.ndarray, dt: float, step: int) -> CellField:
    """A frozen copy of ``values``, the state after ``step`` steps; FloatingPointError
    if one is not finite."""
    try:
        return CellField(grid, values)
    except ValueError as exc:  # CellField's finiteness check
        raise FloatingPointError(f"{exc} at step {step} after steps of dt={dt}; "
                                 "check the CFL condition") from exc


def step(state: CellField, config: SchemeConfig, dt: float) -> CellField:
    """One explicit update of duration ``dt``, a march of one step; a Lax-Friedrichs
    flux without a mesh ratio uses dt/dx."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    dx = state.grid.dx
    cells = np.empty((3, state.grid.n_cells + 2))
    cells[0, 1:-1] = state.values
    _compiled_march(cells, np.zeros(2), 0, dt, dt, dt, dx, config.numflux.lam or dt / dx,
                    config, None)
    return _expose(state.grid, cells[0, 1:-1], dt, 1)


def _check_steps(t_final: float, dt: float) -> None:
    """ValueError if a march to ``t_final`` in steps of ``dt`` would take more than
    ``_MAX_STEPS`` steps."""
    if t_final > dt * _MAX_STEPS:
        raise ValueError(f"t_final={t_final} takes more than 2**28 steps of dt={dt}")


def evolve(initial: CellField, config: SchemeConfig, snapshot_times: Sequence[float] = (),
           track_tv: bool = False) -> Trajectory:
    """March to t_final with a fixed CFL step chosen from the initial range.

    The step is valid for all time because monotone schemes obey a maximum
    principle.  The final step is shortened to land exactly on t_final.
    Snapshots are recorded at the first time point at or after each requested
    time, after at least one step if that time is positive
    (``snapshot_times=evolve(initial, config).times`` keeps every step), and
    ``track_tv`` fills ``per_step_tv``.
    The compiled march keeps the clock.  ``evolve`` counts the time points, then
    calls it for each positive snapshot time and for t_final, to march on to the first
    time point within the guard of that time, leaving the state in row 0 of one (3, n
    + 2) array, whose row 2 is its scratch.  It checks the state after every time point
    63 (mod 64) and stops at one that is not finite; where a march that took a step
    ends, the state is exposed and checked: a non-finite cell raises
    FloatingPointError naming the step (none is missed: each update subtracts from a
    cell's own value).  A march of more than 2^28 steps is refused with ValueError
    before anything is allocated.  ``final`` is the last exposed state.
    """
    pending = [float(t) for t in snapshot_times]
    _check_snapshot_times(pending, config.t_final)

    grid, dx, v0 = initial.grid, initial.grid.dx, initial.values
    dt = cfl_timestep(grid, config.flux, float(v0.min()), float(v0.max()), config.cfl)
    # the Lax-Friedrichs ratio of every step, the short last one too; inf on subnormal data
    lam = config.numflux.lam or dt / dx
    if dt == np.inf:  # data of subnormal size: one step lands on t_final
        dt = config.t_final
    if dt <= 0.0 < config.t_final:  # max|f'| overflowed: the loop would never end
        raise ValueError(f"dt must be > 0, got {dt}")
    _check_steps(config.t_final, dt)  # before the time points are allocated

    guard = _TIME_GUARD * max(1.0, config.t_final)
    times = np.zeros(_kernels.load().schedule(dt, config.t_final, guard) + 1)
    # two states with ghost cells, the state in row 0, and the march's scratch row
    cells = np.empty((3, v0.size + 2))
    cells[0, 1:-1] = v0
    tv = np.empty(times.size) if track_tv else None
    if track_tv:
        tv[0] = _kernels.load().variation(v0.ctypes.data, v0.size,
                                          config.boundary is Boundary.PERIODIC)

    # the state read at each snapshot time and then at t_final; a march stops short
    # only at a non-finite state, which _expose rejects
    snaps, state, done = [], initial, 0
    for stop in (*pending, config.t_final):
        if stop > 0.0:
            taken = _compiled_march(cells, times, done, stop - guard, dt, config.t_final, dx,
                                    lam, config, tv)
            if taken:
                done += taken
                state = _expose(grid, cells[0, 1:-1], dt, done)
        snaps.append(Snapshot(float(times[done]), state))

    return Trajectory(times=times, snapshots=tuple(snaps[:-1]), per_step_tv=tv, dt_used=dt,
                      final=state)
