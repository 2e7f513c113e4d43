"""Explicit first-order finite-volume time stepping with CFL control.

The update is v_i <- v_i - (dt/dx) (F(v_i, v_{i+1}) - F(v_{i-1}, v_i)) with
ghost values taken from the boundary rule: outflow copies the edge cell,
periodic wraps around.  ``evolve`` and ``step`` run it in ``_march.c``'s ``march``,
which evaluates ``flux.numerical_flux`` in its operation order; ``evolve`` takes its
time points from its ``schedule`` and every TV from its ``variation``: no numpy
arithmetic, and no numpy error state.
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


def _compiled_march(cells: np.ndarray, first: int, count: int, ratio: float, lam: float,
                    config: SchemeConfig, tv: Optional[np.ndarray]) -> int:
    """``count`` steps ``v - (F[1:] - F[:-1]) * ratio`` on the state ``v = cells[0, 1:-1]``,
    in place, in one C ``march`` call, F (Lax-Friedrichs with mesh ratio ``lam``) taken on
    the state padded by the boundary rule's ghost cells; rows 1 and 2 of ``cells`` are its
    second state and scratch.  The TV of each new state goes into ``tv`` if given.  After
    ``first`` earlier steps, it stops after a step ending on a time point 63 (mod 64) if
    the state then holds a non-finite cell; returns the number of steps taken."""
    return _kernels.load().march(cells.ctypes.data, cells.shape[1] - 2, first, count,
                                 PAIRS.index((config.numflux.kind, config.flux)),
                                 config.boundary is Boundary.PERIODIC, ratio, 2.0 * lam,
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
    ratio = dt / state.grid.dx
    cells = np.empty((3, state.grid.n_cells + 2))
    cells[0, 1:-1] = state.values
    _compiled_march(cells, 0, 1, ratio, config.numflux.lam or ratio, config, None)
    return _expose(state.grid, cells[0, 1:-1], dt, 1)


def _check_steps(t_final: float, dt: float) -> None:
    """ValueError if a march to ``t_final`` in steps of ``dt`` would take more than
    ``_MAX_STEPS`` steps."""
    if t_final > dt * _MAX_STEPS:
        raise ValueError(f"t_final={t_final} takes more than 2**28 steps of dt={dt}")


def _schedule(dt: float, t_final: float, guard: float):
    """The time points of a march in steps of ``dt`` to ``t_final`` and the length of
    its last step (``dt`` if it has none), by the float operations of the step-by-step
    loop ``dt_i = min(dt, t_final - t); t = min(t + dt_i, t_final)`` while ``t <
    t_final - guard``, which ``_march.c``'s ``schedule`` runs: once to count the
    points, once to write them.  ``_check_steps`` must pass first: it bounds the loop."""
    lib = _kernels.load()
    times = np.zeros(lib.schedule(dt, t_final, guard, None) + 1)
    lib.schedule(dt, t_final, guard, times[1:].ctypes.data)
    return times, min(dt, t_final - float(times[-2])) if times.size > 1 else dt


def evolve(initial: CellField, config: SchemeConfig, snapshot_times: Sequence[float] = (),
           track_tv: bool = False) -> Trajectory:
    """March to t_final with a fixed CFL step chosen from the initial range.

    The step is valid for all time because monotone schemes obey a maximum
    principle.  The final step is shortened to land exactly on t_final.
    Snapshots are recorded at the first time point at or after each requested
    time (``snapshot_times=evolve(initial, config).times`` keeps every step), and
    ``track_tv`` fills ``per_step_tv``.
    The steps run in blocks, each one call of the compiled march, which leaves its
    state in row 0 of one (3, n + 2) array, whose row 2 is the march's scratch.  A
    block ends only where a state is read: at each snapshot, at the end and before a
    short last step.  Within a block the march checks the state
    after every time point 63 (mod 64) and stops at one that is not finite; the state
    at each block end, or where the march stopped, is exposed and checked: a non-finite
    cell raises FloatingPointError naming the step (none is missed: each update
    subtracts from a cell's own value).  A march of more than 2^28 steps is refused
    with ValueError before anything is allocated.  ``final`` is the last exposed state.
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
    _check_steps(config.t_final, dt)  # before the schedule is allocated
    periodic = config.boundary is Boundary.PERIODIC

    guard = _TIME_GUARD * max(1.0, config.t_final)
    times, dt_last = _schedule(dt, config.t_final, guard)
    n_steps = times.size - 1
    # the step after which each snapshot is taken (those past the last step are not)
    snap_steps = [0 if t <= 0.0 else max(1, int(np.searchsorted(times, t - guard)))
                  for t in pending]
    # a block of steps ends where its state is read, at each snapshot and at the end,
    # and before a short last step, whose mesh ratio differs
    ends = {*snap_steps, n_steps - (dt_last != dt), n_steps}

    # two states with ghost cells, the state in row 0, and the march's scratch row
    cells = np.empty((3, v0.size + 2))
    cells[0, 1:-1] = v0
    tv = np.empty(times.size) if track_tv else None
    if track_tv:
        tv[0] = _kernels.load().variation(v0.ctypes.data, v0.size, periodic)
    snaps = [Snapshot(0.0, initial) for s in snap_steps if s == 0]

    state, done = initial, 0
    for stop in sorted(s for s in ends if 0 < s <= n_steps):
        ratio = (dt_last if stop == n_steps else dt) / dx
        # a march stops short only at a non-finite state, which _expose rejects
        done += _compiled_march(cells, done, stop - done, ratio, lam, config,
                                None if tv is None else tv[done + 1:stop + 1])
        state = _expose(grid, cells[0, 1:-1], dt, done)
        while len(snaps) < len(snap_steps) and snap_steps[len(snaps)] == stop:
            snaps.append(Snapshot(float(times[stop]), state))

    return Trajectory(times=times, snapshots=tuple(snaps), per_step_tv=tv, dt_used=dt,
                      final=state)
