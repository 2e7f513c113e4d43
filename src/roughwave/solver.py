"""Explicit first-order finite-volume time stepping with CFL control.

The update is v_i <- v_i - (dt/dx) (F(v_i, v_{i+1}) - F(v_{i-1}, v_i)) with
ghost values taken from the boundary rule: outflow copies the edge cell,
periodic wraps around.  ``evolve`` runs it in the C march of ``_march.c`` where
``gcc`` can build it, and in numpy otherwise, with the same bits.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .diagnostics import _variation
from .flux import FluxSpec, NumericalFluxSpec, NumFluxKind, max_wave_speed, numerical_flux
from .mesh import CellField, Grid


# a march stops once t is within _TIME_GUARD * max(1, t_final) of t_final
_TIME_GUARD = 1e-12


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
        if 0.0 < self.t_final <= _TIME_GUARD:  # evolve's schedule would hold no step
            raise ValueError(f"t_final must be 0 or above {_TIME_GUARD}, got {self.t_final}")
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


def _advance(v: np.ndarray, ratio: float, numflux: NumericalFluxSpec,
             config: SchemeConfig) -> np.ndarray:
    """The one update ``v - (F[1:] - F[:-1]) * ratio``, in this operation order, with F
    evaluated on a copy of the state ``v`` padded by the boundary rule's ghost cells."""
    ghosts = (v[-1:], v[:1]) if config.boundary is Boundary.PERIODIC else (v[:1], v[-1:])
    w = np.concatenate((ghosts[0], v, ghosts[1]))
    face = numerical_flux(numflux, config.flux, w[:-1], w[1:])
    return v - (face[1:] - face[:-1]) * ratio


def _numpy_march(cells: np.ndarray, count: int, ratio: float, numflux: NumericalFluxSpec,
                 config: SchemeConfig, tv: Optional[np.ndarray]) -> None:
    """``count`` steps of ``_advance`` from the state ``cells[0, 1:-1]`` into the rows of
    ``cells`` alternately, ending in ``cells[count % 2]``, and the TV of each new state
    into ``tv`` if given."""
    periodic = config.boundary is Boundary.PERIODIC
    for s in range(count):
        v = cells[(s + 1) % 2, 1:-1]
        v[...] = _advance(cells[s % 2, 1:-1], ratio, numflux, config)
        if tv is not None:
            tv[s] = _variation(v, periodic)


def _compiled_march(cells: np.ndarray, count: int, ratio: float, numflux: NumericalFluxSpec,
                    config: SchemeConfig, tv: Optional[np.ndarray]) -> None:
    """``_numpy_march`` in one call of the C ``march``, with the same bits."""
    two_lam = 2.0 * numflux.lam if numflux.kind is NumFluxKind.LAX_FRIEDRICHS else 0.0
    _kernels.load().march(cells[0].ctypes.data, cells[1].ctypes.data, cells.shape[1] - 2,
                          count, _KINDS.index(numflux.kind), _LAWS.index(config.flux),
                          config.boundary is Boundary.PERIODIC, ratio, two_lam,
                          None if tv is None else tv.ctypes.data)


_KINDS, _LAWS = list(NumFluxKind), list(FluxSpec)  # in the order of _march.c's enums


def _expose(grid: Grid, values: np.ndarray, dt: float, step: int) -> CellField:
    """A frozen copy of ``values``, the state after ``step`` steps; FloatingPointError
    if one is not finite."""
    try:
        return CellField(grid, values)
    except ValueError as exc:  # CellField's finiteness check
        raise FloatingPointError(f"{exc} at step {step} after steps of dt={dt}; "
                                 "check the CFL condition") from exc


def step(state: CellField, config: SchemeConfig, dt: float) -> CellField:
    """One explicit update of duration ``dt`` through the kernel of ``evolve``'s numpy
    march; a Lax-Friedrichs flux without a mesh ratio uses dt/dx."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    ratio = dt / state.grid.dx
    with np.errstate(invalid="ignore", over="ignore"):
        values = _advance(state.values, ratio, _fill_lambda(config.numflux, ratio), config)
    return _expose(state.grid, values, dt, 1)


def _schedule(dt: float, t_final: float, guard: float):
    """The time points of a march in steps of ``dt`` to ``t_final``, by the float
    operations of a step-by-step march, and the length of its last step."""
    times, t, dt_i = array("d", [0.0]), 0.0, dt
    while t < t_final - guard:
        dt_i = min(dt, t_final - t)
        t = min(t + dt_i, t_final)
        times.append(t)
    return np.array(times), dt_i


def evolve(initial: CellField, config: SchemeConfig, snapshot_times: Sequence[float] = (),
           track_tv: bool = False) -> Trajectory:
    """March to t_final with a fixed CFL step chosen from the initial range.

    The step is valid for all time because monotone schemes obey a maximum
    principle.  The final step is shortened to land exactly on t_final.
    Snapshots are recorded at the first time point at or after each requested
    time (``snapshot_times=evolve(initial, config).times`` keeps every step), and
    ``track_tv`` fills ``per_step_tv``.
    The steps run in blocks on one (2, n + 2) state array, through the compiled
    march if ``_kernels.load`` finds it and through ``_advance`` otherwise, with the
    same bits; a block of odd length swaps the rows.  Each state handed
    out, and the state at every 64th time point, is checked: a non-finite cell
    raises FloatingPointError naming the step (none is missed: each update
    subtracts from a cell's own value).
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

    guard = _TIME_GUARD * max(1.0, config.t_final)
    times, dt_last = _schedule(dt, config.t_final, guard)
    n_steps = times.size - 1
    # the step after which each snapshot is taken (those past the last step are not)
    snap_steps = [0 if t <= 0.0 else max(1, int(np.searchsorted(times, t - guard)))
                  for t in pending]
    # a block of steps ends at every 64th time point, at each snapshot and before a
    # short last step, whose mesh ratio differs
    ends = {*range(63, n_steps + 1, 64), *snap_steps, n_steps - (dt_last != dt), n_steps}

    cells = np.empty((2, v0.size + 2))  # two states with ghost cells; the state is row 0
    cells[0, 1:-1] = v0
    tv = np.empty(times.size) if track_tv else None
    if track_tv:
        tv[0] = _variation(v0, periodic)
    snaps = [Snapshot(0.0, initial) for s in snap_steps if s == 0]

    march = _numpy_march if _kernels.load() is None else _compiled_march
    state, done = initial, 0  # the current state as a CellField, or None until exposed
    with np.errstate(invalid="ignore", over="ignore"):
        for stop in sorted(s for s in ends if 0 < s <= n_steps):
            count, ratio = stop - done, (dt_last if stop == n_steps else dt) / dx
            march(cells, count, ratio, numflux, config,
                  None if tv is None else tv[done + 1:stop + 1])
            if count % 2:
                cells = cells[::-1]
            done, state = stop, None
            if (stop + 1) % 64 == 0:  # a blow-up raises within 64 steps
                state = _expose(grid, cells[0, 1:-1], dt, stop)
            while len(snaps) < len(snap_steps) and snap_steps[len(snaps)] == stop:
                state = state if state is not None else _expose(grid, cells[0, 1:-1], dt, stop)
                snaps.append(Snapshot(float(times[stop]), state))

    final = state if state is not None else _expose(grid, cells[0, 1:-1], dt, n_steps)
    return Trajectory(times=times, snapshots=tuple(snaps), per_step_tv=tv, dt_used=dt,
                      final=final)
