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


def _numpy_march(cells, cells_next, count: int, ratio: float, numflux: NumericalFluxSpec,
                 config: SchemeConfig, faces, tv: Optional[np.ndarray], tv_diff) -> None:
    """``count`` steps of ``_advance`` from ``cells`` into the two buffers alternately
    (the state ends in ``cells`` if ``count`` is even), and the TV of each new state
    into ``tv`` if given."""
    ratio = np.array(ratio)  # 0-d: numpy would convert a float operand on every step
    periodic = config.boundary is Boundary.PERIODIC
    for s in range(count):
        _advance(cells, cells_next[3], ratio, numflux, config, faces)
        cells, cells_next = cells_next, cells
        if tv is not None:
            tv[s] = _variation(cells[3], periodic, tv_diff)


def _compiled_march(cells, cells_next, count: int, ratio: float, numflux: NumericalFluxSpec,
                    config: SchemeConfig, faces, tv: Optional[np.ndarray], tv_diff) -> None:
    """``_numpy_march`` in one call of the C ``march``, with the same bits."""
    two_lam = 2.0 * numflux.lam if numflux.kind is NumFluxKind.LAX_FRIEDRICHS else 0.0
    _kernels.load().march(cells[0].ctypes.data, cells_next[0].ctypes.data, cells[3].size,
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
    n, ratio = state.grid.n_cells, dt / state.grid.dx
    cells, (*_, out), faces = _workspace(n)
    cells[3][...] = state.values
    with np.errstate(invalid="ignore", over="ignore"):
        _advance(cells, out, ratio, _fill_lambda(config.numflux, ratio), config, faces)
    return _expose(state.grid, out, dt, 1)


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
    The steps run in blocks, through the compiled march if ``_kernels.load`` finds
    it and through ``_advance`` otherwise, with the same bits.  Each state handed
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

    (cells, cells_next, faces), tv_diff = _workspace(v0.size), np.empty(v0.size)
    cells[3][...] = v0
    tv = np.empty(times.size) if track_tv else None
    if track_tv:
        tv[0] = _variation(v0, periodic, tv_diff)
    snaps = [Snapshot(0.0, initial) for s in snap_steps if s == 0]

    march = _numpy_march if _kernels.load() is None else _compiled_march
    state, done = initial, 0  # the current state as a CellField, or None until exposed
    with np.errstate(invalid="ignore", over="ignore"):
        for stop in sorted(s for s in ends if 0 < s <= n_steps):
            count, ratio = stop - done, (dt_last if stop == n_steps else dt) / dx
            march(cells, cells_next, count, ratio, numflux, config, faces,
                  None if tv is None else tv[done + 1:stop + 1], tv_diff)
            if count % 2:
                cells, cells_next = cells_next, cells
            done, state = stop, None
            if (stop + 1) % 64 == 0:  # a blow-up raises within 64 steps
                state = _expose(grid, cells[3], dt, stop)
            while len(snaps) < len(snap_steps) and snap_steps[len(snaps)] == stop:
                state = state if state is not None else _expose(grid, cells[3], dt, stop)
                snaps.append(Snapshot(float(times[stop]), state))

    return Trajectory(times=times, snapshots=tuple(snaps), per_step_tv=tv, dt_used=dt,
                      final=state if state is not None else _expose(grid, cells[3], dt, n_steps))
